"""Convex-body geometry: exact projections, support functions, Hausdorff
distance, normal-cone residuals, and the brute-force oracles the test suite
uses as independent ground truth.

Every projection is exact up to rounding: closed forms for balls and boxes, a
secular-equation root for ellipsoids, and for halfspace polytopes a dual
active-set method that terminates after finitely many steps.  Support
functions are closed forms, except for halfspace polytopes: a maximum over
the cached vertex array for d <= 3, one HiGHS LP per direction above that.

Bodies are immutable after construction.  All operations are pure functions
of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import ndtri

from .errors import (
    DimensionTooLarge,
    NonConvergence,
    NotFound,
    PointOutsideBody,
    SchemaError,
    ZeroDirection,
)

# Tolerance ladder: every projection is exact to rounding (closed forms, the
# ellipsoid's secular-equation root, the polytope's finite active-set method),
# far below every downstream test slack, so two projection errors never add
# up past 1e-9; membership checks allow MEMBERSHIP_TOL.
MEMBERSHIP_TOL = 1e-8


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    arr = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# scenario-document readers for the catalog classes' ``from_doc``: each
# rejection is a SchemaError naming the field's path ("" is the top level)
# ---------------------------------------------------------------------------

def _object(doc, path):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path or 'top level'}: expected a JSON object")
    return doc

def _need(doc, key, path):
    if key not in _object(doc, path):
        raise SchemaError(f"{path}.{key}: required field missing" if path else f"{key}: required field missing")
    return doc[key]

def _get(doc, key, path, default):
    return _object(doc, path).get(key, default)

def _num(value, path, positive=False, nonnegative=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number")
    if not abs(value) <= sys.float_info.max:    # NaN, infinities, integers past the float range
        raise SchemaError(f"{path}: must be finite")
    v = float(value)
    if positive and v <= 0:
        raise SchemaError(f"{path}: must be positive")
    if nonnegative and v < 0:
        raise SchemaError(f"{path}: must be >= 0")
    return v

def _vector(value, path, dim=None):
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{path}: expected a list of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: expected a list of numbers") from None
    if arr.ndim != 1:
        raise SchemaError(f"{path}: expected a flat list")
    if dim is not None and arr.size != dim:
        raise SchemaError(f"{path}: expected length {dim}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: entries must be finite")
    return arr

def _matrix(value, path, dim):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: expected a {dim}x{dim} matrix") from None
    if arr.shape != (dim, dim):
        raise SchemaError(f"{path}: expected shape ({dim}, {dim}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: entries must be finite")
    return arr

def _coeff_list(value, path, dim):
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{path}: expected a list of points")
    if len(value) == 0:
        return np.zeros((0, dim))
    rows = [_vector(v, f"{path}[{i}]", dim) for i, v in enumerate(value)]
    return np.array(rows)

def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor's ValueError raised as ``"<path>: <message>"``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise SchemaError(f"{path}: {err}" if path else str(err)) from None

def decode(types, doc, path, *args):
    """``cls.from_doc(doc, path, *args)`` for the class that ``types``, the
    table of the catalog family named by ``path``, maps the ``"type"`` to."""
    kind = _need(doc, "type", path)
    if not isinstance(kind, str) or kind not in types:
        raise SchemaError(f"{path}.type: unknown {path} type {kind!r}")
    return _built(path, types[kind].from_doc, doc, path, *args)


class ConvexBody:
    """Base class for the nonempty closed convex bounded body catalog."""

    dim: int

    def project(self, p) -> np.ndarray:
        """Euclidean projection of p onto the body (validates p)."""
        raise NotImplementedError

    def _project(self, p: np.ndarray) -> np.ndarray:
        """``project`` for a point already coerced by ``as_point``; the
        integrator's step kernel calls it directly."""
        raise NotImplementedError

    def _project_rows(self, P: np.ndarray) -> np.ndarray:
        """``_project`` of every row of an (m, d) stack; the batched step
        kernel calls it.  Bodies with a closed-form projection override this
        per-row loop with a vectorized form."""
        return np.array([self._project(p) for p in P]).reshape(P.shape)

    def support(self, direction) -> float:
        raise NotImplementedError

    def norm_bound(self, shift: np.ndarray) -> float:
        """Upper bound on ``max ||x + shift||`` over the body, for a (d,)
        array ``shift``; exact for balls, boxes and polytopes with d <= 3."""
        raise NotImplementedError

    def translate(self, shift) -> "ConvexBody":
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lower, upper) box guaranteed to contain the body."""
        raise NotImplementedError

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        """Vectorized algebraic membership for an (m, d) array of points."""
        raise NotImplementedError

    def sample_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k member points (not necessarily uniform)."""
        raise NotImplementedError


class Ball(ConvexBody):
    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        self.dim = self.center.size

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    @classmethod
    def from_doc(cls, doc, path, dim):
        center = _vector(_need(doc, "center", path), f"{path}.center", dim)
        return cls(center, _num(_need(doc, "radius", path), f"{path}.radius", nonnegative=True))

    def to_doc(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    def project(self, p):
        return self._project(as_point(p))

    def _project(self, p):
        v = p - self.center
        nv = math.sqrt(v.dot(v))
        if nv <= self.radius:
            return p.copy()
        if self.radius == 0.0:
            return self.center.copy()
        return self.center + (self.radius / nv) * v

    def _project_rows(self, P):
        V = P - self.center
        nv = np.sqrt(np.einsum("ij,ij->i", V, V))
        out = P.copy()
        outside = nv > self.radius
        out[outside] = self.center + (self.radius / nv[outside])[:, None] * V[outside]
        return out

    def support(self, direction):
        direction = as_point(direction)
        return float(self.center @ direction) + self.radius * float(np.linalg.norm(direction))

    def norm_bound(self, shift):
        return float(np.linalg.norm(self.center + shift)) + self.radius

    def translate(self, shift):
        return Ball(self.center + as_point(shift), self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def contains_mask(self, points):
        return np.linalg.norm(points - self.center, axis=1) <= self.radius + 1e-12

    def sample_points(self, k, rng):
        z = rng.standard_normal((k, self.dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = self.radius * rng.random(k) ** (1.0 / max(self.dim, 1))
        return self.center + z * r[:, None]


class Box(ConvexBody):
    def __init__(self, lower, upper):
        self.lower = as_point(lower)
        self.upper = as_point(upper)
        if self.lower.size != self.upper.size:
            raise ValueError("lower/upper dimension mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.size

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"

    @classmethod
    def from_doc(cls, doc, path, dim):
        return cls(_vector(_need(doc, "lower", path), f"{path}.lower", dim),
                   _vector(_need(doc, "upper", path), f"{path}.upper", dim))

    def to_doc(self):
        return {"type": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}

    def project(self, p):
        return self._project(as_point(p))

    def _project(self, p):
        return np.clip(p, self.lower, self.upper)

    _project_rows = _project    # np.clip broadcasts the bounds over the rows

    def support(self, direction):
        direction = as_point(direction)
        return float(np.sum(np.maximum(self.lower * direction, self.upper * direction)))

    def norm_bound(self, shift):
        # the farthest corner takes, per coordinate, the bound farther from 0
        lo, hi = self.lower + shift, self.upper + shift
        return math.sqrt(float(np.sum(np.maximum(lo * lo, hi * hi))))

    def translate(self, shift):
        shift = as_point(shift)
        return Box(self.lower + shift, self.upper + shift)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def contains_mask(self, points):
        return np.all((points >= self.lower - 1e-12) & (points <= self.upper + 1e-12), axis=1)

    def sample_points(self, k, rng):
        u = rng.random((k, self.dim))
        return self.lower + u * (self.upper - self.lower)


class HalfspacePolytope(ConvexBody):
    """Intersection of halfspaces ``<n_j, x> <= b_j``.

    Feasibility is certified at construction by ``interior_point`` (or, when
    it lies up to 1e-9 outside a row, by projecting it);
    ``bounding_radius`` promises the body lies in the origin-centered ball of
    that radius.  Row normals are normalized to unit length so tolerance
    checks are scale-free.  Degenerate (flat) bodies such as thickness-1e-6
    segments are accepted.
    """

    def __init__(self, rows, bounding_radius, interior_point):
        normals = []
        offsets = []
        for idx, (normal, offset) in enumerate(rows):
            n = as_point(normal)
            nn = float(np.linalg.norm(n))
            if nn == 0.0:
                raise ValueError(f"row {idx}: zero normal")
            normals.append(n / nn)
            offsets.append(float(offset) / nn)
        self.normals = np.array(normals, dtype=float)
        self.offsets = np.array(offsets, dtype=float)
        self.bounding_radius = float(bounding_radius)
        if self.bounding_radius <= 0:
            raise ValueError("bounding_radius must be positive")
        self.interior_point = as_point(interior_point)
        self.dim = self.normals.shape[1]
        if self.interior_point.size != self.dim:
            raise ValueError("interior_point dimension mismatch")
        viol = self.normals @ self.interior_point - self.offsets
        if np.max(viol) > 1e-9:
            raise ValueError(
                f"interior_point violates row {int(np.argmax(viol))} by {np.max(viol):.3e}"
            )
        if np.max(viol) > 0.0:
            # within the 1e-9 slack the rows may still admit no common point
            try:
                self._project(self.interior_point)
            except NonConvergence as err:
                raise ValueError(f"the body is empty: {err}") from None

    def __repr__(self):
        return f"HalfspacePolytope({len(self.offsets)} rows, R={self.bounding_radius})"

    @classmethod
    def from_doc(cls, doc, path, dim):
        rows_doc = _need(doc, "rows", path)
        if not isinstance(rows_doc, list) or not rows_doc:
            raise SchemaError(f"{path}.rows: expected a nonempty list")
        rows = []
        for i, row in enumerate(rows_doc):
            row_path = f"{path}.rows[{i}]"
            rows.append((_vector(_need(row, "normal", row_path), f"{row_path}.normal", dim),
                         _num(_need(row, "offset", row_path), f"{row_path}.offset")))
        radius = _num(_need(doc, "bounding_radius", path), f"{path}.bounding_radius", positive=True)
        interior = _vector(_need(doc, "interior_point", path), f"{path}.interior_point", dim)
        return cls(rows, radius, interior)

    def to_doc(self):
        return {
            "type": "polytope",
            "rows": [{"normal": normal.tolist(), "offset": float(offset)}
                     for normal, offset in zip(self.normals, self.offsets)],
            "bounding_radius": self.bounding_radius,
            "interior_point": self.interior_point.tolist(),
        }

    def project(self, p):
        """Exact Euclidean projection by the Goldfarb-Idnani dual active-set
        method with identity Hessian (Math. Programming 27, 1983).

        Starting from the unconstrained minimizer p, each full step makes the
        most violated row active and strictly raises the dual objective; a
        partial step drops an active row whose multiplier reached zero.  No
        active set recurs, so the method terminates after finitely many steps
        with the exact KKT point; the result is the projection of p onto the
        affine hull of the final active rows, feasible to ``1e-11 * scale``
        with ``scale = 1 + ||p|| + max |b_j|``.  Rows that no point satisfies
        within rounding raise NonConvergence naming them; construction uses
        this to reject an interior point up to 1e-9 outside an empty body.
        """
        return self._project(as_point(p))

    def _project(self, p):
        normals, offsets = self.normals, self.offsets
        viol = normals @ p - offsets
        if float(np.max(viol)) <= 0.0:
            return p.copy()
        tol = 1e-11 * (1.0 + math.sqrt(p.dot(p)) + float(np.max(np.abs(offsets))))
        m, d = normals.shape
        # full steps never repeat an active set (a linearly independent row
        # subset) and at most d partial steps separate two full steps
        budget = (d + 1) * sum(math.comb(m, k) for k in range(1, min(m, d) + 1))
        x = p.copy()
        active = []          # linearly independent rows, all tight at x
        u = np.zeros(0)      # x = p - normals[active].T @ u - u_q * normals[q]
        q, u_q = int(np.argmax(viol)), 0.0       # the row being added
        for _ in range(budget):
            n_q = normals[q]
            # z: the part of n_q orthogonal to the active normals; moving x
            # along -z keeps every active row tight
            if active:
                n_act = normals[active]
                r = np.linalg.solve(n_act @ n_act.T, n_act @ n_q)
                z = n_q - n_act.T @ r
            else:
                r = np.zeros(0)
                z = n_q
            t_drop, drop = math.inf, -1
            for k in np.flatnonzero(r > 0.0):
                if u[k] / r[k] < t_drop:
                    t_drop, drop = float(u[k] / r[k]), int(k)
            zz = float(z @ z)
            t_full = float(n_q @ x - offsets[q]) / zz if zz > 0.0 else math.inf
            t = min(t_drop, t_full)
            if t == math.inf:
                # n_q is a nonpositive combination of the active normals, so
                # these rows admit no common point within rounding
                raise NonConvergence(
                    f"rows {sorted(active + [q])} admit no common point",
                    residual=float(np.max(normals @ x - offsets)),
                    budget=budget,
                )
            x = x - t * z
            u = u - t * r
            u_q += t
            if t_drop < t_full:
                del active[drop]
                u = np.delete(u, drop)
                continue
            active.append(q)
            u = np.append(u, u_q)
            viol = normals @ x - offsets
            q, u_q = int(np.argmax(viol)), 0.0
            if viol[q] <= tol:
                n_act = normals[active]
                return p - n_act.T @ np.linalg.solve(n_act @ n_act.T, n_act @ p - offsets[active])
        raise NonConvergence(
            f"active-set projection found no feasible point (step bound {budget})",
            residual=float(np.max(normals @ x - offsets)),
            budget=budget,
        )

    @cached_property
    def _vertices(self) -> np.ndarray:
        """(k, d) vertex array for d <= 3: the solution of every d-row
        subset with a nonsingular matrix that satisfies every row to
        ``1e-12 * (1 + max |b_j|)``."""
        normals, offsets = self.normals, self.offsets
        subsets = np.array(list(itertools.combinations(range(len(offsets)), self.dim)),
                           dtype=int).reshape(-1, self.dim)
        mats = normals[subsets]
        regular = np.linalg.det(mats) != 0.0
        verts = np.linalg.solve(mats[regular], offsets[subsets[regular]][..., None])[..., 0]
        tol = 1e-12 * (1.0 + float(np.max(np.abs(offsets))))
        verts = verts[np.all(verts @ normals.T - offsets <= tol, axis=1)]
        if len(verts) == 0:
            raise NonConvergence("polytope has no vertex: its rows admit no bounded common point")
        return verts

    def support(self, direction):
        """Support function ``max <x, direction>`` over the body: a maximum
        over the cached vertex array for d <= 3 (enumerated on the first
        call), one HiGHS LP per call above that."""
        direction = as_point(direction)
        if float(np.linalg.norm(direction)) == 0.0:
            raise ZeroDirection("support direction must be nonzero")
        if self.dim <= 3:
            return float(np.max(self._vertices @ direction))
        # The body is promised to lie in the bounding ball, so the box bound
        # below never cuts it; it only guards the LP against unbounded rays.
        r = self.bounding_radius + 1.0
        res = linprog(
            -direction,
            A_ub=self.normals,
            b_ub=self.offsets,
            bounds=[(-r, r)] * self.dim,
            method="highs",
        )
        if res.status != 0:
            raise NonConvergence(f"support LP failed with status {res.status}")
        return float(-res.fun)

    def norm_bound(self, shift):
        if self.dim <= 3:
            # a convex function of x peaks at a vertex
            return float(np.max(np.linalg.norm(self._vertices + shift, axis=1)))
        return self.bounding_radius + float(np.linalg.norm(shift))

    def translate(self, shift):
        shift = as_point(shift)
        rows = [
            (self.normals[j], self.offsets[j] + float(self.normals[j] @ shift))
            for j in range(self.normals.shape[0])
        ]
        return HalfspacePolytope(
            rows,
            self.bounding_radius + float(np.linalg.norm(shift)),
            self.interior_point + shift,
        )

    def bounding_box(self):
        r = self.bounding_radius
        return np.full(self.dim, -r), np.full(self.dim, r)

    def contains_mask(self, points):
        return np.all(points @ self.normals.T <= self.offsets + 1e-12, axis=1)

    def sample_points(self, k, rng):
        # projected box samples: members of the body, not uniform.
        lo, hi = self.bounding_box()
        raw = lo + rng.random((k, self.dim)) * (hi - lo)
        return np.array([self.project(x) for x in raw])


class Ellipsoid(ConvexBody):
    """Body ``(x - c)^T M^{-1} (x - c) <= 1`` for symmetric positive-definite M."""

    def __init__(self, center, shape_matrix):
        self.center = as_point(center)
        m = np.asarray(shape_matrix, dtype=float)
        if m.shape != (self.center.size, self.center.size):
            raise ValueError("shape_matrix must be d x d")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("shape_matrix must be symmetric")
        evals, evecs = np.linalg.eigh(m)
        if np.min(evals) <= 0:
            raise ValueError("shape_matrix must be positive definite")
        self.shape_matrix = m
        self._axes_sq = evals            # semi-axis lengths squared
        self._basis = evecs              # columns: principal directions
        self.dim = self.center.size

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()})"

    @classmethod
    def from_doc(cls, doc, path, dim):
        center = _vector(_need(doc, "center", path), f"{path}.center", dim)
        matrix = _matrix(_need(doc, "shape_matrix", path), f"{path}.shape_matrix", dim)
        return _built(f"{path}.shape_matrix", cls, center, matrix)   # every check is on M

    def to_doc(self):
        return {"type": "ellipsoid", "center": self.center.tolist(),
                "shape_matrix": self.shape_matrix.tolist()}

    def project(self, p):
        return self._project(as_point(p))

    def _project(self, p):
        y = self._basis.T @ (p - self.center)
        if np.sum(y * y / self._axes_sq) <= 1.0:
            return p.copy()

        # Euclidean projection: y_i(t) = y_i * a_i^2 / (a_i^2 + t) with the
        # multiplier t > 0 solving the monotone secular equation g(t) = 0.
        a2 = self._axes_sq

        def g(t):
            return float(np.sum(y * y * a2 / (a2 + t) ** 2)) - 1.0

        t_hi = float(np.sqrt(np.sum(y * y * a2)))  # g(t_hi) <= 0 by construction
        t_star = brentq(g, 0.0, t_hi + 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        y_proj = y * a2 / (a2 + t_star)
        return self.center + self._basis @ y_proj

    def support(self, direction):
        direction = as_point(direction)
        return float(self.center @ direction) + float(
            np.sqrt(direction @ self.shape_matrix @ direction)
        )

    def norm_bound(self, shift):
        # the body lies in the ball about its center of the longest semi-axis
        return float(np.linalg.norm(self.center + shift)) + math.sqrt(float(np.max(self._axes_sq)))

    def translate(self, shift):
        return Ellipsoid(self.center + as_point(shift), self.shape_matrix)

    def bounding_box(self):
        half = np.sqrt(np.diag(self.shape_matrix))
        return self.center - half, self.center + half

    def contains_mask(self, points):
        y = (points - self.center) @ self._basis
        return np.sum(y * y / self._axes_sq, axis=1) <= 1.0 + 1e-12

    def sample_points(self, k, rng):
        ball = Ball(np.zeros(self.dim), 1.0).sample_points(k, rng)
        scale = self._basis @ np.diag(np.sqrt(self._axes_sq)) @ self._basis.T
        return self.center + ball @ scale.T


BODY_TYPES = {"ball": Ball, "box": Box, "polytope": HalfspacePolytope, "ellipsoid": Ellipsoid}


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def project(p, body: ConvexBody) -> np.ndarray:
    """Euclidean projection of p onto the body.

    Closed form for Ball/Box, secular-equation solve for Ellipsoid, a finite
    dual active-set method for HalfspacePolytope.  The result q satisfies the
    variational inequality <p - q, c - q> <= tol for every c in the body.
    """
    return body.project(p)


def distance(p, body: ConvexBody) -> float:
    """``||p - project(p, body)||``; zero iff p is a member (within tolerance)."""
    p = as_point(p)
    return float(np.linalg.norm(p - body.project(p)))


def support(body: ConvexBody, direction) -> float:
    """Support function ``max_{c in body} <c, direction>``."""
    direction = as_point(direction)
    if float(np.linalg.norm(direction)) == 0.0:
        raise ZeroDirection("support direction must be nonzero")
    return body.support(direction)


def sphere_directions(dim: int, n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions, prefix-stable in n.

    dim 1 alternates the two signs, dim 2 walks the golden angle, higher
    dimensions push a Halton sequence through the inverse normal CDF and
    normalize.  Prefix stability makes max-over-directions quantities
    monotone nondecreasing in n.
    """
    if n < 1:
        raise ValueError("need n >= 1 directions")
    if dim == 1:
        return np.array([[1.0] if k % 2 == 0 else [-1.0] for k in range(n)])
    if dim == 2:
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        theta = 2.0 * np.pi * ((np.arange(n) * golden) % 1.0)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:dim]
    u = np.empty((n, dim))
    for j, base in enumerate(primes):
        u[:, j] = _halton_column(n, base)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


def _halton_column(n, base):
    out = np.zeros(n)
    for i in range(n):
        f, r, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def hausdorff(body1: ConvexBody, body2: ConvexBody, n_dirs: int) -> float:
    """Hausdorff distance of two convex compacts via support differences.

    Exact in the n_dirs -> infinity limit; monotone nondecreasing in n_dirs
    because the direction sequence is prefix-stable.
    """
    if n_dirs < 16:
        raise ValueError("need n_dirs >= 16")
    if body1.dim != body2.dim:
        raise ValueError("dimension mismatch")
    dirs = sphere_directions(body1.dim, n_dirs)
    best = 0.0
    for v in dirs:
        gap = abs(body1.support(v) - body2.support(v))
        if gap > best:
            best = gap
    return best


def normal_cone_residual(body: ConvexBody, x, xi, tol=MEMBERSHIP_TOL) -> float:
    """``support(body, xi) - <xi, x>``; <= tol certifies xi in the normal cone at x."""
    x = as_point(x)
    xi = as_point(xi)
    if distance(x, body) > tol:
        raise PointOutsideBody("normal cone is empty outside the body")
    if float(np.linalg.norm(xi)) == 0.0:
        return 0.0
    return body.support(xi) - float(xi @ x)


def project_oracle(p, body: ConvexBody, step: float) -> np.ndarray:
    """Brute-force projection: argmin over a membership-filtered grid.

    Independent of project(); used as ground truth in tests.  The grid is
    anchored at integer multiples of step, so the returned distance exceeds
    the true one by at most step*sqrt(d) (grid covering radius).
    """
    p = as_point(p)
    if body.dim > 3:
        raise DimensionTooLarge("grid oracle limited to d <= 3")
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = body.bounding_box()
    axes = [
        np.arange(np.floor(lo[i] / step) - 1, np.ceil(hi[i] / step) + 2) * step
        for i in range(body.dim)
    ]
    total = int(np.prod([len(a) for a in axes]))
    if total > 60_000_000:
        raise ValueError("grid too large; use a coarser step")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    mask = body.contains_mask(pts)
    if not np.any(mask):
        raise ValueError("grid misses the body; use a finer step")
    members = pts[mask]
    dist_sq = np.sum((members - p) ** 2, axis=1)
    return members[int(np.argmin(dist_sq))]


# ---------------------------------------------------------------------------
# counterexample search: projections onto nearby sets can separate by much
# more than the Hausdorff distance between the sets
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleInstance:
    """Probe point u and bodies C, D with ||proj(u,C)-proj(u,D)|| > d_H(C,D)."""

    u: np.ndarray
    c_body: ConvexBody
    d_body: ConvexBody
    lhs: float
    rhs: float


SEGMENT_THICKNESS = 1e-6


def segment_body(a, b, thickness=SEGMENT_THICKNESS) -> HalfspacePolytope:
    """Planar segment [a, b] as a degenerate 4-row halfspace body."""
    a = as_point(a)
    b = as_point(b)
    mid = 0.5 * (a + b)
    axis = b - a
    length = float(np.linalg.norm(axis))
    if length == 0.0:
        raise ValueError("segment endpoints coincide")
    axis = axis / length
    normal = np.array([-axis[1], axis[0]])
    half = 0.5 * length
    rows = [
        (normal, float(normal @ mid) + thickness / 2.0),
        (-normal, float(-normal @ mid) + thickness / 2.0),
        (axis, float(axis @ mid) + half),
        (-axis, float(-axis @ mid) + half),
    ]
    return HalfspacePolytope(rows, float(np.linalg.norm(mid)) + half + 1.0, mid)


def _segment_project(u, a, b):
    axis = b - a
    t = float((u - a) @ axis) / float(axis @ axis)
    return a + min(1.0, max(0.0, t)) * axis


def _segment_hausdorff(a1, b1, a2, b2):
    # distance-to-a-segment is convex along a segment, so the sup sits at an
    # endpoint; exact for segment pairs
    d = 0.0
    for p in (a1, b1):
        d = max(d, float(np.linalg.norm(p - _segment_project(p, a2, b2))))
    for p in (a2, b2):
        d = max(d, float(np.linalg.norm(p - _segment_project(p, a1, b1))))
    return d


def projection_gap_search(seed: int, budget: int) -> CounterexampleInstance:
    """Randomized search for a pair of planar segments violating the naive
    projection-vs-Hausdorff bound by a factor >= 1.1.

    Candidates are screened with exact segment arithmetic; the returned
    instance is re-measured with the official project() and hausdorff()
    operations on the degenerate polytope bodies.
    """
    if budget < 1000:
        raise ValueError("budget must be >= 1000")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        center = rng.uniform(-0.5, 0.5, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        half_len = rng.uniform(0.5, 2.0)
        axis = np.array([np.cos(angle), np.sin(angle)])
        a1, b1 = center - half_len * axis, center + half_len * axis

        tilt = rng.uniform(0.02, 0.25) * (1 if rng.random() < 0.5 else -1)
        shift = rng.normal(0.0, 0.02, size=2)
        scale = rng.uniform(0.9, 1.1)
        axis2 = np.array([np.cos(angle + tilt), np.sin(angle + tilt)])
        c2 = center + shift
        a2, b2 = c2 - scale * half_len * axis2, c2 + scale * half_len * axis2

        normal = np.array([-axis[1], axis[0]])
        along = rng.uniform(-0.5, 0.5) * half_len
        height = rng.uniform(1.5, 6.0) * (1 if rng.random() < 0.5 else -1)
        u = center + along * axis + height * normal

        lhs_cheap = float(
            np.linalg.norm(_segment_project(u, a1, b1) - _segment_project(u, a2, b2))
        )
        rhs_cheap = _segment_hausdorff(a1, b1, a2, b2)
        if rhs_cheap < 1e-6 or lhs_cheap < 1.15 * rhs_cheap:
            continue

        c_body = segment_body(a1, b1)
        d_body = segment_body(a2, b2)
        lhs = float(np.linalg.norm(c_body.project(u) - d_body.project(u)))
        rhs = hausdorff(c_body, d_body, 256)
        if rhs > 0.0 and lhs >= 1.1 * rhs:
            return CounterexampleInstance(u=u, c_body=c_body, d_body=d_body, lhs=lhs, rhs=rhs)
    raise NotFound(f"no projection-gap instance found in {budget} trials")
