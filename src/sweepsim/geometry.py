"""Convex-body geometry: exact projections, support functions, Hausdorff
distance, normal-cone residuals, and the projection-gap counterexample search.

Projections are closed forms for balls and boxes and a monotone Newton root
of the secular equation for ellipsoids, exact up to rounding.  For halfspace
polytopes a dual active-set method ends after finitely many steps, feasible
to FEASIBILITY_TOL; on the plane, where the step kernels project, the
polytope's float form is a closed form instead, exact up to rounding: the
foot on one edge or one vertex.  Support functions are closed forms, except
for halfspace polytopes: a maximum over the vertex array, enumerated in every
dimension on first use.  Support functions and norm bounds are written once per body, as
row forms over a (k, d) stack; the scalar methods are their one-row case.
The step kernel's batched projection, ``_project_cols``, maps (d, m) columns.
A ball or an ellipsoid also gives its boundary as the zero set of a smooth
function (``_level_set``), which the equilibrium analysis reads.

Bodies are immutable after construction: their arrays, given and derived,
are read-only copies (an in-place write raises ValueError), rebinding a field
raises FrozenInstanceError, and derived forms are built once, on first use.
All operations are pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NonConvergence,
    NonSmoothBody,
    NotFound,
    PointOutsideBody,
    SchemaError,
    ZeroDirection,
)

# Tolerance ladder: projections are exact to rounding (closed forms, the
# ellipsoid's secular-equation root by monotone Newton) or, for the polytope's
# active-set method, feasible to FEASIBILITY_TOL, far below every downstream
# test slack, so two projection errors never add up past 1e-9; membership
# checks allow MEMBERSHIP_TOL.
MEMBERSHIP_TOL = 1e-8

# Newton steps allowed on the ellipsoid's secular equation.  From its lower
# bound the iteration rises monotonically to the root; in the reciprocal form
# used here it took at most 10 steps on random ellipsoids with d <= 8, axis
# ratios up to 1e6 and points from 1e-12 to 1e12 outside, relative.
SECULAR_BUDGET = 60

# The polytope projection stops once no row is violated by more than
# FEASIBILITY_TOL * (1 + ||p|| + max_j |b_j|).
FEASIBILITY_TOL = 1e-11

# A polytope with m rows in d dimensions finds its vertices among the
# C(m, d) row subsets; construction rejects a body with more subsets than
# this.  They are enumerated SUBSET_BLOCK at a time, so memory stays bounded
# by the block: C(22, 8) = 319,770 subsets take 0.3-0.7 s on a 2-vCPU VM.
VERTEX_SUBSET_BUDGET = 10**6
SUBSET_BLOCK = 2**14


def as_point(p, dim=None, name="point") -> np.ndarray:
    """Coerce to a finite 1-D float array, which must have ``dim`` entries
    when ``dim`` is given (the error names it ``name``)."""
    arr = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"{name} has {arr.size} entries; the scenario has dimension {dim}")
    return arr


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``, for a field that derived forms read;
    a non-finite entry raises ValueError."""
    arr = np.array(a, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    arr.flags.writeable = False
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

def _numeric(value):
    """True when ``value`` is a JSON number, or nested lists of them: numpy
    would otherwise read numeric strings and booleans as numbers."""
    if isinstance(value, (list, tuple)):
        return all(_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)

def _vector(value, path, dim=None):
    if not isinstance(value, (list, tuple)) or not _numeric(value):
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
    if not _numeric(value):
        raise SchemaError(f"{path}: expected a {dim}x{dim} matrix")
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


def _corner_norms(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``max ||x||`` over each box [lower_k, upper_k] of two (k, d) stacks:
    the farthest corner takes, per coordinate, the bound farther from 0."""
    return np.sqrt(np.sum(np.maximum(lower * lower, upper * upper), axis=1))


def _subset_blocks(m: int, k: int):
    """The k-subsets of range(m) in lexicographic order, as (b, k) index
    arrays of at most SUBSET_BLOCK rows."""
    subsets = itertools.combinations(range(m), k)
    while block := list(itertools.islice(subsets, SUBSET_BLOCK)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


def _cofactor_rows(A: np.ndarray) -> np.ndarray:
    """The gradient of ``x -> det([A_k; x])`` for every (d - 1, d) matrix of
    a (b, d - 1, d) stack: a vector orthogonal to the rows of A_k, nonzero
    iff they are independent (for d = 3 the cross product of the two rows)."""
    d = A.shape[2]
    return np.stack([(-1.0) ** (d + j + 1) * np.linalg.det(np.delete(A, j, axis=2))
                     for j in range(d)], axis=1)


def _norms(X: np.ndarray) -> np.ndarray:
    """``||x||`` of every row of a (k, d) stack: each row is one dot product,
    the same one ``np.linalg.norm`` takes of a single vector."""
    return np.sqrt(np.vecdot(X, X))


def _secular_exhausted(residual, budget) -> NonConvergence:
    return NonConvergence("ellipsoid secular equation: Newton budget exhausted",
                          residual=residual, budget=budget)


def _secular_root(pairs) -> float:
    """The multiplier t > 0 of the ellipsoid projection, for the pairs
    ``(w_i^2, a_i^2)`` of a point outside the body.

    The projection is ``y_i(t) = y_i * a_i^2 / (a_i^2 + t)`` where
    ``s(t) = sum_i w_i^2 / (a_i^2 + t)^2 = 1``, w_i = a_i y_i.
    ``g(t) = 1 - s(t)^(-1/2)`` is convex and decreasing (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 4, 1983), so Newton from a point below the
    root rises monotonically to it.  Each term alone gives
    ``t* >= a_i |y_i| - a_i^2``.  The loop runs on Python floats: d is
    small, and numpy calls on d-vectors cost more.
    """
    t = max(0.0, max(math.sqrt(w2) - a2 for w2, a2 in pairs))
    for _ in range(SECULAR_BUDGET):
        s = q = 0.0                          # s(t), and -s'(t) / 2
        for w2, a2 in pairs:
            r = 1.0 / (a2 + t)
            term = w2 * r * r
            s += term
            q += term * r
        step = s * (math.sqrt(s) - 1.0) / q   # -g(t) / g'(t)
        if s <= 1.0 or not t + step > t:      # at the root, to rounding
            return t
        t += step
    raise _secular_exhausted(s - 1.0, SECULAR_BUDGET)


class ConvexBody:
    """Base class for the nonempty closed convex bounded body catalog."""

    dim: int

    def __setattr__(self, name, value):
        # derived forms are cached from the fields, so a field is set once
        if name in self.__dict__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def project(self, p) -> np.ndarray:
        """Euclidean projection of p onto the body (validates p): ``_project``
        of the coerced point.

        Closed form for Ball/Box, monotone Newton on the secular equation for
        Ellipsoid, a finite dual active-set method for HalfspacePolytope (its
        ``_project`` states how exact that is).  The result q satisfies the
        variational inequality <p - q, c - q> <= tol for every c in the body.
        Each catalog class binds this function under its own name, where the
        benchmark's tracer patches it.
        """
        return self._project(as_point(p, self.dim))

    def _project(self, p: np.ndarray) -> np.ndarray:
        """``project`` for a point already coerced by ``as_point``; the
        integrator's step kernel calls it directly."""
        raise NotImplementedError

    def _project_cols(self, P: np.ndarray) -> np.ndarray:
        """``_project`` of every column of a coordinate-major (d, m) stack;
        the batched step kernel calls it.  Bodies with a closed-form
        projection override this per-point loop with a vectorized form.  On
        d = 2 the loop maps the planar float form over the points, so a point
        projects to the same floats as the planar kernel's sweep."""
        if P.shape[0] == 2:
            project = self._planar_form
            return np.array([project(x, y) for x, y in zip(*P.tolist())]).T.reshape(P.shape)
        return np.array([self._project(p) for p in P.T]).T.reshape(P.shape)

    @cached_property
    def _planar_form(self):
        """``_project`` of a planar body as a map of two floats to a pair of
        floats, on Python floats (a NumPy call on a 2-vector costs more than
        its arithmetic); built once, on first use, and read by the planar
        step kernel.  Balls, boxes and ellipsoids keep the algorithm, checks
        and budgets of ``_project``; the polytope's is a closed form."""
        raise NotImplementedError

    def support(self, direction) -> float:
        """Support function ``max <x, direction>`` over the body, for a nonzero
        direction: the one-row case of ``_support_rows``.  Each catalog class
        binds this function under its own name, where the benchmark's tracer
        patches it."""
        direction = as_point(direction, self.dim, "direction")
        if float(np.linalg.norm(direction)) == 0.0:
            raise ZeroDirection("support direction must be nonzero")
        return float(self._support_rows(direction[None, :])[0])

    def _support_rows(self, D: np.ndarray) -> np.ndarray:
        """``support`` along every row of a (k, d) stack of directions; each
        value depends on its own row only, so a prefix of the stack gives
        the same values."""
        raise NotImplementedError

    def norm_bound(self, shift) -> float:
        """Upper bound on ``max ||x + shift||`` over the body, for a (d,)
        array ``shift``: the one-row case of ``_norm_bound_rows``."""
        return float(self._norm_bound_rows(as_point(shift, self.dim, "shift")[None, :])[0])

    def _norm_bound_rows(self, S: np.ndarray) -> np.ndarray:
        """``norm_bound`` of every row of a (k, d) stack of shifts; exact for
        balls, boxes and polytopes, the ball of the longest semi-axis for
        ellipsoids."""
        raise NotImplementedError

    def translate(self, shift) -> "ConvexBody":
        """The body moved by ``shift``, built from the shifted fields."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lower, upper) box guaranteed to contain the body."""
        raise NotImplementedError

    def sample_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k member points (not necessarily uniform)."""
        raise NotImplementedError

    def _level_set(self):
        """(h, grad_h) on float points, grad_h also on (m, d) row stacks: the boundary
        is h = 0 with h > 0 outside.  A body with corners raises NonSmoothBody."""
        raise NonSmoothBody(f"{type(self).__name__} has no smooth boundary oracle")


class Ball(ConvexBody):
    def __init__(self, center, radius):
        self.center = _frozen(as_point(center))
        self.radius = float(radius)
        if not 0.0 <= self.radius < math.inf:
            raise ValueError("radius must be finite and >= 0")
        self.dim = self.center.size

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    @classmethod
    def from_doc(cls, doc, path, dim):
        center = _vector(_need(doc, "center", path), f"{path}.center", dim)
        return cls(center, _num(_need(doc, "radius", path), f"{path}.radius", nonnegative=True))

    def to_doc(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    project = ConvexBody.project

    def _project(self, p):
        v = p - self.center
        nv = math.sqrt(v.dot(v))
        if nv <= self.radius:
            return p.copy()
        if self.radius == 0.0:
            return self.center.copy()
        return self.center + (self.radius / nv) * v

    def _project_cols(self, P):
        center = self.center[:, None]
        V = P - center
        nv = np.sqrt(np.einsum("ij,ij->j", V, V))
        if nv.min(initial=math.inf) > self.radius:    # the masked scatter below, without the copies
            return center + (self.radius / nv) * V
        outside = nv > self.radius
        out = P.copy()
        out[:, outside] = center + (self.radius / nv[outside]) * V[:, outside]
        return out

    @cached_property
    def _planar_form(self):
        (cx, cy), radius = self.center.tolist(), self.radius

        def project(x, y):
            vx, vy = x - cx, y - cy
            nv = math.sqrt(vx * vx + vy * vy)
            if nv <= radius:
                return x, y
            if radius == 0.0:
                return cx, cy
            scale = radius / nv
            return cx + scale * vx, cy + scale * vy
        return project

    support = ConvexBody.support

    def _support_rows(self, D):
        return np.vecdot(D, self.center) + self.radius * _norms(D)

    def _norm_bound_rows(self, S):
        return _norms(self.center + S) + self.radius

    def translate(self, shift):
        return Ball(self.center + as_point(shift), self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def sample_points(self, k, rng):
        z = rng.standard_normal((k, self.dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = self.radius * rng.random(k) ** (1.0 / max(self.dim, 1))
        return self.center + z * r[:, None]

    def _level_set(self):
        c, r = self.center, self.radius

        def h(x):
            v = x - c
            return float(v @ v) - r * r

        def grad_h(x):
            return 2.0 * (x - c)
        return h, grad_h


class Box(ConvexBody):
    def __init__(self, lower, upper):
        self.lower = _frozen(as_point(lower))
        self.upper = _frozen(as_point(upper))
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

    project = ConvexBody.project

    def _project(self, p):
        return np.clip(p, self.lower, self.upper)

    def _project_cols(self, P):
        return np.clip(P, self.lower[:, None], self.upper[:, None])

    @cached_property
    def _planar_form(self):
        (lx, ly), (hx, hy) = self.lower.tolist(), self.upper.tolist()

        def project(x, y):
            # min(max(x, lx), hx) without the builtin calls: the same
            # comparisons in the same order, so ties, signed zeros and NaN
            # come out as the builtins give them
            if lx > x:
                x = lx
            if hx < x:
                x = hx
            if ly > y:
                y = ly
            if hy < y:
                y = hy
            return x, y
        return project

    support = ConvexBody.support

    def _support_rows(self, D):
        return np.sum(np.maximum(self.lower * D, self.upper * D), axis=1)

    def _norm_bound_rows(self, S):
        return _corner_norms(self.lower + S, self.upper + S)

    def translate(self, shift):
        shift = as_point(shift)
        return Box(self.lower + shift, self.upper + shift)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def sample_points(self, k, rng):
        u = rng.random((k, self.dim))
        return self.lower + u * (self.upper - self.lower)


class HalfspacePolytope(ConvexBody):
    """Intersection of halfspaces ``<n_j, x> <= b_j``.

    Feasibility is certified at construction by ``interior_point`` (or, when
    it lies up to 1e-9 outside a row, by projecting it);
    ``bounding_radius`` promises the body lies in the origin-centered ball of
    that radius.  Construction rejects a body whose C(m, d) row subsets
    exceed VERTEX_SUBSET_BUDGET, rejects unbounded rows, and checks the
    promise against the largest vertex norm, unless rows with normals +-e_i
    bound every coordinate within a box whose far corner lies in the ball.
    Row normals are normalized to unit length so tolerance checks are
    scale-free.  Degenerate (flat) bodies such as thickness-1e-6 segments
    are accepted.
    """

    def __init__(self, rows, bounding_radius, interior_point):
        normals, offsets = [], []
        for idx, (normal, offset) in enumerate(rows):
            n = as_point(normal)
            nn = float(np.linalg.norm(n))
            if nn == 0.0:
                raise ValueError(f"row {idx}: zero normal")
            normals.append(n / nn)
            offsets.append(float(offset) / nn)
        self.normals = _frozen(normals)
        self.offsets = _frozen(offsets)
        self.bounding_radius = float(bounding_radius)
        if not 0.0 < self.bounding_radius < math.inf:
            raise ValueError("bounding_radius must be finite and positive")
        self.interior_point = _frozen(as_point(interior_point))
        self.dim = self.normals.shape[1]
        if self.interior_point.size != self.dim:
            raise ValueError("interior_point dimension mismatch")
        count = math.comb(len(self.offsets), self.dim)
        if count > VERTEX_SUBSET_BUDGET:
            raise ValueError(f"{len(self.offsets)} rows in {self.dim} dimensions give {count} "
                             f"vertex subsets, above the budget of {VERTEX_SUBSET_BUDGET}")
        # the feasibility scale, and the step bound of ``_project``: no active set
        # (independent rows) recurs, and at most d partial steps come between full ones
        self._b_max = float(np.max(np.abs(self.offsets)))
        m, d = len(self.offsets), self.dim
        self._budget = (d + 1) * sum(math.comb(m, k) for k in range(1, min(m, d) + 1))
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
        self._check_bounded()

    def _check_bounded(self):
        """Raise ValueError unless the rows bound the body within
        ``bounding_radius``."""
        normals, d = self.normals, self.dim
        # a row with normal +-e_i bounds that extent by its offset (a one-row
        # dual certificate); when these bounds exist and their box lies in
        # the ball, the body is bounded, the promise holds, and the vertices
        # wait until first use
        dirs = np.vstack([np.eye(d), -np.eye(d)])
        along = np.all(normals[None, :, :] == dirs[:, None, :], axis=2)
        reach = np.min(np.where(along, self.offsets, np.inf), axis=1)   # max <x, dirs[k]>
        if _corner_norms(-reach[None, d:], reach[None, :d])[0] <= self.bounding_radius:
            return
        # the body is bounded iff its recession cone {y : N y <= 0} is {0},
        # that is iff no candidate edge of the cone -- the null direction of
        # d - 1 independent rows, either sign -- satisfies every row.  A line
        # in the cone is the null direction of any d - 1 independent rows, or,
        # when the rows span fewer than d - 1 dimensions, leaves no candidate.
        spanned = False
        for subsets in _subset_blocks(len(normals), d - 1):
            edges = _cofactor_rows(normals[subsets])
            edges = edges[np.linalg.norm(edges, axis=1) > 1e-9]
            spanned = spanned or len(edges) > 0
            edges = np.vstack([edges, -edges])
            free = np.all(edges @ normals.T <= 1e-12, axis=1)
            if np.any(free):
                ray = edges[int(np.argmax(free))]
                raise ValueError(f"the body is unbounded along {(ray / np.linalg.norm(ray)).tolist()}")
        if not spanned:
            raise ValueError(f"the body is unbounded: its rows span fewer than {d - 1} dimensions")
        far = float(np.max(np.linalg.norm(self._vertices, axis=1)))
        if far > self.bounding_radius * (1.0 + 1e-12):
            raise ValueError(f"bounding_radius {self.bounding_radius!r} is below the body's "
                             f"extent {far!r}")

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

    project = ConvexBody.project

    def _project(self, p):
        """``project`` by the Goldfarb-Idnani dual active-set method with
        identity Hessian (Math. Programming 27, 1983).

        Starting from the unconstrained minimizer p, each full step makes the
        most violated row active and strictly raises the dual objective; a
        partial step drops an active row whose multiplier reached zero.  No
        active set recurs, so the method ends after finitely many steps.  It
        stops once no row is violated by more than ``FEASIBILITY_TOL *
        scale``, ``scale = 1 + ||p|| + max |b_j|``, and returns the
        projection of p onto the affine hull of the active rows.  That bounds
        the row violation, not the distance to the exact projection, and
        nearly parallel rows magnify the one into the other: in the box
        ``|x|, |y| <= 2`` with the rows ``y <= 1`` and ``(+-sin 1e-6,
        cos 1e-6) . x <= 1``, p = (0.50016, 1e6) goes to (-0.49984,
        1.0000005), 0.5 from the exact (5.0e-7, 1.0), and no row is violated
        by more than 1.0e-6 of the 1.0e-5 allowed.  Rows that no point
        satisfies within rounding raise NonConvergence naming them;
        construction uses this to reject an interior point up to 1e-9
        outside an empty body.
        """
        normals, offsets = self.normals, self.offsets
        viol = normals @ p - offsets
        if float(np.max(viol)) <= 0.0:
            return p.copy()
        tol = FEASIBILITY_TOL * (1.0 + math.sqrt(p.dot(p)) + self._b_max)
        budget = self._budget
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
                raise NonConvergence(f"rows {sorted(active + [q])} admit no common point",
                                     residual=float(np.max(normals @ x - offsets)), budget=budget)
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
        raise NonConvergence(f"active-set projection found no feasible point (step bound {budget})",
                             residual=float(np.max(normals @ x - offsets)), budget=budget)

    @cached_property
    def _planar_form(self):
        """The projection in closed form on Python floats: a point that meets
        every row comes back unchanged, any other goes to the foot on one edge
        or to one vertex.  The edges are the rows whose line meets the body,
        in the order of their normals' angles, each clipped to an interval of
        ``s = (-n_y, n_x) . x`` by every row in exact rational arithmetic.
        Linear tests on s, walking from the most violated edge, pick the edge
        or the vertex; squared distances could not tell apart the corners of
        a thin body seen from afar.  The form has no failure path; rows that
        meet only within rounding keep the NumPy form and its errors."""
        from fractions import Fraction     # imports decimal: 2 ms, so here
        rows = np.column_stack((self.normals, self.offsets)).tolist()
        exact = [tuple(map(Fraction, row)) for row in rows]
        edges, loose = [], []
        for (nx, ny, b), (fx, fy, fb) in zip(rows, exact):
            nn, lo, hi = fx * fx + fy * fy, -math.inf, math.inf
            for mx, my, c in exact:
                # along the line, a row reads s (m . t) <= c |n|^2 - b (m . n)
                slope, bound = fx * my - fy * mx, c * nn - fb * (fx * mx + fy * my)
                if slope > 0:
                    hi = min(hi, bound / slope)
                elif slope < 0:
                    lo = max(lo, bound / slope)
                elif bound < 0:             # a parallel row leaves none of the line
                    break
            else:
                if lo <= hi:
                    end = (float((fb * fx - hi * fy) / nn), float((fb * fy + hi * fx) / nn))
                    # the normal's angle in [0, 2 pi), ordered exactly: its half-plane, then -cot
                    angle = (fy < 0 or fy == 0 and fx < 0, -fx / fy if fy else -math.inf)
                    edges.append((angle, (nx, ny, b, float(lo), float(hi)), end))
                    continue
            loose.append((nx, ny, b))
        if not edges:       # rows that meet only within rounding keep the NumPy form
            return lambda x, y: tuple(self._project(np.array([x, y])).tolist())
        _, edges, ends = zip(*sorted(edges))    # ends[i]: where edge i meets edge i + 1
        k, inf = len(edges), math.inf
        ordered = [edge[:3] for edge in edges] + loose      # the edges first

        def project(px, py):
            q, worst = 0, -inf
            for j, (nx, ny, b) in enumerate(ordered):
                v = nx * px + ny * py - b
                if v > worst:
                    q, worst = j, v
            if worst <= 0.0:
                return px, py
            if q >= k:      # a row whose line misses the body: start from the most violated edge
                q = max(range(k), key=lambda j: edges[j][0] * px + edges[j][1] * py - edges[j][2])
            nx, ny, b, lo, hi = edges[q]
            s = nx * py - ny * px
            if s < lo or s > hi:    # walk back or on toward the point; negative indices wrap
                back = s < lo
                for i in range(q - 1, q - k, -1) if back else range(q + 1 - k, q):
                    nx, ny, b, lo, hi = edges[i]
                    s = nx * py - ny * px
                    if back and s >= hi or not back and s <= lo:
                        return ends[i] if back else ends[i - 1]     # shared with the last edge walked
                    if lo <= s <= hi:
                        break
                else:           # beyond every edge, as around a body that is one point
                    return ends[q - back]
            v = nx * px + ny * py - b
            return px - v * nx, py - v * ny
        return project

    @cached_property
    def _vertices(self) -> np.ndarray:
        """(k, d) vertex array: the solution of every d-row subset with a
        nonsingular matrix that satisfies every row to
        ``1e-12 * (1 + max |b_j|)``, the subsets taken SUBSET_BLOCK at a
        time.  A vertex on more than d rows solves several subsets; exact
        repeats are dropped, the first of each kept in place."""
        normals, offsets = self.normals, self.offsets
        tol = 1e-12 * (1.0 + self._b_max)
        found = [np.zeros((0, self.dim))]
        for subsets in _subset_blocks(len(offsets), self.dim):
            mats = normals[subsets]
            regular = np.linalg.det(mats) != 0.0
            verts = np.linalg.solve(mats[regular], offsets[subsets[regular]][..., None])[..., 0]
            found.append(verts[np.all(verts @ normals.T - offsets <= tol, axis=1)])
        verts = np.concatenate(found)
        if len(verts) == 0:
            raise NonConvergence("polytope has no vertex: its rows admit no bounded common point")
        first = np.unique(verts, axis=0, return_index=True)[1]
        return _frozen(verts[np.sort(first)])

    support = ConvexBody.support

    def _support_rows(self, D):
        """A maximum over the cached vertex array, one matrix-vector product
        per direction, as a single call."""
        return np.max(self._vertices @ D[:, :, None], axis=(1, 2))

    def _norm_bound_rows(self, S):
        # a convex function of x peaks at a vertex
        return np.max(np.linalg.norm(self._vertices + S[:, None, :], axis=2), axis=1)

    def translate(self, shift):
        # a translate of a checked body needs no new check; its planar form
        # is built from the moved rows on first use
        shift = as_point(shift)
        offsets = _frozen(self.offsets + self.normals @ shift)
        moved = object.__new__(type(self))      # filled in place: its fields refuse rebinding
        moved.__dict__.update(self.__dict__, offsets=offsets, _b_max=float(np.max(np.abs(offsets))),
                              bounding_radius=self.bounding_radius + float(np.linalg.norm(shift)),
                              interior_point=_frozen(self.interior_point + shift),
                              _vertices=_frozen(self._vertices + shift))
        moved.__dict__.pop("_planar_form", None)
        return moved

    def bounding_box(self):
        r = self.bounding_radius
        return np.full(self.dim, -r), np.full(self.dim, r)

    def sample_points(self, k, rng):
        # projected box samples: members of the body, not uniform.
        lo, hi = self.bounding_box()
        raw = lo + rng.random((k, self.dim)) * (hi - lo)
        return np.array([self.project(x) for x in raw])


class Ellipsoid(ConvexBody):
    """Body ``(x - c)^T M^{-1} (x - c) <= 1`` for symmetric positive-definite M."""

    def __init__(self, center, shape_matrix):
        self.center = _frozen(as_point(center))
        m = _frozen(shape_matrix)
        if m.shape != (self.center.size, self.center.size):
            raise ValueError("shape_matrix must be d x d")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("shape_matrix must be symmetric")
        evals, evecs = np.linalg.eigh(m)
        if np.min(evals) <= 0:
            raise ValueError("shape_matrix must be positive definite")
        self.shape_matrix = m
        self._axes_sq = _frozen(evals)   # semi-axis lengths squared
        self._basis = _frozen(evecs)     # columns: principal directions
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

    project = ConvexBody.project

    def _project(self, p):
        y = self._basis.T @ (p - self.center)
        if np.sum(y * y / self._axes_sq) <= 1.0:
            return p.copy()
        a2 = self._axes_sq
        t = _secular_root(list(zip((y * y * a2).tolist(), a2.tolist())))
        return self.center + self._basis @ (y * a2 / (a2 + t))

    @cached_property
    def _planar_form(self):
        """``_project`` on Python floats, with the principal basis and the
        squared semi-axes taken out once.  The Newton solve of
        ``_secular_root`` is unrolled over the two axes: the same start,
        sums, stop rule and budget (``SECULAR_BUDGET`` as the form is
        built), and the same error, on the same floats."""
        (cx, cy), (a0, a1) = self.center.tolist(), self._axes_sq.tolist()
        (b00, b01), (b10, b11) = self._basis.tolist()
        sqrt, budget = math.sqrt, SECULAR_BUDGET

        def project(x, y):
            vx, vy = x - cx, y - cy
            y0, y1 = b00 * vx + b10 * vy, b01 * vx + b11 * vy
            if y0 * y0 / a0 + y1 * y1 / a1 <= 1.0:
                return x, y
            w0, w1 = y0 * y0 * a0, y1 * y1 * a1
            # max(0.0, max(sqrt(w0) - a0, sqrt(w1) - a1)), comparison by
            # comparison, so ties and NaN pick what the builtins pick
            t, lead = sqrt(w0) - a0, sqrt(w1) - a1
            if lead > t:
                t = lead
            if not t > 0.0:
                t = 0.0
            for _ in range(budget):
                r0, r1 = 1.0 / (a0 + t), 1.0 / (a1 + t)
                t0, t1 = w0 * r0 * r0, w1 * r1 * r1
                # both terms are >= +0, so these equal the sums from 0.0
                s = t0 + t1
                step = s * (sqrt(s) - 1.0) / (t0 * r0 + t1 * r1)
                if s <= 1.0 or not t + step > t:
                    break
                t += step
            else:
                raise _secular_exhausted(s - 1.0, budget)
            z0, z1 = y0 * a0 / (a0 + t), y1 * a1 / (a1 + t)
            return cx + (b00 * z0 + b01 * z1), cy + (b10 * z0 + b11 * z1)
        return project

    support = ConvexBody.support

    def _support_rows(self, D):
        DM = (D[:, None, :] @ self.shape_matrix)[:, 0, :]      # one vector-matrix product per row
        return np.vecdot(D, self.center) + np.sqrt(np.vecdot(DM, D))

    def _norm_bound_rows(self, S):
        # the body lies in the ball about its center of the longest semi-axis
        return _norms(self.center + S) + math.sqrt(float(np.max(self._axes_sq)))

    def translate(self, shift):
        return Ellipsoid(self.center + as_point(shift), self.shape_matrix)

    def bounding_box(self):
        half = np.sqrt(np.diag(self.shape_matrix))
        return self.center - half, self.center + half

    def sample_points(self, k, rng):
        ball = Ball(np.zeros(self.dim), 1.0).sample_points(k, rng)
        scale = self._basis @ np.diag(np.sqrt(self._axes_sq)) @ self._basis.T
        return self.center + ball @ scale.T

    def _level_set(self):
        c, m_inv = self.center, np.linalg.inv(self.shape_matrix)

        def h(x):
            v = x - c
            return float(v @ m_inv @ v) - 1.0

        def grad_h(x):     # on a point, or row by row on an (m, d) stack: the same bits
            return 2.0 * np.matvec(m_inv, x - c)
        return h, grad_h


BODY_TYPES = {"ball": Ball, "box": Box, "polytope": HalfspacePolytope, "ellipsoid": Ellipsoid}


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def distance(p, body: ConvexBody) -> float:
    """``||p - body.project(p)||``; zero iff p is a member (within tolerance)."""
    p = as_point(p, body.dim)
    return float(np.linalg.norm(p - body.project(p)))


def sphere_directions(dim: int, n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions, prefix-stable in n.

    dim 1 alternates the two signs, dim 2 walks the golden angle, higher
    dimensions push a Halton sequence through the inverse normal CDF and
    normalize.  Prefix stability makes max-over-directions quantities
    monotone nondecreasing in n.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1 directions")
    if not 1 <= dim <= 8:
        raise ValueError("dim must lie in 1..8")
    if dim == 1:
        return np.array([[1.0] if k % 2 == 0 else [-1.0] for k in range(n)])
    if dim == 2:
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        theta = 2.0 * np.pi * ((np.arange(n) * golden) % 1.0)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    from statistics import NormalDist     # imports fractions and decimal: 3 ms, so here
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:dim]
    u = np.empty((n, dim))
    for j, base in enumerate(primes):
        u[:, j] = _halton_column(n, base)
    inv_cdf = NormalDist().inv_cdf
    z = np.array([inv_cdf(v) for v in np.clip(u, 1e-12, 1.0 - 1e-12).ravel()]).reshape(n, dim)
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
    n_dirs = operator.index(n_dirs)
    if n_dirs < 16:
        raise ValueError("need n_dirs >= 16")
    if body1.dim != body2.dim:
        raise ValueError("dimension mismatch")
    dirs = sphere_directions(body1.dim, n_dirs)
    return float(np.max(np.abs(body1._support_rows(dirs) - body2._support_rows(dirs))))


def normal_cone_residual(body: ConvexBody, x, xi) -> float:
    """``body.support(xi) - <xi, x>``; <= MEMBERSHIP_TOL certifies xi in the normal cone at x."""
    x = as_point(x, body.dim)
    xi = as_point(xi, body.dim, "xi")
    if distance(x, body) > MEMBERSHIP_TOL:
        raise PointOutsideBody("normal cone is empty outside the body")
    if float(np.linalg.norm(xi)) == 0.0:
        return 0.0
    return body.support(xi) - float(xi @ x)


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


def segment_body(a, b) -> HalfspacePolytope:
    """Planar segment [a, b] as a degenerate 4-row halfspace body, SEGMENT_THICKNESS thick."""
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
        (normal, float(normal @ mid) + SEGMENT_THICKNESS / 2.0),
        (-normal, float(-normal @ mid) + SEGMENT_THICKNESS / 2.0),
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
    instance is re-measured with ``body.project`` and ``hausdorff`` on the
    degenerate polytope bodies.
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
    raise NotFound(f"no projection-gap instance found in {budget} trials", budget=budget)
