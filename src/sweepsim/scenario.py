"""Problem data: the moving constraint ``A + a(t, lam) + c(x, lam)``, the
perturbation ``f(t, x, lam)``, declared Lipschitz/variation constants, and
the derived objects (contraction fixed point, invariant region).

Signal catalogs are deliberately small so the declared constants can be
guaranteed by construction: drifts are Fourier sums, piecewise-linear paths,
or square-root cusps; contractions are zero, affine, or radial-tanh maps;
forces are affine plus bounded-slope tanh terms plus a Fourier forcing.

Each catalog class has two forms of its map: an array form over a time grid
(``base_values``, ``base_variations``) or a (d, m) stack of states
(``base_cols``, ``cols``, ``state_cols``), and a planar float form.  A value
at one point (the ``eval_*`` functions) is one row or column of the array form.

The homotopy parameter ``lam`` enters through a per-signal coupling: with
``LINEAR`` coupling the signal is multiplied by lam, so lam = 0 removes the
drift/contraction/forcing and leaves the constant-set autonomous process.

The scenario JSON format lives on the classes: each one reads and checks its
own object with ``from_doc`` and writes it with ``to_doc``; ``*_TYPES`` map a
document's ``"type"`` names to classes.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import NonConvergence, SchemaError, TimeOutOfRange
from .geometry import (
    BODY_TYPES,
    ConvexBody,
    _built,
    _coeff_list,
    _frozen,
    _get,
    _matrix,
    _need,
    _num,
    _vector,
    as_point,
    decode,
)

CONSTANT = "constant"
LINEAR = "linear"
OMEGA_GRID = 256    # grid times of the invariant ball's sup over [0, T]
PICARD_MARGIN = 2   # sweeps allowed beyond a Picard iteration's a-priori count
FIXED_POINT_TOL = 1e-12     # stop threshold of contraction_fixed_point
_set = object.__setattr__      # how a frozen dataclass's __post_init__ stores a field


def _coupling_factor(coupling: str, lam: float) -> float:
    if coupling == CONSTANT:
        return 1.0
    if coupling == LINEAR:
        return float(lam)
    raise ValueError(f"unknown coupling {coupling!r}")


# ---------------------------------------------------------------------------
# drift catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fourier:
    """Sum over harmonics k>=1 of cos_coeffs[k-1]*cos(2 pi k t / period) and
    sin_coeffs[k-1]*sin(2 pi k t / period).  The dimension is the arrays' column
    count: (0, d) arrays give the zero signal in dimension d, a bare [] 0."""

    cos_coeffs: np.ndarray        # (K, d)
    sin_coeffs: np.ndarray        # (K, d)
    period: float
    coupling: str = CONSTANT

    def __post_init__(self):
        _set(self, "cos_coeffs", self._coerce(self.cos_coeffs))
        _set(self, "sin_coeffs", self._coerce(self.sin_coeffs))
        _set(self, "period", float(self.period))
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be finite and positive")
        _coupling_factor(self.coupling, 0.0)      # rejects an unknown coupling
        d_cos, d_sin = self.cos_coeffs.shape[1], self.sin_coeffs.shape[1]
        if d_cos and d_sin and d_cos != d_sin:
            raise ValueError("cos/sin coefficient dimension mismatch")

    @staticmethod
    def _coerce(coeffs):
        arr = _frozen(coeffs)
        return np.atleast_2d(arr) if arr.size else arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 0)

    @classmethod
    def from_doc(cls, doc, path, dim, period):     # period: used when the doc gives none
        return cls(_coeff_list(_get(doc, "cos_coeffs", path, []), f"{path}.cos_coeffs", dim),
                   _coeff_list(_get(doc, "sin_coeffs", path, []), f"{path}.sin_coeffs", dim),
                   _num(_get(doc, "period", path, period), f"{path}.period", positive=True),
                   _get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "fourier", "cos_coeffs": self.cos_coeffs.tolist(),
                "sin_coeffs": self.sin_coeffs.tolist(), "period": self.period,
                "lambda_coupling": self.coupling}

    @property
    def dim(self):
        return max(self.cos_coeffs.shape[1], self.sin_coeffs.shape[1])

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """The signal at every t in ``times``, one row per time."""
        out = np.zeros((times.size, max(self.dim, 1)))
        w = 2.0 * np.pi / self.period
        for k in range(self.cos_coeffs.shape[0]):
            out += np.cos(w * (k + 1) * times)[:, None] * self.cos_coeffs[k]
        for k in range(self.sin_coeffs.shape[0]):
            out += np.sin(w * (k + 1) * times)[:, None] * self.sin_coeffs[k]
        return out

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """A bound on the variation over each interval between consecutive
        times: var <= integral of ||a'|| <= sum_k ||coeff_k|| * w_k * (t - s)."""
        w = 2.0 * np.pi / self.period
        rate = 0.0
        for k in range(self.cos_coeffs.shape[0]):
            rate += float(np.linalg.norm(self.cos_coeffs[k])) * w * (k + 1)
        for k in range(self.sin_coeffs.shape[0]):
            rate += float(np.linalg.norm(self.sin_coeffs[k])) * w * (k + 1)
        return rate * np.diff(times)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through (times[i], values[i]); exact variation."""

    times: np.ndarray
    values: np.ndarray            # (len(times), d)
    coupling: str = CONSTANT

    def __post_init__(self):
        _set(self, "times", _frozen(self.times).ravel())
        _set(self, "values", np.atleast_2d(_frozen(self.values)))
        if self.times.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape[0] != self.times.size:
            raise ValueError("one value per knot required")
        _coupling_factor(self.coupling, 0.0)      # rejects an unknown coupling

    @classmethod
    def from_doc(cls, doc, path, dim, _period):
        return cls(_vector(_need(doc, "times", path), f"{path}.times"),
                   _coeff_list(_need(doc, "values", path), f"{path}.values", dim),
                   _get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "piecewise_linear", "times": self.times.tolist(), "values": self.values.tolist(),
                "lambda_coupling": self.coupling}

    @property
    def dim(self):
        return self.values.shape[1]

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """The path at every t in ``times``, one row per time."""
        knots = self.times
        outside = (times < knots[0] - 1e-12) | (times > knots[-1] + 1e-12)
        if np.any(outside):
            raise TimeOutOfRange(
                f"t={times[outside][0]} outside knot range [{knots[0]}, {knots[-1]}]")
        t = np.clip(times, knots[0], knots[-1])
        idx = np.minimum(np.searchsorted(knots, t, side="right") - 1, knots.size - 2)
        t0, t1 = knots[idx], knots[idx + 1]
        frac = ((t - t0) / (t1 - t0))[:, None]
        return self.values[idx] + frac * (self.values[idx + 1] - self.values[idx])

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """The exact variation over each interval between consecutive times:
        the arc length of the partial knot segments at either end, plus the
        whole segments in between from the cumulative arc length."""
        knots = self.times
        s, t = times[:-1], times[1:]
        span = np.diff(knots)
        seg = np.array([math.sqrt(d.dot(d)) for d in np.diff(self.values, axis=0)])
        last = span.size - 1
        first_seg = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, last)
        last_seg = np.clip(np.searchsorted(knots, t, side="left") - 1, 0, last)

        def partial(k):
            overlap = np.minimum(t, knots[k + 1]) - np.maximum(s, knots[k])
            return seg[k] * np.maximum(overlap, 0.0) / span[k]

        arc = np.concatenate(([0.0], np.cumsum(seg)))
        inner = arc[np.maximum(last_seg, first_seg + 1)] - arc[first_seg + 1]
        tail = np.where(last_seg > first_seg, partial(last_seg), 0.0)
        return partial(first_seg) + inner + tail


@dataclass(frozen=True)
class SqrtCusp:
    """``a(t) = sqrt(|t - cusp_time|) * direction``: BV-continuous but not
    Lipschitz at the cusp."""

    direction: np.ndarray
    cusp_time: float
    coupling: str = CONSTANT

    def __post_init__(self):
        _set(self, "direction", _frozen(as_point(self.direction)))
        _set(self, "cusp_time", float(self.cusp_time))
        if not abs(self.cusp_time) < math.inf:
            raise ValueError("cusp_time must be finite")
        _coupling_factor(self.coupling, 0.0)      # rejects an unknown coupling

    @classmethod
    def from_doc(cls, doc, path, dim, _period):
        return cls(_vector(_need(doc, "direction", path), f"{path}.direction", dim),
                   _num(_need(doc, "cusp_time", path), f"{path}.cusp_time"),
                   _get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "sqrt_cusp", "direction": self.direction.tolist(),
                "cusp_time": self.cusp_time, "lambda_coupling": self.coupling}

    @property
    def dim(self):
        return self.direction.size

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """The signal at every t in ``times``, one row per time."""
        return np.sqrt(np.abs(times - self.cusp_time))[:, None] * self.direction

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """The exact variation over each interval between consecutive times;
        an interval holding the cusp goes down to it and back up."""
        scale = float(np.linalg.norm(self.direction))
        root = np.sqrt(np.abs(times - self.cusp_time))
        rs, rt = root[:-1], root[1:]
        across = (times[:-1] <= self.cusp_time) & (self.cusp_time <= times[1:])
        return np.where(across, scale * (rs + rt), scale * np.abs(rt - rs))


DriftSpec = Fourier | PiecewiseLinear | SqrtCusp
DRIFT_TYPES = {"fourier": Fourier, "piecewise_linear": PiecewiseLinear, "sqrt_cusp": SqrtCusp}


def eval_drift(spec: DriftSpec, t: float, lam: float) -> np.ndarray:
    """Moving-set translation a(t, lam): one row of ``base_values``."""
    return _coupling_factor(spec.coupling, lam) * spec.base_values(np.array([t], dtype=float))[0]


def drift_variation_bound(spec: DriftSpec, s: float, t: float) -> float:
    """Upper bound on var(a(., lam), [s, t]) uniform over lam in [0, 1]."""
    if t < s:
        raise TimeOutOfRange("need s <= t")
    # LINEAR coupling scales by lam <= 1
    return float(spec.base_variations(np.array([s, t], dtype=float))[0])


# ---------------------------------------------------------------------------
# contraction catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroContraction:
    L2: float = 1e-6   # convention: an arbitrarily small declared constant
    coupling = CONSTANT    # not a field: a zero map is zero under either coupling
    dim = 0                # not a field: zero in any dimension

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(L2=L2)

    def to_doc(self):
        return {"type": "zero"}

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        return np.zeros_like(X)

    def planar_base(self):
        """The planar form of ``base_cols``: None, the map is state-free."""
        return None


@dataclass(frozen=True)
class AffineContraction:
    matrix: np.ndarray
    offset: np.ndarray
    L2: float = 0.0    # 0.0 sentinel: filled with the operator norm
    coupling: str = CONSTANT

    def __post_init__(self):
        _set(self, "matrix", np.atleast_2d(_frozen(self.matrix)))
        _set(self, "offset", _frozen(as_point(self.offset)))
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("matrix must be d x d for a d-vector offset")
        if self.L2 == 0.0:
            _set(self, "L2", float(np.linalg.norm(self.matrix, 2)) + 1e-12)
        if not 0.0 < self.L2 < 1.0:
            raise ValueError("declared L2 must lie in (0, 1)")
        _coupling_factor(self.coupling, 0.0)      # rejects an unknown coupling

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(_matrix(_need(doc, "matrix", path), f"{path}.matrix", dim),
                   _vector(_get(doc, "offset", path, [0.0] * dim), f"{path}.offset", dim),
                   L2=L2, coupling=_get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "affine", "matrix": self.matrix.tolist(), "offset": self.offset.tolist(),
                "lambda_coupling": self.coupling}

    @property
    def dim(self):
        return self.offset.size

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        return self.matrix @ X + self.offset[:, None]

    def planar_base(self):
        """The planar form of ``base_cols``: (x, y) to a pair of floats."""
        (m00, m01), (m10, m11) = self.matrix.tolist()
        o0, o1 = self.offset.tolist()
        return lambda x, y: (m00 * x + m01 * y + o0, m10 * x + m11 * y + o1)


@dataclass(frozen=True)
class TanhRadialContraction:
    """``c(x) = gain * tanh(||x - center||) * unit(x - center)``; gain sets
    the Lipschitz scale."""

    gain: float
    center: np.ndarray
    L2: float = 0.0
    coupling: str = CONSTANT

    def __post_init__(self):
        _set(self, "gain", float(self.gain))
        _set(self, "center", _frozen(as_point(self.center)))
        if not abs(self.gain) < math.inf:
            raise ValueError("gain must be finite")
        if self.L2 == 0.0:
            _set(self, "L2", abs(self.gain) + 1e-12)
        if not 0.0 < self.L2 < 1.0:
            raise ValueError("declared L2 must lie in (0, 1)")
        _coupling_factor(self.coupling, 0.0)      # rejects an unknown coupling

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(_num(_need(doc, "gain", path), f"{path}.gain"),
                   _vector(_need(doc, "center", path), f"{path}.center", dim),
                   L2=L2, coupling=_get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "tanh_radial", "gain": self.gain, "center": self.center.tolist(),
                "lambda_coupling": self.coupling}

    @property
    def dim(self):
        return self.center.size

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        V = X - self.center[:, None]
        r = np.sqrt(np.einsum("ij,ij->j", V, V))
        scale = np.zeros_like(r)
        np.divide(self.gain * np.tanh(r), r, out=scale, where=r != 0.0)
        return scale * V

    def planar_base(self):
        """The planar form of ``base_cols``: (x, y) to a pair of floats."""
        gain = self.gain
        cx, cy = self.center.tolist()

        def base(x, y):
            vx, vy = x - cx, y - cy
            r = math.sqrt(vx * vx + vy * vy)
            if r == 0.0:
                return 0.0, 0.0
            scale = gain * math.tanh(r) / r
            return scale * vx, scale * vy
        return base


ContractionSpec = ZeroContraction | AffineContraction | TanhRadialContraction
CONTRACTION_TYPES = {"zero": ZeroContraction, "affine": AffineContraction,
                     "tanh_radial": TanhRadialContraction}


def eval_contraction(spec: ContractionSpec, x, lam: float) -> np.ndarray:
    """c(x, lam): column 0 of ``base_cols``."""
    return _coupling_factor(spec.coupling, lam) * spec.base_cols(as_point(x)[:, None])[:, 0]


def _budget(gap: float, stop: float, L2: float) -> int:
    """The a-priori sweep budget of an L2-contraction after a first move of ``gap`` > ``stop``."""
    return 1 + math.ceil(math.log(stop / gap) / math.log(L2)) + PICARD_MARGIN


@np.errstate(over="ignore")     # an overflowing move raises NonConvergence below, unwarned
def contraction_fixed_point(spec: ContractionSpec, lam: float, dim: int | None = None) -> np.ndarray:
    """Unique solution of c(xi, lam) = xi by Picard iteration from 0 to FIXED_POINT_TOL, within
    the a-priori ``_budget`` of its first move (1 step if that move is not finite)."""
    dim = dim or spec.dim
    if not dim:
        raise ValueError("dim required for a zero contraction")
    factor = _coupling_factor(spec.coupling, lam)
    xi = np.zeros((dim, 1))     # one column of ``base_cols``
    for k in itertools.count(1):
        nxt = factor * spec.base_cols(xi)
        gap = float(np.linalg.norm(nxt - xi))
        if gap <= FIXED_POINT_TOL:
            return nxt[:, 0]
        if k == 1:
            budget = _budget(gap, FIXED_POINT_TOL, spec.L2) if gap < math.inf else 1
        if k >= budget:
            raise NonConvergence(f"contraction fixed point still moving after {budget} steps, its a-priori"
                                 " budget; declared L2 likely invalid", residual=gap, budget=budget)
        xi = nxt


# ---------------------------------------------------------------------------
# force catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TanhTerm:
    gain: float
    direction: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        _set(self, "gain", float(self.gain))
        _set(self, "direction", _frozen(as_point(self.direction)))
        _set(self, "center", _frozen(as_point(self.center)))
        if not abs(self.gain) < math.inf:
            raise ValueError("gain must be finite")
        if self.center.size != self.direction.size:
            raise ValueError("direction and center dimension mismatch")

    @classmethod
    def from_doc(cls, doc, path, dim):
        return cls(_num(_need(doc, "gain", path), f"{path}.gain"),
                   _vector(_need(doc, "direction", path), f"{path}.direction", dim),
                   _vector(_need(doc, "center", path), f"{path}.center", dim))

    def to_doc(self):
        return {"gain": self.gain, "direction": self.direction.tolist(),
                "center": self.center.tolist()}

    def cols(self, X: np.ndarray) -> np.ndarray:
        """``gain tanh(direction . (x - center)) direction`` of every column of a
        coordinate-major (d, m) stack."""
        return self.gain * np.tanh(self.direction @ (X - self.center[:, None])) * self.direction[:, None]

    def planar_value(self):
        """The planar form of ``cols``: (x, y) to a pair of floats."""
        gain = self.gain
        dx, dy = self.direction.tolist()
        cx, cy = self.center.tolist()

        def term(x, y):
            scale = gain * math.tanh(dx * (x - cx) + dy * (y - cy))
            return scale * dx, scale * dy
        return term


@dataclass(frozen=True)
class ForceSpec:
    """``f(t, x, lam) = linear_part x + offset + sum tanh_terms + forcing(t, lam)``.

    Globally Lipschitz in x by construction; Lf declares the constant."""

    linear_part: np.ndarray
    offset: np.ndarray
    tanh_terms: tuple[TanhTerm, ...] = ()
    forcing: Fourier | None = None
    Lf: float = 0.0    # 0.0 sentinel: filled from the catalog bound

    def __post_init__(self):
        _set(self, "linear_part", np.atleast_2d(_frozen(self.linear_part)))
        _set(self, "offset", _frozen(as_point(self.offset)))
        _set(self, "tanh_terms", tuple(self.tanh_terms))
        if self.Lf == 0.0:
            lf = float(np.linalg.norm(self.linear_part, 2))
            for term in self.tanh_terms:
                lf += abs(term.gain) * float(term.direction @ term.direction)
            _set(self, "Lf", lf + 1e-12)
        if not 0.0 <= self.Lf < math.inf:
            raise ValueError("Lf must be finite and >= 0")
        if self.linear_part.shape != (self.dim, self.dim):
            raise ValueError("linear_part must be d x d for a d-vector offset")
        if any(term.direction.size != self.dim for term in self.tanh_terms):
            raise ValueError("tanh term dimension mismatch")
        if self.forcing is not None and self.forcing.dim not in (0, self.dim):
            raise ValueError("forcing dimension mismatch")

    @classmethod
    def from_doc(cls, doc, path, dim, Lf, period):     # period: the forcing's default
        linear = _matrix(_need(doc, "linear_part", path), f"{path}.linear_part", dim)
        offset = _vector(_need(doc, "offset", path), f"{path}.offset", dim)
        terms_doc = _get(doc, "tanh_terms", path, [])
        if not isinstance(terms_doc, list):
            raise SchemaError(f"{path}.tanh_terms: expected a list")
        terms = [TanhTerm.from_doc(term, f"{path}.tanh_terms[{i}]", dim)
                 for i, term in enumerate(terms_doc)]
        forcing_doc = _get(doc, "forcing", path, None)
        forcing = None if forcing_doc is None else _built(
            f"{path}.forcing", Fourier.from_doc, forcing_doc, f"{path}.forcing", dim, period)
        return cls(linear, offset, terms, forcing, Lf=Lf)

    def to_doc(self):
        doc = {"linear_part": self.linear_part.tolist(), "offset": self.offset.tolist(),
               "tanh_terms": [term.to_doc() for term in self.tanh_terms]}
        if self.forcing is not None:
            doc["forcing"] = self.forcing.to_doc()
            del doc["forcing"]["type"]     # the forcing is always Fourier
        return doc

    @property
    def dim(self):
        return self.offset.size

    def state_cols(self, X: np.ndarray) -> np.ndarray:
        """The time-independent part ``linear_part x + offset + sum tanh_terms``
        of every column of a coordinate-major (d, m) stack."""
        out = self.linear_part @ X + self.offset[:, None]
        for term in self.tanh_terms:
            out = out + term.cols(X)
        return out

    def planar_state(self):
        """The planar form of ``state_cols``: (x, y) to a pair of floats."""
        (m00, m01), (m10, m11) = self.linear_part.tolist()
        o0, o1 = self.offset.tolist()
        terms = [term.planar_value() for term in self.tanh_terms]
        if not terms:
            return lambda x, y: (m00 * x + m01 * y + o0, m10 * x + m11 * y + o1)

        def state(x, y):
            fx, fy = m00 * x + m01 * y + o0, m10 * x + m11 * y + o1
            for term in terms:
                tx, ty = term(x, y)
                fx, fy = fx + tx, fy + ty
            return fx, fy
        return state


def eval_force(spec: ForceSpec, t: float, x, lam: float) -> np.ndarray:
    """f(t, x, lam): column 0 of ``state_cols``, plus the forcing's row at t."""
    out = spec.state_cols(as_point(x)[:, None])[:, 0]
    if spec.forcing is not None:
        out = out + eval_drift(spec.forcing, t, lam)
    return out


# ---------------------------------------------------------------------------
# the full datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepingScenario:
    """The full datum of a sweeping process.

    A scenario is immutable after construction: its derived objects are
    cached on it (``run`` keeps its last resolved time grids in ``_grids``,
    a body its vertices and planar form), so its arrays and its parts' are
    read-only copies, and rebinding a field of it or of a catalog spec raises
    FrozenInstanceError: build a new one, e.g. with ``dataclasses.replace``.
    """

    dimension: int
    body: ConvexBody
    interior_point: np.ndarray    # b0, a certified member of the body
    drift: DriftSpec
    contraction: ContractionSpec
    force: ForceSpec
    period: float
    L1: float = 0.0               # time-Lipschitz constant of the implicit term
    # (float(lam), n) -> (times, Resolved, bounds), most recent last; kept by
    # the integrator's uniform-grid memo
    _grids: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        _set(self, "interior_point", _frozen(as_point(self.interior_point)))
        _set(self, "period", float(self.period))
        _set(self, "L1", float(self.L1))
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be finite and positive")
        if not 0.0 <= self.L1 < math.inf:
            raise ValueError("L1 must be finite and >= 0")
        if self.body.dim != self.dimension:
            raise ValueError("body dimension mismatch")
        if self.interior_point.size != self.dimension:
            raise ValueError("interior_point dimension mismatch")
        if geometry.distance(self.interior_point, self.body) > 1e-10:
            raise ValueError("interior_point must belong to the body")
        if not 1 <= self.dimension <= 8:
            raise ValueError("dimension must lie in 1..8")
        if not 0.0 < self.L2 < 1.0:
            raise ValueError("declared L2 must lie in (0, 1)")
        if self.drift.dim not in (0, self.dimension):
            raise ValueError("drift dimension mismatch")
        if self.contraction.dim not in (0, self.dimension):
            raise ValueError("contraction dimension mismatch")
        if self.force.dim != self.dimension:
            raise ValueError("force dimension mismatch")
        if isinstance(self.drift, PiecewiseLinear):
            if self.drift.times[0] > 1e-12 or self.drift.times[-1] < self.period - 1e-12:
                raise ValueError("piecewise-linear drift must cover [0, period]")

    @classmethod
    def from_doc(cls, doc) -> SweepingScenario:
        """The scenario a parsed JSON document (README, "Scenario files") describes."""
        dim = _need(doc, "dimension", "")
        # checked here, not by the constructor: every child needs it to parse
        if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 8:
            raise SchemaError("dimension: must be an integer in 1..8")
        period = _num(_need(doc, "period", ""), "period", positive=True)
        lip = _need(doc, "lipschitz", "")
        l1 = _num(_need(lip, "L1", "lipschitz"), "lipschitz.L1", nonnegative=True)
        l2 = _num(_need(lip, "L2", "lipschitz"), "lipschitz.L2")
        if not 0.0 < l2 < 1.0:         # ZeroContraction takes any L2 it is given
            raise SchemaError("lipschitz.L2: must lie in (0, 1)")
        lf = _num(_need(lip, "Lf", "lipschitz"), "lipschitz.Lf", nonnegative=True)
        if lf == 0.0:
            lf = 1e-12   # ForceSpec treats 0.0 as "fill from catalog"
        body = decode(BODY_TYPES, _need(doc, "body", ""), "body", dim)
        interior = _vector(_need(doc, "interior_point", ""), "interior_point", dim)
        drift = decode(DRIFT_TYPES, _need(doc, "drift", ""), "drift", dim, period)
        contraction = decode(CONTRACTION_TYPES, _need(doc, "contraction", ""), "contraction", dim, l2)
        force = ForceSpec.from_doc(_need(doc, "force", ""), "force", dim, lf, period)
        return _built("", cls, dimension=dim, body=body, interior_point=interior, drift=drift,
                      contraction=contraction, force=force, period=period, L1=l1)

    def to_doc(self) -> dict:
        return {
            "dimension": self.dimension,
            "period": self.period,
            "body": self.body.to_doc(),
            "interior_point": self.interior_point.tolist(),
            "drift": self.drift.to_doc(),
            "contraction": self.contraction.to_doc(),
            "force": self.force.to_doc(),
            "lipschitz": {"L1": self.L1, "L2": self.L2, "Lf": self.force.Lf},
        }

    @property
    def L2(self) -> float:
        return self.contraction.L2

    # convenience wrappers that enforce the [0, T] time range
    def drift_at(self, t: float, lam: float) -> np.ndarray:
        if t < -1e-12 or t > self.period + 1e-12:
            raise TimeOutOfRange(f"t={t} outside [0, {self.period}]")
        return eval_drift(self.drift, t, lam)

    def contraction_at(self, x, lam: float) -> np.ndarray:
        return eval_contraction(self.contraction, x, lam)

    def force_at(self, t: float, x, lam: float) -> np.ndarray:
        return eval_force(self.force, t, x, lam)

    def fixed_point(self, lam: float) -> np.ndarray:
        return contraction_fixed_point(self.contraction, lam, dim=self.dimension)

    def resolve(self, lam: float, times: np.ndarray, planar: bool = False) -> Resolved:
        """The scenario at one lam on a time grid, as plain arrays and
        closures: the coupling factors become floats, the drift and the
        forcing are evaluated at every time at once, and the drift variation
        bound is taken over every interval of the grid.  The projection, the
        contraction and the force come in their column forms, which map a
        coordinate-major (d, m) stack of states at once.  With ``planar``, a
        planar scenario also gets its forms on Python floats (``Planar``).

        lam must lie in [0, 1]: the variation bounds and the L2 contraction
        hold only there.
        """
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda={lam} outside [0, 1]")
        if times.min() < -1e-12 or times.max() > self.period + 1e-12:
            raise TimeOutOfRange(f"times outside [0, {self.period}]")

        c_factor = _coupling_factor(self.contraction.coupling, lam)
        forcing = self.force.forcing
        f_nodes = None if forcing is None else (
            _coupling_factor(forcing.coupling, lam) * forcing.base_values(times))

        c_base, state = self.contraction.base_cols, self.force.state_cols
        # 1.0 * y == y exactly, so a unit factor is left out
        contraction = c_base if c_factor == 1.0 else (lambda X: c_factor * c_base(X))
        f_cols = None if f_nodes is None else f_nodes[..., None]    # f_cols[i]: a (d, 1) column
        force = ((lambda i, X: state(X)) if f_nodes is None
                 else (lambda i, X: state(X) + f_cols[i]))

        drift = _coupling_factor(self.drift.coupling, lam) * self.drift.base_values(times)
        return Resolved(
            L2=self.L2,
            drift=drift,
            variation=self.drift.base_variations(times),
            project_cols=self.body._project_cols,
            contraction_cols=contraction,
            force_cols=force,
            state_free=c_factor == 0.0 or isinstance(self.contraction, ZeroContraction),
            planar=self._planar(c_factor, drift, f_nodes) if planar and self.dimension == 2 else None,
        )

    def _planar(self, c_factor: float, drift: np.ndarray, f_nodes: np.ndarray | None) -> Planar:
        """The planar forms of ``resolve``: the same arithmetic on Python floats."""
        base = None if c_factor == 0.0 else self.contraction.planar_base()
        if base is None or c_factor == 1.0:
            contraction = base
        else:
            def contraction(x, y):
                cx, cy = base(x, y)
                return c_factor * cx, c_factor * cy

        state = self.force.planar_state()
        if f_nodes is None:
            def force(i, x, y):
                return state(x, y)
        else:
            fx, fy = map(memoryview, _planar_rows(f_nodes).T.copy())     # floats per time

            def force(i, x, y):
                sx, sy = state(x, y)
                return sx + fx[i], sy + fy[i]

        flat = np.ascontiguousarray(_planar_rows(drift)).ravel()
        return Planar(drift=memoryview(flat).toreadonly(),
                      project=self.body._planar_form,
                      contraction=contraction, force=force)


def _planar_rows(values: np.ndarray) -> np.ndarray:
    """Signal values as (m, 2) rows: a signal of dimension 0 (no
    coefficients) gives one zero column."""
    return np.broadcast_to(values, (values.shape[0], 2))


@dataclass(frozen=True)
class Resolved:
    """A scenario resolved by ``SweepingScenario.resolve`` for one lam and
    time grid; nothing here validates its arguments.

    ``state_free`` marks a contraction that contributes nothing at this lam
    (a zero contraction, or linear coupling at lam = 0): the translate a
    step projects onto then does not depend on the new state, so the step
    is one projection.  The integrator shares a resolved grid between runs
    (``integrator._uniform_grid``), so its arrays are read-only there.
    """

    L2: float
    drift: np.ndarray            # (m, d): a(times[k], lam)
    variation: np.ndarray        # (m-1,): bound on var(a, [times[k], times[k+1]])
    # the projection onto the body A, c(x, lam) and (k, x) -> f(times[k], x, lam),
    # each mapping a coordinate-major (d, m) stack of states at once
    project_cols: Callable[[np.ndarray], np.ndarray]
    contraction_cols: Callable[[np.ndarray], np.ndarray]
    force_cols: Callable[[int, np.ndarray], np.ndarray]
    state_free: bool             # c(x, lam) is zero for every x
    planar: Planar | None        # the planar forms, when asked for and d = 2


@dataclass(frozen=True)
class Planar:
    """The planar (d = 2) forms of a ``Resolved`` scenario, on Python floats:
    a NumPy call on a 2-vector costs more than its arithmetic.  Each form
    does the arithmetic of its NumPy counterpart in the same order; only dot
    products (no fused multiply-add) and ``math.tanh`` may round
    differently.  The polytope projection is the exception: a closed form,
    nearer the exact projection than the NumPy active-set method."""

    drift: memoryview            # flat ax, ay per time: a(times[k], lam), read as floats
    project: Callable[[float, float], tuple[float, float]]   # onto the body A
    # c(x, lam), or None exactly when ``Resolved.state_free``: the shift
    # then does not depend on the state
    contraction: Callable[[float, float], tuple[float, float]] | None
    force: Callable[[int, float, float], tuple[float, float]]   # (k, x, y) -> f(times[k], .)


@dataclass
class AuditReport:
    L2_empirical: float
    Lf_empirical: float
    var_a_empirical: float
    var_a_bound: float            # the drift's declared variation over the same grid
    samples_used: int
    passed: bool


def omega_region(scn: SweepingScenario, lam: float) -> geometry.Ball:
    """Invariant ball: center at the contraction fixed point, radius the
    time-sup of sup-norms over the translated body divided by (1 - L2).

    Each sup-norm is the body's ``norm_bound``, an upper bound (exact for
    balls, boxes and polytopes in every dimension), taken at every grid time in one
    ``_norm_bound_rows`` call; the sup over t uses a uniform grid of
    OMEGA_GRID times refined by the drift variation bound between grid
    points, so the returned radius is an upper bound.
    """
    xi = scn.fixed_point(lam)
    ts = np.linspace(0.0, scn.period, OMEGA_GRID)
    drift = _coupling_factor(scn.drift.coupling, lam) * scn.drift.base_values(ts)
    values = scn.body._norm_bound_rows(drift)
    slack = scn.drift.base_variations(ts)
    best = max(float(np.max(np.maximum(values[:-1], values[1:]) + slack)), values[-1])
    return geometry.Ball(xi, best / (1.0 - scn.L2))


def lipschitz_audit(scn: SweepingScenario, n_samples: int = 2000,
                    seed: int = 0) -> AuditReport:
    """Empirical difference-quotient estimates of L2 and Lf, plus a measured
    drift variation; pass iff the empirical constants stay below declared
    and the measured variation below the drift's variation bound.

    Sample k draws x and y uniformly from the box of half-width
    ``2 max(R, 1)`` around the invariant ball at lam = 0, then lam in [0, 1)
    and t in [0, period), as row k of one ``rng.random`` block; the forcing
    depends on (t, lam) alone and cancels from ``f(t, x, lam) - f(t, y, lam)``.
    """
    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000")
    rng = np.random.default_rng(seed)
    omega = omega_region(scn, 0.0)
    radius = 2.0 * max(omega.radius, 1.0)
    d = scn.dimension
    u = rng.random((n_samples, 2 * d + 2)).T    # rows: x, y, lam, t (unused)
    x = omega.center[:, None] + radius * (-1.0 + 2.0 * u[:d])    # samples as (d, k) columns
    y = omega.center[:, None] + radius * (-1.0 + 2.0 * u[d:2 * d])
    gap = np.sqrt(np.einsum("ij,ij->j", x - y, x - y))
    keep = gap >= 1e-9
    x, y, gap, lam = x[:, keep], y[:, keep], gap[keep], u[2 * d, keep]

    factor = lam if scn.contraction.coupling == LINEAR else 1.0
    dc = factor * scn.contraction.base_cols(x) - factor * scn.contraction.base_cols(y)
    df = scn.force.state_cols(x) - scn.force.state_cols(y)
    l2_emp = float(np.max(np.sqrt(np.einsum("ij,ij->j", dc, dc)) / gap, initial=0.0))
    lf_emp = float(np.max(np.sqrt(np.einsum("ij,ij->j", df, df)) / gap, initial=0.0))

    ts = np.linspace(0.0, scn.period, 2048)
    jumps = np.diff(scn.drift.base_values(ts), axis=0)
    var = float(np.sum(np.linalg.norm(jumps, axis=1)))     # lam = 1: every factor is 1
    var_bound = float(np.sum(scn.drift.base_variations(ts)))

    passed = (l2_emp <= scn.L2 + 1e-9 and lf_emp <= scn.force.Lf + 1e-9
              and var <= var_bound * (1.0 + 1e-9))
    return AuditReport(
        L2_empirical=l2_emp,
        Lf_empirical=lf_emp,
        var_a_empirical=var,
        var_a_bound=var_bound,
        samples_used=n_samples,
        passed=passed,
    )
