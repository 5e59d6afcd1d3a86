"""Problem data: the moving constraint ``A + a(t, lam) + c(x, lam)``, the
perturbation ``f(t, x, lam)``, declared Lipschitz/variation constants, and
the derived objects (contraction fixed point, invariant region).

Signal catalogs are deliberately small so the declared constants can be
guaranteed by construction: drifts are Fourier sums, piecewise-linear paths,
or square-root cusps; contractions are zero, affine, or radial-tanh maps;
forces are affine plus bounded-slope tanh terms plus a Fourier forcing.  Each
contraction class and the force state their certified Lipschitz constant
(``lipschitz``), and ``lipschitz_audit`` holds the declared ones against it.
A drift's variation over each grid interval (``base_variations``) is the
growth of one monotone cumulative function: the arc length of a
piecewise-linear path or a cusp, exact up to its rounding, or ``rate * t``, a
bound, for a Fourier sum.  Each drift also says whether it repeats every T
(``repeats_every``), which the periodic search asks of the drift and the
forcing.

Each catalog class has two forms of its map: an array form over a time grid
(``base_values``, ``base_variations``) or a (d, m) stack of states
(``base_cols``, ``cols``, ``state_cols``), and a planar form on Python
floats, which a contraction builds with its coupling factor applied
(``planar_form``, ``ForceSpec.planar_state``): the numbers of an affine map,
which the planar kernel applies inline, or a closure.  A value at one point
(a scenario's ``drift_at``, ``contraction_at`` and ``force_at``) is one row
or column of the array form.

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
from .errors import NonConvergence, OutOfRange, SchemaError, TimeOutOfRange
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


def _is_zero(spec) -> bool:
    """Whether a catalog map is zero for every t and x: each field in its
    ``scales`` is 0."""
    return not any(np.any(getattr(spec, name)) for name in spec.scales)


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
    scales = ("cos_coeffs", "sin_coeffs")     # not a field: the signal is zero iff these are

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

    def repeats_every(self, T: float) -> bool:
        """Whether the signal is T-periodic: it is zero (every coefficient is 0,
        or there are none), or T spans a whole number k >= 1 of periods, to 1e-9."""
        ratio = T / self.period
        return _is_zero(self) or (round(ratio) >= 1 and abs(ratio - round(ratio)) < 1e-9)

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
    """Linear interpolation through (times[i], values[i]).  Its variation over
    [s, t] is V(t) - V(s), where V is the cumulative arc length: linear between
    the knots, where it takes the summed segment lengths.  Both the path and V
    are ``np.interp``, so each variation is exact up to about one ulp of V at
    the last knot, and one more per knot inside [s, t], where the sum rounds."""

    times: np.ndarray
    values: np.ndarray            # (len(times), d)
    coupling: str = CONSTANT
    scales = ("values",)          # not a field: the path is zero iff these are

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

    def repeats_every(self, T: float) -> bool:
        """Whether the path is T-periodic: it closes, ||a(0) - a(T)|| < 1e-12."""
        start, end = self.base_values(np.array([0.0, T]))
        return float(np.linalg.norm(start - end)) < 1e-12

    def _check_times(self, times: np.ndarray):
        """Refuse a time outside the knot range by more than 1e-12."""
        knots = self.times
        outside = (times < knots[0] - 1e-12) | (times > knots[-1] + 1e-12)
        if np.any(outside):
            raise TimeOutOfRange(
                f"t={times[outside][0]} outside knot range [{knots[0]}, {knots[-1]}]")

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """The path at every t in ``times``, one row per time, by ``np.interp``
        per column; a path of dimension 0 gives one zero column, as ``Fourier``
        does."""
        self._check_times(times)
        if not self.dim:
            return np.zeros((times.size, 1))
        return np.column_stack([np.interp(times, self.times, column) for column in self.values.T])

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """The variation over each interval between consecutive times: the
        growth of V, ``np.diff(np.interp(times, knots, V))``; times outside
        the knots are refused, as ``base_values`` refuses them."""
        self._check_times(times)
        seg = [math.sqrt(d.dot(d)) for d in np.diff(self.values, axis=0)]
        return np.diff(np.interp(times, self.times, np.concatenate(([0.0], np.cumsum(seg)))))


@dataclass(frozen=True)
class SqrtCusp:
    """``a(t) = sqrt(|t - cusp_time|) * direction``: BV-continuous but not
    Lipschitz at the cusp.  Its variation over [s, t] is V(t) - V(s) for the
    monotone V(t) = |direction| * sign(t - c) * sqrt(|t - c|), c the cusp time,
    so over an interval holding the cusp it goes down to it and back up.  Each
    variation is exact up to about one ulp of |V| at the grid's ends."""

    direction: np.ndarray
    cusp_time: float
    coupling: str = CONSTANT
    scales = ("direction",)       # not a field: the signal is zero iff this is

    def __post_init__(self):
        _set(self, "direction", _frozen(as_point(self.direction)))
        _set(self, "cusp_time", float(self.cusp_time))
        if not self.direction.size:
            raise ValueError("direction needs at least one entry")
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

    def repeats_every(self, T: float) -> bool:
        """Whether the signal is T-periodic: only when it is zero (its
        direction is 0), since the cusp happens once."""
        return _is_zero(self)

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """The signal at every t in ``times``, one row per time."""
        return np.sqrt(np.abs(times - self.cusp_time))[:, None] * self.direction

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """The variation over each interval between consecutive times: the
        growth of V, ``|direction| * np.diff(copysign(sqrt(|t - c|), t - c))``."""
        lag = times - self.cusp_time
        return float(np.linalg.norm(self.direction)) * np.diff(np.copysign(np.sqrt(np.abs(lag)), lag))


DriftSpec = Fourier | PiecewiseLinear | SqrtCusp
DRIFT_TYPES = {"fourier": Fourier, "piecewise_linear": PiecewiseLinear, "sqrt_cusp": SqrtCusp}


def _drift_row(spec: DriftSpec, t: float, lam: float) -> np.ndarray:
    """A drift or forcing at (t, lam): one row of ``base_values``; nothing checked."""
    return _coupling_factor(spec.coupling, lam) * spec.base_values(np.array([t], dtype=float))[0]


def drift_variation_bound(spec: DriftSpec, s: float, t: float) -> float:
    """Upper bound on var(a(., lam), [s, t]) uniform over lam in [0, 1]; s and
    t must satisfy s <= t, which a NaN fails."""
    if not s <= t:
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
    lipschitz = 0.0        # not a field: the certified Lipschitz constant
    scales = ()            # not a field: the map is always zero

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(L2=L2)

    def to_doc(self):
        return {"type": "zero"}

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        return np.zeros_like(X)


@dataclass(frozen=True)
class AffineContraction:
    matrix: np.ndarray
    offset: np.ndarray
    L2: float | None = None    # None: filled with the operator norm
    coupling: str = CONSTANT
    scales = ("matrix", "offset")     # not a field: the map is zero iff these are

    def __post_init__(self):
        _set(self, "matrix", np.atleast_2d(_frozen(self.matrix)))
        _set(self, "offset", _frozen(as_point(self.offset)))
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("matrix must be d x d for a d-vector offset")
        if self.L2 is None:
            _set(self, "L2", self.lipschitz + 1e-12)
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

    @property
    def lipschitz(self):
        """The certified Lipschitz constant: the operator norm ||matrix||_2."""
        return float(np.linalg.norm(self.matrix, 2))

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        return self.matrix @ X + self.offset[:, None]

    def planar_form(self, factor: float):
        """The planar form of ``factor * base_cols``: its numbers m00, m01,
        m10, m11, offset x, y and ``factor``, which the planar kernel applies
        inline."""
        return (*self.matrix.ravel().tolist(), *self.offset.tolist(), factor)


@dataclass(frozen=True)
class TanhRadialContraction:
    """``c(x) = gain * tanh(||x - center||) * unit(x - center)``; gain sets
    the Lipschitz scale."""

    gain: float
    center: np.ndarray
    L2: float | None = None    # None: filled with |gain|
    coupling: str = CONSTANT
    scales = ("gain",)     # not a field: the map is zero iff this is

    def __post_init__(self):
        _set(self, "gain", float(self.gain))
        _set(self, "center", _frozen(as_point(self.center)))
        if not self.center.size:
            raise ValueError("center needs at least one entry")
        if not abs(self.gain) < math.inf:
            raise ValueError("gain must be finite")
        if self.L2 is None:
            _set(self, "L2", self.lipschitz + 1e-12)
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

    @property
    def lipschitz(self):
        """The certified Lipschitz constant |gain|: the radial rate sech^2(r) and
        the tangential rate tanh(r) / r of tanh(r) unit(v) both lie in (0, 1]."""
        return abs(self.gain)

    def base_cols(self, X: np.ndarray) -> np.ndarray:
        """c(x) of every column of a coordinate-major (d, m) stack."""
        V = X - self.center[:, None]
        r = np.sqrt(np.einsum("ij,ij->j", V, V))
        scale = np.zeros_like(r)
        np.divide(self.gain * np.tanh(r), r, out=scale, where=r != 0.0)
        return scale * V

    def planar_form(self, factor: float):
        """The planar form of ``factor * base_cols``: (x, y) to a pair of floats."""
        gain = self.gain
        cx, cy = self.center.tolist()

        def contraction(x, y):
            vx, vy = x - cx, y - cy
            r = math.sqrt(vx * vx + vy * vy)
            if r == 0.0:
                return 0.0, 0.0
            scale = gain * math.tanh(r) / r
            return factor * (scale * vx), factor * (scale * vy)
        return contraction


ContractionSpec = ZeroContraction | AffineContraction | TanhRadialContraction
CONTRACTION_TYPES = {"zero": ZeroContraction, "affine": AffineContraction,
                     "tanh_radial": TanhRadialContraction}


def vanishes_at_lambda_zero(spec: DriftSpec | ContractionSpec) -> bool:
    """Whether a drift, forcing or contraction is zero at lam = 0 for every t
    and x: its coupling factor is 0 there, or each field in ``scales`` is 0."""
    return _coupling_factor(spec.coupling, 0.0) == 0.0 or _is_zero(spec)


def _lambda(lam) -> float:
    """lam as a float, which must lie in [0, 1]: the variation bounds, the L2
    contraction and the invariant ball hold only there."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda={lam} outside [0, 1]")
    return lam


def _lambda_grid(grid) -> list[float]:
    """The lambdas of a continuation grid, each in [0, 1], strictly ascending."""
    grid = [_lambda(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise OutOfRange("lambda grid must be strictly ascending")
    return grid


def _check_tol(tol):
    """tol, refused unless it is positive and finite: no residual falls to 0
    or below, and NaN or inf stops nothing."""
    if not 0.0 < tol < math.inf:
        raise OutOfRange(f"tol={tol!r} must be positive and finite")
    return tol


def _budget(gap: float, stop: float, L2: float) -> int:
    """The a-priori sweep budget of an L2-contraction after a first move of ``gap`` > ``stop``."""
    return 1 + math.ceil(math.log(stop / gap) / math.log(L2)) + PICARD_MARGIN


@np.errstate(over="ignore")     # an overflowing move raises NonConvergence below, unwarned
def contraction_fixed_point(spec: ContractionSpec, lam: float, dim: int | None = None) -> np.ndarray:
    """Unique solution of c(xi, lam) = xi by Picard iteration from 0 to FIXED_POINT_TOL, within
    the a-priori ``_budget`` of its first move (1 step if that move is not finite).  lam must
    lie in [0, 1]."""
    lam = _lambda(lam)
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


@dataclass(frozen=True)
class ForceSpec:
    """``f(t, x, lam) = linear_part x + offset + sum tanh_terms + forcing(t, lam)``.

    Globally Lipschitz in x by construction; Lf declares the constant."""

    linear_part: np.ndarray
    offset: np.ndarray
    tanh_terms: tuple[TanhTerm, ...] = ()
    forcing: Fourier | None = None
    Lf: float | None = None    # None: filled from the catalog bound

    def __post_init__(self):
        _set(self, "linear_part", np.atleast_2d(_frozen(self.linear_part)))
        _set(self, "offset", _frozen(as_point(self.offset)))
        _set(self, "tanh_terms", tuple(self.tanh_terms))
        if self.Lf is None:
            _set(self, "Lf", self.lipschitz + 1e-12)
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

    @property
    def lipschitz(self):
        """The certified Lipschitz constant in x, ||linear_part||_2 plus
        |gain| ||direction||^2 per tanh term; the forcing does not depend on x."""
        lf = float(np.linalg.norm(self.linear_part, 2))
        for term in self.tanh_terms:
            lf += abs(term.gain) * float(term.direction @ term.direction)
        return lf

    def state_cols(self, X: np.ndarray) -> np.ndarray:
        """The time-independent part ``linear_part x + offset + sum tanh_terms``
        of every column of a coordinate-major (d, m) stack."""
        out = self.linear_part @ X + self.offset[:, None]
        for term in self.tanh_terms:
            out = out + term.cols(X)
        return out

    def planar_state(self):
        """The planar form of ``state_cols``: the numbers m00, m01, m10, m11,
        offset x, y of its affine part, which the planar kernel applies
        inline, and a map (x, y, sx, sy) -> (sx, sy) plus the tanh terms at
        (x, y), or None without tanh terms."""
        linear = (*self.linear_part.ravel().tolist(), *self.offset.tolist())
        terms = [(t.gain, *t.direction.tolist(), *t.center.tolist()) for t in self.tanh_terms]
        if not terms:
            return linear, None

        def add_tanh(x, y, sx, sy):
            for gain, dx, dy, cx, cy in terms:
                scale = gain * math.tanh(dx * (x - cx) + dy * (y - cy))
                sx, sy = sx + scale * dx, sy + scale * dy
            return sx, sy
        return linear, add_tanh


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

    # the maps at one point, which check what they are given: t must lie in
    # [0, T] and lam in [0, 1], and x must have the scenario's d entries
    def _check_time(self, t: float):
        if not -1e-12 <= t <= self.period + 1e-12:     # a NaN t fails too
            raise TimeOutOfRange(f"t={t} outside [0, {self.period}]")

    def drift_at(self, t: float, lam: float) -> np.ndarray:
        """Moving-set translation a(t, lam): one row of the drift's ``base_values``,
        or d zeros for a drift of dimension 0."""
        self._check_time(t)
        row = _drift_row(self.drift, t, _lambda(lam))
        return row if self.drift.dim else np.zeros(self.dimension)

    def contraction_at(self, x, lam: float) -> np.ndarray:
        """c(x, lam): column 0 of the contraction's ``base_cols``."""
        factor = _coupling_factor(self.contraction.coupling, _lambda(lam))
        return factor * self.contraction.base_cols(as_point(x, self.dimension, "x")[:, None])[:, 0]

    def force_at(self, t: float, x, lam: float) -> np.ndarray:
        """f(t, x, lam): column 0 of the force's ``state_cols``, plus the forcing's row at t."""
        self._check_time(t)
        lam = _lambda(lam)
        out = self.force.state_cols(as_point(x, self.dimension, "x")[:, None])[:, 0]
        forcing = self.force.forcing
        return out if forcing is None else out + _drift_row(forcing, t, lam)

    def resolve(self, lam: float, times: np.ndarray) -> Resolved:
        """The scenario at one lam on a time grid, as plain arrays and
        closures: the coupling factors become floats, the drift and the
        forcing are evaluated at every time at once, and the drift variation
        bound is taken over every interval of the grid.  The projection, the
        contraction and the force come in their column forms, which map a
        coordinate-major (d, m) stack of states at once.  A planar (d = 2)
        scenario also gets its forms on Python floats (``Planar``).

        lam must lie in [0, 1]: the variation bounds and the L2 contraction
        hold only there.
        """
        lam = _lambda(lam)
        if not (-1e-12 <= times.min() and times.max() <= self.period + 1e-12):   # a NaN fails too
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
        state_free = c_factor == 0.0 or not self.contraction.scales
        return Resolved(
            L2=self.L2,
            drift=drift,
            variation=self.drift.base_variations(times),
            project_cols=self.body._project_cols,
            contraction_cols=contraction,
            force_cols=force,
            state_free=state_free,
            planar=self._planar(None if state_free else c_factor, drift, f_nodes)
            if self.dimension == 2 else None,
        )

    def _planar(self, c_factor: float | None, drift: np.ndarray, f_nodes: np.ndarray | None) -> Planar:
        """The planar forms of ``resolve``: the drift and the forcing as
        float rows, and each part's one planar form, as its class builds it
        (the contraction's at ``c_factor``; None: state-free)."""
        contraction = None if c_factor is None else self.contraction.planar_form(c_factor)
        flat = np.ascontiguousarray(_planar_rows(drift)).ravel()
        linear_force, tanh_force = self.force.planar_state()
        return Planar(drift=memoryview(flat).toreadonly(),
                      project=self.body._planar_form,
                      contraction=contraction,
                      linear_force=linear_force,
                      tanh_force=tanh_force,
                      forcing=None if f_nodes is None
                      else tuple(map(memoryview, _planar_rows(f_nodes).T.copy())))


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
    planar: Planar | None        # the planar forms, exactly when d = 2


@dataclass(frozen=True)
class Planar:
    """The planar (d = 2) forms of a ``Resolved`` scenario, on Python floats:
    a NumPy call on a 2-vector costs more than its arithmetic.  Each part has
    one planar form, which its class builds: numbers, which the planar
    kernel applies inline, for a ball body, an affine contraction and the
    force's affine part; a closure for every other body, the tanh
    contraction and the force's tanh terms.  The closures and the kernel's
    affine maps do the arithmetic of their NumPy counterparts in the same
    order; only dot products (no fused multiply-add) and ``math.tanh`` may
    round differently.  The kernel sweeps a ball in the ball's frame, an
    order of its own that agrees with ``Ball._project`` to rounding, and the
    polytope projection is a closed form, nearer the exact projection than
    the NumPy active-set method."""

    drift: memoryview            # flat ax, ay per time: a(times[k], lam), read as floats
    # onto the body A: a ball's (centre x, y, radius), else a closure
    project: tuple[float, float, float] | Callable[[float, float], tuple[float, float]]
    # c(x, lam): an affine contraction's (m00, m01, m10, m11, offset x, y,
    # factor), else a closure; None exactly when ``Resolved.state_free``
    contraction: tuple[float, ...] | Callable[[float, float], tuple[float, float]] | None
    # f(times[k], x): the affine part (m00, m01, m10, m11, offset x, y) at x,
    # plus the tanh terms (None: none), plus row k of the forcing's rows (fx, fy)
    linear_force: tuple[float, ...]
    tanh_force: Callable[[float, float, float, float], tuple[float, float]] | None
    forcing: tuple[memoryview, memoryview] | None


@dataclass
class AuditReport:
    L2_certified: float
    Lf_certified: float
    passed: bool


def omega_region(scn: SweepingScenario, lam: float) -> geometry.Ball:
    """Invariant ball: center at the contraction fixed point, radius the
    time-sup of sup-norms over the translated body divided by (1 - L2).

    Each sup-norm is the body's ``norm_bound``, an upper bound (exact for
    balls, boxes and polytopes in every dimension), taken at every grid time in one
    ``_norm_bound_rows`` call; the sup over t uses a uniform grid of
    OMEGA_GRID times refined by the drift variation bound between grid
    points, so the returned radius is an upper bound.  It is one only for lam
    in [0, 1]; the fixed point raises ValueError on any other lam.
    """
    xi = contraction_fixed_point(scn.contraction, lam, dim=scn.dimension)
    ts = np.linspace(0.0, scn.period, OMEGA_GRID)
    drift = _coupling_factor(scn.drift.coupling, lam) * scn.drift.base_values(ts)
    values = scn.body._norm_bound_rows(drift)
    slack = scn.drift.base_variations(ts)
    best = max(float(np.max(np.maximum(values[:-1], values[1:]) + slack)), values[-1])
    return geometry.Ball(xi, best / (1.0 - scn.L2))


def lipschitz_audit(scn: SweepingScenario) -> AuditReport:
    """The catalog's certified L2 and Lf against the declared ones: pass iff
    neither declaration lies below its certified constant by more than 1e-9.
    A linear coupling scales a map by lam <= 1, so its constant at lam = 1
    holds for every lam in [0, 1]."""
    l2, lf = scn.contraction.lipschitz, scn.force.lipschitz
    return AuditReport(L2_certified=l2, Lf_certified=lf,
                       passed=l2 <= scn.L2 + 1e-9 and lf <= scn.force.Lf + 1e-9)
