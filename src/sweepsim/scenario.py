"""Problem data: the moving constraint ``A + a(t, lam) + c(x, lam)``, the
perturbation ``f(t, x, lam)``, declared Lipschitz/variation constants, and
the derived objects (contraction fixed point, invariant region).

Signal catalogs are deliberately small so the declared constants can be
guaranteed by construction: drifts are Fourier sums, piecewise-linear paths,
or square-root cusps; contractions are zero, affine, or radial-tanh maps;
forces are affine plus bounded-slope tanh terms plus a Fourier forcing.

The homotopy parameter ``lam`` enters through a per-signal coupling: with
``LINEAR`` coupling the signal is multiplied by lam, so lam = 0 removes the
drift/contraction/forcing and leaves the constant-set autonomous process.

The scenario JSON format lives on the classes: each one reads and checks its
own object with ``from_doc`` and writes it with ``to_doc``; ``*_TYPES`` map a
document's ``"type"`` names to classes.
"""

from __future__ import annotations

import math
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
_COUPLINGS = (CONSTANT, LINEAR)


def _coupling_factor(coupling: str, lam: float) -> float:
    if coupling == CONSTANT:
        return 1.0
    if coupling == LINEAR:
        return float(lam)
    raise ValueError(f"unknown coupling {coupling!r}")


# ---------------------------------------------------------------------------
# drift catalog
# ---------------------------------------------------------------------------

@dataclass
class Fourier:
    """Sum over harmonics k>=1 of cos_coeffs[k-1]*cos(2 pi k t / period) and
    sin_coeffs[k-1]*sin(2 pi k t / period).  Empty coefficient lists give the
    zero signal (pass dim_hint so the output dimension is known)."""

    cos_coeffs: np.ndarray        # (K, d)
    sin_coeffs: np.ndarray        # (K, d)
    period: float
    coupling: str = CONSTANT
    dim_hint: int = 0

    def __post_init__(self):
        self.cos_coeffs = self._coerce(self.cos_coeffs)
        self.sin_coeffs = self._coerce(self.sin_coeffs)
        self.period = float(self.period)
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.coupling not in _COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.cos_coeffs.size and self.sin_coeffs.size:
            if self.cos_coeffs.shape[1] != self.sin_coeffs.shape[1]:
                raise ValueError("cos/sin coefficient dimension mismatch")

    def _coerce(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.size == 0:
            return arr.reshape(0, max(self.dim_hint, 1))
        return np.atleast_2d(arr)

    @classmethod
    def from_doc(cls, doc, path, dim, period):     # period: used when the doc gives none
        return cls(_coeff_list(_get(doc, "cos_coeffs", path, []), f"{path}.cos_coeffs", dim),
                   _coeff_list(_get(doc, "sin_coeffs", path, []), f"{path}.sin_coeffs", dim),
                   _num(_get(doc, "period", path, period), f"{path}.period", positive=True),
                   _get(doc, "lambda_coupling", path, CONSTANT), dim_hint=dim)

    def to_doc(self):
        return {"type": "fourier", "cos_coeffs": self.cos_coeffs.tolist(),
                "sin_coeffs": self.sin_coeffs.tolist(), "period": self.period,
                "lambda_coupling": self.coupling}

    @property
    def dim(self):
        if self.cos_coeffs.size:
            return self.cos_coeffs.shape[1]
        if self.sin_coeffs.size:
            return self.sin_coeffs.shape[1]
        return self.dim_hint

    def base_value(self, t: float) -> np.ndarray:
        out = np.zeros(max(self.dim, 1))
        w = 2.0 * np.pi / self.period
        for k in range(self.cos_coeffs.shape[0]):
            out += self.cos_coeffs[k] * np.cos(w * (k + 1) * t)
        for k in range(self.sin_coeffs.shape[0]):
            out += self.sin_coeffs[k] * np.sin(w * (k + 1) * t)
        return out

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """Rows ``base_value(t)`` for every t in ``times``, bit-equal."""
        out = np.zeros((times.size, max(self.dim, 1)))
        w = 2.0 * np.pi / self.period
        for k in range(self.cos_coeffs.shape[0]):
            out += np.cos(w * (k + 1) * times)[:, None] * self.cos_coeffs[k]
        for k in range(self.sin_coeffs.shape[0]):
            out += np.sin(w * (k + 1) * times)[:, None] * self.sin_coeffs[k]
        return out

    def _rate(self) -> float:
        # arc bound: var <= integral of ||a'|| <= sum_k ||coeff_k|| * w_k * (t-s)
        w = 2.0 * np.pi / self.period
        rate = 0.0
        for k in range(self.cos_coeffs.shape[0]):
            rate += float(np.linalg.norm(self.cos_coeffs[k])) * w * (k + 1)
        for k in range(self.sin_coeffs.shape[0]):
            rate += float(np.linalg.norm(self.sin_coeffs[k])) * w * (k + 1)
        return rate

    def base_variation(self, s: float, t: float) -> float:
        return self._rate() * (t - s)

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """``base_variation`` over each interval between consecutive times."""
        return self._rate() * np.diff(times)


@dataclass
class PiecewiseLinear:
    """Linear interpolation through (times[i], values[i]); exact variation."""

    times: np.ndarray
    values: np.ndarray            # (len(times), d)
    coupling: str = CONSTANT

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).ravel()
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.times.size < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape[0] != self.times.size:
            raise ValueError("one value per knot required")
        if self.coupling not in _COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")

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

    def base_value(self, t: float) -> np.ndarray:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise TimeOutOfRange(f"t={t} outside knot range [{self.times[0]}, {self.times[-1]}]")
        t = min(max(t, self.times[0]), self.times[-1])
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(idx, self.times.size - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        frac = (t - t0) / (t1 - t0)
        return self.values[idx] + frac * (self.values[idx + 1] - self.values[idx])

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """Rows ``base_value(t)`` for every t in ``times``, bit-equal."""
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

    def base_variation(self, s: float, t: float) -> float:
        total = 0.0
        for i in range(self.times.size - 1):
            lo = max(s, self.times[i])
            hi = min(t, self.times[i + 1])
            if hi <= lo:
                continue
            seg = float(np.linalg.norm(self.values[i + 1] - self.values[i]))
            total += seg * (hi - lo) / (self.times[i + 1] - self.times[i])
        return total

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """``base_variation`` over each interval between consecutive times.

        The partial knot segments at either end of an interval are summed as
        ``base_variation`` sums them; the whole segments in between come from
        the cumulative arc length.  Intervals that span at most two segments
        (every interval, when the knots are no closer than the steps) are
        therefore bit-equal to ``base_variation``.
        """
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


@dataclass
class SqrtCusp:
    """``a(t) = sqrt(|t - cusp_time|) * direction``: BV-continuous but not
    Lipschitz at the cusp."""

    direction: np.ndarray
    cusp_time: float
    coupling: str = CONSTANT

    def __post_init__(self):
        self.direction = as_point(self.direction)
        self.cusp_time = float(self.cusp_time)
        if self.coupling not in _COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")

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

    def base_value(self, t: float) -> np.ndarray:
        return np.sqrt(abs(t - self.cusp_time)) * self.direction

    def base_values(self, times: np.ndarray) -> np.ndarray:
        """Rows ``base_value(t)`` for every t in ``times``, bit-equal."""
        return np.sqrt(np.abs(times - self.cusp_time))[:, None] * self.direction

    def base_variation(self, s: float, t: float) -> float:
        scale = float(np.linalg.norm(self.direction))
        ts = np.sqrt(abs(s - self.cusp_time))
        tt = np.sqrt(abs(t - self.cusp_time))
        if s <= self.cusp_time <= t:
            return scale * (ts + tt)   # down to the cusp, then back up
        return scale * abs(tt - ts)

    def base_variations(self, times: np.ndarray) -> np.ndarray:
        """``base_variation`` over each interval between consecutive times."""
        scale = float(np.linalg.norm(self.direction))
        root = np.sqrt(np.abs(times - self.cusp_time))
        rs, rt = root[:-1], root[1:]
        across = (times[:-1] <= self.cusp_time) & (self.cusp_time <= times[1:])
        return np.where(across, scale * (rs + rt), scale * np.abs(rt - rs))


DriftSpec = Fourier | PiecewiseLinear | SqrtCusp
DRIFT_TYPES = {"fourier": Fourier, "piecewise_linear": PiecewiseLinear, "sqrt_cusp": SqrtCusp}


def eval_drift(spec: DriftSpec, t: float, lam: float) -> np.ndarray:
    """Moving-set translation a(t, lam)."""
    return _coupling_factor(spec.coupling, lam) * spec.base_value(t)


def drift_variation_bound(spec: DriftSpec, s: float, t: float) -> float:
    """Upper bound on var(a(., lam), [s, t]) uniform over lam in [0, 1]."""
    if t < s:
        raise TimeOutOfRange("need s <= t")
    return spec.base_variation(s, t)   # LINEAR coupling scales by lam <= 1


# ---------------------------------------------------------------------------
# contraction catalog
# ---------------------------------------------------------------------------

@dataclass
class ZeroContraction:
    L2: float = 1e-6   # convention: an arbitrarily small declared constant
    coupling: str = CONSTANT

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(L2=L2)

    def to_doc(self):
        return {"type": "zero"}

    def base_value(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def base_rows(self, X: np.ndarray) -> np.ndarray:
        """``base_value`` of every row of an (m, d) stack."""
        return np.zeros_like(X)


@dataclass
class AffineContraction:
    matrix: np.ndarray
    offset: np.ndarray
    L2: float = 0.0    # 0.0 sentinel: filled with the operator norm
    coupling: str = CONSTANT

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        self.offset = as_point(self.offset)
        if self.L2 == 0.0:
            self.L2 = float(np.linalg.norm(self.matrix, 2)) + 1e-12
        if not 0.0 < self.L2 < 1.0:
            raise ValueError("declared L2 must lie in (0, 1)")
        if self.coupling not in _COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(_matrix(_need(doc, "matrix", path), f"{path}.matrix", dim),
                   _vector(_get(doc, "offset", path, [0.0] * dim), f"{path}.offset", dim),
                   L2=L2, coupling=_get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "affine", "matrix": self.matrix.tolist(), "offset": self.offset.tolist(),
                "lambda_coupling": self.coupling}

    def base_value(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.dot(x) + self.offset

    def base_rows(self, X: np.ndarray) -> np.ndarray:
        """``base_value`` of every row of an (m, d) stack."""
        return X @ self.matrix.T + self.offset


@dataclass
class TanhRadialContraction:
    """``c(x) = gain * tanh(||x - center||) * unit(x - center)``; gain sets
    the Lipschitz scale."""

    gain: float
    center: np.ndarray
    L2: float = 0.0
    coupling: str = CONSTANT

    def __post_init__(self):
        self.gain = float(self.gain)
        self.center = as_point(self.center)
        if self.L2 == 0.0:
            self.L2 = abs(self.gain) + 1e-12
        if not 0.0 < self.L2 < 1.0:
            raise ValueError("declared L2 must lie in (0, 1)")
        if self.coupling not in _COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")

    @classmethod
    def from_doc(cls, doc, path, dim, L2):
        return cls(_num(_need(doc, "gain", path), f"{path}.gain"),
                   _vector(_need(doc, "center", path), f"{path}.center", dim),
                   L2=L2, coupling=_get(doc, "lambda_coupling", path, CONSTANT))

    def to_doc(self):
        return {"type": "tanh_radial", "gain": self.gain, "center": self.center.tolist(),
                "lambda_coupling": self.coupling}

    def base_value(self, x: np.ndarray) -> np.ndarray:
        v = x - self.center
        r = math.sqrt(v.dot(v))
        if r == 0.0:
            return np.zeros_like(x)
        return self.gain * np.tanh(r) / r * v

    def base_rows(self, X: np.ndarray) -> np.ndarray:
        """``base_value`` of every row of an (m, d) stack."""
        V = X - self.center
        r = np.sqrt(np.einsum("ij,ij->i", V, V))
        scale = np.zeros_like(r)
        np.divide(self.gain * np.tanh(r), r, out=scale, where=r != 0.0)
        return scale[:, None] * V


ContractionSpec = ZeroContraction | AffineContraction | TanhRadialContraction
CONTRACTION_TYPES = {"zero": ZeroContraction, "affine": AffineContraction,
                     "tanh_radial": TanhRadialContraction}


def eval_contraction(spec: ContractionSpec, x, lam: float) -> np.ndarray:
    return _coupling_factor(spec.coupling, lam) * spec.base_value(as_point(x))


def contraction_fixed_point(spec: ContractionSpec, lam: float, tol: float = 1e-12,
                            dim: int | None = None, max_iter: int = 100_000) -> np.ndarray:
    """Unique solution of c(xi, lam) = xi by Picard iteration from 0."""
    if dim is None:
        if isinstance(spec, AffineContraction):
            dim = spec.offset.size
        elif isinstance(spec, TanhRadialContraction):
            dim = spec.center.size
        else:
            raise ValueError("dim required for a zero contraction")
    xi = np.zeros(dim)
    for _ in range(max_iter):
        nxt = eval_contraction(spec, xi, lam)
        if float(np.linalg.norm(nxt - xi)) <= tol:
            return nxt
        xi = nxt
    raise NonConvergence("contraction fixed point did not converge; declared L2 likely invalid")


# ---------------------------------------------------------------------------
# force catalog
# ---------------------------------------------------------------------------

@dataclass
class TanhTerm:
    gain: float
    direction: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        self.gain = float(self.gain)
        self.direction = as_point(self.direction)
        self.center = as_point(self.center)

    @classmethod
    def from_doc(cls, doc, path, dim):
        return cls(_num(_need(doc, "gain", path), f"{path}.gain"),
                   _vector(_need(doc, "direction", path), f"{path}.direction", dim),
                   _vector(_need(doc, "center", path), f"{path}.center", dim))

    def to_doc(self):
        return {"gain": self.gain, "direction": self.direction.tolist(),
                "center": self.center.tolist()}

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.gain * np.tanh(float(self.direction @ (x - self.center))) * self.direction

    def rows(self, X: np.ndarray) -> np.ndarray:
        """``value`` of every row of an (m, d) stack."""
        return (self.gain * np.tanh((X - self.center) @ self.direction))[:, None] * self.direction


@dataclass
class ForceSpec:
    """``f(t, x, lam) = linear_part x + offset + sum tanh_terms + forcing(t, lam)``.

    Globally Lipschitz in x by construction; Lf declares the constant."""

    linear_part: np.ndarray
    offset: np.ndarray
    tanh_terms: list[TanhTerm] = field(default_factory=list)
    forcing: Fourier | None = None
    Lf: float = 0.0    # 0.0 sentinel: filled from the catalog bound

    def __post_init__(self):
        self.linear_part = np.atleast_2d(np.asarray(self.linear_part, dtype=float))
        self.offset = as_point(self.offset)
        if self.Lf == 0.0:
            self.Lf = float(np.linalg.norm(self.linear_part, 2))
            for term in self.tanh_terms:
                self.Lf += abs(term.gain) * float(term.direction @ term.direction)
            self.Lf += 1e-12
        if self.Lf < 0:
            raise ValueError("Lf must be >= 0")

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

    def state_value(self, x: np.ndarray) -> np.ndarray:
        """The time-independent part ``linear_part x + offset + sum tanh_terms``."""
        out = self.linear_part.dot(x) + self.offset
        for term in self.tanh_terms:
            out = out + term.value(x)
        return out

    def state_rows(self, X: np.ndarray) -> np.ndarray:
        """``state_value`` of every row of an (m, d) stack."""
        out = X @ self.linear_part.T + self.offset
        for term in self.tanh_terms:
            out = out + term.rows(X)
        return out


def eval_force(spec: ForceSpec, t: float, x, lam: float) -> np.ndarray:
    out = spec.state_value(as_point(x))
    if spec.forcing is not None:
        out = out + eval_drift(spec.forcing, t, lam)
    return out


# ---------------------------------------------------------------------------
# the full datum
# ---------------------------------------------------------------------------

@dataclass
class SweepingScenario:
    dimension: int
    body: ConvexBody
    interior_point: np.ndarray    # b0, a certified member of the body
    drift: DriftSpec
    contraction: ContractionSpec
    force: ForceSpec
    period: float
    L1: float = 0.0               # time-Lipschitz constant of the implicit term

    def __post_init__(self):
        self.interior_point = as_point(self.interior_point)
        self.period = float(self.period)
        self.L1 = float(self.L1)
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.L1 < 0:
            raise ValueError("L1 must be >= 0")
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
        drift_dim = self.drift.dim
        if drift_dim not in (0, self.dimension):
            raise ValueError("drift dimension mismatch")
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

    def fixed_point(self, lam: float, tol: float = 1e-12) -> np.ndarray:
        return contraction_fixed_point(self.contraction, lam, tol, dim=self.dimension)

    def resolve(self, lam: float, times: np.ndarray) -> Resolved:
        """The scenario at one lam on a time grid, as plain arrays and
        closures: the coupling factors become floats, the drift and the
        forcing are evaluated at every time at once, and the drift variation
        bound is taken over every interval of the grid.  The projection, the
        contraction and the force come in a point form and a row form, the
        latter mapping an (m, d) stack of states at once.

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

        def scaled(c_base):
            if c_factor == 1.0:
                return c_base           # 1.0 * y == y exactly
            return lambda x: c_factor * c_base(x)

        def with_forcing(state):
            if f_nodes is None:
                return lambda i, x: state(x)
            return lambda i, x: state(x) + f_nodes[i]

        return Resolved(
            project=self.body._project,
            L2=self.L2,
            drift=_coupling_factor(self.drift.coupling, lam) * self.drift.base_values(times),
            variation=self.drift.base_variations(times),
            contraction=scaled(self.contraction.base_value),
            force=with_forcing(self.force.state_value),
            project_rows=self.body._project_rows,
            contraction_rows=scaled(self.contraction.base_rows),
            force_rows=with_forcing(self.force.state_rows),
        )


@dataclass(frozen=True)
class Resolved:
    """A scenario resolved by ``SweepingScenario.resolve`` for one lam and
    time grid; nothing here validates its arguments."""

    project: Callable[[np.ndarray], np.ndarray]     # projection onto the body A
    L2: float
    drift: np.ndarray            # (m, d): a(times[k], lam)
    variation: np.ndarray        # (m-1,): bound on var(a, [times[k], times[k+1]])
    contraction: Callable[[np.ndarray], np.ndarray]  # c(x, lam)
    force: Callable[[int, np.ndarray], np.ndarray]   # (k, x) -> f(times[k], x, lam)
    # the row forms of project, contraction and force: (m, d) stacks in and out
    project_rows: Callable[[np.ndarray], np.ndarray]
    contraction_rows: Callable[[np.ndarray], np.ndarray]
    force_rows: Callable[[int, np.ndarray], np.ndarray]


@dataclass
class AuditReport:
    L2_empirical: float
    Lf_empirical: float
    var_a_empirical: float
    samples_used: int
    passed: bool


def omega_region(scn: SweepingScenario, lam: float, n_grid: int = 256) -> geometry.Ball:
    """Invariant ball: center at the contraction fixed point, radius the
    time-sup of sup-norms over the translated body divided by (1 - L2).

    Each sup-norm is the body's ``norm_bound``, an upper bound (exact for
    balls, boxes and polytopes with d <= 3); the sup over t uses a uniform
    grid refined by the drift variation bound between grid points, so the
    returned radius is an upper bound.
    """
    xi = scn.fixed_point(lam)
    ts = np.linspace(0.0, scn.period, max(n_grid, 256))
    drift = _coupling_factor(scn.drift.coupling, lam) * scn.drift.base_values(ts)
    values = np.array([scn.body.norm_bound(a) for a in drift])
    slack = scn.drift.base_variations(ts)
    best = max(float(np.max(np.maximum(values[:-1], values[1:]) + slack)), values[-1])
    return geometry.Ball(xi, best / (1.0 - scn.L2))


def lipschitz_audit(scn: SweepingScenario, n_samples: int = 2000,
                    seed: int = 0) -> AuditReport:
    """Empirical difference-quotient estimates of L2 and Lf, plus a measured
    drift variation; pass iff the empirical constants stay below declared."""
    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000")
    rng = np.random.default_rng(seed)
    omega = omega_region(scn, 0.0)
    radius = 2.0 * max(omega.radius, 1.0)
    center = omega.center

    d = scn.dimension
    l2_emp = 0.0
    lf_emp = 0.0
    for _ in range(n_samples):
        x = center + radius * rng.uniform(-1.0, 1.0, size=d)
        y = center + radius * rng.uniform(-1.0, 1.0, size=d)
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-9:
            continue
        lam = rng.random()
        t = rng.uniform(0.0, scn.period)
        dc = float(np.linalg.norm(scn.contraction_at(x, lam) - scn.contraction_at(y, lam)))
        df = float(np.linalg.norm(scn.force_at(t, x, lam) - scn.force_at(t, y, lam)))
        l2_emp = max(l2_emp, dc / gap)
        lf_emp = max(lf_emp, df / gap)

    jumps = np.diff(scn.drift.base_values(np.linspace(0.0, scn.period, 2048)), axis=0)
    var = float(np.sum(np.linalg.norm(jumps, axis=1)))     # lam = 1: every factor is 1

    passed = (l2_emp <= scn.L2 + 1e-9) and (lf_emp <= scn.force.Lf + 1e-9)
    return AuditReport(
        L2_empirical=l2_emp,
        Lf_empirical=lf_emp,
        var_a_empirical=var,
        samples_used=n_samples,
        passed=passed,
    )
