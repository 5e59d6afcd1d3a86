"""Command-line surface: scenario ingestion, subcommand dispatch, and
machine-readable CSV/JSON artifacts.

Exit codes: 0 success, 2 invalid scenario or configuration, 3 numerical
non-convergence, 4 degree undefined (field vanishes on the boundary).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (
    AuditFailure,
    BudgetExhausted,
    FieldVanishesOnBoundary,
    MeshExhausted,
    NoConvergence,
    NonConvergence,
    NotFound,
    SchemaError,
)
from .geometry import Ball, Box, Ellipsoid, HalfspacePolytope, distance, hausdorff, projection_gap_search
from .integrator import Trajectory, moreau_epsilon, moreau_residual, run, step_variation_check
from .periodic import continue_branch, degree_2d, find_periodic
from .equilibrium import analyze_equilibrium
from .scenario import (
    CONSTANT,
    LINEAR,
    AffineContraction,
    ForceSpec,
    Fourier,
    PiecewiseLinear,
    SqrtCusp,
    SweepingScenario,
    TanhRadialContraction,
    TanhTerm,
    ZeroContraction,
    lipschitz_audit,
    omega_region,
)

_COUPLING_NAMES = {"constant": CONSTANT, "linear": LINEAR}


# ---------------------------------------------------------------------------
# scenario document parsing
# ---------------------------------------------------------------------------

def _need(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}.{key}: required field missing" if path else f"{key}: required field missing")
    return doc[key]

def _num(value, path, positive=False, nonnegative=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number")
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
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: expected a list of numbers") from None
    if arr.ndim != 1:
        raise SchemaError(f"{path}: expected a flat list")
    if dim is not None and arr.size != dim:
        raise SchemaError(f"{path}: expected length {dim}, got {arr.size}")
    return arr

def _matrix(value, path, dim):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: expected a {dim}x{dim} matrix") from None
    if arr.shape != (dim, dim):
        raise SchemaError(f"{path}: expected shape ({dim}, {dim}), got {arr.shape}")
    return arr

def _coeff_list(value, path, dim):
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{path}: expected a list of points")
    if len(value) == 0:
        return np.zeros((0, dim))
    rows = [_vector(v, f"{path}[{i}]", dim) for i, v in enumerate(value)]
    return np.array(rows)

def _coupling(doc, path):
    name = doc.get("lambda_coupling", "constant")
    if name not in _COUPLING_NAMES:
        raise SchemaError(f"{path}.lambda_coupling: must be 'constant' or 'linear'")
    return _COUPLING_NAMES[name]


def _parse_body(doc, dim):
    kind = _need(doc, "type", "body")
    if kind == "ball":
        center = _vector(_need(doc, "center", "body"), "body.center", dim)
        radius = _num(_need(doc, "radius", "body"), "body.radius", nonnegative=True)
        return Ball(center, radius)
    if kind == "box":
        lower = _vector(_need(doc, "lower", "body"), "body.lower", dim)
        upper = _vector(_need(doc, "upper", "body"), "body.upper", dim)
        if np.any(lower > upper):
            raise SchemaError("body.lower: must be <= body.upper componentwise")
        return Box(lower, upper)
    if kind == "polytope":
        rows_doc = _need(doc, "rows", "body")
        if not isinstance(rows_doc, list) or not rows_doc:
            raise SchemaError("body.rows: expected a nonempty list")
        rows = []
        for i, row in enumerate(rows_doc):
            normal = _vector(_need(row, "normal", f"body.rows[{i}]"), f"body.rows[{i}].normal", dim)
            offset = _num(_need(row, "offset", f"body.rows[{i}]"), f"body.rows[{i}].offset")
            rows.append((normal, offset))
        radius = _num(_need(doc, "bounding_radius", "body"), "body.bounding_radius", positive=True)
        interior = _vector(_need(doc, "interior_point", "body"), "body.interior_point", dim)
        try:
            return HalfspacePolytope(rows, radius, interior)
        except ValueError as err:
            raise SchemaError(f"body: {err}") from None
    if kind == "ellipsoid":
        center = _vector(_need(doc, "center", "body"), "body.center", dim)
        matrix = _matrix(_need(doc, "shape_matrix", "body"), "body.shape_matrix", dim)
        try:
            return Ellipsoid(center, matrix)
        except ValueError as err:
            raise SchemaError(f"body.shape_matrix: {err}") from None
    raise SchemaError(f"body.type: unknown body type {kind!r}")


def _parse_fourier(doc, path, dim, default_period):
    cos = _coeff_list(doc.get("cos_coeffs", []), f"{path}.cos_coeffs", dim)
    sin = _coeff_list(doc.get("sin_coeffs", []), f"{path}.sin_coeffs", dim)
    period = _num(doc.get("period", default_period), f"{path}.period", positive=True)
    return Fourier(cos, sin, period, _coupling(doc, path), dim_hint=dim)


def _parse_drift(doc, dim, scenario_period):
    kind = _need(doc, "type", "drift")
    if kind == "fourier":
        return _parse_fourier(doc, "drift", dim, scenario_period)
    if kind == "piecewise_linear":
        times = _vector(_need(doc, "times", "drift"), "drift.times")
        values = _coeff_list(_need(doc, "values", "drift"), "drift.values", dim)
        if times.size != values.shape[0]:
            raise SchemaError("drift.values: one value per knot required")
        try:
            return PiecewiseLinear(times, values, _coupling(doc, "drift"))
        except ValueError as err:
            raise SchemaError(f"drift: {err}") from None
    if kind == "sqrt_cusp":
        direction = _vector(_need(doc, "direction", "drift"), "drift.direction", dim)
        cusp = _num(_need(doc, "cusp_time", "drift"), "drift.cusp_time")
        return SqrtCusp(direction, cusp, _coupling(doc, "drift"))
    raise SchemaError(f"drift.type: unknown drift type {kind!r}")


def _parse_contraction(doc, dim, declared_l2):
    kind = _need(doc, "type", "contraction")
    try:
        if kind == "zero":
            return ZeroContraction(L2=declared_l2)
        if kind == "affine":
            matrix = _matrix(_need(doc, "matrix", "contraction"), "contraction.matrix", dim)
            offset = _vector(doc.get("offset", [0.0] * dim), "contraction.offset", dim)
            return AffineContraction(matrix, offset, L2=declared_l2,
                                     coupling=_coupling(doc, "contraction"))
        if kind == "tanh_radial":
            gain = _num(_need(doc, "gain", "contraction"), "contraction.gain")
            center = _vector(_need(doc, "center", "contraction"), "contraction.center", dim)
            return TanhRadialContraction(gain, center, L2=declared_l2,
                                         coupling=_coupling(doc, "contraction"))
    except ValueError as err:
        raise SchemaError(f"contraction: {err}") from None
    raise SchemaError(f"contraction.type: unknown contraction type {kind!r}")


def _parse_force(doc, dim, declared_lf, scenario_period):
    linear = _matrix(_need(doc, "linear_part", "force"), "force.linear_part", dim)
    offset = _vector(_need(doc, "offset", "force"), "force.offset", dim)
    terms = []
    for i, term in enumerate(doc.get("tanh_terms", [])):
        gain = _num(_need(term, "gain", f"force.tanh_terms[{i}]"), f"force.tanh_terms[{i}].gain")
        direction = _vector(_need(term, "direction", f"force.tanh_terms[{i}]"),
                            f"force.tanh_terms[{i}].direction", dim)
        center = _vector(_need(term, "center", f"force.tanh_terms[{i}]"),
                         f"force.tanh_terms[{i}].center", dim)
        terms.append(TanhTerm(gain, direction, center))
    forcing_doc = doc.get("forcing")
    forcing = None
    if forcing_doc is not None:
        forcing = _parse_fourier(forcing_doc, "force.forcing", dim, scenario_period)
    return ForceSpec(linear, offset, terms, forcing, Lf=declared_lf)


def scenario_from_dict(doc) -> SweepingScenario:
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    dim_raw = _need(doc, "dimension", "")
    if not isinstance(dim_raw, int) or isinstance(dim_raw, bool) or not 1 <= dim_raw <= 8:
        raise SchemaError("dimension: must be an integer in 1..8")
    dim = dim_raw
    period = _num(_need(doc, "period", ""), "period", positive=True)

    lip = _need(doc, "lipschitz", "")
    l1 = _num(_need(lip, "L1", "lipschitz"), "lipschitz.L1", nonnegative=True)
    l2 = _num(_need(lip, "L2", "lipschitz"), "lipschitz.L2")
    if not 0.0 < l2 < 1.0:
        raise SchemaError("lipschitz.L2: must lie in (0, 1)")
    lf = _num(_need(lip, "Lf", "lipschitz"), "lipschitz.Lf", nonnegative=True)
    if lf == 0.0:
        lf = 1e-12   # ForceSpec treats 0.0 as "fill from catalog"

    body = _parse_body(_need(doc, "body", ""), dim)
    interior = _vector(_need(doc, "interior_point", ""), "interior_point", dim)
    drift = _parse_drift(_need(doc, "drift", ""), dim, period)
    contraction = _parse_contraction(_need(doc, "contraction", ""), dim, l2)
    force = _parse_force(_need(doc, "force", ""), dim, lf, period)
    try:
        return SweepingScenario(
            dimension=dim, body=body, interior_point=interior, drift=drift,
            contraction=contraction, force=force, period=period, L1=l1,
        )
    except ValueError as err:
        raise SchemaError(str(err)) from None


def parse_scenario(text: str, audit: bool = True, n_samples: int = 2000,
                   seed: int = 0) -> SweepingScenario:
    """Parse and validate a scenario JSON document; unless audit is disabled,
    empirical Lipschitz estimates must stay below the declared constants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    scn = scenario_from_dict(doc)
    if audit:
        report = lipschitz_audit(scn, n_samples=n_samples, seed=seed)
        if not report.passed:
            raise AuditFailure(
                f"empirical L2 {report.L2_empirical:.6g} vs declared {scn.L2:.6g}; "
                f"empirical Lf {report.Lf_empirical:.6g} vs declared {scn.force.Lf:.6g}"
            )
    return scn


def scenario_to_dict(scn: SweepingScenario) -> dict:
    """Inverse of scenario_from_dict for the catalog bodies and signals."""
    body = scn.body
    if isinstance(body, Ball):
        body_doc = {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    elif isinstance(body, Box):
        body_doc = {"type": "box", "lower": body.lower.tolist(), "upper": body.upper.tolist()}
    elif isinstance(body, HalfspacePolytope):
        body_doc = {
            "type": "polytope",
            "rows": [{"normal": body.normals[j].tolist(), "offset": float(body.offsets[j])}
                     for j in range(body.normals.shape[0])],
            "bounding_radius": body.bounding_radius,
            "interior_point": body.interior_point.tolist(),
        }
    else:
        body_doc = {"type": "ellipsoid", "center": body.center.tolist(),
                    "shape_matrix": body.shape_matrix.tolist()}

    inv = {v: k for k, v in _COUPLING_NAMES.items()}
    drift = scn.drift
    if isinstance(drift, Fourier):
        drift_doc = {"type": "fourier", "cos_coeffs": drift.cos_coeffs.tolist(),
                     "sin_coeffs": drift.sin_coeffs.tolist(), "period": drift.period,
                     "lambda_coupling": inv[drift.coupling]}
    elif isinstance(drift, PiecewiseLinear):
        drift_doc = {"type": "piecewise_linear", "times": drift.times.tolist(),
                     "values": drift.values.tolist(), "lambda_coupling": inv[drift.coupling]}
    else:
        drift_doc = {"type": "sqrt_cusp", "direction": drift.direction.tolist(),
                     "cusp_time": drift.cusp_time, "lambda_coupling": inv[drift.coupling]}

    con = scn.contraction
    if isinstance(con, ZeroContraction):
        con_doc = {"type": "zero"}
    elif isinstance(con, AffineContraction):
        con_doc = {"type": "affine", "matrix": con.matrix.tolist(),
                   "offset": con.offset.tolist(), "lambda_coupling": inv[con.coupling]}
    else:
        con_doc = {"type": "tanh_radial", "gain": con.gain, "center": con.center.tolist(),
                   "lambda_coupling": inv[con.coupling]}

    force_doc = {
        "linear_part": scn.force.linear_part.tolist(),
        "offset": scn.force.offset.tolist(),
        "tanh_terms": [{"gain": t.gain, "direction": t.direction.tolist(),
                        "center": t.center.tolist()} for t in scn.force.tanh_terms],
    }
    if scn.force.forcing is not None:
        f = scn.force.forcing
        force_doc["forcing"] = {"cos_coeffs": f.cos_coeffs.tolist(),
                                "sin_coeffs": f.sin_coeffs.tolist(), "period": f.period,
                                "lambda_coupling": inv[f.coupling]}

    return {
        "dimension": scn.dimension,
        "period": scn.period,
        "body": body_doc,
        "interior_point": scn.interior_point.tolist(),
        "drift": drift_doc,
        "contraction": con_doc,
        "force": force_doc,
        "lipschitz": {"L1": scn.L1, "L2": scn.L2, "Lf": scn.force.Lf},
    }


# ---------------------------------------------------------------------------
# artifact writers (atomic, bit-reproducible)
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweepsim-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return repr(float(x))


def write_trajectory_csv(path: str, traj: Trajectory):
    d = traj.x_nodes.shape[1]
    cols = ["t"] + [f"u_{k+1}" for k in range(d)] + [f"x_{k+1}" for k in range(d)] \
        + ["step_iters", "step_bound"]
    lines = [",".join(cols)]
    iters = [0] + traj.iters.tolist()
    bounds = [0.0] + traj.bounds.tolist()
    for i in range(traj.n + 1):
        cells = [_fmt(traj.times[i])]
        cells += [_fmt(v) for v in traj.u_nodes[i]]
        cells += [_fmt(v) for v in traj.x_nodes[i]]
        cells.append(str(iters[i]))
        cells.append(_fmt(bounds[i]))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _plot_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.plot.csv" if ext else f"{path}.plot.csv"


def write_plot_csv(path: str, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_report(args, payload: dict, tolerances: dict) -> str:
    doc = {
        "version": __version__,
        "scenario_sha256": args.scenario_sha256,
        "command": args.command,
        "tolerances": tolerances,
    }
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_scenario(args) -> SweepingScenario:
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise SchemaError(f"cannot read scenario file: {err}") from None
    args.scenario_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_scenario(text, audit=not args.no_audit, seed=args.seed)


def cmd_simulate(args) -> int:
    scn = _load_scenario(args)
    traj = run(scn, args.lam, scn.interior_point, args.n, step_tol=args.tol)
    write_trajectory_csv(args.out, traj)
    rows = [[traj.times[i]] + list(traj.x_nodes[i]) for i in range(traj.n + 1)]
    d = scn.dimension
    write_plot_csv(_plot_path(args.out), ["t"] + [f"x_{k+1}" for k in range(d)], rows)
    print(f"wrote {args.out} ({traj.n + 1} node rows)")
    return 0


def cmd_periodic(args) -> int:
    scn = _load_scenario(args)
    schedule = _schedule_from_n(args.n)
    orbit = find_periodic(scn, args.lam, args.tol, n_schedule=schedule)
    omega = omega_region(scn, args.lam)
    payload = {
        "orbit": {
            "lambda": orbit.lam,
            "q_star": orbit.q_star.tolist(),
            "residual": orbit.residual,
            "n_used": orbit.n_used,
            "degree_check": _degree_doc(orbit.degree_check),
            "in_omega": bool(
                float(np.linalg.norm(orbit.q_star - omega.center)) <= omega.radius + 1e-9
            ),
        },
        "omega": {"center": omega.center.tolist(), "radius": omega.radius},
    }
    _atomic_write(args.out, _json_report(args, payload, {"tol": args.tol, "n_schedule": list(schedule)}))
    print(f"periodic point at {orbit.q_star.tolist()} residual {orbit.residual:.3e}")
    return 0


def _degree_doc(res):
    if res is None:
        return None
    return {"degree": res.degree, "min_field_norm": res.min_field_norm,
            "mesh_points": res.mesh_points, "polygon": res.polygon}


def cmd_equilibrium(args) -> int:
    scn = _load_scenario(args)
    report = analyze_equilibrium(scn, tol=args.tol)
    payload = {
        "equilibrium": {
            "x0": report.x0.tolist(),
            "alpha": report.alpha,
            "eigenvalues": [[ev.real, ev.imag] for ev in np.atleast_1d(report.sliding_eigenvalues)],
            "zero_mode_index": report.zero_mode_index,
            "verdict": report.verdict,
            "fd_step": report.fd_step,
            "convention_note": report.convention_note,
        }
    }
    _atomic_write(args.out, _json_report(args, payload, {"tol": args.tol, "fd_step": report.fd_step}))
    print(f"switched equilibrium {report.x0.tolist()} alpha {report.alpha:.6g} verdict {report.verdict}")
    return 0


def cmd_degree(args) -> int:
    scn = _load_scenario(args)
    if scn.dimension != 2:
        raise SchemaError(f"dimension: degree computation is planar only, got {scn.dimension}")
    result = degree_2d(scn, args.lam, args.n, args.polygon, mesh=args.mesh)
    payload = {"degree": _degree_doc(result)}
    _atomic_write(args.out, _json_report(args, payload, {"n": args.n, "mesh": args.mesh}))
    print(f"degree {result.degree} (min field norm {result.min_field_norm:.3e})")
    return 0


def cmd_continue(args) -> int:
    scn = _load_scenario(args)
    grid = args.lambda_grid
    schedule = _schedule_from_n(args.n)
    omega0 = omega_region(scn, grid[0])
    orbits = continue_branch(scn, grid, omega0.center, args.tol, n_schedule=schedule,
                             warm_start=not args.no_warm_start)
    solved = {orbit.lam for orbit in orbits}
    payload = {
        "orbits": [{
            "lambda": o.lam, "q_star": o.q_star.tolist(), "residual": o.residual,
            "n_used": o.n_used, "seed_distance": o.seed_distance,
            "degree_check": _degree_doc(o.degree_check),
        } for o in orbits],
        "failures": [lam for lam in grid if lam not in solved],
    }
    _atomic_write(args.out, _json_report(args, payload,
                                         {"tol": args.tol, "n_schedule": list(schedule)}))
    rows = [[o.lam, o.residual, o.seed_distance] for o in orbits]
    write_plot_csv(_plot_path(args.out), ["lambda", "residual", "seed_distance"], rows)
    print(f"continued {len(orbits)}/{len(grid)} grid points")
    return 0


def cmd_validate(args) -> int:
    scn = _load_scenario(args)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    omega = omega_region(scn, 0.0)
    span = 2.0 * omega.radius
    worst_ne, worst_tr = 0.0, 0.0
    for _ in range(500):
        u = omega.center + span * rng.uniform(-1, 1, scn.dimension)
        v = omega.center + span * rng.uniform(-1, 1, scn.dimension)
        shift = rng.normal(0.0, 1.0, scn.dimension)
        pu, pv = scn.body.project(u), scn.body.project(v)
        worst_ne = max(worst_ne, float(np.linalg.norm(pu - pv) - np.linalg.norm(u - v)))
        pt = scn.body.translate(shift).project(u)
        worst_tr = max(worst_tr, float(np.linalg.norm(pu - pt) - np.linalg.norm(shift)))
    record("projection-nonexpansive", worst_ne <= 1e-9, f"worst slack {worst_ne:.2e}")
    record("projection-translation-bound", worst_tr <= 1e-9, f"worst slack {worst_tr:.2e}")

    try:
        inst = projection_gap_search(args.seed, 10_000)
        mm = np.sqrt(2.0 * (distance(inst.u, inst.c_body) + distance(inst.u, inst.d_body)))
        mm *= np.sqrt(hausdorff(inst.c_body, inst.d_body, 256))
        record("projection-gap-counterexample", inst.lhs > inst.rhs,
               f"lhs {inst.lhs:.4f} > d_H {inst.rhs:.4f}")
        record("sqrt-distance-bound", inst.lhs <= mm + 1e-9,
               f"lhs {inst.lhs:.4f} <= {mm:.4f}")
    except NotFound as err:
        record("projection-gap-counterexample", False, str(err))

    traj = run(scn, args.lam, scn.interior_point, args.n)
    slack = moreau_residual(traj, scn, args.lam)
    eps = moreau_epsilon(traj)
    record("energy-inequality", slack >= -eps, f"slack {slack:.3e} >= -{eps:.3e}")
    record("step-increment-bounds", step_variation_check(traj),
           f"{traj.n} steps within per-step bounds")

    all_passed = all(c["passed"] for c in checks)
    if args.out:
        payload = {"checks": checks, "all_passed": all_passed}
        _atomic_write(args.out, _json_report(args, payload,
                                             {"n": args.n, "lambda": args.lam, "seed": args.seed}))
    if not all_passed:
        raise NonConvergence("validation checks failed: "
                             + ", ".join(c["name"] for c in checks if not c["passed"]))
    return 0


def _schedule_from_n(n: int) -> tuple:
    if n <= 128:
        return (max(32, n // 4), n)
    return (max(64, n // 16), max(128, n // 4), n)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _polygon_arg(text: str):
    try:
        points = []
        for chunk in text.split(";"):
            xs, ys = chunk.split(",")
            points.append((float(xs), float(ys)))
    except ValueError:
        raise argparse.ArgumentTypeError("polygon format is 'x1,y1;x2,y2;...'") from None
    if len(points) < 3:
        raise argparse.ArgumentTypeError("polygon needs at least 3 vertices")
    if not np.all(np.isfinite(points)):
        raise argparse.ArgumentTypeError("polygon vertices must be finite")
    return points


def _lambda_arg(text: str) -> float:
    try:
        lam = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= lam <= 1.0:
        raise argparse.ArgumentTypeError(f"lambda {text} outside [0, 1]")
    return lam


def _grid_arg(text: str):
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError("grid format is 'start:stop:steps'") from None
    if steps < 1:
        raise argparse.ArgumentTypeError("grid needs at least 1 step")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise argparse.ArgumentTypeError("lambda grid must lie in [0, 1]")
    return [float(v) for v in np.linspace(a, b, steps)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepsim",
        description="simulate and certify moving-constraint sweeping dynamics",
    )
    parser.add_argument("--version", action="version", version=f"sweepsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON path")
    common.add_argument("--seed", type=int, default=0, help="RNG seed for audits/searches")
    common.add_argument("--no-audit", action="store_true",
                        help="skip the empirical Lipschitz audit")

    p = sub.add_parser("simulate", parents=[common], help="integrate one trajectory")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("periodic", parents=[common], help="find a period-T point")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("equilibrium", parents=[common],
                       help="switched boundary equilibrium analysis")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("degree", parents=[common],
                       help="planar degree of the displacement field")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--mesh", type=int, default=64)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)
    p.add_argument("--polygon", type=_polygon_arg, required=True)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("continue", parents=[common],
                       help="periodic branch over a lambda grid")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_grid_arg, required=True)
    p.add_argument("--no-warm-start", action="store_true")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("validate", parents=[common],
                       help="projection/energy inequality suite on the scenario")
    p.add_argument("--out")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, AuditFailure) as err:
        print(f"sweepsim {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except FieldVanishesOnBoundary as err:
        print(f"sweepsim {args.command}: degree undefined: {err}", file=sys.stderr)
        return 4
    except (NonConvergence, NoConvergence, BudgetExhausted, MeshExhausted, NotFound) as err:
        print(f"sweepsim {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
