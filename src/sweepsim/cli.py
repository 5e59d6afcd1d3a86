"""Command-line surface: scenario ingestion, subcommand dispatch, and
machine-readable CSV/JSON artifacts.

The scenario JSON format lives on the catalog classes (``from_doc``/``to_doc``);
``parse_scenario`` reads a document, then audits its declared constants.

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
    FieldVanishesOnBoundary,
    MeshExhausted,
    NonConvergence,
    NotFound,
    SchemaError,
)
# hausdorff is looked up here by the benchmark's tracer, which patches cli.hausdorff
from .geometry import distance, hausdorff, projection_gap_search  # noqa: F401
from .integrator import Trajectory, moreau_epsilon, moreau_residual, run, step_variation_check
from .periodic import continue_branch, degree_2d, find_periodic
from .equilibrium import analyze_equilibrium
from .scenario import SweepingScenario, lipschitz_audit, omega_region

# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def parse_scenario(text: str, audit: bool = True, n_samples: int = 2000,
                   seed: int = 0) -> SweepingScenario:
    """Parse and validate a scenario JSON document; unless audit is disabled,
    empirical Lipschitz estimates must stay below the declared constants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    scn = SweepingScenario.from_doc(doc)
    if audit:
        report = lipschitz_audit(scn, n_samples=n_samples, seed=seed)
        if not report.passed:
            raise AuditFailure(
                f"empirical L2 {report.L2_empirical:.6g} vs declared {scn.L2:.6g}; "
                f"empirical Lf {report.Lf_empirical:.6g} vs declared {scn.force.Lf:.6g}"
            )
    return scn


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
        mm *= np.sqrt(inst.rhs)         # hausdorff(c_body, d_body, 256), as the search measured it
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
    except (NonConvergence, MeshExhausted, NotFound) as err:
        print(f"sweepsim {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
