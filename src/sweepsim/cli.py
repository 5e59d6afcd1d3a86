"""Command-line surface: scenario ingestion, subcommand dispatch, and
machine-readable CSV/JSON artifacts.

The scenario JSON format lives on the catalog classes (``from_doc``/``to_doc``);
``parse_scenario`` reads a document, then audits its declared constants.

One argparse parser serves the whole process: ``main`` builds it on its first
call (importing the module builds nothing) and reuses it.  The subcommand is
dispatched by name, ``cmd_<command>`` looked up in this module at call time,
so a ``cmd_*`` replaced after the parser was built is still the one called.

Exit codes, one per error family of ``sweepsim.errors``: 0 success,
2 ``InvalidInput`` (an invalid scenario or configuration, or one the command
cannot analyze: not T-periodic, not autonomous at lambda = 0, a body without
a smooth boundary), 3 ``NonConvergence`` (a solve or search exhausted its
budget), 4 ``FieldVanishesOnBoundary`` (degree undefined).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (
    AuditFailure,
    FieldVanishesOnBoundary,
    InvalidInput,
    NonConvergence,
    NotFound,
    SchemaError,
)
# hausdorff is looked up here by the benchmark's tracer, which patches cli.hausdorff
from .geometry import _norms, distance, hausdorff, projection_gap_search  # noqa: F401
from .integrator import Trajectory, moreau_epsilon, moreau_residual, run, step_variation_check
from .periodic import MESH_CAP, MESH_MIN, continue_branch, degree_2d, find_periodic
from .equilibrium import analyze_equilibrium
from .scenario import SweepingScenario, lipschitz_audit, omega_region

# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def parse_scenario(text: str, audit: bool = True, seed: int = 0) -> SweepingScenario:
    """Parse and validate a scenario JSON document; unless audit is disabled,
    empirical Lipschitz estimates must stay below the declared constants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    scn = SweepingScenario.from_doc(doc)
    if audit:
        report = lipschitz_audit(scn, seed=seed)
        if not report.passed:
            raise AuditFailure(
                f"empirical L2 {report.L2_empirical:.6g} vs declared {scn.L2:.6g}; "
                f"empirical Lf {report.Lf_empirical:.6g} vs declared {scn.force.Lf:.6g}; "
                f"measured drift variation {report.var_a_empirical:.6g} vs bound "
                f"{report.var_a_bound:.6g}"
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


# Cells are formatted from ``.tolist()`` rows: repr of a Python float is the
# shortest round-trip text, the same as repr(float(x)) of each NumPy scalar.

def write_trajectory_csv(path: str, traj: Trajectory):
    d = traj.x_nodes.shape[1]
    cols = ["t"] + [f"u_{k+1}" for k in range(d)] + [f"x_{k+1}" for k in range(d)] \
        + ["step_iters", "step_bound"]
    nodes = np.column_stack((traj.times, traj.u_nodes, traj.x_nodes)).tolist()
    iters = [0] + traj.iters.tolist()
    bounds = [0.0] + traj.bounds.tolist()
    lines = [",".join(cols)]
    lines += [f"{','.join(map(repr, row))},{k},{b!r}" for row, k, b in zip(nodes, iters, bounds)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _plot_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.plot.csv" if ext else f"{path}.plot.csv"


def write_plot_csv(path: str, header: list[str], rows):
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
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
    d = scn.dimension
    write_plot_csv(_plot_path(args.out), ["t"] + [f"x_{k+1}" for k in range(d)],
                   np.column_stack((traj.times, traj.x_nodes)))
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
    span, d, body = 2.0 * omega.radius, scn.dimension, scn.body
    # 500 pairs u, v with a shift each, drawn pair by pair (u's and v's
    # uniforms, then the shift's normals), as the columns of (d, 500) stacks
    draws = [(rng.uniform(-1, 1, 2 * d), rng.normal(0.0, 1.0, d)) for _ in range(500)]
    W = np.array([w for w, _ in draws]).T
    shifts = np.array([s for _, s in draws]).T
    U, V = omega.center[:, None] + span * W[:d], omega.center[:, None] + span * W[d:]
    PU = body._project_cols(U)
    worst_ne = max(0.0, float(np.max(_norms((PU - body._project_cols(V)).T) - _norms((U - V).T))))
    # each pair projects onto its own translate A + s, as the step kernels
    # do: project(u - s) + s
    PT = body._project_cols(U - shifts) + shifts
    worst_tr = max(0.0, float(np.max(_norms((PU - PT).T) - _norms(shifts.T))))
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
    """The ascending step counts of a periodic search whose final count is n."""
    stages = (32,) if n <= 128 else (max(64, n // 16), max(128, n // 4))
    return tuple(k for k in stages if k < n) + (n,)


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


def _int_arg(least: int, what: str, most: float = math.inf):
    """The argparse type of an integer option that must lie in [least, most]."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not least <= n <= most:
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return n
    return parse


_count_arg = _int_arg(1, "a positive count")
_seed_arg = _int_arg(0, "a non-negative seed")
_mesh_arg = _int_arg(MESH_MIN, f"a mesh of {MESH_MIN} to {MESH_CAP} points per edge", MESH_CAP)


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance {text} is not positive and finite")
    return tol


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
    if steps > 1 and not a < b:
        raise argparse.ArgumentTypeError("a lambda grid of several steps needs start < stop")
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
    common.add_argument("--seed", type=_seed_arg, default=0, help="RNG seed for audits/searches")
    common.add_argument("--no-audit", action="store_true",
                        help="skip the empirical Lipschitz audit")

    p = sub.add_parser("simulate", parents=[common], help="integrate one trajectory")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_count_arg, default=1024)
    p.add_argument("--tol", type=_tol_arg, default=1e-10)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)

    p = sub.add_parser("periodic", parents=[common], help="find a period-T point")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_count_arg, default=2048)
    p.add_argument("--tol", type=_tol_arg, default=1e-8)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)

    p = sub.add_parser("equilibrium", parents=[common],
                       help="switched boundary equilibrium analysis")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_tol_arg, default=1e-10)

    p = sub.add_parser("degree", parents=[common],
                       help="planar degree of the displacement field")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_count_arg, default=512)
    p.add_argument("--mesh", type=_mesh_arg, default=MESH_MIN)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)
    p.add_argument("--polygon", type=_polygon_arg, required=True)

    p = sub.add_parser("continue", parents=[common],
                       help="periodic branch over a lambda grid")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_count_arg, default=2048)
    p.add_argument("--tol", type=_tol_arg, default=1e-6)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_grid_arg, required=True)
    p.add_argument("--no-warm-start", action="store_true")

    p = sub.add_parser("validate", parents=[common],
                       help="projection/energy inequality suite on the scenario")
    p.add_argument("--out")
    p.add_argument("--n", type=_count_arg, default=256)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.0)

    return parser


_parser = None      # built by the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except InvalidInput as err:
        print(f"sweepsim {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except FieldVanishesOnBoundary as err:
        print(f"sweepsim {args.command}: degree undefined: {err}", file=sys.stderr)
        return 4
    except NonConvergence as err:
        print(f"sweepsim {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
