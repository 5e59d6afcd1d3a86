"""Command-line surface: scenario ingestion, subcommand dispatch, and
machine-readable CSV/JSON artifacts.

The scenario JSON format lives on the catalog classes (``from_doc``/``to_doc``);
``parse_scenario`` reads a document, then checks its declared L2 and Lf against
the catalog's certified constants.

One argparse parser serves the whole process: ``main`` builds it on its first
call (importing the module builds nothing) and reuses it.  The subcommand is
dispatched by name, ``cmd_<command>`` looked up in this module at call time,
so a ``cmd_*`` replaced after the parser was built is still the one called.
An option's type only reads its text and passes the value to the package's
own check of it (``_checked``): a refused option exits 2 with the package's
message.  Only validate's seed rule is the command line's own.

The analyses load with the commands that run them: ``periodic``, ``degree``
and ``continue`` import ``sweepsim.periodic``, ``equilibrium`` imports
``sweepsim.equilibrium``, and ``simulate`` and ``validate`` import neither.
Their entry points (``find_periodic``, ``degree_2d``, ``continue_branch``,
``analyze_equilibrium``) resolve as attributes of this module on first use,
to the package's bindings, which are the objects the analysis defined.  Each
command calls the one bound here at call time, so a replaced binding is the
one called.

``validate`` draws its 500 random pairs pair by pair from one generator
seeded with ``--seed``: the 2d uniforms of u and v, then the d normals of
the shift, filled in place and mapped once as ``uniform(-1, 1)`` and
``normal(0, 1)`` map them, so the doubles are those of a per-pair loop of
those calls.  ``simulate`` formats each CSV cell once, column by column, and
its ``*.plot.csv`` companion joins the same t and x cells.

Exit codes, one per error family of ``sweepsim.errors``: 0 success,
2 ``InvalidInput`` (an invalid scenario or configuration, or one the command
cannot analyze: not T-periodic, not autonomous at lambda = 0, a body without
a smooth boundary), 3 ``NonConvergence`` (a solve or search exhausted its
budget), 4 ``FieldVanishesOnBoundary`` (degree undefined).
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys

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
from .integrator import Trajectory, _steps_arg, moreau_epsilon, moreau_residual, run, step_variation_check
from .scenario import SweepingScenario, _check_tol, _lambda, _lambda_grid, lipschitz_audit, omega_region

# the analysis entry points, which load with the package's analyses on first use
_ANALYSES = ("find_periodic", "degree_2d", "continue_branch", "analyze_equilibrium")


def __getattr__(name):
    if name not in _ANALYSES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _analysis(name):
    """The analysis entry point bound to ``name`` here at call time."""
    return getattr(sys.modules[__name__], name)


def _periodic(name):
    """periodic's function ``name``, looked up when called: the module loads then."""
    def call(value):
        from . import periodic
        return getattr(periodic, name)(value)
    return call


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def parse_scenario(text: str, seed: int = 0) -> SweepingScenario:
    """Parse and validate a scenario JSON document, whose declared L2 and Lf
    must not lie below the catalog's certified constants (``lipschitz_audit``).
    ``seed`` is accepted and ignored: the audit draws no samples."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    scn = SweepingScenario.from_doc(doc)
    report = lipschitz_audit(scn)
    if not report.passed:
        raise AuditFailure("; ".join(
            f"lipschitz.{name}: declared {declared:.12g} is below the certified {certified:.12g}"
            for name, declared, certified in (("L2", scn.L2, report.L2_certified),
                                              ("Lf", scn.force.Lf, report.Lf_certified))
            if certified > declared + 1e-9))
    return scn


# ---------------------------------------------------------------------------
# artifact writers (atomic, bit-reproducible)
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str, companion=None):
    """Write data to a new file beside path, then rename it to path.  The file
    is created with mode 0o666 less the umask, as ``open`` would create it; an
    unwritable path raises InvalidInput and leaves no temporary file.  The
    ``companion`` callable, which writes a companion artifact, runs between
    the two: if it fails, path is neither created nor replaced."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".sweepsim-{os.urandom(8).hex()}")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as handle:
            handle.write(data)
        if companion is not None:
            if os.path.isdir(path):     # the rename would refuse it after the companion
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            companion()
        os.replace(tmp, path)
    except OSError as err:
        raise InvalidInput(f"cannot write {path}: {err.strerror}") from None
    finally:
        if os.path.exists(tmp):     # only when the rename did not happen
            os.unlink(tmp)


# Cells are formatted from ``.tolist()`` values: repr of a Python float is the
# shortest round-trip text, the same as repr(float(x)) of each NumPy scalar.

def _cells(cols) -> list[list[str]]:
    """The repr cells of each row of cols, a (k, n) array: one list per row."""
    return [list(map(repr, col)) for col in cols.tolist()]


def write_trajectory_csv(path: str, traj: Trajectory, plot_path: str | None = None):
    """Write the trajectory CSV at path and, given plot_path, its t, x plot
    companion, which is written first: if it fails, path is neither created
    nor replaced.  Each cell is formatted once, column by column, and the
    companion joins the same t and x cells."""
    d = traj.x_nodes.shape[1]
    x_cols = [f"x_{k+1}" for k in range(d)]
    cols = ["t", *[f"u_{k+1}" for k in range(d)], *x_cols, "step_iters", "step_bound"]
    t = list(map(repr, traj.times.tolist()))
    xs = _cells(traj.x_nodes.T)
    iters = ["0", *map(str, traj.iters.tolist())]
    bounds = ["0.0", *map(repr, traj.bounds.tolist())]
    lines = [",".join(cols), *map(",".join, zip(t, *_cells(traj.u_nodes.T), *xs, iters, bounds))]

    def companion():
        plot = [",".join(["t", *x_cols]), *map(",".join, zip(t, *xs))]
        _atomic_write(plot_path, "\n".join(plot) + "\n")

    _atomic_write(path, "\n".join(lines) + "\n", None if plot_path is None else companion)


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
    return parse_scenario(text)


def cmd_simulate(args) -> int:
    scn = _load_scenario(args)
    traj = run(scn, args.lam, scn.interior_point, args.n, step_tol=args.tol)
    write_trajectory_csv(args.out, traj, _plot_path(args.out))
    print(f"wrote {args.out} ({traj.n + 1} node rows)")
    return 0


def cmd_periodic(args) -> int:
    scn = _load_scenario(args)
    schedule = _periodic("_schedule")(args.n)
    orbit = _analysis("find_periodic")(scn, args.lam, args.tol, n_schedule=schedule)
    omega = omega_region(scn, args.lam)
    payload = {
        "orbit": {
            "lambda": orbit.lam,
            "q_star": orbit.q_star.tolist(),
            "residual": orbit.residual,
            "n_used": orbit.n_used,
            "degree_check": _local_degree_doc(orbit.degree_check),
            "in_omega": bool(
                float(np.linalg.norm(orbit.q_star - omega.center)) <= omega.radius + 1e-9
            ),
        },
        "omega": {"center": omega.center.tolist(), "radius": omega.radius},
    }
    _atomic_write(args.out, _json_report(args, payload, {"tol": args.tol, "n_schedule": list(schedule)}))
    print(f"periodic point at {orbit.q_star.tolist()} residual {orbit.residual:.3e}")
    return 0


def _local_degree_doc(res):
    if res is None:
        return None
    return {"degree": res.degree, "multipliers": [[m.real, m.imag] for m in res.multipliers],
            "sigma_min": res.sigma_min, "h": res.h}


def _degree_doc(res):
    return {"degree": res.degree, "min_field_norm": res.min_field_norm,
            "mesh_points": res.mesh_points, "polygon": res.polygon}


def cmd_equilibrium(args) -> int:
    scn = _load_scenario(args)
    report = _analysis("analyze_equilibrium")(scn, tol=args.tol)
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
    from .periodic import MESH_MIN      # degree_2d's own default mesh
    mesh = MESH_MIN if args.mesh is None else args.mesh
    result = _analysis("degree_2d")(scn, args.lam, args.n, args.polygon, mesh=mesh)
    payload = {"degree": _degree_doc(result)}
    _atomic_write(args.out, _json_report(args, payload, {"n": args.n, "mesh": mesh}))
    print(f"degree {result.degree} (min field norm {result.min_field_norm:.3e})")
    return 0


def cmd_continue(args) -> int:
    scn = _load_scenario(args)
    grid = args.lambda_grid
    schedule = _periodic("_schedule")(args.n)
    omega0 = omega_region(scn, grid[0])
    orbits = _analysis("continue_branch")(scn, grid, omega0.center, args.tol,
                                          n_schedule=schedule,
                                          warm_start=not args.no_warm_start)
    solved = {orbit.lam for orbit in orbits}
    payload = {
        "orbits": [{
            "lambda": o.lam, "q_star": o.q_star.tolist(), "residual": o.residual,
            "n_used": o.n_used, "seed_distance": o.seed_distance,
            "degree_check": _local_degree_doc(o.degree_check),
        } for o in orbits],
        "failures": [lam for lam in grid if lam not in solved],
    }
    rows = [[o.lam, o.residual, o.seed_distance] for o in orbits]
    _atomic_write(args.out, _json_report(args, payload,
                                         {"tol": args.tol, "n_schedule": list(schedule)}),
                  lambda: write_plot_csv(_plot_path(args.out),
                                         ["lambda", "residual", "seed_distance"], rows))
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
    # uniforms, then the shift's normals) into the rows of two stacks, then
    # mapped once as uniform(-1, 1) and normal(0, 1) map them: low + 2u and
    # loc + 1z, the same doubles from the same stream
    W, shifts = np.empty((500, 2 * d)), np.empty((500, d))
    for w, s in zip(W, shifts):
        rng.random(out=w)
        rng.standard_normal(out=s)
    W, shifts = -1.0 + 2.0 * W.T, 0.0 + 1.0 * shifts.T
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


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _checked(read, check):
    """The argparse type ``check(read(text))``.  read's ValueError prints as
    "invalid <read> value"; check's, the package's refusal, in its own words."""
    def parse(text: str):
        value = read(text)
        try:
            return check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    parse.__name__ = read.__name__
    return parse


def _seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"{seed} is not a non-negative seed")
    return seed


def _polygon(text: str) -> list:
    try:
        return [(float(x), float(y)) for x, y in (chunk.split(",") for chunk in text.split(";"))]
    except ValueError:
        raise argparse.ArgumentTypeError("polygon format is 'x1,y1;x2,y2;...'") from None


def _grid(text: str) -> tuple:
    try:
        start, stop, steps = text.split(":")
        return float(start), float(stop), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError("grid format is 'start:stop:steps'") from None


def _spaced_grid(spec) -> list[float]:
    # the ends are checked first: np.linspace warns on an infinite span
    start, stop, steps = spec
    return _lambda_grid(np.linspace(_lambda(start), _lambda(stop), _steps_arg(steps)).tolist())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepsim",
        description="simulate and certify moving-constraint sweeping dynamics",
    )
    parser.add_argument("--version", action="version", version=f"sweepsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    lam, count, tol = _checked(float, _lambda), _checked(int, _steps_arg), _checked(float, _check_tol)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON path")
    common.add_argument("--seed", type=_checked(int, _seed), default=0,
                        help="RNG seed of validate's random checks; other commands ignore it")

    p = sub.add_parser("simulate", parents=[common], help="integrate one trajectory")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=count, default=1024)
    p.add_argument("--tol", type=tol, default=1e-10)
    p.add_argument("--lambda", dest="lam", type=lam, default=0.0)

    p = sub.add_parser("periodic", parents=[common], help="find a period-T point")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=count, default=2048)
    p.add_argument("--tol", type=tol, default=1e-8)
    p.add_argument("--lambda", dest="lam", type=lam, default=0.0)

    p = sub.add_parser("equilibrium", parents=[common],
                       help="switched boundary equilibrium analysis")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=tol, default=1e-10)

    p = sub.add_parser("degree", parents=[common],
                       help="planar degree of the displacement field")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=count, default=512)
    p.add_argument("--mesh", type=_checked(int, _periodic("_mesh")))
    p.add_argument("--lambda", dest="lam", type=lam, default=0.0)
    p.add_argument("--polygon", type=_checked(_polygon, _periodic("_planar_polygon")),
                   required=True)

    p = sub.add_parser("continue", parents=[common],
                       help="periodic branch over a lambda grid")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=count, default=2048)
    p.add_argument("--tol", type=tol, default=1e-6)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_checked(_grid, _spaced_grid),
                   required=True)
    p.add_argument("--no-warm-start", action="store_true")

    p = sub.add_parser("validate", parents=[common],
                       help="projection/energy inequality suite on the scenario")
    p.add_argument("--out")
    p.add_argument("--n", type=count, default=256)
    p.add_argument("--lambda", dest="lam", type=lam, default=0.0)

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
