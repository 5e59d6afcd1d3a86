"""The benchmark's workloads.

Each workload builds its inputs from the seed, sets up its scenarios (the
cost every script or CLI invocation pays before any analysis), and defines
one *round*: a fixed list of calls into sweepsim's public functions, issued
one after another.  After the timed phase the outputs are checked against
the package's own invariants and, for the default seed, against reference
outputs pinned in ``reference.json``.

Calls go through module attributes (``integrator.run``, not a name bound at
import time) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from sweepsim import cli, geometry, integrator, periodic, presets, scenario

# Rounds cycle through this many distinct input sets per seed, so repeated
# rounds are not calls with identical arguments.
INPUT_SETS = 2

# Operation kinds that spend most of their time in HiGHS LP solves (support
# functions); their timings are scaled by the LP part of the calibration.
LP_KINDS = frozenset({"hausdorff", "validate"})

EQUILIBRIUM = np.array([1.0, 0.0])   # switched equilibrium of the disk scenarios
SCENARIO_DIR = os.path.join("demos", "scenarios")


def _rng(seed: int, k: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, stream])


def _jitter(rng, base, radius):
    return np.asarray(base, dtype=float) + rng.uniform(-radius, radius, size=len(base))


def jittered_square(rng, center, half, jitter):
    """Counter-clockwise square around ``center`` with jittered corners; the
    jitter must leave the equilibrium strictly inside every edge."""
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    poly = [_jitter(rng, np.asarray(center) + c, jitter) for c in corners]
    if not encloses(poly, EQUILIBRIUM, margin=0.5 * half):
        raise ValueError("jittered polygon no longer encloses the equilibrium")
    return poly


def encloses(poly, point, margin: float) -> bool:
    """Point lies inside the counter-clockwise convex polygon, at least
    ``margin`` away from every edge line."""
    for a, b in zip(poly, poly[1:] + poly[:1]):
        edge = b - a
        cross = edge[0] * (point[1] - a[1]) - edge[1] * (point[0] - a[0])
        if cross < margin * float(np.linalg.norm(edge)):
            return False
    return True


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _close(ref, got, tol, where) -> list[str]:
    ref = np.asarray(ref, dtype=float)
    got = np.asarray(got, dtype=float)
    if ref.shape != got.shape:
        return [f"{where}: shape {got.shape} != reference {ref.shape}"]
    err = float(np.max(np.abs(ref - got))) if ref.size else 0.0
    return [] if err <= tol else [f"{where}: differs from reference by {err:.3e} > {tol:.0e}"]


def trajectory_problems(scn, lam, traj) -> list[str]:
    """The per-trajectory invariants: finite nodes, every step increment
    within its bound, and the discrete energy inequality."""
    problems = []
    if not (np.all(np.isfinite(traj.x_nodes)) and np.all(np.isfinite(traj.u_nodes))):
        problems.append("non-finite trajectory nodes")
    if not integrator.step_variation_check(traj):
        problems.append("step increment exceeds its per-step bound")
    slack = integrator.moreau_residual(traj, scn, lam)
    eps = integrator.moreau_epsilon(traj)
    if not slack >= -eps:
        problems.append(f"energy inequality violated: {slack:.3e} < -{eps:.3e}")
    return problems


def in_ball(ball, q) -> bool:
    return float(np.linalg.norm(np.asarray(q) - ball.center)) <= ball.radius + 1e-9


class Workload:
    """One benchmark workload.

    ``setup`` returns the state the rounds use; ``ops`` lists a round's
    calls as ``(key, kind, thunk)``; ``fingerprint`` digests an output so
    later rounds on the same input set can be compared bit for bit;
    ``check`` and ``view`` run after the timed phase.
    """

    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def steps(self, n: int) -> int:
        return max(8, n // 8) if self.tiny else n

    def setup(self, seed: int):
        raise NotImplementedError

    def inputs(self, seed: int, k: int) -> dict:
        raise NotImplementedError

    def ops(self, state, inp) -> list:
        raise NotImplementedError

    def fingerprint(self, key, out) -> str:
        raise NotImplementedError

    def check(self, state, inp, key, out) -> list[str]:
        raise NotImplementedError

    def view(self, key, out) -> dict:
        """Values pinned for the default seed."""
        raise NotImplementedError

    def compare(self, key, ref, got) -> list[str]:
        problems = []
        for field, value in ref.items():
            problems += _close(value, got[field], 1e-12, f"{key}.{field}")
        return problems


def _audited(scn):
    report = scenario.lipschitz_audit(scn)
    if not report.passed:
        raise ValueError("scenario failed its Lipschitz audit")
    return scn


# ---------------------------------------------------------------------------
# trajectory: long single runs on the three ball presets
# ---------------------------------------------------------------------------

class Trajectory(Workload):
    name = "trajectory"
    # preset, base initial condition, base lambda, lambda jitter
    CASES = (
        ("fourier_contraction", presets.fourier_contraction_scenario, (1.2, 0.3), 1.0, 0.0),
        ("drag", presets.drag_scenario, (1.0, 0.0), 0.2, 0.02),
        ("forced_disk", presets.forced_disk_scenario, (0.5, 0.5), 0.2, 0.02),
    )
    N = 2048

    def setup(self, seed):
        state = {}
        for key, make, _, lam, _ in self.CASES:
            scn = _audited(make())
            state[key] = (scn, scenario.omega_region(scn, lam))
        return state

    def inputs(self, seed, k):
        out = {}
        for i, (key, _, q, lam, dlam) in enumerate(self.CASES):
            rng = _rng(seed, k, i)
            out[key] = (_jitter(rng, q, 0.05), lam - dlam * rng.uniform(-1.0, 1.0))
        return out

    def ops(self, state, inp):
        n = self.steps(self.N)
        return [(key, "run", self._thunk(state[key][0], *inp[key], n)) for key, *_ in self.CASES]

    @staticmethod
    def _thunk(scn, q, lam, n):
        return lambda: integrator.run(scn, lam, q, n)

    def fingerprint(self, key, out):
        return _digest(out.x_nodes, out.u_nodes)

    def check(self, state, inp, key, out):
        scn, omega = state[key]
        problems = trajectory_problems(scn, inp[key][1], out)
        if not in_ball(omega, out.x_nodes[-1]):
            problems.append("end state left the invariant ball")
        return problems

    def view(self, key, out):
        return {"x_end": out.x_nodes[-1].tolist(), "u_end": out.u_nodes[-1].tolist()}


# ---------------------------------------------------------------------------
# bodies: the same signals on a box, an ellipsoid and an 8-row polytope
# ---------------------------------------------------------------------------

def _octagon():
    angles = 0.3 + np.arange(8) * 2.0 * np.pi / 8.0
    rows = [((np.cos(a), np.sin(a)), 1.0) for a in angles]
    return geometry.HalfspacePolytope(rows, 2.0, (0.0, 0.0))


class Bodies(Workload):
    name = "bodies"
    # body, steps per run; each run starts near the boundary so that the
    # projection is active on most sweeps
    CASES = (
        ("box", lambda: geometry.Box((-1.0, -0.8), (1.0, 0.8)), 1024),
        ("ellipsoid", lambda: geometry.Ellipsoid((0.0, 0.0), [[1.2, 0.2], [0.2, 0.6]]), 384),
        ("polytope", _octagon, 192),
    )
    Q0 = (0.9, 0.0)
    LAM = 1.0
    HAUSDORFF_DIRS = 64

    def setup(self, seed):
        ref = presets.fourier_contraction_scenario()
        state = {}
        for key, make_body, _ in self.CASES:
            scn = _audited(scenario.SweepingScenario(
                dimension=2, body=make_body(), interior_point=(0.0, 0.0), drift=ref.drift,
                contraction=ref.contraction, force=ref.force, period=ref.period, L1=ref.L1))
            state[key] = (scn, scenario.omega_region(scn, self.LAM))
        # the counterexample of acceptance criterion 2 and demo 01; the seed
        # moves only the probe point
        state["pair"] = geometry.projection_gap_search(1, 10_000)
        return state

    def inputs(self, seed, k):
        out = {}
        for i, (key, _, _) in enumerate(self.CASES):
            out[key] = (_jitter(_rng(seed, k, i), self.Q0, 0.03), self.LAM)
        # jitter of the counterexample's probe point
        out["pair"] = _rng(seed, k, len(self.CASES)).uniform(-0.02, 0.02, size=2)
        return out

    def ops(self, state, inp):
        ops = []
        for key, _, n in self.CASES:
            scn = state[key][0]
            ops.append((key, "run", Trajectory._thunk(scn, *inp[key], self.steps(n))))
        inst = state["pair"]
        u = inst.u + inp["pair"]
        dirs = 16 if self.tiny else self.HAUSDORFF_DIRS

        def pair():
            return (inst.c_body.project(u), inst.d_body.project(u),
                    geometry.hausdorff(inst.c_body, inst.d_body, dirs))
        ops.append(("pair", "hausdorff", pair))
        return ops

    def fingerprint(self, key, out):
        if key == "pair":
            return _digest(out[0], out[1], np.array([out[2]]))
        return _digest(out.x_nodes, out.u_nodes)

    def check(self, state, inp, key, out):
        if key == "pair":
            inst = state["pair"]
            pc, pd, d_h = out
            problems = []
            # hausdorff is monotone in the number of directions, so the
            # coarse value never exceeds the one the search certified
            if not 0.0 < d_h <= inst.rhs + 1e-12:
                problems.append(f"hausdorff {d_h:.6g} outside (0, {inst.rhs:.6g}]")
            if geometry.distance(pc, inst.c_body) > 1e-8 or geometry.distance(pd, inst.d_body) > 1e-8:
                problems.append("segment projection left its body")
            return problems
        scn, omega = state[key]
        problems = trajectory_problems(scn, inp[key][1], out)
        if not in_ball(omega, out.x_nodes[-1]):
            problems.append("end state left the invariant ball")
        return problems

    def view(self, key, out):
        if key == "pair":
            return {"proj_c": out[0].tolist(), "proj_d": out[1].tolist(), "hausdorff": out[2]}
        return Trajectory.view(self, key, out)


# ---------------------------------------------------------------------------
# certify: the existence pipeline (periodic point, degree, continuation)
# ---------------------------------------------------------------------------

class Certify(Workload):
    name = "certify"
    TOL = 1e-6
    SCHEDULE = (8, 32)
    DEGREE_N = 8
    BRANCH = (0.05, 0.1)

    def schedule(self):
        return (8, 16) if self.tiny else self.SCHEDULE

    def setup(self, seed):
        fc = _audited(presets.fourier_contraction_scenario())
        fd = _audited(presets.forced_disk_scenario())
        return {"fc": fc, "fd": fd, "omega_fc": scenario.omega_region(fc, 1.0),
                "omega_fd": {lam: scenario.omega_region(fd, lam) for lam in self.BRANCH}}

    def inputs(self, seed, k):
        rng = _rng(seed, k, 0)
        # lambda stays on the omega grid of the set-up; the seed moves the
        # start points and the degree polygon
        return {
            "q0": _jitter(rng, (0.0, 0.0), 0.05),
            "degree_lam": 0.05 + rng.uniform(-0.01, 0.01),
            "square": jittered_square(rng, EQUILIBRIUM, 0.1, 0.02),
            "branch_seed": _jitter(rng, EQUILIBRIUM, 0.02),
        }

    def ops(self, state, inp):
        fc, fd, sched = state["fc"], state["fd"], self.schedule()
        return [
            ("find_periodic", "certificate",
             lambda: periodic.find_periodic(fc, 1.0, self.TOL, n_schedule=sched, q0=inp["q0"])),
            ("degree", "degree",
             lambda: periodic.degree_2d(fd, inp["degree_lam"], self.DEGREE_N, inp["square"],
                                        mesh=64)),
            ("continue", "branch",
             lambda: periodic.continue_branch(fd, self.BRANCH, inp["branch_seed"], self.TOL,
                                              n_schedule=sched)),
        ]

    def fingerprint(self, key, out):
        if key == "degree":
            return f"{out.degree}:{out.mesh_points}:{out.min_field_norm!r}"
        orbits = [out] if key == "find_periodic" else out
        return "|".join(_digest(o.q_star, o.trajectory.x_nodes) for o in orbits)

    def _orbit_problems(self, scn, omega, orbit, where):
        problems = []
        if not orbit.residual <= self.TOL:
            problems.append(f"{where}: residual {orbit.residual:.3e} > tol")
        if orbit.degree_check is None or orbit.degree_check.degree == 0:
            problems.append(f"{where}: degree check missing or zero")
        if not in_ball(omega, orbit.q_star):
            problems.append(f"{where}: q* outside the invariant ball")
        problems += [f"{where}: {p}" for p in trajectory_problems(scn, orbit.lam, orbit.trajectory)]
        return problems

    def check(self, state, inp, key, out):
        if key == "find_periodic":
            return self._orbit_problems(state["fc"], state["omega_fc"], out, key)
        if key == "degree":
            return [] if out.degree != 0 else ["degree is zero on the enclosing polygon"]
        problems = []
        if len(out) != len(self.BRANCH):
            problems.append(f"continuation solved {len(out)}/{len(self.BRANCH)} points")
        for orbit in out:
            problems += self._orbit_problems(state["fd"], state["omega_fd"][orbit.lam], orbit,
                                             f"continue[{orbit.lam}]")
        return problems

    def view(self, key, out):
        if key == "degree":
            return {"degree": out.degree, "mesh_points": out.mesh_points}
        orbits = [out] if key == "find_periodic" else out
        return {"q_star": [o.q_star.tolist() for o in orbits],
                "degree": [o.degree_check.degree for o in orbits]}

    def compare(self, key, ref, got):
        problems = []
        if ref["degree"] != got["degree"]:
            problems.append(f"{key}: degree {got['degree']} != reference {ref['degree']}")
        if key == "degree":
            return problems
        # q* is pinned only to the accuracy the solve guarantees
        return problems + _close(ref["q_star"], got["q_star"], self.TOL, f"{key}.q_star")


# ---------------------------------------------------------------------------
# cli: many short in-process commands, each parsing its scenario file
# ---------------------------------------------------------------------------

def _numbers(value, path=""):
    """Flatten a JSON document into (path, leaf) pairs."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _numbers(value[k], f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _numbers(v, f"{path}[{i}]")
    else:
        yield path, value


class Cli(Workload):
    name = "cli"

    def __init__(self, tiny=False, out_dir="."):
        super().__init__(tiny)
        self.out_dir = out_dir

    @staticmethod
    def _path(name):
        return os.path.join(SCENARIO_DIR, name)

    def setup(self, seed):
        state = {}
        for name in ("drag.json", "disk.json", "forced_disk.json", "periodic_fourier.json"):
            with open(self._path(name), encoding="utf-8") as handle:
                scn = cli.parse_scenario(handle.read(), seed=seed)
            state[name] = (scn, scenario.omega_region(scn, 0.0))
        return state

    def inputs(self, seed, k):
        rng = _rng(seed, k, 0)
        square = jittered_square(rng, EQUILIBRIUM, 0.1, 0.02)
        return {
            "seed": str(seed),
            "lam": repr(float(0.2 + rng.uniform(-0.02, 0.02))),
            "polygon": ";".join(f"{float(x)!r},{float(y)!r}" for x, y in square),
            "validate": ("disk.json", "forced_disk.json")[k % 2],
        }

    def commands(self, inp):
        n = lambda v: str(self.steps(v))
        out = lambda name: os.path.join(self.out_dir, name)
        seed = ["--seed", inp["seed"]]
        return [
            ("simulate_drag", "simulate",
             ["simulate", "--scenario", self._path("drag.json"), "--out", out("drag.csv"),
              "--n", n(256)] + seed),
            ("simulate_fourier", "simulate",
             ["simulate", "--scenario", self._path("periodic_fourier.json"),
              "--out", out("fourier.csv"), "--n", n(256), "--lambda", inp["lam"]] + seed),
            ("equilibrium_disk", "equilibrium",
             ["equilibrium", "--scenario", self._path("disk.json"), "--out", out("eq_disk.json")]
             + seed),
            ("equilibrium_forced", "equilibrium",
             ["equilibrium", "--scenario", self._path("forced_disk.json"),
              "--out", out("eq_forced.json")] + seed),
            ("degree", "degree",
             ["degree", "--scenario", self._path("disk.json"), "--out", out("degree.json"),
              "--n", "8" if self.tiny else "16", "--polygon", inp["polygon"]] + seed),
            # validate's seed picks its counterexample search, whose cost
            # varies from seed to seed; criterion 2's seed keeps it fixed
            ("validate", "validate",
             ["validate", "--scenario", self._path(inp["validate"]), "--out", out("validate.json"),
              "--n", n(128), "--seed", "1"]),
        ]

    def ops(self, state, inp):
        return [(key, kind, self._thunk(argv)) for key, kind, argv in self.commands(inp)]

    @staticmethod
    def _thunk(argv):
        out_path = argv[argv.index("--out") + 1]

        def call():
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except SystemExit as err:   # argparse rejected the arguments
                code = err.code
            if code != 0:
                raise RuntimeError(f"sweepsim {argv[0]} exited with code {code}")
            with open(out_path, encoding="utf-8") as handle:
                return handle.read()
        return call

    def fingerprint(self, key, out):
        return hashlib.sha256(out.encode("utf-8")).hexdigest()

    @staticmethod
    def _csv(text):
        lines = text.strip().split("\n")
        return lines[0].split(","), np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])

    def check(self, state, inp, key, out):
        if key.startswith("simulate"):
            header, rows = self._csv(out)
            problems = [] if np.all(np.isfinite(rows)) else ["non-finite CSV cells"]
            iters = rows[1:, header.index("step_iters")]
            if np.any(iters < 1):
                problems.append("a step reports no Picard sweep")
            return problems
        doc = json.loads(out)
        if key.startswith("equilibrium"):
            eq = doc["equilibrium"]
            problems = [] if eq["verdict"] == "stable" else [f"verdict {eq['verdict']}"]
            if abs(float(np.linalg.norm(eq["x0"])) - 1.0) > 1e-8:
                problems.append("equilibrium is off the unit circle")
            return problems
        if key == "degree":
            return [] if doc["degree"]["degree"] != 0 else ["degree is zero"]
        # validate carries the energy inequality and the step-bound checks
        return [f"validate check failed: {c['name']}" for c in doc["checks"] if not c["passed"]]

    def view(self, key, out):
        if key.startswith("simulate"):
            header, rows = self._csv(out)
            return {"header": header, "rows": rows.tolist()}
        return {"json": [[p, v] for p, v in _numbers(json.loads(out))]}

    def compare(self, key, ref, got):
        if "rows" in ref:
            if ref["header"] != got["header"]:
                return [f"{key}: CSV header changed"]
            return _close(ref["rows"], got["rows"], 1e-12, f"{key}.rows")
        ref_leaves, got_leaves = dict(map(tuple, ref["json"])), dict(map(tuple, got["json"]))
        if ref_leaves.keys() != got_leaves.keys():
            return [f"{key}: artifact fields changed"]
        problems = []
        for path, value in ref_leaves.items():
            other = got_leaves[path]
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if numeric and isinstance(other, (int, float)) and not isinstance(other, bool):
                if abs(value - other) > 1e-12:
                    problems.append(f"{key}{path}: {other!r} != reference {value!r}")
            elif value != other:
                problems.append(f"{key}{path}: {other!r} != reference {value!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Trajectory, Bodies, Certify, Cli)}
