"""sweepsim benchmark: one workload per process, on one thread, as a closed loop.

    python3 bench/run.py --workload trajectory --seed 0 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process sets its workload up several times (timing each
set-up), then issues the workload's rounds back to back for ``--seconds``:
each call starts when the previous one returns.  Afterwards it checks every
output and prints each metric by name and unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from the spans, plus the tracing overhead.
``--write-reference`` (default seed only) re-pins ``reference.json``.
``--tiny`` shrinks every size, for the smoke test.
"""

from __future__ import annotations

import os

# One BLAS thread; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

DEFAULT_SEED = 0
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import sweepsim, sweepsim.cli, sweepsim.presets; "
    "dt = time.perf_counter() - t; print(sweepsim.__file__); print(repr(dt))"
)
# What the two parts of calibrate() take at the reference speed.
CALIBRATION_REFERENCE_S = (0.025, 0.015)
# Operation kinds printed under their end-to-end names; others print as op.<kind>_s.
KIND_METRICS = {"certificate": "certificate_s", "degree": "degree_s"}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "sweepsim", "__init__.py")):
    fail(f"no sweepsim sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import sweepsim  # noqa: E402
from tracer import SETUP_ROUND, RunClock, Tracer  # noqa: E402
from workloads import INPUT_SETS, LP_KINDS, WORKLOADS, Cli  # noqa: E402

if not os.path.abspath(sweepsim.__file__).startswith(SRC + os.sep):
    fail(f"imported sweepsim from {sweepsim.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, read through its C API."""
    import ctypes

    libs = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_seconds():
    """Import time of the package in a fresh interpreter (what every CLI
    invocation pays before it parses its scenario)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    where, seconds = done.stdout.split()
    if not os.path.abspath(where).startswith(SRC + os.sep):
        fail(f"fresh interpreter imported sweepsim from {where}")
    return float(seconds)


_LP_ROWS = np.array([[1.0, 0.2], [-1.0, 0.1], [0.3, 1.0], [0.1, -1.0]])


def calibrate():
    """Seconds for two fixed pieces of work that no change to sweepsim can
    alter: interpreter and small-array work, then eight small HiGHS LPs.

    The machine's speed drifts by tens of percent within a minute as other
    tenants come and go.  Interpreter-bound work (sweepsim's hot path) and
    LP-bound work (support functions) drift by different amounts, so each
    operation is scaled by the part that matches it: its seconds times the
    part's ``CALIBRATION_REFERENCE_S`` over the part's mean time around it.
    """
    t0 = time.perf_counter()
    v = np.array([0.3, 0.4])
    acc = 0.0
    for _ in range(3000):
        w = v * 1.0001 + 0.5
        acc += float(np.linalg.norm(w - v))
        v = np.clip(w, -1.0, 1.0)
    table = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    t1 = time.perf_counter()
    for k in range(8):
        direction = np.array([np.cos(0.7 * k), np.sin(0.7 * k)])
        linprog(-direction, A_ub=_LP_ROWS, b_ub=np.ones(4), bounds=[(-3.0, 3.0)] * 2,
                method="highs")
    return t1 - t0, time.perf_counter() - t1


def tail(samples):
    """Highest percentile with at least ten samples above it, as
    (percentile, value), or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return int(100 * (n - 10) / n), ordered[n - 11]


class Session:
    """One process's measurement of one workload.

    Every timing -- each set-up, each import, each operation -- is scaled to
    the reference speed by the calibrations taken just before and just after
    it (see ``calibrate``).
    """

    def __init__(self, workload, seed, seconds, traced):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.clock = RunClock()
        self.tracer = Tracer() if traced else None
        self.rounds = []                 # (label, traced, input set, seconds)
        self.op_log = []                 # (label, key, kind, seconds) of untraced ops
        self.branch_points = []          # continue seconds per solved lambda
        self.calibrations = []           # before the first operation and after each
        self.op_factor = []              # per operation: scale to the reference speed
        self.span_factor = []            # per traced operation (tracer op id)
        self.first = {}                  # (input set, key) -> first output
        self.prints = {}                 # (input set, key) -> fingerprint
        self.seen = {}                   # (input set, key) -> occurrences
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @staticmethod
    def _scale(before, after, lp=False):
        part = 1 if lp else 0
        return CALIBRATION_REFERENCE_S[part] / (0.5 * (before[part] + after[part]))

    def _scaled(self, measure):
        """Seconds that ``measure`` returns, at the reference speed."""
        before = calibrate()
        seconds = measure()
        return seconds * self._scale(before, calibrate())

    def _setup_once(self):
        t0 = time.perf_counter()
        self.state = self.wl.setup(self.seed)
        return time.perf_counter() - t0

    def setup(self):
        self.import_s = [self._scaled(import_seconds) for _ in range(IMPORT_REPEATS)]
        self.setup_s = [self._scaled(self._setup_once) for _ in range(SETUP_REPEATS)]
        if self.tracer is not None:
            before = calibrate()
            self.tracer.install()
            self.tracer.begin_op(SETUP_ROUND)
            self.wl.setup(self.seed)
            self.tracer.uninstall()
            self.span_factor.append(self._scale(before, calibrate()))
        self.inputs = [self.wl.inputs(self.seed, k) for k in range(INPUT_SETS)]

    def _done(self, elapsed, counts):
        if elapsed < self.seconds or counts[False] < INPUT_SETS:
            return False
        return self.tracer is None or (counts[True] >= INPUT_SETS
                                       and counts[True] % INPUT_SETS == 0)

    def measure(self):
        self.clock.install()
        counts = {False: 0, True: 0}
        begin = time.perf_counter()
        self.calibrations.append(calibrate())
        label = 0
        while True:
            traced = self.tracer is not None and label % 2 == 1
            k = counts[traced] % INPUT_SETS
            self.rounds.append((label, traced, k, self._round(label, traced, k)))
            counts[traced] += 1
            label += 1
            if self._done(time.perf_counter() - begin, counts):
                break
        self.clock.uninstall()

    def _round(self, label, traced, k):
        ops = self.wl.ops(self.state, self.inputs[k])
        self.clock.active = not traced
        if traced:
            self.tracer.install()
        total = 0.0
        try:
            for key, kind, call in ops:
                self.attempted += 1
                if traced:
                    self.tracer.begin_op(label)
                self.clock.op = len(self.op_factor)
                t0 = time.perf_counter()
                try:
                    out, error = call(), None
                except Exception as err:  # a raising operation counts as failed
                    out, error = None, err
                seconds = time.perf_counter() - t0
                self.calibrations.append(calibrate())
                factor = self._scale(*self.calibrations[-2:], lp=kind in LP_KINDS)
                self.op_factor.append(factor)
                seconds *= factor
                total += seconds
                if traced:
                    self.span_factor.append(factor)
                else:
                    self.op_log.append((label, key, kind, seconds))
                    if kind == "branch" and out:
                        self.branch_points.append(seconds / len(out))
                self._record(k, key, out, error)
        finally:
            if traced:
                self.tracer.uninstall()
            self.clock.active = False
        return total

    def _record(self, k, key, out, error):
        where = (k, key)
        if error is not None:
            self.failed += 1
            self.problems.append(f"{key} (input set {k}) raised {type(error).__name__}: {error}")
            return
        fingerprint = self.wl.fingerprint(key, out)
        if where not in self.first:
            self.first[where], self.prints[where], self.seen[where] = out, fingerprint, 0
        self.seen[where] += 1
        if fingerprint != self.prints[where]:
            self.failed += 1
            self.problems.append(f"{key} (input set {k}) output differs between rounds")

    def check(self, reference):
        """Invariants on every distinct output; reference values for the
        default seed.  A failed check fails every occurrence of the call."""
        for (k, key), out in self.first.items():
            problems = self.wl.check(self.state, self.inputs[k], key, out)
            if reference is not None:
                ref = reference.get(str(k), {}).get(key)
                if ref is None:
                    problems.append("no pinned reference output")
                else:
                    problems += self.wl.compare(key, ref, self.wl.view(key, out))
            if problems:
                self.failed += self.seen[(k, key)]
                self.problems += [f"{key} (input set {k}): {p}" for p in problems]

    def views(self):
        out = {}
        for (k, key), value in sorted(self.first.items(), key=lambda item: item[0]):
            out.setdefault(str(k), {})[key] = self.wl.view(key, value)
        return out

    # -- metrics -------------------------------------------------------------

    def round_seconds(self, traced=False):
        return [s for _, t, _, s in self.rounds if t == traced]

    def wall(self, traced=False):
        return statistics.median(self.round_seconds(traced))

    def steps_per_s(self):
        return self.clock.steps_per_s(self.op_factor)

    def end_to_end(self):
        return {
            "setup_s": (statistics.median(self.import_s) + statistics.median(self.setup_s), "s"),
            "wall_s": (self.wall(), "s"),
            "steps_per_s": (self.steps_per_s(), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self, units):
        traced_rounds = [label for label, traced, _, _ in self.rounds if traced]
        values = self.tracer.layer_metrics(traced_rounds, np.array(self.span_factor))
        values["trace.overhead_frac"] = self.wall(traced=True) / self.wall() - 1.0
        values["integrator.us_per_step"] = 1e6 / self.steps_per_s()
        return {name: (values[name], units[name]) for name in units}

    def report_lines(self):
        """Human-readable extras that are not gated: the wall-time tail, the
        sample count, per-kind operation medians, the calibration and the
        failure rate."""
        wall = self.round_seconds()
        lines = [f"wall_s.samples {len(wall)} count"]
        t = tail(wall)
        if t is not None:
            lines.append(f"wall_s.p{t[0]} {t[1]:.6g} s")
        kinds = {}
        for _, _, kind, seconds in self.op_log:
            kinds.setdefault(kind, []).append(seconds)
        for kind, seconds in sorted(kinds.items()):
            name = KIND_METRICS.get(kind, f"op.{kind}_s")
            lines.append(f"{name} {statistics.median(seconds):.6g} s")
        if self.branch_points:
            lines.append(f"branch_point_s {statistics.median(self.branch_points):.6g} s")
        lines.append(f"setup_s.import {statistics.median(self.import_s):.6g} s")
        lines.append(f"setup_s.scenarios {statistics.median(self.setup_s):.6g} s")
        for part, name in enumerate(("python", "lp")):
            median = statistics.median(c[part] for c in self.calibrations)
            lines.append(f"calibration.{name} {median:.6g} s "
                         f"(reference {CALIBRATION_REFERENCE_S[part]} s)")
        lines.append(f"fail_rate {self.failed / max(self.attempted, 1):.6g} ratio")
        return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (smoke test)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.tiny):
        fail("--write-reference needs the default seed at full size")

    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        cls = WORKLOADS[args.workload]
        wl = cls(args.tiny, out_dir=scratch) if cls is Cli else cls(args.tiny)
        session = Session(wl, args.seed, args.seconds, bool(args.trace))
        session.setup()
        session.measure()

    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny and not args.write_reference:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)[args.workload]
    session.check(reference)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = session.per_layer(units)
        session.tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    else:
        metrics = session.end_to_end()
        missing = {m["name"] for m in spec["end_to_end"]} - set(metrics)
        if missing:
            fail(f"end-to-end metrics not measured: {sorted(missing)}")

    if args.write_reference:
        pinned = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as handle:
                pinned = json.load(handle)
        pinned[args.workload] = session.views()
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, indent=1, sort_keys=True)
            handle.write("\n")

    facts = machine_facts()
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=facts, problems=session.problems, extras=session.report_lines(),
                  rounds=session.rounds, ops=session.op_log,
                  calibrations=session.calibrations)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(session.rounds)} rounds, {session.attempted} operations, "
          f"{session.failed} failed")
    for problem in session.problems:
        print(f"# problem: {problem}")
    for line in session.report_lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
