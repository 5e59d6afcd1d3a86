"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps sweepsim's public functions where their callers
look them up: module attributes such as ``sweepsim.periodic.run`` (the name
``poincare_map`` resolves at call time) and the body classes' ``project``
and ``support``.  Every wrapped call records a span -- name, start, end,
parent span and operation id -- in flat in-memory arrays; ``save`` writes
them out once the run ends.  ``layer_metrics`` derives each layer's self
time from the spans: a span's duration minus the part its child spans cover.

``RunClock`` is the one wrapper the untraced run keeps: it adds up the step
counts and the time spent inside ``run`` calls, which ``steps_per_s`` needs
on workloads whose runs happen inside the library.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from sweepsim import cli, equilibrium, geometry, integrator, periodic, scenario

SETUP_ROUND = -1


def _steps(args, kwargs):
    return kwargs["n"] if "n" in kwargs else args[3]


class RunClock:
    """Step count and duration of every ``integrator.run`` call made while
    ``active``, tagged with the current operation index ``op``."""

    OWNERS = (integrator, periodic, cli)

    def __init__(self):
        self.active = False
        self.op = None
        self.calls: list[tuple[int, float, int]] = []
        self._saved = []

    def steps_per_s(self, factor) -> float:
        """Steps completed per second inside the calls, with each call's
        seconds scaled to the reference speed by ``factor[op]``."""
        steps = sum(n for n, _, _ in self.calls)
        return steps / sum(dt * factor[op] for _, dt, op in self.calls)

    def install(self):
        inner = integrator.run
        clock = self

        def run(*args, **kwargs):
            if not clock.active:
                return inner(*args, **kwargs)
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            clock.calls.append((_steps(args, kwargs), time.perf_counter() - t0, clock.op))
            return out

        for owner in self.OWNERS:
            self._saved.append((owner, "run", getattr(owner, "run")))
            setattr(owner, "run", run)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _inside(tracer, name, args, kwargs, out):
    p = np.asarray(args[1], dtype=float).ravel()
    tracer.tally(f"inside.{name}", float(np.array_equal(out, p)))


def _tally(key, value_of):
    def post(tracer, name, args, kwargs, out):
        tracer.tally(key, value_of(args, kwargs, out))
    return post


def _mesh_points(tracer, name, args, kwargs, out):
    if name == "periodic.degree":
        tracer.tally("mesh_points", out.mesh_points)


BODIES = {"ball": geometry.Ball, "box": geometry.Box,
          "ellipsoid": geometry.Ellipsoid, "polytope": geometry.HalfspacePolytope}

# (owners, attribute, span name, post hook).  Each owner is patched where
# callers resolve the name; the same span name may sit on several owners.
POINTS = [
    *[((cls,), "project", f"geometry.project.{key}", _inside) for key, cls in BODIES.items()],
    (tuple(BODIES.values()), "support", "geometry.support", None),
    ((geometry, cli), "hausdorff", "geometry.hausdorff", None),
    ((geometry, cli), "projection_gap_search", "geometry.gap_search", None),
    ((scenario.SweepingScenario,), "drift_at", "scenario.eval", None),
    ((scenario.SweepingScenario,), "contraction_at", "scenario.eval", None),
    ((scenario.SweepingScenario,), "force_at", "scenario.eval", None),
    ((scenario, integrator), "drift_variation_bound", "scenario.variation_bound", None),
    ((scenario, cli), "lipschitz_audit", "scenario.audit", None),
    ((scenario, periodic, cli), "omega_region", "scenario.omega", None),
    ((integrator, periodic, cli), "run", "integrator.run",
     _tally("steps", lambda a, k, out: _steps(a, k))),
    ((integrator, periodic), "implicit_step", "integrator.step",
     _tally("sweeps", lambda a, k, out: out[1])),
    ((periodic,), "poincare_map", "periodic.return_map", None),
    ((periodic, cli), "find_periodic", "periodic.find_periodic", None),
    ((periodic, cli), "degree_2d", "periodic.degree", _mesh_points),
    ((periodic, cli), "continue_branch", "periodic.continue",
     _tally("solved", lambda a, k, out: len(out))),
    ((equilibrium, cli), "analyze_equilibrium", "equilibrium.analyze", None),
    ((cli,), "parse_scenario", "cli.parse", None),
    ((cli,), "_atomic_write", "cli.write",
     _tally("write_bytes", lambda a, k, out: len(a[1].encode("utf-8")))),
    *[((cli,), f"cmd_{cmd}", f"cli.cmd.{cmd}", None)
      for cmd in ("simulate", "equilibrium", "degree", "validate")],
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_round = array("i")      # operation id -> round label
        self.stack: list[int] = []
        self.tallies: dict[tuple[str, int], float] = defaultdict(float)
        self._saved = []

    def begin_op(self, round_label: int):
        """Spans recorded from now on belong to a new operation."""
        self.op_round.append(round_label)

    def tally(self, key: str, value: float):
        self.tallies[(key, self.op_round[-1])] += value

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, post=None):
        tracer = self
        nid = self._id(name)
        # degree_2d called by find_periodic is its built-in degree check
        check_id = self._id("periodic.degree_check") if name == "periodic.degree" else None
        parent_fp = self._id("periodic.find_periodic")
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            this = nid
            if check_id is not None and parent >= 0 and tracer.name[parent] == parent_fp:
                this = check_id
            sid = len(tracer.start)
            tracer.name.append(this)
            tracer.parent.append(parent)
            tracer.op.append(len(tracer.op_round) - 1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if post is not None:
                post(tracer, tracer.names[this], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owners, attr, name, post in POINTS:
            for owner in owners:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, post))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "op_round": np.frombuffer(self.op_round, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def per_round(self, rounds: list[int], op_factor: np.ndarray):
        """Self time, inclusive time and call count per (span name, round
        label), for the set-up label and the given traced rounds.  Each
        span's times are scaled by its operation's ``op_factor``."""
        a = self.arrays()
        dur = (a["end"] - a["start"]) * op_factor[a["op"]]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_t = dur - covered
        labels = [SETUP_ROUND] + sorted(rounds)
        span_round = a["op_round"][a["op"]]
        keep = np.isin(span_round, labels)
        cell = (a["name"][keep].astype(np.int64) * len(labels)
                + np.searchsorted(np.array(labels), span_round[keep]))
        size = len(self.names) * len(labels)
        shape = (len(self.names), len(labels))
        return {
            "self": np.bincount(cell, weights=self_t[keep], minlength=size).reshape(shape),
            "incl": np.bincount(cell, weights=dur[keep], minlength=size).reshape(shape),
            "calls": np.bincount(cell, minlength=size).reshape(shape),
        }

    def layer_metrics(self, rounds: list[int], op_factor: np.ndarray) -> dict[str, float]:
        """Per-layer figures for one set-up plus one round.

        Counts add the set-up's count to the mean count per traced round
        (exact, since every input set appears equally often); times add the
        set-up's time to the median time per traced round.
        """
        t = self.per_round(rounds, op_factor)

        def row(name):
            return self._ids.get(name)

        def count(name):
            i = row(name)
            return 0.0 if i is None else float(t["calls"][i, 0] + t["calls"][i, 1:].mean())

        def seconds(name, kind="self"):
            i = row(name)
            return 0.0 if i is None else float(t[kind][i, 0] + np.median(t[kind][i, 1:]))

        def tally(key):
            return float(self.tallies.get((key, SETUP_ROUND), 0.0)
                         + sum(self.tallies.get((key, r), 0.0) for r in rounds) / len(rounds))

        m = {}
        for body in BODIES:
            name = f"geometry.project.{body}"
            calls = count(name)
            m[f"geometry.project.calls.{body}"] = calls
            m[f"geometry.project.self_s.{body}"] = seconds(name)
            m[f"geometry.project.inside_frac.{body}"] = (
                tally(f"inside.{name}") / calls if calls else 0.0)
        for name in ("geometry.support", "scenario.eval", "scenario.variation_bound",
                     "scenario.omega", "integrator.run", "integrator.step"):
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_s"] = seconds(name)
        for name in ("geometry.hausdorff", "geometry.gap_search", "scenario.audit"):
            m[f"{name}.self_s"] = seconds(name)
        steps = count("integrator.step")
        m["integrator.sweeps_per_step"] = tally("sweeps") / steps if steps else 0.0
        m["periodic.return_map.calls"] = count("periodic.return_map")
        for name in ("periodic.return_map", "periodic.find_periodic", "periodic.degree_check",
                     "periodic.degree", "periodic.continue", "equilibrium.analyze",
                     "cli.parse", "cli.write", "cli.cmd.simulate", "cli.cmd.equilibrium",
                     "cli.cmd.degree", "cli.cmd.validate"):
            m[f"{name}.s"] = seconds(name, "incl")
        m["periodic.degree.mesh_points"] = tally("mesh_points")
        m["periodic.continue.solved"] = tally("solved")
        m["cli.write.bytes"] = tally("write_bytes")
        m["trace.spans"] = float(t["calls"][:, 0].sum() + t["calls"][:, 1:].sum(axis=0).mean())
        return m

