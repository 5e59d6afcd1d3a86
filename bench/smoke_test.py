"""Smoke test of the benchmark itself: every workload, traced and untraced,
at tiny size, must emit every metric BENCHMARK.json names, with its unit.

    python3 bench/smoke_test.py          (or: python3 -m pytest bench/smoke_test.py)
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _run(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in declared}
            assert set(result["metrics"]) == set(units), (workload, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], (workload, name)
                assert isinstance(metric["value"], (int, float)), (workload, name)
                if trace == 0:
                    assert metric["value"] > 0, (workload, name)


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == {m["name"] for m in _spec()["per_layer"]}


if __name__ == "__main__":
    test_layer_map_covers_every_per_layer_metric()
    test_every_metric_is_emitted_with_its_unit()
    print("smoke test passed")
