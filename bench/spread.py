"""Run-to-run spread of the end-to-end metrics: runs one workload once per
seed and prints, per metric, the median and the interquartile range as a
share of the median, beside the metric's bound in BENCHMARK.json.

    python3 bench/spread.py --workload certify --seeds 1-10 [--seconds 20]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    first, last = (int(v) for v in args.seeds.split("-"))
    seconds = str(args.seconds or spec["run_seconds"])

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, last + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{done.stdout}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()), flush=True)

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:>12}: median {med:.5g} {m['unit']}, spread {spread:.3f} "
              f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.3f})")


if __name__ == "__main__":
    main()
