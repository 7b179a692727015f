"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--seconds 10] [--first-seed 0] [workload ...]

Runs run.py once per seed for each workload and prints, per metric, the
median and the quartile spread (Q3 - Q1) / median of the per-run values,
with the quartiles from ``statistics.quantiles(values, n=4)``, next to the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args()
    names = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for name in names:
        values = {metric: [] for metric in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                  "--seed", str(seed), "--seconds", str(args.seconds),
                                  "--trace", "0"], capture_output=True, text=True,
                                 check=True, cwd=HERE.parent)
            result = json.loads(out.stdout.splitlines()[-1])
            failed += result["failed"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"{name} {metric}: median {median:.6g} spread {(q3 - q1) / median:.4f} "
                  f"bound {bounds[metric]} failed {failed}", flush=True)


if __name__ == "__main__":
    main()
