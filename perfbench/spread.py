"""Run one workload on several seeds, one run at a time, and print each
metric's median and quartile spread (Q3 - Q1 as a share of the median).

    python3 perfbench/spread.py --workload xmodal-b512 --seeds 1-10

Run from the root of a source checkout. Each run measures the end-to-end
metrics (`--trace 0`) for the `run_seconds` of BENCHMARK.json, and the
spread is the figure each metric's bound there is set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-10")
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"failed shares {sorted(failed_shares)}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.2%}  min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
