"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric the median, the quartiles and the spread: the distance between
the first and third quartile as a share of the median.  A spread is marked
when it exceeds a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            last = done.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                result = json.loads(last[0])
            except json.JSONDecodeError:
                result = {}
            if done.returncode != 0 or not result.get("correct"):
                status = 1
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      f"{last[0][:200]}\n{done.stderr[-2000:]}")
            if "metrics" in result:
                runs.append(result)
        print(f"{workload}: {len(runs)} runs")
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = " " if bound is None or spread <= bound / 3 else "!"
            print(f" {mark} {name:<28} median={med:<14.6g} q1={q1:<14.6g} "
                  f"q3={q3:<14.6g} spread={spread:.4f} bound={bound}")
            print("     " + " ".join(f"{v:.6g}" for v in values))
    return status


if __name__ == "__main__":
    sys.exit(main())
