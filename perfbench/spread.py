#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lowsel_mix --seeds 1-10
    python3 perfbench/spread.py --workload lowsel_mix --repeat-seed 7

The first form prints, per metric, the median of the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound from ``BENCHMARK.json``.  The second runs the traced benchmark
twice on one seed and checks that the deterministic counts repeat
exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = (
    "storage.encode_bytes",
    "storage.dict_bytes",
    "parallel.groups_output",
    "costmodel.auto_choice.pool",
    "costmodel.auto_choice.global",
    "costmodel.auto_choice.rep",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect\n{proc.stdout}")
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--repeat-seed", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    if args.repeat_seed is not None:
        a, b = (run_once(args.workload, args.repeat_seed, seconds, 1)
                for _ in range(2))
        bad = [n for n in DETERMINISTIC
               if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        for name in DETERMINISTIC:
            print(f"{name:<32} {a['metrics'][name]['value']:>14} "
                  f"{b['metrics'][name]['value']:>14}")
        print("deterministic counts repeat" if not bad
              else f"MISMATCH: {', '.join(bad)}")
        return 1 if bad else 0

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        limit = bounds[name] / 3
        worst = max(worst, spread / limit)
        print(f"{name:<36} median {med:<12.6g} spread {spread:.4f} "
              f"(limit {limit:.4f})")
    print(f"worst spread / (bound/3): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
