"""Steadiness: run one workload in two sets of k runs, seeds 1..k in each,
alternating between the sets, and print each metric's median, quartiles
and spread (interquartile distance as a share of the median — the figure
``BENCHMARK.json`` bounds) per set, and how far the second set's median
moved from the first's against the metric's bound.

    python3 perfbench/steady.py --workload dashboard --runs 10 [--seconds 16]

Each run is a fresh ``run.py`` process with tracing off, as a comparison
of two commits would start them.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  Exits non-zero if any run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def spread(values: List[float]) -> tuple:
    """(median, first quartile, third quartile, spread)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def one_run(workload: str, seed: int, seconds: float) -> Optional[dict]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else None
    if result is None or not result["correct"]:
        sys.stderr.write(done.stderr[-2000:])
        print(f"seed {seed}: failed (exit {done.returncode})")
        return None
    stolen = next((item for line in lines if line.startswith("timed ")
                   for item in line.split()
                   if item.startswith("cpu_stolen=")), "")
    print(f"seed {seed}: {time.perf_counter() - start:.1f} s wall, "
          f"attempted={result['attempted']} "
          f"failed={result['failed']} {stolen}", flush=True)
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: List[Dict[str, List[float]]] = [{} for _ in range(SETS)]
    failures = 0
    for seed in range(1, args.runs + 1):
        for number in range(SETS):
            print(f"set {number + 1} ", end="")
            result = one_run(args.workload, seed, seconds)
            if result is None:
                failures += 1
                continue
            for name, metric in result["metrics"].items():
                values[number].setdefault(name, []).append(metric["value"])
    for number, series_of in enumerate(values):
        print(f"set {number + 1}")
        for name, series in series_of.items():
            print(f"{name:<34}"
                  + " ".join(f"{value:.5g}" for value in series))
    print(f"{'metric':<16}" + "".join(
        f"{f'median{n}':>12}{f'spread{n}':>9}" for n in range(1, SETS + 1))
        + f"{'moved':>8}{'bound':>7}")
    for name in values[0]:
        rows = [spread(series[name]) for series in values
                if len(series.get(name, [])) >= 2]
        if len(rows) < SETS:
            continue
        moved = (rows[1][0] - rows[0][0]) / rows[0][0] if rows[0][0] else 0.0
        print(f"{name:<16}" + "".join(f"{row[0]:>12.6g}{row[3]:>9.3f}"
                                      for row in rows)
              + f"{moved:>+8.3f}{bounds.get(name, ''):>7}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
