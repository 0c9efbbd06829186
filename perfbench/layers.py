"""Traced run: the per-layer cost table of each workload.

    python3 perfbench/layers.py [--workload all] [--seed 1] [--seconds 12]

For each workload this runs ``run.py`` twice with one seed — traced
(``--trace 1``) and untraced — and prints every per-layer metric, the
share of the traced wall time the layers account for, the unattributed
remainder, and the tracing overhead (traced over untraced wall time per
operation).  The layers' self times and the remainder add up to the
traced wall time, the sum of the client-side latencies of the timed
operations; the check is that the layers never claim more than that
wall time plus ``MARGIN`` (time spans of two program threads overlap
only in ``durable_replicated``, whose lock waits are counted once, in
``store.push_self_us``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Largest share of the traced wall time the layers may exceed it by.
MARGIN = 0.02


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} (trace {trace}) failed")
    lines = done.stdout.strip().splitlines()
    wall = next(line for line in lines if line.startswith("timed "))
    fields = dict(item.split("=") for item in wall.split()[1:])
    return json.loads(lines[-1]), float(fields["wall_s"]) / int(
        fields["ops"])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        traced, traced_wall = _run(name, args.seed, args.seconds, 1)
        _, plain_wall = _run(name, args.seed, args.seconds, 0)
        metrics = traced["metrics"]
        print(f"== {name}")
        for metric, entry in metrics.items():
            if entry["value"]:
                print(f"  {metric:<36}{entry['value']:>14.4f}  "
                      f"{entry['unit']}")
        wall = metrics["traced_wall_us_per_op"]["value"]
        rest = metrics["unattributed_us_per_op"]["value"]
        share = (wall - rest) / wall
        ok = rest >= -MARGIN * wall
        status |= not ok
        print(f"  layers account for {share:.1%} of the traced wall time "
              f"({'within' if ok else 'OVER'} the {MARGIN:.0%} margin)")
        print(f"  tracing overhead: {traced_wall / plain_wall - 1:+.1%} "
              f"wall time per operation")
    return status


if __name__ == "__main__":
    sys.exit(main())
