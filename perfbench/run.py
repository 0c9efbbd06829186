"""End-to-end benchmark of PTA serving and batch reduction (one run).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 \\
        --trace 0

Builds nothing: the program is the Python package under ``src/``, which
every program process imports from the checkout.  The run sets up the
workload, drives it for ``--seconds`` as a closed loop, checks the
program's outputs and prints, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the program processes record layer spans and the metrics
are the per-layer ones.  ``--workload all`` runs the four workloads one
after another.  Lines before the last give the attempted and failed
counts and the median latency of each kind of operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import CheckError  # noqa: E402
from harness import SRC, Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A run must end within this many seconds, whatever happens.
LIMIT_S = 170.0

#: name -> unit of every end-to-end metric (BENCHMARK.json lists them).
END_TO_END = {
    "setup_s": "s",
    "tuples_per_s": "tuples/s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "summary_sse": "value2",
}


def end_to_end(run: Run) -> Dict[str, float]:
    def median(figure) -> float:
        return statistics.median(figure(phase) for phase in run.phases)

    return {
        "setup_s": statistics.median(run.setup_s),
        "tuples_per_s": median(lambda p: p["tuples"] / p["wall_s"]),
        "ops_per_s": median(lambda p: p["ops"] / p["wall_s"]),
        "op_p50_ms": median(lambda p: p["p50_s"]) * 1e3,
        "cpu_ms_per_op": median(lambda p: p["cpu_s"] * 1e3 / p["ops"]),
        "peak_rss_mb": statistics.median(run.rss_mb),
        "summary_sse": run.sse,
    }


#: name -> unit of every per-layer metric (the traced run's output).
PER_LAYER = {
    "http.requests": "count",
    "http.handler_self_us": "us",
    "wire.decode_us_per_tuple": "us/tuple",
    "wire.json_decode_us_per_tuple": "us/tuple",
    "wire.encode_us_per_tuple": "us/tuple",
    "store.push_self_us": "us",
    "store.snapshot_columns_us": "us",
    "store.freezes": "count",
    "session.push_us_per_tuple": "us/tuple",
    "session.snapshot_us": "us",
    "session.oracle_fallbacks": "count",
    "session.oracle_fallback_ratio": "ratio",
    "query.index_builds": "count",
    "query.index_build_us": "us",
    "query.answer_us": "us",
    "query.cache_hit_ratio": "ratio",
    "obs.observe_us_per_request": "us/request",
    "obs.scrape_ms": "ms",
    "wal.append_us_per_push": "us/push",
    "wal.commit_us_per_push": "us/push",
    "wal.bytes_per_tuple": "bytes/tuple",
    "durability.recover_s": "s",
    "durability.demote_ms": "ms",
    "replica.ack_wait_us_per_push": "us/push",
    "replica.catch_up_s": "s",
    "replica.standby_apply_us_per_push": "us/push",
    "batch.greedy_us_per_tuple": "us/tuple",
    "batch.dp_s": "s",
    "parallel.shards": "count",
    "parallel.plan_ms": "ms",
    "parallel.shard_reduce_ms": "ms",
    "parallel.assemble_ms": "ms",
    "unattributed_us_per_op": "us/op",
    "traced_wall_us_per_op": "us/op",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(run: Run) -> Dict[str, float]:
    """The per-layer table from the spans of the timed phases (set-up
    spans only for recovery and catch-up)."""
    timed = run.spans.get("primary", {})
    setup = run.spans.get("setup.primary", {})
    standby = run.spans.get("standby", {})

    def get(name: str, field: str, phase: dict = timed) -> float:
        return phase.get(name, {}).get(field, 0)

    requests = get("http.get", "calls") + get("http.post", "calls")
    ops = run.tally.ops
    traced_us = sum(sum(v) for v in run.tally.latency.values()) * 1e6
    layers_us = sum(row["self_us"] for row in timed.values())
    hits, misses = run.engine["cache_hits"], run.engine["cache_misses"]
    greedy_us = (get("batch.execute", "total_us") - get("batch.dp", "total_us")
                 - get("parallel.run", "total_us"))
    sharded = get("parallel.run", "calls")
    return {
        "http.requests": requests,
        "http.handler_self_us": _ratio(
            get("http.get", "self_us") + get("http.post", "self_us"),
            requests),
        "wire.decode_us_per_tuple": _ratio(get("wire.decode", "total_us"),
                                           get("wire.decode", "units")),
        "wire.json_decode_us_per_tuple": _ratio(
            get("wire.json_decode", "total_us"),
            get("wire.json_decode", "calls")),
        "wire.encode_us_per_tuple": _ratio(get("wire.encode", "total_us"),
                                           get("wire.encode", "units")),
        "store.push_self_us": _ratio(get("store.push", "self_us"),
                                     get("store.push", "calls")),
        "store.snapshot_columns_us": _ratio(
            get("store.snapshot_columns", "total_us"),
            get("store.snapshot_columns", "calls")),
        "store.freezes": get("store.freeze", "calls"),
        "session.push_us_per_tuple": _ratio(get("session.push", "total_us"),
                                            get("session.push", "units")),
        "session.snapshot_us": _ratio(get("session.snapshot", "total_us"),
                                      get("session.snapshot", "calls")),
        "session.oracle_fallbacks": get("session.clone", "calls"),
        "session.oracle_fallback_ratio": _ratio(
            get("session.clone", "calls"),
            get("session.reducer_snapshot", "calls")),
        "query.index_builds": get("query.index_build", "calls"),
        "query.index_build_us": _ratio(get("query.index_build", "total_us"),
                                       get("query.index_build", "calls")),
        "query.answer_us": _ratio(get("query.answer", "self_us"),
                                  get("query.answer", "calls")),
        "query.cache_hit_ratio": _ratio(hits, hits + misses),
        "obs.observe_us_per_request": _ratio(get("obs.observe", "total_us"),
                                             requests),
        "obs.scrape_ms": _ratio(get("obs.render", "total_us"),
                                get("obs.render", "calls")) / 1e3,
        "wal.append_us_per_push": _ratio(get("wal.append", "total_us"),
                                         get("wal.append", "calls")),
        "wal.commit_us_per_push": _ratio(get("wal.commit", "total_us"),
                                         get("wal.commit", "calls")),
        "wal.bytes_per_tuple": _ratio(get("wal.append", "units"),
                                      get("store.push", "units")),
        "durability.recover_s": _ratio(
            get("durability.recover", "total_us", setup),
            get("durability.recover", "calls", setup)) / 1e6,
        "durability.demote_ms": _ratio(get("durability.demote", "total_us"),
                                       get("durability.demote", "calls"))
        / 1e3,
        "replica.ack_wait_us_per_push": _ratio(
            get("replica.ship", "total_us"), get("replica.ship", "calls")),
        "replica.catch_up_s": _ratio(
            get("replica.catch_up", "total_us", setup),
            get("replica.catch_up", "calls", setup)) / 1e6,
        "replica.standby_apply_us_per_push": _ratio(
            get("store.push", "total_us", standby),
            get("store.push", "calls", standby)),
        "batch.greedy_us_per_tuple": _ratio(greedy_us,
                                            run.greedy_tuples),
        "batch.dp_s": _ratio(get("batch.dp", "total_us"),
                             get("batch.dp", "calls")) / 1e6,
        "parallel.shards": _ratio(get("parallel.plan", "units"),
                                  get("parallel.plan", "calls")),
        "parallel.plan_ms": _ratio(get("parallel.plan", "total_us"),
                                   sharded) / 1e3,
        "parallel.shard_reduce_ms": _ratio(get("parallel.run", "self_us"),
                                           sharded) / 1e3,
        "parallel.assemble_ms": _ratio(get("parallel.assemble", "total_us"),
                                       sharded) / 1e3,
        "unattributed_us_per_op": _ratio(traced_us - layers_us, ops),
        "traced_wall_us_per_op": _ratio(traced_us, ops),
    }


def _print_kinds(run: Run) -> None:
    tally = run.tally
    for kind in sorted(tally.attempted):
        values = sorted(tally.latency.get(kind) or [0.0])
        print(f"op {kind:<18} attempted={tally.attempted[kind]:<6} "
              f"failed={tally.failed[kind]:<4} "
              f"p50_ms={statistics.median(values) * 1e3:.3f} "
              f"p90_ms={values[int(0.9 * (len(values) - 1))] * 1e3:.3f} "
              f"max_ms={values[-1] * 1e3:.3f}")
    for number, phase in enumerate(run.phases):
        ops = max(phase["ops"], 1)
        print(f"phase {number} ops={phase['ops']} "
              f"wall_s={phase['wall_s']:.3f} "
              f"ops_per_s={phase['ops'] / phase['wall_s']:.2f} "
              f"p50_ms={phase['p50_s'] * 1e3:.3f} "
              f"cpu_ms_per_op={phase['cpu_s'] * 1e3 / ops:.3f} "
              f"cpu_stolen={phase['stolen']:.1%}")
    print(f"timed wall_s={run.wall:.3f} ops={tally.ops} "
          f"cpu_stolen={run.stolen[0] / max(run.stolen[1], 1):.1%}")
    if run.setup_s:
        print(f"setup median_s={statistics.median(run.setup_s):.3f} "
              f"(program work, {len(run.setup_s)} set-ups); host start "
              f"median_s={statistics.median(run.start_s):.3f} (interpreter "
              f"and imports, {len(run.start_s)} processes, not in setup_s)")
    print("checks " + " ".join(f"{name}={count}" for name, count
                               in sorted(run.checks.items())))


def run_one(workload: str, seed: int, seconds: float, tracing: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program under {SRC}\n")
        return 2
    run = Run(seed, seconds, tracing, LIMIT_S)
    correct = True
    try:
        WORKLOADS[workload](run)
        failed = sum(run.tally.failed.values())
        if failed:  # no operation fails on a working program
            raise CheckError(f"{failed} operations failed")
    except CheckError as error:
        sys.stderr.write(f"perfbench: check failed: {error}\n")
        correct = False
    finally:
        run.close()
    _print_kinds(run)
    if not correct:
        metrics = {}
    elif tracing:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer(run).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(run).items()}
    attempted = sum(run.tally.attempted.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": sum(run.tally.failed.values()),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def stop(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        for name in names:
            if len(names) > 1:
                print(f"workload {name}", flush=True)
            status = max(status, run_one(name, args.seed, args.seconds,
                                         bool(args.trace)))
    except KeyboardInterrupt:
        return 130
    except Exception:  # noqa: BLE001 — no result line on a broken run
        traceback.print_exc()
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
