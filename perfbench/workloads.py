"""The four workloads: what each sends, in which rounds, and what it checks.

Every workload is a closed loop: each client sends its next operation
only after the previous reply arrived.  A run attempts whole *rounds*,
fixed sequences of operations generated from the seed, so every run does
the same mix whatever its length.  See README.md for why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import json
import shutil
import sys
from typing import Dict, List, Optional
from urllib.parse import quote

import numpy as np

from check import CheckError, check_answers, same_segments, summary_sse
from gen import Chunk, history, json_chunk, key_spec, open_stream, pack_chunk
from harness import REPS, SRC, Run, Tally, apart, get_json, http

#: Summary budget ``c`` of every live session (tuples per key and epoch).
SIZE = 128
WIRE = "application/x-pta-wire"
#: Tuples per binary push.
PUSH = 256
#: Round number of the untimed warm-up round before each timed phase.
WARMUP = 10 ** 6


class KeyState:
    """The client's view of one key: its stream and acknowledged input."""

    def __init__(self, spec: dict) -> None:
        self.name = spec["name"]
        self.stream = open_stream(spec)
        self.chunks: List[Chunk] = history(spec, self.stream)
        self.ends = {c.group: int(c.ends[-1]) for c in self.chunks}
        self.dirty = True  # pushed since its last read

    def take(self, n: int) -> Chunk:
        return self.stream.take(n)

    def push(self, tally: Tally, port: int, chunk: Chunk,
             binary: bool = True) -> None:
        body, ctype, kind = ((pack_chunk(chunk), WIRE, "push_bin") if binary
                             else (json_chunk(chunk), "application/json",
                                   "push_json"))
        reply = tally.op(kind, lambda: http(port, "POST", "/push/" + self.name,
                                            body, ctype), len(chunk))
        if reply is not None:
            if json.loads(reply)["pushed"] != len(chunk):
                raise CheckError(f"push to {self.name} acknowledged "
                                 f"{reply!r} for {len(chunk)} tuples")
            self.chunks.append(chunk)
            self.ends[chunk.group] = int(chunk.ends[-1])
            self.dirty = True


def _query(key: KeyState, rng: np.random.Generator) -> tuple:
    """A random ``value_at`` / ``range_agg`` / ``window`` over the key's
    history: ``(op, args, path)``."""
    groups = list(key.ends)
    group = groups[int(rng.integers(len(groups)))]
    end = key.ends[group]
    width = int(rng.integers(50, 2000))
    t1 = int(rng.integers(0, max(end - width, 1)))
    draw = rng.random()
    args: Dict[str, object] = {}
    if draw < 0.4:
        op, args = "value_at", {"t": int(rng.integers(0, end + 1))}
    elif draw < 0.8:
        op = "range_agg"
        args = {"t1": t1, "t2": t1 + width,
                "fn": ("avg", "sum", "min", "max")[int(rng.integers(4))]}
    else:
        op = "window"
        args = {"t1": t1, "t2": t1 + width, "stride": max(width // 10, 1),
                "fn": "avg"}
    query = "&".join(f"{name}={value}" for name, value in args.items())
    if group:
        args["group"] = list(group)
        query += "&group=" + quote(json.dumps(list(group)))
    return op, args, f"/{op}?key={key.name}&{query}"


def read(tally: Tally, port: int, key: KeyState,
         rng: np.random.Generator) -> None:
    op, _, path = _query(key, rng)
    kind = op + ("/cold" if key.dirty else "")
    key.dirty = False
    tally.op(kind, lambda: http(port, "GET", path))


# ----------------------------------------------------------------------
# Checks shared by the served workloads
# ----------------------------------------------------------------------
def check_served(run: Run, port: int, keys: List[KeyState], rng,
                 compress_key: Optional[KeyState] = None,
                 epoch_tuples: Optional[int] = None) -> tuple:
    """Check every key's served summary against its input, a sample of
    query answers against the summary, and one key against batch
    ``compress``; returns the ``/summary`` documents and their total
    squared error."""
    docs = {}
    total = 0.0
    for key in keys:
        doc = get_json(port, "/summary?key=" + key.name)
        epochs = len(_epochs(key.chunks, epoch_tuples))
        total += summary_sse(doc["segments"], key.chunks, doc["error"],
                             size=SIZE * epochs)
        run.checks["summary"] += 1
        docs[key.name] = doc
    for key in keys[:2]:
        answers = []
        for _ in range(8):
            op, args, path = _query(key, rng)
            reply = get_json(port, path)
            answers.append((op, args, [b["values"] for b in reply["buckets"]]
                            if op == "window" else reply["values"]))
        run.checks["answer"] += check_answers(docs[key.name]["segments"],
                                              answers)
    if compress_key is not None:
        same_segments(docs[compress_key.name]["segments"],
                      batch_reference(compress_key.chunks, epoch_tuples))
        run.checks["compress"] += 1
    return docs, total


def _epochs(chunks: List[Chunk], epoch_tuples: Optional[int]):
    """Split pushed chunks where the store's ``checkpoint_every`` trigger
    freezes the live session (after the push that reaches the count)."""
    epochs: List[List[Chunk]] = [[]]
    count = 0
    for chunk in chunks:
        epochs[-1].append(chunk)
        count += len(chunk)
        if epoch_tuples is not None and count >= epoch_tuples:
            epochs.append([])
            count = 0
    return [epoch for epoch in epochs if epoch]


def batch_reference(chunks: List[Chunk],
                    epoch_tuples: Optional[int] = None) -> List[dict]:
    """Batch ``compress`` over the acknowledged prefix, epoch by epoch —
    what the documented session property says the service must serve."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro import Interval, compress
    from repro.core import AggregateSegment

    rows = []
    for epoch in _epochs(chunks, epoch_tuples):
        segments = [
            AggregateSegment(chunk.group, tuple(float(v) for v in values),
                             Interval(int(start), int(end)))
            for chunk in epoch
            for start, end, values in zip(chunk.starts, chunk.ends,
                                          chunk.values)]
        result = compress(segments, size=SIZE)
        rows.extend({"group": list(s.group), "values": list(s.values),
                     "start": s.interval.start, "end": s.interval.end}
                    for s in result.segments)
    return rows


def _compressed(run: Run, rep: int, keys: List[KeyState]):
    """The key checked against batch ``compress`` (python backend, so
    seconds per key): one per run, after the last timed phase."""
    return keys[run.seed % len(keys)] if rep == REPS - 1 else None


def _rng(run: Run, *path: int) -> np.random.Generator:
    return np.random.default_rng([run.seed, *path])


def _served(run: Run, specs: List[dict], make_lane) -> None:
    """Set-up, warm-up, timed phase and checks of a workload against one
    in-memory HTTP server; ``make_lane(port, keys, rep)`` gives the
    client's round function.  Client and server run on different CPUs."""
    with apart() as cpus:
        for rep in range(REPS):
            host = run.host(cpus)
            reply = host.call("serve", config={"size": SIZE}, keys=specs)
            run.setup_s.append(reply["setup_s"])
            port = reply["port"]
            keys = [KeyState(spec) for spec in specs]
            if rep == 0:
                run.sse = check_served(run, port, keys, _rng(run, 1))[1]
            lane = make_lane(port, keys, rep)
            lane(Tally(), 0, WARMUP)  # untimed: lazy imports in the server
            run.begin({"primary": host})
            run.timed(lane)
            run.end({"primary": host})
            check_served(run, port, keys, _rng(run, 3, rep),
                         compress_key=_compressed(run, rep, keys))
            run.release(host)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def ingest(run: Run) -> None:
    """Binary pushes round-robin over 8 float keys, JSON pushes and a
    cold query now and then, into an in-memory store."""
    def make_lane(port: int, keys: List[KeyState], rep: int):
        def lane(tally: Tally, _client: int, number: int) -> None:
            rng = _rng(run, 2, rep, number)
            for i, key in enumerate(keys):
                key.push(tally, port, key.take(PUSH))
                if i in (2, 6):
                    other = keys[(2 * number + i) % len(keys)]
                    other.push(tally, port, other.take(32), binary=False)
                if i == 4:
                    read(tally, port, keys[(number + 1) % len(keys)], rng)
        return lane

    _served(run, [key_spec(f"s{i}", run.seed, i, per_group=3000)
                  for i in range(8)], make_lane)


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
def dashboard(run: Run) -> None:
    """Reads over 12 prefilled keys (float, grouped, integer 0-9) with
    small pushes in between and a /metrics scrape every round."""
    def make_lane(port: int, keys: List[KeyState], rep: int):
        def lane(tally: Tally, _client: int, number: int) -> None:
            rng = _rng(run, 4, rep, number)
            first = keys[(2 * number) % len(keys)]
            second = keys[(2 * number + 1) % len(keys)]
            for pushed in (first, second):
                pushed.push(tally, port, pushed.take(8))
                read(tally, port, pushed, rng)
            for step in range(16):
                if step == 8:
                    read(tally, port, first, rng)
                read(tally, port, keys[int(rng.integers(len(keys)))], rng)
            read(tally, port, second, rng)
            body = tally.op("metrics", lambda: http(port, "GET", "/metrics"))
            if body is not None and b"repro_http_request_seconds" not in body:
                raise CheckError("/metrics lacks the HTTP latency series")
        return lane

    # f0 and i0 have one outage, within their first c tuples, which stops
    # the online reducer's size-bounded merging for good: their heaps
    # keep the whole history and every cold read of them pays for it.
    _served(run, [key_spec(f"f{i}", run.seed, 10 + i, per_group=3000,
                           early_gap=i == 0) for i in range(4)]
            + [key_spec(f"g{i}", run.seed, 20 + i, groups=3, per_group=1000)
               for i in range(4)]
            + [key_spec(f"i{i}", run.seed, 30 + i, kind="int",
                        per_group=3000, early_gap=i == 0) for i in range(4)],
            make_lane)


# ----------------------------------------------------------------------
# durable_replicated
# ----------------------------------------------------------------------
#: The freeze trigger of the durable store, in pushed tuples per epoch.
CHECKPOINT_EVERY = 4096


def durable_replicated(run: Run) -> None:
    """Two connections push binary chunks to their own keys on a durable
    primary (fsync per push, checkpoints) with one synchronous standby."""
    specs = [key_spec(f"d{i}", run.seed, 40 + i, per_group=6000)
             for i in range(4)]
    config = {"size": SIZE, "fsync_every": 1,
              "checkpoint_every": CHECKPOINT_EVERY, "sync_replicas": 1}
    prepared = run.scratch("prepared")
    preparer = run.host()
    preparer.call("prepare", config={**config, "data_dir": prepared},
                  keys=specs)
    run.release(preparer)
    for rep in range(REPS):
        data_dir = run.scratch(f"rep{rep}")
        shutil.copytree(prepared, data_dir)
        primary, standby = run.host(), run.host()
        served = primary.call("serve", config={**config,
                                               "data_dir": data_dir}, keys=[])
        address = standby.call("start_standby",
                               config={"size": SIZE})["address"]
        attached = primary.call("attach", address=address)
        run.setup_s.append(served["setup_s"] + attached["setup_s"])
        port = served["port"]
        keys = [KeyState(spec) for spec in specs]
        if rep == 0:
            run.sse = check_served(run, port, keys, _rng(run, 1),
                                   epoch_tuples=CHECKPOINT_EVERY)[1]

        def lane(tally: Tally, client: int, number: int) -> None:
            for key in keys[2 * client: 2 * client + 2]:
                key.push(tally, port, key.take(PUSH))

        lane(Tally(), 0, WARMUP)
        lane(Tally(), 1, WARMUP)
        roles = {"primary": primary, "standby": standby}
        run.begin(roles)
        run.timed(lane, lanes=2)
        run.end(roles)
        docs, _ = check_served(run, port, keys, _rng(run, 3, rep),
                            compress_key=_compressed(run, rep, keys),
                            epoch_tuples=CHECKPOINT_EVERY)
        promoted = standby.call("promote")["port"]
        for key in keys:
            same_segments(get_json(promoted, "/summary?key=" + key.name)
                          ["segments"], docs[key.name]["segments"])
            run.checks["standby"] += 1
        run.release(primary, standby)
        shutil.rmtree(data_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
BATCH_SIZE = 400
BATCH_EPSILON = 0.6
DP_SIZE = 30

#: (kind, relation, budget, policy, method) of one round's jobs.
JOBS = [
    ("greedy_size", "big", {"size": BATCH_SIZE}, {"backend": "numpy"},
     "greedy"),
    ("greedy_error", "big", {"epsilon": BATCH_EPSILON},
     {"backend": "numpy"}, "greedy"),
    ("sharded_w1", "big", {"size": BATCH_SIZE}, {"workers": 1}, "greedy"),
    ("sharded_w2", "big", {"size": BATCH_SIZE}, {"workers": 2}, "greedy"),
    ("dp_size", "small", {"size": DP_SIZE}, {"backend": "numpy"}, "dp"),
]
#: Checked once per set-up beside ``dp_size`` (DP error <= greedy error);
#: not timed, so every round's five jobs take clearly different times and
#: the median job falls inside one kind.
GREEDY_SMALL = ("greedy_small", "small", {"size": DP_SIZE},
                {"backend": "numpy"}, "greedy")


def batch(run: Run) -> None:
    """Offline reductions of a grouped 3-aggregate relation, one job
    after another: greedy size- and error-bounded, sharded on 1 and 2
    workers, and exact DP beside greedy on a smaller relation."""
    relations = {
        "big": [key_spec("big", run.seed, 50, dims=3, groups=8,
                         per_group=2000, chunk=4096)],
        "small": [key_spec("small", run.seed, 51, dims=3, groups=2,
                           per_group=300, chunk=4096)],
    }
    inputs = {name: history(specs[0]) for name, specs in relations.items()}
    for rep in range(REPS):
        host = run.host()
        run.setup_s.append(host.call("batch_load",
                                     relations=relations)["setup_s"])
        first = {}
        for kind, relation, budget, policy, method in JOBS + [GREEDY_SMALL]:
            first[kind] = host.call("batch_job", relation=relation,
                                    budget=budget, policy=policy,
                                    method=method, rows=rep == 0)
        if rep == 0:
            run.sse = _check_batch(run, first, inputs)

        def lane(tally: Tally, _client: int, _number: int) -> None:
            for kind, relation, budget, policy, method in JOBS:
                reply = tally.op(kind, lambda: (200, host.call(
                    "batch_job", relation=relation, budget=budget,
                    policy=policy, method=method)),
                    tuples=first[kind]["tuples"])
                if (reply["size"], reply["error"]) != (
                        first[kind]["size"], first[kind]["error"]):
                    raise CheckError(f"{kind} is not deterministic: "
                                     f"{reply} after {first[kind]}")

        run.begin({"primary": host})
        run.timed(lane)
        run.end({"primary": host})
        run.release(host)
    for kind, relation, _, policy, method in JOBS:
        if method == "greedy" and "workers" not in policy:
            run.greedy_tuples += run.tally.attempted[kind] * sum(
                len(chunk) for chunk in inputs[relation])


def _check_batch(run: Run, jobs: Dict[str, dict],
                 inputs: Dict[str, List[Chunk]]) -> float:
    """Check the first round's results; returns greedy_size's error."""
    relation = {kind: rel for kind, rel, _, _, _ in JOBS + [GREEDY_SMALL]}
    for kind, job in jobs.items():
        budget = next(b for k, _, b, _, _ in JOBS + [GREEDY_SMALL]
                      if k == kind)
        summary_sse(job["segments"], inputs[relation[kind]], job["error"],
                    size=budget.get("size"), epsilon=budget.get("epsilon"))
        run.checks["summary"] += 1
    same_segments(jobs["sharded_w2"]["segments"],
                  jobs["sharded_w1"]["segments"])
    if jobs["sharded_w2"]["error"] != jobs["sharded_w1"]["error"]:
        raise CheckError("workers=2 and workers=1 report different errors")
    if jobs["dp_size"]["error"] > jobs["greedy_small"]["error"] * (1 + 1e-9):
        raise CheckError(f"DP error {jobs['dp_size']['error']} exceeds the "
                         f"greedy error {jobs['greedy_small']['error']}")
    run.checks["batch"] += 3
    return summary_sse(jobs["greedy_size"]["segments"], inputs["big"])


WORKLOADS = {
    "ingest": ingest,
    "dashboard": dashboard,
    "durable_replicated": durable_replicated,
    "batch": batch,
}
