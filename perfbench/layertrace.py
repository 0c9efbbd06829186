"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of every layer named in
README.md (the table "Per-layer metrics") so each call records a span —
name, start, end, parent span and request id — into an in-memory list.
Nothing under ``src/`` changes: the wrappers replace attributes on the
program's classes and modules (and on the modules that imported a
function by name, which hold their own reference).

A span's *self time* is its duration minus that of its child spans;
spans nest per thread, so children never overlap each other.
:func:`drain` aggregates the recorded spans per name and clears them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Spans of the current phase: (name, start_ns, end_ns, span id, parent
#: span id, request id, child ns, units).  Appending to a list is atomic
#: under the interpreter lock, so handler threads share it without a lock.
_spans: List[tuple] = []
_local = threading.local()
_ids = itertools.count(1)


def _wrap(name: str, fn: Callable, units: Optional[Callable] = None,
          root: bool = False) -> Callable:
    """``fn`` recording one span per call.  ``units(args, result)`` says
    how much work the call did (tuples, bytes, shards); default 1."""
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(_ids)
        request = span_id if root or parent is None else parent[2]
        frame = [0, span_id, request]  # [child ns, span id, request id]
        stack.append(frame)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent[0] += end - start
            _spans.append((name, start, end, span_id,
                           parent[1] if parent else 0, request, frame[0],
                           units(args, result) if units else 1))

    traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
    return traced


def _patch(owner: Any, attr: str, name: str, **options: Any) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, _wrap(name, original, **options))


def _first_len(args: tuple, result: Any) -> int:
    """Tuples in the segment argument of a push (one segment or a chunk)."""
    value = args[-1]
    try:
        return len(value)
    except TypeError:
        return 1


def _payload_len(args: tuple, result: Any) -> int:
    return len(args[-1])


def _result_len(args: tuple, result: Any) -> int:
    return len(result) if result is not None else 0


def install() -> None:
    """Wrap every layer's entry points (idempotent)."""
    from repro.api import executor, session
    from repro.cluster import replica
    from repro.core import dp, greedy
    from repro import parallel
    from repro.obs import metrics
    from repro.service import durability, http, query, store

    _patch(http._Handler, "do_GET", "http.get", root=True)
    _patch(http._Handler, "do_POST", "http.post", root=True)
    _patch(http, "decode_segments", "wire.decode", units=_result_len)
    _patch(replica, "decode_segments", "wire.decode", units=_result_len)
    _patch(http, "segment_from_obj", "wire.json_decode")
    _patch(store, "encode_segments", "wire.encode", units=_first_len)
    _patch(store.SessionStore, "push", "store.push", units=_first_len)
    _patch(store.SessionStore, "snapshot_columns", "store.snapshot_columns")
    _patch(store.SessionStore, "_freeze_state", "store.freeze")
    _patch(store.SessionStore, "replicate_to", "replica.catch_up")
    _patch(session.Compressor, "push", "session.push", units=_first_len)
    _patch(session.Compressor, "summary_columns", "session.snapshot")
    _patch(greedy.OnlineReducer, "snapshot", "session.reducer_snapshot")
    _patch(greedy.OnlineReducer, "clone", "session.clone")
    _patch(query.SnapshotIndex, "from_columns", "query.index_build")
    for op in ("value_at", "range_agg", "window"):
        _patch(query.QueryEngine, op, "query.answer")
    _patch(metrics.Histogram, "observe", "obs.observe")
    _patch(metrics.Counter, "inc", "obs.observe")
    _patch(metrics.MetricsRegistry, "render", "obs.render")
    _patch(durability.Durability, "log_push", "wal.append",
           units=_payload_len)
    _patch(durability.Durability, "commit", "wal.commit")
    _patch(durability.Durability, "recover", "durability.recover")
    _patch(durability.Durability, "demote", "durability.demote")
    _patch(replica.ReplicationLink, "on_push", "replica.ship")
    _patch(executor, "execute", "batch.execute")
    _patch(dp, "reduce_to_size", "batch.dp")
    _patch(dp, "reduce_to_error", "batch.dp")
    _patch(parallel, "run_sharded", "parallel.run")
    _patch(parallel, "plan_shards", "parallel.plan", units=_result_len)
    _patch(parallel, "assemble_result", "parallel.assemble")


def drain() -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self microseconds, units; then
    forget the spans (the next phase starts empty)."""
    spans = list(_spans)
    del _spans[: len(spans)]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_us": 0.0, "self_us": 0.0, "units": 0})
    for name, start, end, _span, _parent, _request, child_ns, units in spans:
        row = out[name]
        row["calls"] += 1
        row["total_us"] += (end - start) / 1e3
        row["self_us"] += (end - start - child_ns) / 1e3
        row["units"] += units
    return dict(out)
