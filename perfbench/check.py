"""Output checker, written apart from the program (NumPy only).

It judges a summary against the input tuples the benchmark generated:

* coverage — per group, the summary's segments partition the input
  tuples into runs of adjacent tuples, start and end on tuple
  boundaries, and leave no chronon out or in twice;
* values — each summary value is the length-weighted mean of the input
  tuples its segment covers;
* error — the summary's squared error against the input, recomputed
  here, matches the error the program reported;
* budgets — at most ``c`` segments, or an error within ``ε`` of the
  largest-reduction error;
* answers — ``value_at`` / ``range_agg`` / ``window`` answers equal the
  values recomputed from the summary of the same generation.

Summaries arrive as the ``/summary`` JSON segment objects
(``{"group", "values", "start", "end"}``); the batch host converts
``Result.segments`` to the same shape.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from gen import Chunk, concat

#: Relative tolerance for values recomputed in another summation order.
RTOL = 1e-7
#: Tolerance of query answers: relative to the answer, plus a floor
#: relative to the summary's magnitude (prefix-sum differences).
ANSWER_RTOL = 1e-9
ANSWER_FLOOR = 1e-12


class CheckError(AssertionError):
    """The program's output disagrees with the checker."""


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= ANSWER_RTOL * max(abs(a), abs(b)) + \
        ANSWER_FLOOR * scale


def _by_group(segments: Iterable[dict]) -> Dict[tuple, np.ndarray]:
    """Summary segments per group as rows ``[start, end, v1, v2, ...]``."""
    rows: Dict[tuple, list] = defaultdict(list)
    for seg in segments:
        rows[tuple(seg.get("group", ()))].append(
            [seg["start"], seg["end"], *seg["values"]])
    out = {}
    for group, members in rows.items():
        table = np.array(members, dtype=np.float64)
        out[group] = table[np.argsort(table[:, 0], kind="stable")]
    return out


def _inputs_by_group(chunks: Sequence[Chunk]) -> Dict[tuple, Chunk]:
    out: Dict[tuple, Chunk] = {}
    for chunk in concat(chunks):
        if chunk.group in out:
            raise CheckError(f"group {chunk.group} is not contiguous in "
                             f"the input; the checker needs it so")
        out[chunk.group] = chunk
    return out


def summary_sse(segments: Sequence[dict], chunks: Sequence[Chunk],
                reported_error: Optional[float] = None,
                size: Optional[int] = None,
                epsilon: Optional[float] = None) -> float:
    """Check ``segments`` against the input; return their squared error.

    Raises :class:`CheckError` on the first property that fails.
    """
    summary = _by_group(segments)
    inputs = _inputs_by_group(chunks)
    if set(summary) != set(inputs):
        raise CheckError(f"summary groups {sorted(summary)} differ from "
                         f"input groups {sorted(inputs)}")
    total = 0.0
    largest = 0.0
    for group, table in summary.items():
        chunk = inputs[group]
        starts, ends, values = chunk.starts, chunk.ends, chunk.values
        lengths = (ends - starts + 1).astype(np.float64)
        seg_starts = table[:, 0].astype(np.int64)
        seg_ends = table[:, 1].astype(np.int64)
        seg_values = table[:, 2:]
        if seg_values.shape[1] != values.shape[1]:
            raise CheckError(f"group {group}: summary has "
                             f"{seg_values.shape[1]} aggregates, input "
                             f"{values.shape[1]}")
        lo = np.searchsorted(starts, seg_starts)
        hi = np.searchsorted(ends, seg_ends)
        inside = (lo < len(starts)) & (hi < len(ends))
        if not inside.all() or not (
                (starts[lo] == seg_starts) & (ends[hi] == seg_ends)).all():
            raise CheckError(f"group {group}: a summary segment does not "
                             f"start and end on input tuple boundaries")
        if lo[0] != 0 or hi[-1] != len(starts) - 1 or not (
                lo[1:] == hi[:-1] + 1).all() or not (hi >= lo).all():
            raise CheckError(f"group {group}: summary segments do not "
                             f"cover each input tuple exactly once")
        covered = np.add.reduceat(lengths, lo)
        if not (covered == seg_ends - seg_starts + 1).all():
            raise CheckError(f"group {group}: a summary segment spans a "
                             f"temporal gap of the input")
        means = np.add.reduceat(values * lengths[:, None], lo) / covered[
            :, None]
        bad = ~np.isclose(seg_values, means, rtol=RTOL, atol=RTOL)
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=1))[0])
            raise CheckError(
                f"group {group}: segment [{seg_starts[row]}, "
                f"{seg_ends[row]}] has values {seg_values[row].tolist()}, "
                f"the length-weighted input mean is {means[row].tolist()}")
        owner = np.repeat(np.arange(len(lo)), hi - lo + 1)
        total += float((lengths[:, None]
                        * (values - seg_values[owner]) ** 2).sum())
        if epsilon is not None:
            runs = np.flatnonzero(starts[1:] != ends[:-1] + 1) + 1
            run_lo = np.concatenate(([0], runs))
            run_len = np.add.reduceat(lengths, run_lo)
            run_mean = np.add.reduceat(values * lengths[:, None], run_lo) / \
                run_len[:, None]
            run_owner = np.repeat(np.arange(len(run_lo)),
                                  np.diff(np.append(run_lo, len(starts))))
            largest += float((lengths[:, None]
                              * (values - run_mean[run_owner]) ** 2).sum())
    if reported_error is not None and abs(total - reported_error) > \
            1e-6 * max(total, 1.0):
        raise CheckError(f"reported error {reported_error!r} differs from "
                         f"the recomputed squared error {total!r}")
    if size is not None and len(segments) > size:
        raise CheckError(f"{len(segments)} summary segments exceed the "
                         f"size budget {size}")
    if epsilon is not None and total > epsilon * largest * (1 + 1e-9) + 1e-9:
        raise CheckError(f"error {total!r} exceeds epsilon={epsilon} of the "
                         f"largest-reduction error {largest!r}")
    return total


# ----------------------------------------------------------------------
# Query answers
# ----------------------------------------------------------------------
def _answer(table: np.ndarray, op: str, args: dict) -> object:
    starts, ends, values = table[:, 0], table[:, 1], table[:, 2:]
    if op == "value_at":
        t = args["t"]
        hit = np.flatnonzero((starts <= t) & (ends >= t))
        return values[hit[0]].tolist() if len(hit) else None
    if op == "range_agg":
        return _range(starts, ends, values, args["t1"], args["t2"],
                      args["fn"])
    buckets = []
    t = args["t1"]
    while t <= args["t2"]:
        end = min(t + args["stride"] - 1, args["t2"])
        buckets.append(_range(starts, ends, values, t, end, args["fn"]))
        t = end + 1
    return buckets


def _range(starts, ends, values, t1, t2, fn):
    touched = (ends >= t1) & (starts <= t2)
    if not touched.any():
        return None
    rows = values[touched]
    if fn == "min":
        return rows.min(axis=0).tolist()
    if fn == "max":
        return rows.max(axis=0).tolist()
    overlap = (np.minimum(ends[touched], t2)
               - np.maximum(starts[touched], t1) + 1)
    weighted = (rows * overlap[:, None]).sum(axis=0)
    if fn == "sum":
        return weighted.tolist()
    return (weighted / overlap.sum()).tolist()


def _same(expected, got, scale: float) -> bool:
    if expected is None or got is None:
        return expected is None and got is None
    return len(expected) == len(got) and all(
        _close(e, g, scale) for e, g in zip(expected, got))


def check_answers(segments: Sequence[dict],
                  answers: Sequence[Tuple[str, dict, object]]) -> int:
    """Recompute each ``(op, args, answer)`` from ``segments``.

    ``args`` carries the query parameters (``group`` selects the group);
    ``answer`` is the served ``values`` (``value_at``/``range_agg``) or
    the list of bucket ``values`` (``window``).  Returns how many were
    checked; raises :class:`CheckError` on the first mismatch.
    """
    summary = _by_group(segments)
    for op, args, answer in answers:
        table = summary[tuple(args.get("group") or ())]
        scale = float(np.abs(table[:, 2:]).max()) * float(
            table[-1, 1] - table[0, 0] + 1)
        expected = _answer(table, op, args)
        pairs = (zip(expected, answer) if op == "window"
                 and len(expected) == len(answer) else [(expected, answer)])
        if op == "window" and len(expected) != len(answer) or not all(
                _same(e, g, scale) for e, g in pairs):
            raise CheckError(f"{op}{args}: served {answer!r}, the summary "
                             f"gives {expected!r}")
    return len(answers)


def same_segments(served: List[dict], reference: List[dict]) -> None:
    """Exact equality of two summaries (bit-identity, float repr-exact)."""
    if len(served) != len(reference):
        raise CheckError(f"{len(served)} served segments, reference has "
                         f"{len(reference)}")
    for index, (a, b) in enumerate(zip(served, reference)):
        if (list(a.get("group", [])), list(a["values"]), a["start"],
                a["end"]) != (list(b.get("group", [])), list(b["values"]),
                              b["start"], b["end"]):
            raise CheckError(f"segment {index} differs: served {a}, "
                             f"reference {b}")
