"""The checker must reject what it is there to catch.

    python3 -m pytest perfbench/test_check.py -q

A correct summary, computed here by hand, passes; the same summary with
one value nudged, with a segment that skips an input tuple, or with a
wrong reported error fails; a query answer off in its last digits
passes while one off by a visible amount fails.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import CheckError, check_answers, summary_sse  # noqa: E402
from gen import Chunk  # noqa: E402

#: Four unit tuples 1, 3, 10, 12 then a gap, then one tuple 5.
INPUT = [Chunk((), np.array([0, 1, 2, 3, 6]), np.array([0, 1, 2, 3, 6]),
               np.array([[1.0], [3.0], [10.0], [12.0], [5.0]]))]
#: Merge (1, 3) and (10, 12); the lone tuple stays.  SSE = 2 + 2.
SUMMARY = [
    {"group": [], "values": [2.0], "start": 0, "end": 1},
    {"group": [], "values": [11.0], "start": 2, "end": 3},
    {"group": [], "values": [5.0], "start": 6, "end": 6},
]


def corrupt(index, **change):
    return [dict(seg, **change) if i == index else seg
            for i, seg in enumerate(SUMMARY)]


def test_correct_summary_passes():
    assert summary_sse(SUMMARY, INPUT, reported_error=4.0, size=3) == 4.0


def test_corrupted_value_is_rejected():
    with pytest.raises(CheckError, match="length-weighted"):
        summary_sse(corrupt(1, values=[11.5]), INPUT)


def test_uncovered_tuple_is_rejected():
    with pytest.raises(CheckError):
        summary_sse(corrupt(0, start=1), INPUT)


def test_wrong_reported_error_is_rejected():
    with pytest.raises(CheckError, match="reported error"):
        summary_sse(SUMMARY, INPUT, reported_error=4.5)


def test_size_and_epsilon_budgets():
    with pytest.raises(CheckError, match="size budget"):
        summary_sse(SUMMARY, INPUT, size=2)
    # Largest reduction: (1, 3, 10, 12) -> 6.5, SSE 125; 4 <= 0.1 * 125.
    summary_sse(SUMMARY, INPUT, epsilon=0.1)
    with pytest.raises(CheckError, match="epsilon"):
        summary_sse(SUMMARY, INPUT, epsilon=0.01)


def test_answers():
    good = [("value_at", {"t": 2}, [11.0]),
            ("value_at", {"t": 5}, None),
            ("range_agg", {"t1": 1, "t2": 6, "fn": "avg"},
             [(2.0 + 22.0 + 5.0) / 4 * (1 + 1e-12)]),
            ("range_agg", {"t1": 0, "t2": 3, "fn": "max"}, [11.0]),
            ("window", {"t1": 0, "t2": 6, "stride": 4, "fn": "sum"},
             [[26.0], [5.0]])]
    assert check_answers(SUMMARY, good) == len(good)
    for op, args, answer in [("value_at", {"t": 2}, [11.01]),
                             ("value_at", {"t": 5}, [5.0]),
                             ("window", {"t1": 0, "t2": 6, "stride": 4,
                                         "fn": "sum"}, [[26.0], None])]:
        with pytest.raises(CheckError):
            check_answers(SUMMARY, [(op, args, answer)])
