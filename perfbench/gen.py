"""Seeded inputs for the benchmark, and the client side of the wire format.

Everything here is derived from ``(seed, key index)`` with NumPy's
``Generator``, so the load generator, the program host and the checker
rebuild exactly the same tuples without exchanging them.  The module
imports nothing from the program: the binary payloads are packed from
the published ``PTAS`` layout (docs/FORMATS.md §1–2), as an outside
client would.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: A temporal gap (an outage of 2-8 chronons) follows every GAP_EVERY-th
#: tuple of a group.  Positions are fixed rather than seeded: where the
#: gaps fall decides how large the online reducer's heap grows (an early
#: gap stops its size-bounded merging, see README.md), and a seeded
#: position made that cost differ tenfold between seeds.
GAP_EVERY = 1000
#: Streams opened with ``early_gap`` have a single gap, after this tuple,
#: before the first ``c`` tuples are complete, and no periodic gaps.
EARLY_GAP = 40


@dataclass
class Chunk:
    """A run of consecutive tuples of one group of one key."""

    group: Tuple
    starts: np.ndarray
    ends: np.ndarray
    values: np.ndarray  # shape (n, dims)

    def __len__(self) -> int:
        return len(self.starts)

    def split(self, size: int) -> List["Chunk"]:
        return [Chunk(self.group, self.starts[lo:lo + size],
                      self.ends[lo:lo + size], self.values[lo:lo + size])
                for lo in range(0, len(self), size)]


class Stream:
    """The tuple stream of one key: level shifts plus unit noise.

    Floats: a piecewise-constant level (a new level every ~200 tuples)
    plus N(0, 1) noise, so the error of any summary is dominated by the
    noise and varies little from seed to seed.  Integers (``kind="int"``):
    uniform values 0–9 on unit-length tuples, which make exact merge-key
    ties common.  Grouped streams emit their groups one after another
    (group-then-time order); every group has its own timeline.
    """

    def __init__(self, seed: int, index: int, kind: str = "float",
                 dims: int = 2, groups: int = 1,
                 early_gap: bool = False) -> None:
        self.rng = np.random.default_rng([seed, index])
        self.kind = kind
        self.dims = 1 if kind == "int" else dims
        self.group_names = [("g%d" % g,) if groups > 1 else ()
                            for g in range(groups)]
        self.early_gap = early_gap
        self.group = 0
        self.next_start = 0
        self.taken = 0  # tuples of the current group so far
        self.level = self.rng.normal(20.0, 5.0, size=self.dims)

    def take(self, n: int) -> Chunk:
        """The next ``n`` tuples of the current group."""
        rng = self.rng
        if self.kind == "int":
            lengths = np.ones(n, dtype=np.int64)
            values = rng.integers(0, 10, size=(n, 1)).astype(np.float64)
        else:
            lengths = rng.integers(1, 5, size=n).astype(np.int64)
            shifts = rng.random(n) < 1.0 / 200.0
            steps = rng.normal(0.0, 3.0, size=(n, self.dims)) * shifts[:, None]
            levels = self.level + np.cumsum(steps, axis=0)
            self.level = levels[-1].copy()
            values = levels + rng.normal(0.0, 1.0, size=(n, self.dims))
        position = self.taken + np.arange(n)
        gapped = (position == EARLY_GAP if self.early_gap
                  else position % GAP_EVERY == GAP_EVERY - 1)
        gaps = np.where(gapped, rng.integers(2, 9, size=n), 0)
        self.taken += n
        advance = lengths + gaps
        starts = self.next_start + np.concatenate(
            ([0], np.cumsum(advance)[:-1])).astype(np.int64)
        ends = starts + lengths - 1
        self.next_start = int(starts[-1] + advance[-1])
        return Chunk(self.group_names[self.group], starts, ends, values)

    def next_group(self) -> None:
        """Start the next group's timeline."""
        self.group += 1
        self.next_start = 0
        self.taken = 0

    def prefill(self, per_group: int) -> List[Chunk]:
        """``per_group`` tuples of every group, ending in the last group."""
        chunks = []
        for g in range(len(self.group_names)):
            if g:
                self.next_group()
            chunks.append(self.take(per_group))
        return chunks


def key_spec(name: str, seed: int, index: int, kind: str = "float",
             dims: int = 2, groups: int = 1, per_group: int = 0,
             chunk: int = 256, early_gap: bool = False) -> dict:
    """A key's stream parameters and history length (JSON-ready)."""
    return {"name": name, "seed": seed, "index": index, "kind": kind,
            "dims": dims, "groups": groups, "per_group": per_group,
            "chunk": chunk, "early_gap": early_gap}


def open_stream(spec: dict) -> Stream:
    return Stream(spec["seed"], spec["index"], spec["kind"], spec["dims"],
                  spec["groups"], spec["early_gap"])


def history(spec: dict, stream: Stream = None) -> List[Chunk]:
    """The key's set-up history, in the chunks it is pushed as.  Pass
    ``stream`` to keep generating the key's later tuples from it."""
    stream = stream if stream is not None else open_stream(spec)
    return [part for chunk in stream.prefill(spec["per_group"])
            for part in chunk.split(spec["chunk"])]


# ----------------------------------------------------------------------
# PTAS wire payloads (docs/FORMATS.md), packed without the program
# ----------------------------------------------------------------------
def _column(name: str, array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    dtype = array.dtype.str.encode("ascii")
    raw = name.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<H", len(dtype))
    head += dtype + struct.pack("<B", array.ndim)
    head += b"".join(struct.pack("<Q", extent) for extent in array.shape)
    payload = array.tobytes()
    return head + struct.pack("<Q", len(payload)) + payload


def pack_chunk(chunk: Chunk) -> bytes:
    """One chunk as a ``PTAS`` version-1 payload."""
    n = len(chunk)
    keys = json.dumps([list(chunk.group)]).encode("utf-8")
    return b"".join([
        struct.pack("<4sHH", b"PTAS", 1, 5),
        _column("starts", chunk.starts.astype("<i8")),
        _column("ends", chunk.ends.astype("<i8")),
        _column("values", chunk.values.astype("<f8")),
        _column("groups", np.zeros(n, dtype="<i8")),
        _column("group_keys", np.frombuffer(keys, dtype=np.uint8)),
    ])


def json_chunk(chunk: Chunk) -> bytes:
    """One chunk as the JSON-array push body."""
    group = list(chunk.group)
    return json.dumps([
        {"group": group, "values": [float(v) for v in row],
         "start": int(s), "end": int(e)}
        for s, e, row in zip(chunk.starts, chunk.ends, chunk.values)
    ]).encode("utf-8")


def concat(chunks: Sequence[Chunk]) -> List[Chunk]:
    """Merge consecutive chunks of the same group (input order kept)."""
    runs: List[List[Chunk]] = []
    for chunk in chunks:
        if runs and runs[-1][0].group == chunk.group:
            runs[-1].append(chunk)
        else:
            runs.append([chunk])
    return [Chunk(run[0].group,
                  np.concatenate([c.starts for c in run]),
                  np.concatenate([c.ends for c in run]),
                  np.concatenate([c.values for c in run]))
            for run in runs]
