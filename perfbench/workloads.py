"""Seeded inputs for the benchmark workloads, and the byte-level reference.

Everything here is the benchmark's own code: it writes diff files in the
store's text format and replays them on plain `bytes`, so the checks in
run.py compare the program against values the program did not produce.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

KIB = 1024
MIB = 1024 * KIB

BLOCK_SIZE = 2048
HASH_NAME = "sha1"
CHALLENGE_COUNT = 460


@dataclass(frozen=True)
class Entry:
    """One diff record in pre-edit coordinates: delete `delete_len` bytes
    at `at`, then insert `data` there."""

    at: int
    delete_len: int
    data: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                # bytes of version 0
    history: int             # commits made during set-up
    setups: int              # set-ups per untraced run; the first store
                             # stays as set up, the last takes the rounds
    edit: Callable[[random.Random, int], list[Entry]]
    audit_latest: bool       # whole-file audit of the latest version, else
                             # an old version inside its update region
    count_rounds: int        # rounds whose counts are reported; fixed by
                             # the seed, so counts repeat exactly


def clustered_edit(rng: random.Random, total: int) -> list[Entry]:
    """1-3 entries of at most 64 bytes within a few KiB of one spot."""
    window = 4 * KIB
    base = rng.randrange(max(1, total - window))
    span = min(window, total - base)
    marks = sorted(rng.sample(range(span), rng.randint(1, min(3, span))))
    entries = []
    for i, offset in enumerate(marks):
        at = base + offset
        room = (base + marks[i + 1] if i + 1 < len(marks) else total) - at
        kind = rng.choice("RID")
        if kind == "I":
            entries.append(Entry(at, 0, rng.randbytes(rng.randint(1, 64))))
        elif kind == "D":
            entries.append(Entry(at, min(rng.randint(1, 64), room), b""))
        else:
            entries.append(Entry(at, min(rng.randint(1, 64), room),
                                 rng.randbytes(rng.randint(1, 64))))
    return entries


def bulk_edit(rng: random.Random, total: int) -> list[Entry]:
    """About 40 entries scattered over a 1 MiB window, up to a few KiB
    each: replaces within a block, inserts long enough to be re-cut, and
    deletes that can span and remove blocks. Inserted and deleted bytes
    balance on average, so the file keeps its size."""
    window = min(MIB, total)
    base = rng.randrange(total - window + 1)
    marks = sorted(base + m for m in rng.sample(range(window),
                                                rng.randint(36, 44)))
    entries = []
    for i, at in enumerate(marks):
        room = (marks[i + 1] if i + 1 < len(marks) else total) - at
        roll = rng.random()
        if roll < 0.4:
            entries.append(Entry(at, min(rng.randint(1, 2 * KIB), room),
                                 rng.randbytes(rng.randint(1, 2 * KIB))))
        elif roll < 0.7:
            entries.append(Entry(at, 0, rng.randbytes(rng.randint(1, 6 * KIB))))
        else:
            entries.append(Entry(at, min(rng.randint(1, 6 * KIB), room), b""))
    return entries


WORKLOADS = {w.name: w for w in (
    Workload("small-edits-16m", 16 * MIB, 0, 3, clustered_edit, True, 20),
    Workload("bulk-edits-4m", 4 * MIB, 4, 3, bulk_edit, False, 15),
    Workload("long-history-1m", 1 * MIB, 1000, 1, clustered_edit, False, 40),
)}


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent stream per (workload, seed, purpose), so one part of
    the inputs does not shift when another part draws more numbers."""
    return random.Random(f"flexstore-perfbench/{workload}/{seed}/{purpose}")


def store_seed(workload: str) -> bytes:
    """The store's construction seed, from which the program draws every
    tower level of the skip list. It is fixed per workload rather than
    drawn from the benchmark seed: the mean search path over all leaves
    of a fresh 1 MiB store ranged from 10.5 to 12.6 nodes across twelve
    construction seeds (quartile distance 10% of the median), and proof
    size and audit time follow it, so one shape per workload keeps that
    out of the spread between benchmark seeds."""
    return random.Random(f"flexstore-perfbench/{workload}/store").randbytes(10)


def encode_diff(entries: list[Entry]) -> bytes:
    """The store's diff file format, written independently of its parser."""
    out = []
    for e in entries:
        if not e.delete_len:
            out.append(b"I %d %d\n%s\n" % (e.at, len(e.data), e.data))
        elif not e.data:
            out.append(b"D %d %d\n" % (e.at, e.delete_len))
        else:
            out.append(b"R %d %d %d\n%s\n" % (e.at, e.delete_len,
                                              len(e.data), e.data))
    return b"".join(out)


def apply_diff(data: bytes, entries: list[Entry]) -> bytes:
    """Reference replay of a diff on plain bytes."""
    out = []
    pos = 0
    for e in entries:
        out.append(data[pos:e.at])
        out.append(e.data)
        pos = e.at + e.delete_len
    out.append(data[pos:])
    return b"".join(out)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
