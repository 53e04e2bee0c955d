"""Client-side machinery: diff translation and partial-list reconstruction.

diff_to_ops turns byte-range edits into block operations against the
current block layout; translate_diffs does the same from a stream of
blocks that starts at a given byte. Entries form groups, an entry that
starts in the last block of the group before it joining that group, so
a server holding the full structure runs one search per group, walks on
along the leaves to the group's last block, and reads each block the
diff touches once. An edited block is modified in place while its new
length stays within [1, 2 x block_size]; longer results are re-cut into
a modify plus inserts, deletions covering whole blocks become removes.
Op indices are valid at application time: apply the emitted sequence
left to right without further adjustment.

partial_from_proof rebuilds, from a verified proof of the latest
version, exactly the nodes an update needs: the pruned subtree
proofs.fold_path decodes into per-field lists, made into node objects
here, as only the client edits them. Everything else stays behind
opaque digest stubs. Applying the same block operations to the partial
list and to the full server structure yields the same new root digest,
which is how a client computes its next meta digest from
O(proof)-sized state.

Diff file format (one record per edit, indices decimal, bytes raw, a
single newline after each header and after each raw-byte run):

    I <index> <len>\\n<len bytes>\\n
    D <index> <len>\\n
    R <index> <delete_len> <insert_len>\\n<insert_len bytes>\\n
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from . import audit, persist
from .core import Node, NodeStore
from .errors import (DiffOutOfRange, FormatError, OverlappingDiffs,
                     ProofRejected)
from .hashing import HashScheme

INSERT = "insert"
DELETE = "delete"
REPLACE = "replace"

MODIFY_OP = persist.MODIFY
INSERT_OP = persist.INSERT
REMOVE_OP = persist.REMOVE


@dataclass(frozen=True)
class DiffEntry:
    kind: str
    at: int
    data: bytes = b""
    delete_len: int = 0

    @property
    def span(self) -> int:
        return self.delete_len if self.kind != INSERT else 0


@dataclass(frozen=True)
class BlockOp:
    kind: str
    index: int
    data: bytes | None = None


# Numbers after each diff record tag: the index, then the lengths, each
# of ASCII digits and one space after the field before it.
_ARITY = {b"I": 2, b"D": 2, b"R": 3}


def parse_diff(raw: bytes) -> list[DiffEntry]:
    """Parse the line-oriented diff format; strict about framing and
    headers."""
    entries = []
    pos = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise FormatError("diff header without newline")
        tag, *numbers = raw[pos:nl].split(b" ")
        if (len(numbers) != _ARITY.get(tag)
                or not all(map(bytes.isdigit, numbers))):
            raise FormatError(f"bad diff header {raw[pos:nl]!r}")
        pos = nl + 1
        try:
            at, *lengths = map(int, numbers)
        except ValueError as exc:   # more digits than int() converts
            raise FormatError(f"bad diff header: {exc}") from exc
        if tag == b"D":
            entries.append(DiffEntry(DELETE, at, delete_len=lengths[0]))
            continue
        data, pos = _take_payload(raw, pos, lengths[-1])
        entries.append(DiffEntry(INSERT, at, data) if tag == b"I"
                       else DiffEntry(REPLACE, at, data, lengths[0]))
    return entries


def _take_payload(raw: bytes, pos: int, length: int):
    if pos + length + 1 > len(raw):
        raise FormatError("truncated diff payload")
    data = raw[pos:pos + length]
    if raw[pos + length:pos + length + 1] != b"\n":
        raise FormatError("diff payload not newline-terminated")
    return data, pos + length + 1


def validate_diffs(diffs: list[DiffEntry], total: int) -> None:
    prev_end = 0
    first = True
    for e in diffs:
        if e.at < 0 or e.at > total or e.at + e.span > total:
            raise DiffOutOfRange(
                f"entry at {e.at} (+{e.span}) exceeds file length {total}")
        if not first and e.at < prev_end:
            raise OverlappingDiffs(
                f"entry at {e.at} overlaps the previous one")
        prev_end = e.at + e.span
        first = False


def diff_to_ops(diffs: list[DiffEntry], layout: list[int], block_size: int,
                read_range) -> list[BlockOp]:
    """Translate diffs into block operations against `layout`.

    layout lists current block lengths; read_range(start, length) serves
    original file bytes (needed to rebuild partially edited blocks).
    """
    starts = list(accumulate(layout, initial=0))

    def blocks_from(byte: int):
        i = bisect_right(starts, byte) - 1
        return starts[i], (read_range(starts[j], layout[j])
                           for j in range(i, len(layout)))

    return translate_diffs(diffs, starts[-1], blocks_from, block_size)


def translate_diffs(diffs: list[DiffEntry], total: int, blocks_from,
                    block_size: int) -> list[BlockOp]:
    """Translate diffs into block operations against a file of `total`
    bytes, reading only the blocks the diffs touch.

    blocks_from(byte) returns the start of the block holding a byte in
    [0, total), and an iterator over that block's bytes and those of each
    later block. It is called once per group of entries that share
    blocks, and the group takes blocks from it until they cover its last
    entry.
    """
    validate_diffs(diffs, total)
    diffs = [e for e in diffs if e.span > 0 or e.data]
    if not diffs:
        return []
    if total == 0:
        ops = []
        at = 0
        for chunk in _chunks(b"".join(e.data for e in diffs), block_size):
            ops.append(BlockOp(INSERT_OP, at, chunk))
            at += len(chunk)
        return ops
    # (start, blocks taken, entries). Entries are sorted and disjoint, so
    # each starts in or after the last block taken, and joins the group
    # that took it if it starts in that block.
    groups: list[tuple[int, list[bytes], list[DiffEntry]]] = []
    end = 0   # of the blocks taken
    for e in diffs:
        first = min(e.at, total - 1)
        if not groups or first >= end:
            start, blocks = blocks_from(first)
            groups.append((start, [], []))
            end = start
        _start, taken, entries = groups[-1]
        while end <= max(first, e.at + e.span - 1):
            block = next(blocks)
            taken.append(block)
            end += len(block)
        entries.append(e)

    ops: list[BlockOp] = []
    delta = 0
    for region_start, taken, entries in groups:
        old = b"".join(taken)
        parts = []
        pos = region_start
        for e in entries:
            parts.append(old[pos - region_start:e.at - region_start])
            parts.append(e.data)
            pos = e.at + e.span
        parts.append(old[pos - region_start:])
        region = b"".join(parts)
        base = region_start + delta
        if not region:
            for _ in taken:
                ops.append(BlockOp(REMOVE_OP, base))
        else:
            chunks = _chunks(region, block_size)
            ops.append(BlockOp(MODIFY_OP, base, chunks[0]))
            at = base + len(chunks[0])
            for _ in taken[1:]:
                ops.append(BlockOp(REMOVE_OP, at))
            for chunk in chunks[1:]:
                ops.append(BlockOp(INSERT_OP, at, chunk))
                at += len(chunk)
        delta += len(region) - len(old)
    return ops


def _chunks(region: bytes, block_size: int) -> list[bytes]:
    """An edited region as one block while it is at most twice
    block_size, else re-cut into blocks of block_size."""
    if len(region) <= 2 * block_size:
        return [region]
    return [region[i:i + block_size]
            for i in range(0, len(region), block_size)]


def required_range(diffs: list[DiffEntry], layout: list[int]) -> tuple[int, int]:
    """Byte range of current-version blocks whose proof paths cover the
    operations diff_to_ops emits for `diffs`.

    The touched blocks plus one block of padding on the left, so a
    splice that opens the towers just left of its cut stays on proven
    paths. Returns (start, length) in pre-commit coordinates; length 0
    means no existing block is needed (empty file)."""
    if not layout:
        return 0, 0
    starts = [0]
    for length in layout:
        starts.append(starts[-1] + length)
    total = starts[-1]
    lo = len(layout)
    hi = -1
    for e in diffs:
        if e.span == 0 and not e.data:
            continue
        first = bisect_right(starts, min(e.at, total - 1)) - 1
        last = (bisect_right(starts, min(e.at + max(e.span, 1) - 1,
                                         total - 1)) - 1)
        lo = min(lo, first)
        hi = max(hi, last)
    if hi < 0:
        return 0, 0
    lo = max(lo - 1, 0)
    return starts[lo], starts[hi] + layout[hi] - starts[lo]


class PartialFlexList:
    """Nodes rebuilt from a proof, with digest stubs for everything else."""

    def __init__(self, store: NodeStore, scheme: HashScheme, root: int):
        self.store = store
        self.scheme = scheme
        self.root = root

    @property
    def root_digest(self) -> bytes:
        return self.store.get(self.root).digest


def partial_from_proof(scheme: HashScheme, proof: audit.VersionProof,
                       meta: bytes) -> PartialFlexList:
    """Rebuild the pruned subtree of a one-version proof of the latest
    version into a workable structure: the proven leaves and their root
    paths, stubs elsewhere.

    The proof must verify against `meta` (digests only; challenge
    expansion is the audit path's business), and its version must be
    the latest that `meta` holds, or the client would build its next
    version on a stale base. Raises ProofRejected or FormatError.
    """
    if len(proof.parts) != 1:
        raise ProofRejected(f"proof has {len(proof.parts)} version parts; "
                            "a partial list is rebuilt from one")
    count, (sub,) = audit.check_proof(scheme, meta, proof)
    if proof.parts[0].version != count - 1:
        raise ProofRejected(f"proof is for version {proof.parts[0].version}, "
                            f"not the latest, {count - 1}")
    store = NodeStore()   # numbers from 0, as the lists do
    for node in map(Node, sub.kind, sub.level, sub.rank, sub.below,
                    sub.after, sub.length, sub.block, sub.digest):
        store.add(node)
    return PartialFlexList(store, scheme, sub.root)


def apply_ops(store: NodeStore, scheme: HashScheme, root: int,
              ops: list[BlockOp], levels: Iterator[int],
              block_digest=None) -> persist.CommitResult:
    """Apply a block-op batch left to right as one new version, through
    one edit engine that finalizes only the nodes the new root reaches;
    returns its CommitResult. Each insert takes the next of `levels`.

    An op whose index is the end of the run before it (where that run's
    new blocks end) joins the run, so each group translate_diffs emits is
    one splice. block_digest(data) returns a new block's digest (default:
    hash it with scheme); a caller that stores the blocks can pass its
    own put.
    """
    block_digest = block_digest or scheme.block_digest
    eng = persist.EditEngine(store, scheme, root)
    run, start, end = [], 0, None
    for op in ops:
        if op.kind == REMOVE_OP:
            step = (op.kind, 0, None, None)
        elif op.kind == MODIFY_OP:
            step = (op.kind, len(op.data), block_digest(op.data), None)
        elif op.kind == INSERT_OP:
            step = (op.kind, len(op.data), block_digest(op.data),
                    next(levels))
        else:
            raise FormatError(f"unknown block op {op.kind!r}")
        if op.index != end:
            if run:
                eng.splice(start, run)
            run, start, end = [], op.index, op.index
        run.append(step)
        end += step[1]
    if run:
        eng.splice(start, run)
    return eng.finish()


def apply_ops_partial(partial: PartialFlexList, ops: list[BlockOp],
                      levels: Iterator[int]) -> tuple[bytes, Iterator[int]]:
    """Apply a block-op batch to a partial list; returns the new root
    digest (the value the client feeds its layer-2 replica) and `levels`,
    advanced past the ops' draws: kept only as perfbench/bench.py unpacks
    two values, until the next benchmark change (ROADMAP item 2).
    PathNotCovered if the proof was too narrow."""
    partial.root = apply_ops(partial.store, partial.scheme, partial.root,
                             ops, levels).new_root
    return partial.root_digest, levels
