"""Client-side machinery: diff translation and partial-list reconstruction.

diff_to_ops turns byte-range edits into block operations against the
current block layout; translate_diffs does the same from a block lookup,
so a server holding the full structure searches for and reads only the
blocks a diff touches. An edited block is modified in place while its new
length stays within [1, 2 x block_size]; longer results are re-cut into
a modify plus inserts, deletions covering whole blocks become removes.
Op indices are valid at application time: apply the emitted sequence
left to right without further adjustment.

partial_from_proof rebuilds, from a verified proof, exactly the nodes an
update needs (the pruned subtree audit.rebuild decodes); everything else
stays behind opaque digest stubs. Applying the same block operations to
the partial list and to the full server structure yields the same new
root digest, which is how a client computes its next meta digest from
O(proof)-sized state.

Diff file format (one record per edit, indices decimal, bytes raw, a
single newline after each header and after each raw-byte run):

    I <index> <len>\\n<len bytes>\\n
    D <index> <len>\\n
    R <index> <delete_len> <insert_len>\\n<insert_len bytes>\\n
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import audit, persist
from .core import NodeStore
from .errors import (DiffOutOfRange, FormatError, OverlappingDiffs,
                     ProofRejected)
from .hashing import HashScheme, LevelSource

INSERT = "insert"
DELETE = "delete"
REPLACE = "replace"

MODIFY_OP = "modify"
INSERT_OP = "insert"
REMOVE_OP = "remove"


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


# Numbers after each diff record tag: the index, then the lengths.
_ARITY = {b"I": 2, b"D": 2, b"R": 3}


def parse_diff(raw: bytes) -> list[DiffEntry]:
    """Parse the line-oriented diff format; strict about framing."""
    entries = []
    pos = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise FormatError("diff header without newline")
        fields = raw[pos:nl].split()
        if not fields or len(fields) - 1 != _ARITY.get(fields[0]):
            raise FormatError(f"bad diff header {raw[pos:nl]!r}")
        pos = nl + 1
        try:
            at, *lengths = map(int, fields[1:])
        except ValueError as exc:
            raise FormatError(f"bad diff record: {exc}") from exc
        if min(lengths) < 0:
            raise FormatError("negative length in diff header")
        if fields[0] == b"D":
            entries.append(DiffEntry(DELETE, at, delete_len=lengths[0]))
            continue
        data, pos = _take_payload(raw, pos, lengths[-1])
        entries.append(DiffEntry(INSERT, at, data) if fields[0] == b"I"
                       else DiffEntry(REPLACE, at, data, lengths[0]))
    return entries


def _take_payload(raw: bytes, pos: int, length: int):
    if pos + length + 1 > len(raw):
        raise FormatError("truncated diff payload")
    data = raw[pos:pos + length]
    if raw[pos + length:pos + length + 1] != b"\n":
        raise FormatError("diff payload not newline-terminated")
    return data, pos + length + 1


def format_diff(entries: list[DiffEntry]) -> bytes:
    out = []
    for e in entries:
        if e.kind == INSERT:
            out.append(b"I %d %d\n" % (e.at, len(e.data)) + e.data + b"\n")
        elif e.kind == DELETE:
            out.append(b"D %d %d\n" % (e.at, e.delete_len))
        else:
            out.append(b"R %d %d %d\n" % (e.at, e.delete_len, len(e.data))
                       + e.data + b"\n")
    return b"".join(out)


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

    def locate(byte: int) -> tuple[int, int]:
        i = bisect_right(starts, byte) - 1
        return starts[i], layout[i]

    return translate_diffs(diffs, starts[-1], locate, block_size, read_range)


def translate_diffs(diffs: list[DiffEntry], total: int, locate,
                    block_size: int, read_range) -> list[BlockOp]:
    """Translate diffs into block operations against a file of `total`
    bytes, looking up only the blocks the diffs touch.

    locate(byte) returns (start, length) of the block holding a byte in
    [0, total); read_range(start, length) serves original file bytes.
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
    # [first block, last block, entries], a block being (start, length).
    # Entries are sorted and disjoint, so each starts in or after the last
    # block of the group before it, and joins that group if it starts in
    # that block.
    groups: list[list] = []
    for e in diffs:
        first = locate(min(e.at, total - 1))
        last = first if e.span == 0 else locate(e.at + e.span - 1)
        if groups and first == groups[-1][1]:
            groups[-1][1] = last
            groups[-1][2].append(e)
        else:
            groups.append([first, last, [e]])

    ops: list[BlockOp] = []
    delta = 0
    for first, last, entries in groups:
        region_start, region_end = first[0], last[0] + last[1]
        parts = []
        pos = region_start
        for e in entries:
            parts.append(read_range(pos, e.at - pos))
            parts.append(e.data)
            pos = e.at + e.span
        parts.append(read_range(pos, region_end - pos))
        region = b"".join(parts)
        base = region_start + delta
        if not region:
            for _ in range(_count_blocks(locate, first, last)):
                ops.append(BlockOp(REMOVE_OP, base))
        else:
            chunks = _chunks(region, block_size)
            ops.append(BlockOp(MODIFY_OP, base, chunks[0]))
            at = base + len(chunks[0])
            for _ in range(_count_blocks(locate, first, last) - 1):
                ops.append(BlockOp(REMOVE_OP, at))
            for chunk in chunks[1:]:
                ops.append(BlockOp(INSERT_OP, at, chunk))
                at += len(chunk)
        delta += len(region) - (region_end - region_start)
    return ops


def _count_blocks(locate, first: tuple[int, int],
                  last: tuple[int, int]) -> int:
    """Blocks from `first` through `last`, walked one block at a time."""
    count = 1
    pos = first[0] + first[1]
    while pos <= last[0]:
        pos += locate(pos)[1]
        count += 1
    return count


def _chunks(region: bytes, block_size: int) -> list[bytes]:
    if len(region) <= 2 * block_size:
        return [region]
    return [region[i:i + block_size]
            for i in range(0, len(region), block_size)]


def required_range(diffs: list[DiffEntry], layout: list[int]) -> tuple[int, int]:
    """Byte range of current-version blocks whose proof paths cover the
    operations diff_to_ops emits for `diffs`.

    The touched blocks plus one block of padding on the left, so the
    re-homing that removes and boundary inserts perform stays on proven
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
                       meta: bytes,
                       version: int | None = None) -> PartialFlexList:
    """Rebuild the pruned subtree of one version into a workable
    structure: the proven leaves and their root paths, stubs elsewhere.

    The proof must verify against `meta` (digests only; challenge
    expansion is the audit path's business). Raises ProofRejected or
    FormatError.
    """
    part = _pick_part(proof, version)
    store, root, _starts = audit.check_part(scheme, meta, part)
    return PartialFlexList(store, scheme, root)


def _pick_part(proof: audit.VersionProof, version: int | None):
    if version is None:
        if len(proof.parts) != 1:
            raise ProofRejected("specify which version part to rebuild")
        return proof.parts[0]
    for part in proof.parts:
        if part.layer2.version == version:
            return part
    raise ProofRejected(f"proof has no part for version {version}")


def apply_ops(store: NodeStore, scheme: HashScheme, root: int,
              ops: list[BlockOp], src: LevelSource,
              block_digest=None) -> tuple[persist.CommitResult, LevelSource]:
    """Apply a block-op batch left to right as one new version, through
    one edit engine that finalizes only the nodes the new root reaches;
    returns its CommitResult and the advanced level source.

    block_digest(data) returns a new block's digest (default: hash it
    with scheme); a caller that stores the blocks can pass its own put.
    """
    block_digest = block_digest or scheme.block_digest
    eng = persist.EditEngine(store, scheme, root)
    for op in ops:
        if op.kind == MODIFY_OP:
            eng.modify(op.index, len(op.data), block_digest(op.data))
        elif op.kind == INSERT_OP:
            level, src = src.draw()
            eng.insert(op.index, len(op.data), block_digest(op.data), level)
        elif op.kind == REMOVE_OP:
            eng.remove(op.index)
        else:
            raise FormatError(f"unknown block op {op.kind!r}")
    return eng.finish(), src


def apply_ops_partial(partial: PartialFlexList, ops: list[BlockOp],
                      src: LevelSource) -> tuple[bytes, LevelSource]:
    """Apply a block-op batch to a partial list; returns the new root
    digest (the value the client feeds its layer-2 replica) and the
    advanced level source. PathNotCovered if the proof was too narrow."""
    result, src = apply_ops(partial.store, partial.scheme, partial.root, ops,
                            src)
    partial.root = result.new_root
    return partial.root_digest, src
