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
update needs; everything else stays behind opaque digest stubs. Applying
the same block operations to the partial list and to the full server
structure yields the same new root digest, which is how a client computes
its next meta digest from O(proof)-sized state.

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

from . import audit, index2, persist, proofs
from .core import (KIND_LEAF, KIND_SENTINEL, KIND_STUB, Node, NodeStore)
from .errors import (DiffOutOfRange, FormatError, OverlappingDiffs,
                     ProofRejected)
from .hashing import HashScheme, LevelSource
from .proofs import STEP_AFTER, STEP_BELOW, STEP_CHAIN, STEP_CHAIN_SENTINEL

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


def parse_diff(raw: bytes) -> list[DiffEntry]:
    """Parse the line-oriented diff format; strict about framing."""
    entries = []
    pos = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise FormatError("diff header without newline")
        fields = raw[pos:nl].split()
        pos = nl + 1
        try:
            tag = fields[0]
            if tag == b"I":
                at, length = int(fields[1]), int(fields[2])
                if len(fields) != 3:
                    raise FormatError("bad insert header")
                data, pos = _take_payload(raw, pos, length)
                entries.append(DiffEntry(INSERT, at, data))
            elif tag == b"D":
                if len(fields) != 3:
                    raise FormatError("bad delete header")
                at, length = int(fields[1]), int(fields[2])
                entries.append(DiffEntry(DELETE, at, delete_len=length))
            elif tag == b"R":
                if len(fields) != 4:
                    raise FormatError("bad replace header")
                at, dlen, ilen = (int(fields[1]), int(fields[2]),
                                  int(fields[3]))
                data, pos = _take_payload(raw, pos, ilen)
                entries.append(DiffEntry(REPLACE, at, data, dlen))
            else:
                raise FormatError(f"unknown record tag {tag!r}")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad diff record: {exc}") from exc
    return entries


def _take_payload(raw: bytes, pos: int, length: int):
    if length < 0 or pos + length + 1 > len(raw):
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

    def __init__(self, store: NodeStore, scheme: HashScheme, root: int,
                 version: int, blocks: dict[bytes, bytes]):
        self.store = store
        self.scheme = scheme
        self.root = root
        self.version = version
        self.blocks = blocks

    @property
    def root_digest(self) -> bytes:
        return self.store.get(self.root).digest


def partial_from_proof(scheme: HashScheme, proof: audit.VersionProof,
                       meta: bytes,
                       version: int | None = None) -> PartialFlexList:
    """Rebuild the proven paths of one version into a workable structure.

    The proof must verify against `meta` (digest folds only; challenge
    expansion is the audit path's business).
    """
    part = _pick_part(proof, version)
    ok, reason = index2.verify_version_proof(scheme, meta, part.layer2)
    if not ok:
        raise ProofRejected(reason)
    registry: dict[bytes, dict] = dict(_sentinel_constants(scheme))
    stub_ranks: dict[bytes, int] = {}
    blocks: dict[bytes, bytes] = {}
    for bp in part.blocks:
        digest, _rank, _off = proofs.fold_path(
            scheme, bp.path, scheme.block_digest(bp.block))
        if digest != part.layer2.root_digest:
            raise ProofRejected("layer-1 fold does not reach the version root")
        _register_path(scheme, registry, stub_ranks, blocks, bp)
    store = NodeStore()
    ids: dict[bytes, int] = {}
    root = _materialize(store, part.layer2.root_digest, registry, stub_ranks,
                        ids)
    return PartialFlexList(store, scheme, root, part.layer2.version, blocks)


def _pick_part(proof: audit.VersionProof, version: int | None):
    if version is None:
        if len(proof.parts) != 1:
            raise ProofRejected("specify which version part to rebuild")
        return proof.parts[0]
    for part in proof.parts:
        if part.layer2.version == version:
            return part
    raise ProofRejected(f"proof has no part for version {version}")


def _register_path(scheme, registry, stub_ranks, blocks, bp):
    path = bp.path
    block_digest = scheme.block_digest(bp.block)
    blocks[block_digest] = bp.block
    digest = scheme.leaf_node(0, path.leaf_rank, path.leaf_after,
                              path.leaf_length, block_digest,
                              sentinel=path.leaf_sentinel)
    registry[digest] = {
        "kind": KIND_SENTINEL if path.leaf_sentinel else KIND_LEAF,
        "level": 0, "rank": path.leaf_rank, "below": None,
        "after": path.leaf_after, "length": path.leaf_length,
        "block": block_digest,
    }
    if path.leaf_after is not None:
        stub_ranks[path.leaf_after] = path.leaf_rank - path.leaf_length
    child_digest, child_rank = digest, path.leaf_rank
    for step in path.steps:
        if step.kind == STEP_BELOW:
            node = {"kind": 0, "level": step.level, "rank": step.rank,
                    "below": child_digest, "after": step.sibling,
                    "length": 0, "block": None}
            digest = scheme.internal_node(step.level, step.rank,
                                          child_digest, step.sibling)
            if step.sibling is not None:
                stub_ranks[step.sibling] = step.rank - child_rank
        elif step.kind == STEP_AFTER:
            node = {"kind": 0, "level": step.level, "rank": step.rank,
                    "below": step.sibling, "after": child_digest,
                    "length": 0, "block": None}
            digest = scheme.internal_node(step.level, step.rank,
                                          step.sibling, child_digest)
            stub_ranks[step.sibling] = step.rank - child_rank
        else:
            sentinel = step.kind == STEP_CHAIN_SENTINEL
            node = {"kind": KIND_SENTINEL if sentinel else KIND_LEAF,
                    "level": 0, "rank": step.rank, "below": None,
                    "after": child_digest, "length": step.leaf_length,
                    "block": step.leaf_block}
            digest = scheme.leaf_node(0, step.rank, child_digest,
                                      step.leaf_length, step.leaf_block,
                                      sentinel=sentinel)
        registry[digest] = node
        child_digest, child_rank = digest, step.rank


def _sentinel_constants(scheme: HashScheme) -> dict[bytes, dict]:
    """Digests every client can derive without a proof: the bare sentinel
    leaf and the empty list's root (left sentinel chained to the right)."""
    bare = scheme.leaf_node(0, 0, None, 0, scheme.zero, sentinel=True)
    chained = scheme.leaf_node(0, 0, bare, 0, scheme.zero, sentinel=True)
    return {
        bare: {"kind": KIND_SENTINEL, "level": 0, "rank": 0, "below": None,
               "after": None, "length": 0, "block": scheme.zero},
        chained: {"kind": KIND_SENTINEL, "level": 0, "rank": 0,
                  "below": None, "after": bare, "length": 0,
                  "block": scheme.zero},
    }


def _materialize(store, digest, registry, stub_ranks, ids):
    if digest in ids:
        return ids[digest]
    entry = registry.get(digest)
    if entry is None:
        rank = stub_ranks.get(digest)
        if rank is None:
            raise ProofRejected("proof references an unranked subtree")
        node_id = store.add(Node(KIND_STUB, 0, rank, None, None, 0, None,
                                 -1, digest))
        ids[digest] = node_id
        return node_id
    below = (_materialize(store, entry["below"], registry, stub_ranks, ids)
             if entry["below"] is not None else None)
    after = (_materialize(store, entry["after"], registry, stub_ranks, ids)
             if entry["after"] is not None else None)
    node_id = store.add(Node(entry["kind"], entry["level"], entry["rank"],
                             below, after, entry["length"], entry["block"],
                             -1, digest))
    ids[digest] = node_id
    return node_id


def apply_ops(store: NodeStore, scheme: HashScheme, root: int,
              ops: list[BlockOp], src: LevelSource,
              version: int) -> tuple[int, LevelSource]:
    """Apply a block-op batch left to right as one new version; returns
    the new root id and the advanced level source."""
    for op in ops:
        if op.kind == MODIFY_OP:
            result = persist.pmodify(store, scheme, root, op.index, op.data,
                                     version)
        elif op.kind == INSERT_OP:
            result, src = persist.pinsert(store, scheme, root, op.index,
                                          op.data, src, version)
        elif op.kind == REMOVE_OP:
            result = persist.premove(store, scheme, root, op.index, version)
        else:
            raise FormatError(f"unknown block op {op.kind!r}")
        root = result.new_root
    return root, src


def apply_ops_partial(partial: PartialFlexList, ops: list[BlockOp],
                      src: LevelSource) -> tuple[bytes, LevelSource]:
    """Apply a block-op batch to a partial list; returns the new root
    digest (the value the client feeds its layer-2 replica) and the
    advanced level source. PathNotCovered if the proof was too narrow."""
    partial.root, src = apply_ops(partial.store, partial.scheme,
                                  partial.root, ops, src,
                                  partial.version + 1)
    return partial.root_digest, src
