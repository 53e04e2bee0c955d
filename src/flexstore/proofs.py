"""Pruned subtrees: the one proof shape, for both layers.

A pruned subtree proves a set of leaves of a FlexList against its root
digest. It is the union of the proven leaves' root paths, each node
once, in preorder; a child no path enters is a stub, its digest and
rank. build_path makes one descent, splitting sorted disjoint byte spans
between each node's children, and proves every leaf a span touches.
fold_path rebuilds the subtree bottom-up, computing every rank and
digest from the leaves and stubs up, and yields the root digest and
rank and each proven leaf's byte offset. Offsets follow from
authenticated ranks, so a prover cannot move a proven leaf.

The proven leaves' material is not in the encoding: the caller pairs it
with the proof. A layer-1 audit or range proof carries each proven
leaf's block; a layer-2 proof carries each proven version's record, a
leaf of length 1 whose offset is its version number.

Encoding (integers 8-byte big-endian, digests raw):

  node: tag(1) || fields, then its child slots
    internal  level(1), then its below and after slots
    proven    (leaf; its material comes with the proof), after slot
    hop       (leaf a path passes through) length || block digest,
              after slot
    sentinel  (zero-length boundary leaf), after slot
    stub      digest || rank
    absent    (an empty after slot)
  Ranks of expanded nodes are not sent: each is computed from its
  children, and a proven leaf's offset is the sum of the lengths and
  stub ranks before it in preorder.

fold_path decodes into one list per node field (a Subtree), not into
node objects: a verifier reads only the root's digest and rank and the
proven leaves' offsets. Only the client, which edits a layer-1 subtree,
makes node objects from the lists (adaptor.partial_from_proof).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import NamedTuple

from .core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL, KIND_STUB,
                   NodeStore)
from .errors import DomainError, FormatError
from .hashing import HashScheme

_MAX_RANK = (1 << 64) - 1

# Node tags.
_ABSENT, _STUB, _INTERNAL, _PROVEN, _HOP, _SENTINEL = range(6)
# The kind of a node by its tag, as a bytes.translate table; an absent
# slot is no node, and translate deletes it.
_KIND_OF_TAG = bytes([0, KIND_STUB, KIND_INTERNAL, KIND_LEAF, KIND_LEAF,
                      KIND_SENTINEL]).ljust(256, b"\0")
_ABSENT_TAG = bytes([_ABSENT])
_U64 = struct.Struct(">Q")


def build_path(store: NodeStore, root: int, los: Sequence[int],
               his: Sequence[int]) -> tuple[bytes, list[bytes]]:
    """Encode the pruned subtree proving every leaf that intersects one of
    the sorted disjoint spans [los[i], his[i]); returns it and the proven
    leaves' block digests, left to right.

    One descent: each task is (node id, first span, end span, offset),
    the spans being those that intersect the node's byte range. A child
    with no span is a stub unless its rank is 0 (a sentinel, cheaper
    expanded, and what an insert into an empty list needs); the root is
    always expanded. Tasks are pushed after child first, so nodes come
    out in preorder.
    """
    out = bytearray()
    proven = []
    todo = [(root, 0, len(los), 0)]
    while todo:
        node_id, first, end, offset = todo.pop()
        if node_id is None:
            out.append(_ABSENT)
            continue
        node = store.get(node_id)
        if first == end and node.rank and node_id != root:
            out.append(_STUB)
            out += node.digest
            out += _U64.pack(node.rank)
            continue
        if node.kind == KIND_INTERNAL:
            out.append(_INTERNAL)
            out.append(node.level)
            split = offset + store.get(node.below).rank
            todo.append((node.after, bisect_right(his, split, first, end),
                         end, split))
            todo.append((node.below, first,
                         bisect_left(los, split, first, end), offset))
            continue
        split = offset + node.length
        if node.kind == KIND_SENTINEL:
            out.append(_SENTINEL)
        elif first < end and los[first] < split:
            out.append(_PROVEN)
            proven.append(node.block)
        else:
            out.append(_HOP)
            out += _U64.pack(node.length)
            out += node.block
        todo.append((node.after, bisect_right(his, split, first, end), end,
                     split))
    return bytes(out), proven


class Subtree(NamedTuple):
    """A decoded pruned subtree, one list per node field: node i is
    (kind[i], level[i], rank[i], below[i], after[i], length[i], block[i],
    digest[i]), the fields of a core.Node. Children come before their
    parent, so links point to lower ids and the root is the last node.
    A stub is a KIND_STUB node with only its rank and digest; `block` is
    None but for leaves. `starts` holds the byte offset of each proven
    leaf, left to right."""

    kind: list[int]
    level: list[int]
    rank: list[int]
    below: list[int | None]
    after: list[int | None]
    length: list[int]
    block: list[bytes | None]
    digest: list[bytes]
    root: int
    starts: list[int]


def fold_path(scheme: HashScheme, data: bytes,
              leaves: Sequence[tuple[int, bytes]]) -> Subtree:
    """Decode a pruned subtree into per-field lists, computing every rank
    and digest from the leaves and stubs up; `leaves` gives each proven
    leaf's (length, block digest), left to right.

    Iterative and linear in the encoded bytes: a forward pass parses the
    preorder into its tags and one list of numbers and one of digests,
    counting open child slots and summing lengths and stub ranks into
    the proven leaves' offsets; a backward pass pops those lists from
    the end, making each node from its children, which come later in
    preorder and so are made first, each by one node encoder call.
    Raises DomainError if a digest in `leaves` is not of the scheme's
    width, and otherwise FormatError and nothing else.
    """
    width = scheme.width
    if any(len(digest) != width for _length, digest in leaves):
        raise DomainError("digest width mismatch")
    unpack_hop = struct.Struct(f">Q{width}s").unpack_from
    unpack_stub = struct.Struct(f">{width}sQ").unpack_from
    entry = width + 8   # bytes of a hop's or a stub's fields
    zero = scheme.zero
    tags, numbers, digests, starts = bytearray(), [], [], []
    pos = offset = 0
    open_slots = 1
    try:
        while open_slots:
            tag = data[pos]
            pos += 1
            open_slots -= 1
            tags.append(tag)
            if tag == _INTERNAL:
                numbers.append(data[pos])
                pos += 1
                open_slots += 2
                continue
            if tag == _STUB:
                digest, rank = unpack_stub(data, pos)
                pos += entry
                numbers.append(rank)
                digests.append(digest)
                offset += rank
                continue
            if tag == _ABSENT:
                continue
            if tag == _PROVEN:
                length, digest = leaves[len(starts)]
                starts.append(offset)
            elif tag == _HOP:
                length, digest = unpack_hop(data, pos)
                pos += entry
            elif tag == _SENTINEL:
                length, digest = 0, zero
            else:
                raise FormatError(f"unknown subtree node tag {tag}")
            numbers.append(length)
            digests.append(digest)
            offset += length
            open_slots += 1
    except (IndexError, struct.error):
        raise FormatError("pruned subtree cut short, or proving more "
                          "leaves than the proof carries") from None
    if pos != len(data):
        raise FormatError("trailing bytes after the pruned subtree")
    if len(starts) != len(leaves):
        raise FormatError("the proof carries more leaves than it proves")
    if offset > _MAX_RANK:   # the root rank, which bounds every other
        raise FormatError("rank exceeds 64 bits")

    # Node i is the i-th entry from the end that is not an absent slot.
    # Fields the entry's kind leaves at their default are never written.
    kinds = list(tags.translate(_KIND_OF_TAG, _ABSENT_TAG)[::-1])
    count = len(kinds)
    levels, lengths = [0] * count, [0] * count
    belows, afters, blocks = [None] * count, [None] * count, [None] * count
    ranks, made = [], []        # made: the digest of each node made
    internal_digest, leaf_digest = scheme.internal_digest, scheme.leaf_digest
    stack = []       # ids of the subtrees made, None for absent slots
    node = 0
    for tag in reversed(tags):
        if tag == _ABSENT:
            stack.append(None)
            continue
        if tag == _INTERNAL:
            below, after = stack.pop(), stack.pop()
            if below is None or after is None:
                raise FormatError("internal node missing a child")
            levels[node] = level = numbers.pop()
            belows[node], afters[node] = below, after
            rank = ranks[below] + ranks[after]
            made.append(internal_digest(level, rank, made[below],
                                        made[after]))
        elif tag == _STUB:
            rank = numbers.pop()
            made.append(digests.pop())
        else:
            after = stack.pop()
            lengths[node] = rank = length = numbers.pop()
            blocks[node] = block = digests.pop()
            if after is not None:
                afters[node] = after
                rank += ranks[after]
            made.append(leaf_digest(
                tag == _SENTINEL, rank,
                None if after is None else made[after], length, block))
        ranks.append(rank)
        stack.append(node)
        node += 1
    root = stack[0]
    if root is None or kinds[root] == KIND_STUB:
        raise FormatError("pruned subtree has no expanded root")
    return Subtree(kinds, levels, ranks, belows, afters, lengths, blocks, made,
                   root, starts)
