"""Core FlexList mechanics: node model, construction, byte-indexed search.

The structure is a rank-based authenticated skip list over variable-sized
blocks. Internally it is held in tree form: every node has an optional
`below` child and an optional `after` child, and

    rank = (below ? rank(below) : length) + (after ? rank(after) : 0)

so rank is exactly the number of data bytes reachable through a node.
Leaves are the level-0 nodes; each owns one block. Two zero-length
sentinel leaves bound the list: a left sentinel whose column head anchors
the root at the current maximum level, and a right sentinel terminating
the leaf chain.

Shape is canonical: given the block sequence and the per-block tower
levels, the node graph (and therefore the root digest) is uniquely
determined, independent of the edit history that produced it: it is
what push_tower's fold makes of them. Towers claim the span to their
right up to the first taller tower; an internal node's stored level is
the level of the tower its after link enters. Runs of level-0 towers
chain at leaf level.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import (BlockTooSmall, DomainError, IndexOutOfRange,
                     PathNotCovered, StructureCorrupt)
from .hashing import HashScheme

KIND_INTERNAL = 0
KIND_LEAF = 1
KIND_SENTINEL = 2
KIND_STUB = 3  # opaque frontier in a partial list: digest and rank only
NO_LINK = (1 << 64) - 1   # a stored node's below or after, when absent
BAD, BAD_BLOCK = 1, 2   # check_nodes's flags

BELOW = "below"
AFTER = "after"


class Node:
    """One finalized skip-list vertex. Write-once: never mutate after add."""

    __slots__ = ("kind", "level", "rank", "below", "after", "length",
                 "block", "digest")

    def __init__(self, kind, level, rank, below, after, length, block,
                 digest):
        self.kind = kind
        self.level = level
        self.rank = rank
        self.below = below          # NodeId | None
        self.after = after          # NodeId | None
        self.length = length        # leaf byte length (0 unless leaf kind)
        self.block = block          # block content digest (leaves only)
        self.digest = digest

    def __repr__(self):
        kind = {KIND_INTERNAL: "int", KIND_LEAF: "leaf",
                KIND_SENTINEL: "sent", KIND_STUB: "stub"}[self.kind]
        return (f"<{kind} lvl={self.level} rank={self.rank} "
                f"len={self.length}>")


class NodeStore:
    """Append-only node storage. Ids are sequential and never reused;
    `get` returns only the nodes added, and refuses any other id."""

    def __init__(self):
        self._nodes: dict[int, Node] = {}
        self._next_id = 0

    def add(self, node: Node) -> int:
        node_id = self._next_id
        self._next_id = node_id + 1
        self._nodes[node_id] = node
        return node_id

    def get(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise StructureCorrupt(f"node {node_id} missing from store")

    def __len__(self) -> int:
        return len(self._nodes)

    def ids(self):
        return self._nodes.keys()

    @property
    def next_id(self) -> int:
        return self._next_id


def read_blocks(fh, block_size: int) -> Iterator[bytes]:
    """Cut a binary file into block_size pieces as it is read, one in
    memory at a time; the last piece may be shorter, and an empty file
    yields none."""
    if block_size < 1:
        raise BlockTooSmall("block_size must be >= 1")
    return iter(lambda: fh.read(block_size), b"")


def make_leaf(store: NodeStore, scheme: HashScheme, length: int,
              block_digest: bytes | None, after: int | None,
              sentinel: bool = False) -> int:
    """Create and finalize a leaf node, hashed by HashScheme.leaf_digest;
    returns its id. The after child's digest came from the hash, so only
    the caller's block digest needs its width checked."""
    if not sentinel and length < 1:
        raise BlockTooSmall("data blocks must be at least 1 byte")
    bd = block_digest if block_digest is not None else scheme.zero
    if len(bd) != scheme.width:
        raise DomainError("digest width mismatch")
    if after is None:
        rank, after_digest = length, None
    else:
        after_node = store.get(after)
        rank, after_digest = length + after_node.rank, after_node.digest
    digest = scheme.leaf_digest(sentinel, rank, after_digest, length, bd)
    kind = KIND_SENTINEL if sentinel else KIND_LEAF
    return store.add(Node(kind, 0, rank, None, after, length, bd, digest))


def make_internal(store: NodeStore, scheme: HashScheme, level: int,
                  below: int, after: int) -> int:
    """Create and finalize an internal node, hashed by
    HashScheme.internal_digest; returns its id."""
    below_node = store.get(below)
    after_node = store.get(after)
    rank = below_node.rank + after_node.rank
    digest = scheme.internal_digest(level, rank, below_node.digest,
                                    after_node.digest)
    return store.add(Node(KIND_INTERNAL, level, rank, below, after, 0,
                          None, digest))


def build_with_levels(store: NodeStore, scheme: HashScheme,
                      blocks: list[tuple[int, bytes]],
                      levels: list[int]) -> int:
    """Construct the canonical list for (blocks, levels); returns root id.

    blocks are (length, block_digest) pairs; levels[i] is block i's tower
    level. Pushes the towers right to left through push_tower, the fold
    the edit engine replays at a cut, finalizing each node as it is made.
    """
    if len(blocks) != len(levels):
        raise ValueError("one level per block required")

    def internal(level, below, after, _rank):
        return make_internal(store, scheme, level, below, after)

    stack = [FLOOR, (0, make_leaf(store, scheme, 0, None, None,
                                  sentinel=True), 0)]
    for (length, block_digest), level in zip(reversed(blocks),
                                             reversed(levels)):
        chain, rank = take_chain(stack)
        push_tower(stack, level, make_leaf(store, scheme, length,
                                           block_digest, chain),
                   length + rank, internal)
    # The left sentinel's column captures everything that remains.
    chain, rank = take_chain(stack)
    push_tower(stack, LEVEL_INF, make_leaf(store, scheme, 0, None, chain,
                                           sentinel=True), rank, internal)
    return stack[-1][1]


LEVEL_INF = 1 << 62  # left sentinel capture bound; above any drawable level
FLOOR = (1 << 63, None, 0)  # bottom of every fold stack; nothing captures it


def take_chain(stack: list) -> tuple:
    """(ref, rank) of the level-0 piece on top of a fold stack, taken off
    for the leaf pushed next to chain to; (None, 0) if there is none."""
    if stack[-1][0]:
        return None, 0
    _level, piece, rank = stack.pop()
    return piece, rank


def push_tower(stack: list, level: int, cur, rank: int, internal) -> None:
    """One step of the right-to-left fold that defines a list's shape.

    stack holds the pieces to the right as (level, ref, rank), levels
    rising strictly from the top (the nearest piece) to FLOOR. The tower
    of `level` whose column so far is `cur`, holding `rank` bytes,
    captures every piece of level <= its own, nearest first, each through
    a node internal(piece level, below, after, rank) makes, and goes on
    the stack as one piece. A level-0 piece is no capture: the tower's
    leaf chains to it (take_chain) before the push.
    """
    while stack[-1][0] <= level:
        piece_level, piece, piece_rank = stack.pop()
        rank += piece_rank
        cur = internal(piece_level, cur, piece, rank)
    stack.append((level, cur, rank))


def build(store: NodeStore, scheme: HashScheme, blocks: Iterable[bytes],
          levels: Iterator[int], block_digest=None) -> int:
    """Pre-process a block sequence in one pass: take the next level from
    `levels` per block and build; returns the root id. The blocks may
    come from an iterator, so a caller need not hold them all.

    block_digest(block) returns a block's digest (default: hash it with
    scheme); a caller that stores the blocks can pass its own put.
    """
    block_digest = block_digest or scheme.block_digest
    pairs = [(len(block), block_digest(block)) for block in blocks]
    return build_with_levels(store, scheme, pairs,
                             [next(levels) for _ in pairs])


@dataclass
class SearchPath:
    """Trace of one byte-indexed descent.

    entries holds (node id, direction moved from it); leaf is the node
    whose block spans the index, residual the offset inside that block.
    """

    entries: list[tuple[int, str]] = field(default_factory=list)
    leaf: int = -1
    residual: int = 0
    offset: int = 0  # byte offset of the found leaf's block start


def descend(get, root, index: int) -> tuple[list, object, Node, int]:
    """The descent toward byte `index` from `root` that search and the
    edit engine run. A ref, `root` included, is a node id, read with
    get, or an unfinalized Node, read as it is.

    Follows below while the below side's rank exceeds the remaining
    index, otherwise follows after and deducts the bytes left behind.
    Returns (path, ref, node, residual): path holds (ref, node, went
    below, span) per move, span being the bytes of the node's below side
    (a leaf's length); ref and node are the leaf reached, residual the
    offset of `index` inside its block. index = rank reaches the right
    sentinel with residual 0.
    """
    ref, remaining, path = root, index, []
    node = root if type(root) is Node else get(root)
    while True:
        if node.kind == KIND_STUB:
            raise PathNotCovered("descent entered an unexpanded subtree")
        below = node.below
        if below is None:
            span = node.length
            if remaining < span or (remaining == span == 0
                                    and node.after is None):
                return path, ref, node, remaining
        else:
            below_node = below if type(below) is Node else get(below)
            span = below_node.rank
            if remaining < span:
                path.append((ref, node, True, span))
                ref, node = below, below_node
                continue
        after = node.after
        if after is None:
            raise StructureCorrupt("descent stuck; rank law violated")
        remaining -= span
        path.append((ref, node, False, span))
        ref = after
        node = after if type(after) is Node else get(after)


def search(store: NodeStore, root: int, index: int) -> SearchPath:
    """Locate the leaf whose block contains byte `index` (descend)."""
    rank = store.get(root).rank
    if index < 0 or index >= rank:
        raise IndexOutOfRange(f"index {index} outside rank {rank}")
    path, leaf, _node, residual = descend(store.get, root, index)
    return SearchPath([(ref, BELOW if below else AFTER)
                       for ref, _node, below, _span in path],
                      leaf, residual, index - residual)


def block_layout(store: NodeStore, root: int) -> list[int]:
    """Lengths of all data blocks in order (sentinels excluded), checked
    as iter_data_leaves checks them."""
    return [leaf.length for leaf in iter_data_leaves(store, root)]


def iter_data_leaves(store: NodeStore, root: int) -> Iterator[Node]:
    """Yield a version's data leaves, as nodes, left to right: one
    iterative walk that gets each node once, down the below links and
    along the leaf chain. Raises StructureCorrupt at an internal node
    without a below child, as soon as the leaves' lengths add up to more
    than the root's rank, and after the last leaf if they add up to
    less."""
    return data_leaves(store, root)[1]


def data_leaves(store: NodeStore, root: int) -> tuple[int, Iterator[Node]]:
    """(rank, leaves): the root's rank, the version's size in bytes, and
    its data leaves as iter_data_leaves yields them, from one get of the
    root."""
    node = store.get(root)
    return node.rank, _walk(store.get, node, [], node.rank, 0)


def leaves_from(store: NodeStore, root: int,
                index: int) -> tuple[int, Iterator[Node]]:
    """(offset, leaves): the byte offset of the block holding byte
    `index`, and the suffix of iter_data_leaves that starts at its leaf,
    with the same checks. One descent finds the leaf; the walk goes on
    from there, taking up the after links of the nodes it went below,
    so each node is got once. IndexOutOfRange for an index outside
    [0, rank)."""
    get = store.get
    top = get(root)
    if index < 0 or index >= top.rank:
        raise IndexOutOfRange(f"index {index} outside rank {top.rank}")
    path, _ref, leaf, residual = descend(get, top, index)
    todo = [node.after for _ref, node, below, _span in path
            if below and node.after is not None]
    offset = index - residual
    return offset, _walk(get, leaf, todo, top.rank, offset)


def _walk(get, node: Node, todo: list, rank: int,
          total: int) -> Iterator[Node]:
    """The leaf walk from `node`, with `total` bytes before it and `todo`
    holding the after links still to visit, innermost last."""
    while True:
        if node.kind == KIND_INTERNAL:
            if node.below is None:
                raise StructureCorrupt("internal node without below child")
            if node.after is not None:
                todo.append(node.after)
            node = get(node.below)
            continue
        if node.kind == KIND_LEAF:
            total += node.length
            if total > rank:
                raise StructureCorrupt("data leaves pass the root's rank")
            yield node
        if node.after is not None:
            node = get(node.after)
        elif todo:
            node = get(todo.pop())
        else:
            break
    if total != rank:
        raise StructureCorrupt("materialized length disagrees with rank")


def check_subtree(store: NodeStore, scheme: HashScheme, root: int,
                  verified: dict | None = None) -> None:
    """Check the nodes root reaches, except those in `verified`, with
    check_nodes, and add each to `verified` by id, so one dict across calls
    checks shared subtrees once; raises StructureCorrupt on a problem."""
    if verified is None:
        verified = {}
    nodes, ranks, digests, flags, todo = {}, {}, {}, {}, [root]
    while todo:
        node_id = todo.pop()
        if node_id in verified:     # checked before: its stored values
            node, flags[node_id] = verified[node_id], 0
            ranks[node_id], digests[node_id] = node.rank, node.digest
        elif node_id not in nodes:
            node = nodes[node_id] = store.get(node_id)
            # A struct "s" field pads or cuts a digest of the wrong width.
            if node.block is not None and len(node.block) != scheme.width:
                raise StructureCorrupt(f"node {node_id}: block digest width")
            todo += [link for link in (node.below, node.after)
                     if link is not None]
    problem = next(check_nodes(
        scheme, ((node_id, record_fields(nodes[node_id], scheme.zero))
                 for node_id in sorted(nodes)), ranks, digests, flags, {}),
        None)
    if problem is not None:
        raise StructureCorrupt(problem)
    verified.update(nodes)


def record_fields(node: Node, zero: bytes) -> tuple:
    """A node's fields as a node record holds them (NO_LINK, `zero`)."""
    return (node.kind, node.level, node.rank,
            NO_LINK if node.below is None else node.below,
            NO_LINK if node.after is None else node.after, node.length,
            zero if node.block is None else node.block, node.digest)


def shape_problem(node_id: int, fields: tuple, zero: bytes) -> str | None:
    """What is wrong with stored node `node_id`'s shape, or None: its
    fields (as record_fields gives them) must fit its kind, internal nodes
    having both links and no length or block, leaves no below link and
    level 0, data leaves a length, sentinels none and no block; and its
    links must point back, as writers finalize children first."""
    kind, level, rank, below, after, length, block, digest = fields
    if kind == KIND_INTERNAL:
        valid = below != NO_LINK != after and not length and block == zero
    elif kind == KIND_LEAF or kind == KIND_SENTINEL:
        valid = below == NO_LINK and not level and (
            length > 0 if kind == KIND_LEAF else not length and block == zero)
    else:
        return f"node {node_id}: unknown kind {kind}"
    if not valid:
        return f"node {node_id}: malformed record"
    if node_id <= below != NO_LINK or node_id <= after != NO_LINK:
        return f"node {node_id} links to a later node"
    return None


def check_nodes(scheme: HashScheme, records: Iterable[tuple[int, tuple]],
                ranks, digests, flags, block_lengths: dict) -> Iterator[str]:
    """The one check of stored nodes' shape (shape_problem), rank and
    digest, over (id, fields) records in ascending id order; yields one
    problem per bad record, as it is found. Each rank and digest is
    recomputed, in one hash, from the children's stored ones, which a lower
    id had checked. ranks[id] and digests[id] get the stored values,
    flags[id] BAD for a bad record, else the children's flags OR-ed with,
    for a data leaf, BAD_BLOCK if block_lengths (digest -> length) lacks
    its block or gives another length. A record that disagrees only as a
    child is bad (whose flipped digest breaks every parent's hash) is BAD
    without a problem."""
    internal_digest, zero = scheme.internal_digest, scheme.zero
    leaf_digest = scheme.leaf_digest
    block_length = block_lengths.get
    for node_id, fields in records:
        kind, level, rank, below, after, length, block, digest = fields
        ranks[node_id], digests[node_id] = rank, digest
        try:
            # Most shapes are tested inline; shape_problem judges the rest.
            if (kind == KIND_INTERNAL and below < node_id > after
                    and not length and block == zero):
                got_rank = ranks[below] + ranks[after]
                got = internal_digest(level, got_rank, digests[below],
                                      digests[after])
                flag = flags[below] | flags[after]
            else:
                if not (kind == KIND_LEAF and below == NO_LINK and not level
                        and after < node_id and length > 0):
                    problem = shape_problem(node_id, fields, zero)
                    if problem is not None:
                        flags[node_id] = BAD
                        yield problem
                        continue
                linked = after != NO_LINK
                got_rank = length + ranks[after] if linked else length
                flag = flags[after] if linked else 0
                got = leaf_digest(kind != KIND_LEAF, got_rank,
                                  digests[after] if linked else None,
                                  length, block)
                if kind == KIND_LEAF and block_length(block) != length:
                    flag |= BAD_BLOCK
        except struct.error:    # a rank past 64 bits
            flags[node_id] = BAD
            yield f"node {node_id}: field out of range"
            continue
        if got_rank == rank and got == digest:
            flags[node_id] = flag
            continue
        flags[node_id] = BAD
        if not flag & BAD:     # else a bad child, reported, explains it
            yield (f"node {node_id}: "
                   f"{'rank' if got_rank != rank else 'digest'} mismatch")

