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
determined, independent of the edit history that produced it. Towers
claim the span to their right up to the first tower of greater-or-equal
level; an internal node's stored level is the level of the tower its
after link enters. Runs of level-0 towers chain at leaf level.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import (BlockTooSmall, DomainError, IndexOutOfRange,
                     PathNotCovered, StructureCorrupt)
from .hashing import (TAG_INTERNAL, TAG_LEAF, TAG_SENTINEL, HashScheme,
                      LevelSource)

KIND_INTERNAL = 0
KIND_LEAF = 1
KIND_SENTINEL = 2
KIND_STUB = 3  # opaque frontier in a partial list: digest and rank only

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

    @property
    def is_leaf(self) -> bool:
        return self.kind != KIND_INTERNAL

    def __repr__(self):
        kind = {KIND_INTERNAL: "int", KIND_LEAF: "leaf",
                KIND_SENTINEL: "sent", KIND_STUB: "stub"}[self.kind]
        return (f"<{kind} lvl={self.level} rank={self.rank} "
                f"len={self.length}>")


class NodeStore:
    """Append-only node storage. Ids are sequential and never reused."""

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


def split_blocks(data: bytes, block_size: int) -> list[bytes]:
    """Cut data into block_size pieces; the last piece may be shorter.

    Empty input yields no blocks.
    """
    if block_size < 1:
        raise BlockTooSmall("block_size must be >= 1")
    return [data[i:i + block_size] for i in range(0, len(data), block_size)]


def read_blocks(fh, block_size: int) -> Iterator[bytes]:
    """Cut a binary file into block_size pieces as it is read: the pieces
    split_blocks gives for its whole content, one in memory at a time."""
    if block_size < 1:
        raise BlockTooSmall("block_size must be >= 1")
    return iter(lambda: fh.read(block_size), b"")


def make_leaf(store: NodeStore, scheme: HashScheme, length: int,
              block_digest: bytes | None, after: int | None,
              sentinel: bool = False) -> int:
    """Create and finalize a leaf node; returns its id. The node is
    hashed in one step (HashScheme.leaf_node's encoding): the after
    child's digest came from the hash, so only the caller's block digest
    needs its width checked."""
    if not sentinel and length < 1:
        raise BlockTooSmall("data blocks must be at least 1 byte")
    bd = block_digest if block_digest is not None else scheme.zero
    if len(bd) != scheme.width:
        raise DomainError("digest width mismatch")
    if after is None:
        rank, present, after_digest = length, 0, scheme.zero
    else:
        after_node = store.get(after)
        rank, present, after_digest = (length + after_node.rank, 1,
                                       after_node.digest)
    digest = scheme.hash_fn(scheme.leaf_layout.pack(
        TAG_SENTINEL if sentinel else TAG_LEAF, 0, rank, present,
        after_digest, length, bd)).digest()
    kind = KIND_SENTINEL if sentinel else KIND_LEAF
    return store.add(Node(kind, 0, rank, None, after, length, bd, digest))


def make_internal(store: NodeStore, scheme: HashScheme, level: int,
                  below: int, after: int) -> int:
    """Create and finalize an internal node, hashed in one step
    (HashScheme.internal_node's encoding); returns its id."""
    below_node = store.get(below)
    after_node = store.get(after)
    rank = below_node.rank + after_node.rank
    digest = scheme.hash_fn(scheme.internal_layout.pack(
        TAG_INTERNAL, level, rank, below_node.digest, 1,
        after_node.digest)).digest()
    return store.add(Node(KIND_INTERNAL, level, rank, below, after, 0,
                          None, digest))


def build_with_levels(store: NodeStore, scheme: HashScheme,
                      blocks: list[tuple[int, bytes]],
                      levels: list[int]) -> int:
    """Construct the canonical list for (blocks, levels); returns root id.

    blocks are (length, block_digest) pairs; levels[i] is block i's tower
    level. Folds right to left with a monotonic stack: each tower pops the
    pieces of all towers to its right up to the first strictly taller one
    and stacks them as its column, level-0 pieces chaining at leaf level.
    """
    if len(blocks) != len(levels):
        raise ValueError("one level per block required")
    right = make_leaf(store, scheme, 0, None, None, sentinel=True)
    # stack of (tower_level, piece_id); levels strictly increase toward
    # the front, stack[-1] is the nearest piece.
    stack: list[tuple[int, int]] = [(0, right)]
    for (length, block_digest), level in zip(reversed(blocks),
                                             reversed(levels)):
        stack = _push_tower(store, scheme, stack, level, length,
                            block_digest, sentinel=False)
    # Left sentinel column captures everything that remains.
    stack = _push_tower(store, scheme, stack, LEVEL_INF, 0, None,
                        sentinel=True)
    return stack[0][1]


LEVEL_INF = 1 << 62  # left sentinel capture bound; above any drawable level


def _push_tower(store, scheme, stack, level, length, block_digest, sentinel):
    pops = []
    while stack and stack[-1][0] <= level:
        pops.append(stack.pop())
    chain_after = None
    if pops and pops[0][0] == 0:
        chain_after = pops[0][1]
        pops = pops[1:]
    cur = make_leaf(store, scheme, length, block_digest, chain_after,
                    sentinel=sentinel)
    for pop_level, piece in pops:
        cur = make_internal(store, scheme, pop_level, cur, piece)
    stack.append((level, cur))
    return stack


def build(store: NodeStore, scheme: HashScheme, blocks: Iterable[bytes],
          src: LevelSource, block_digest=None) -> tuple[int, LevelSource]:
    """Pre-process a block sequence in one pass: draw one level per block
    and build. The blocks may come from an iterator, so a caller need not
    hold them all.

    block_digest(block) returns a block's digest (default: hash it with
    scheme); a caller that stores the blocks can pass its own put.
    Returns (root id, advanced level source).
    """
    block_digest = block_digest or scheme.block_digest
    pairs, levels = [], []
    for block in blocks:
        level, src = src.draw()
        levels.append(level)
        pairs.append((len(block), block_digest(block)))
    root = build_with_levels(store, scheme, pairs, levels)
    return root, src


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


def search(store: NodeStore, root: int, index: int) -> SearchPath:
    """Locate the leaf whose block contains byte `index`.

    Follows below while the below-side rank exceeds the remaining index,
    otherwise follows after and deducts the bytes left behind.
    """
    root_node = store.get(root)
    if index < 0 or index >= root_node.rank:
        raise IndexOutOfRange(f"index {index} outside rank {root_node.rank}")
    path = SearchPath()
    node_id, node = root, root_node
    remaining = index
    while True:
        # bytes left behind when moving after: the below-side span
        span = (store.get(node.below).rank if node.below is not None
                else node.length)
        if remaining < span:
            if node.is_leaf:
                path.leaf = node_id
                path.residual = remaining
                path.offset = index - remaining
                return path
            path.entries.append((node_id, BELOW))
            node_id = node.below
        elif node.after is not None:
            remaining -= span
            path.entries.append((node_id, AFTER))
            node_id = node.after
        else:
            raise StructureCorrupt("descent stuck; rank law violated")
        node = store.get(node_id)
        if node.kind == KIND_STUB:
            raise PathNotCovered("search entered an unexpanded subtree")


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
    node = store.get(root)
    return _walk(store.get, node, [], node.rank, 0)


def leaves_from(store: NodeStore, root: int,
                index: int) -> tuple[int, Iterator[Node]]:
    """(offset, leaves): the byte offset of the block holding byte
    `index`, and the suffix of iter_data_leaves that starts at its leaf,
    with the same checks. One search finds the leaf; the walk goes on
    from there, taking up the after links of the nodes the search went
    below."""
    path = search(store, root, index)
    get = store.get
    below = (get(node_id) for node_id, direction in path.entries
             if direction == BELOW)
    todo = [node.after for node in below if node.after is not None]
    return path.offset, _walk(get, get(path.leaf), todo, get(root).rank,
                              path.offset)


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
    """Recompute every rank and digest reachable from root and compare
    with stored values; raises StructureCorrupt on the first violation.
    Each checked node goes into `verified` by id, so passing one dict
    across calls checks shared subtrees only once.

    One walk gathers the unverified nodes the root reaches; they are
    then checked in ascending id order, each hashed in one step. A child
    has a lower id than its parent (ids are handed out children first),
    so each node's children are verified before it; a link to a later
    id is refused."""
    if verified is None:
        verified = {}
    get = store.get
    nodes = {}
    todo = [root]
    while todo:
        node_id = todo.pop()
        if node_id in verified or node_id in nodes:
            continue
        node = nodes[node_id] = get(node_id)
        if node.below is not None:
            todo.append(node.below)
        if node.after is not None:
            todo.append(node.after)
    sha, width, zero = scheme.hash_fn, scheme.width, scheme.zero
    pack_internal = scheme.internal_layout.pack
    pack_leaf = scheme.leaf_layout.pack
    for node_id in sorted(nodes):
        node = nodes[node_id]
        below, after = node.below, node.after
        if ((below is not None and below >= node_id)
                or (after is not None and after >= node_id)):
            raise StructureCorrupt(f"node {node_id} links to a later node")
        after = verified[after] if after is not None else None
        kind = node.kind
        try:
            if kind == KIND_INTERNAL:
                if below is None or after is None:
                    raise StructureCorrupt("internal node missing a child")
                below = verified[below]
                rank = below.rank + after.rank
                digest = sha(pack_internal(TAG_INTERNAL, node.level, rank,
                                           below.digest, 1,
                                           after.digest)).digest()
            else:
                if below is not None or node.level != 0:
                    raise StructureCorrupt("leaf invariants violated")
                if len(node.block) != width:
                    raise StructureCorrupt(
                        f"block digest width at node {node_id}")
                tag = TAG_SENTINEL if kind == KIND_SENTINEL else TAG_LEAF
                if after is None:
                    rank = node.length
                    digest = sha(pack_leaf(tag, 0, rank, 0, zero, rank,
                                           node.block)).digest()
                else:
                    rank = node.length + after.rank
                    digest = sha(pack_leaf(tag, 0, rank, 1, after.digest,
                                           node.length, node.block)).digest()
        except struct.error:    # a rank past 64 bits
            raise StructureCorrupt(
                f"field out of range at node {node_id}") from None
        if rank != node.rank:
            raise StructureCorrupt(f"rank mismatch at node {node_id}")
        if digest != node.digest:
            raise StructureCorrupt(f"digest mismatch at node {node_id}")
        verified[node_id] = node
