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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import (BlockTooSmall, IndexOutOfRange, PathNotCovered,
                     StructureCorrupt)
from .hashing import HashScheme, LevelSource

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
    """Create and finalize a leaf node; returns its id."""
    if not sentinel and length < 1:
        raise BlockTooSmall("data blocks must be at least 1 byte")
    after_node = store.get(after) if after is not None else None
    rank = length + (after_node.rank if after_node else 0)
    bd = block_digest if block_digest is not None else scheme.zero
    digest = scheme.leaf_node(0, rank, after_node.digest if after_node else None,
                              length, bd, sentinel=sentinel)
    kind = KIND_SENTINEL if sentinel else KIND_LEAF
    return store.add(Node(kind, 0, rank, None, after, length, bd, digest))


def make_internal(store: NodeStore, scheme: HashScheme, level: int,
                  below: int, after: int) -> int:
    """Create and finalize an internal node; returns its id."""
    below_node = store.get(below)
    after_node = store.get(after)
    rank = below_node.rank + after_node.rank
    digest = scheme.internal_node(level, rank, below_node.digest,
                                  after_node.digest)
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


def block_start(store: NodeStore, root: int, index: int) -> tuple[int, int]:
    """Return (start byte, length) of the block containing `index`."""
    path = search(store, root, index)
    return path.offset, store.get(path.leaf).length


def block_layout(store: NodeStore, root: int) -> list[int]:
    """Lengths of all data blocks in order (sentinels excluded)."""
    lengths = []
    for node_id in iter_leaves(store, root):
        node = store.get(node_id)
        if node.kind == KIND_LEAF:
            lengths.append(node.length)
    return lengths


def iter_leaves(store: NodeStore, root: int):
    """Yield leaf ids left to right (sentinels included), iteratively."""
    stack = [root]
    while stack:
        node_id = stack.pop()
        node = store.get(node_id)
        if node.is_leaf:
            yield node_id
            if node.after is not None:
                stack.append(node.after)
        else:
            if node.after is not None:
                stack.append(node.after)
            if node.below is None:
                raise StructureCorrupt("internal node without below child")
            stack.append(node.below)


def check_subtree(store: NodeStore, scheme: HashScheme, root: int,
                  verified: dict | None = None) -> dict:
    """Recompute every rank and digest reachable from root and compare
    with stored values. Returns counters; raises StructureCorrupt on the
    first violation. Passing one `verified` dict across calls checks
    shared subtrees only once."""
    if verified is None:
        verified = {}
    stats = {"nodes": 0, "leaves": 0, "bytes": 0}
    _check(store, scheme, root, verified, stats)
    return stats


def _check(store, scheme, root, verified, stats):
    # Iterative post-order so deep chains cannot overflow the interpreter
    # stack.
    todo = [(root, False)]
    while todo:
        node_id, ready = todo.pop()
        if node_id in verified:
            continue
        node = store.get(node_id)
        if not ready:
            todo.append((node_id, True))
            for child in (node.below, node.after):
                if child is not None and child not in verified:
                    todo.append((child, False))
            continue
        below = store.get(node.below) if node.below is not None else None
        after = store.get(node.after) if node.after is not None else None
        if node.is_leaf:
            if node.below is not None or node.level != 0:
                raise StructureCorrupt("leaf invariants violated")
            rank = node.length + (after.rank if after else 0)
            digest = scheme.leaf_node(0, rank, after.digest if after else None,
                                      node.length, node.block,
                                      sentinel=node.kind == KIND_SENTINEL)
            stats["leaves"] += 1
            stats["bytes"] += node.length
        else:
            if below is None or after is None:
                raise StructureCorrupt("internal node missing a child")
            rank = below.rank + after.rank
            digest = scheme.internal_node(node.level, rank, below.digest,
                                          after.digest)
        if rank != node.rank:
            raise StructureCorrupt(f"rank mismatch at node {node_id}")
        if digest != node.digest:
            raise StructureCorrupt(f"digest mismatch at node {node_id}")
        verified[node_id] = node
        stats["nodes"] += 1
