"""Fully persistent FlexList edits: a splice at a cut, replayed by the
fold that builds a list.

Every edit leaves the old version's node graph untouched and produces a
new root that shares all unchanged subtrees with it. One edit engine
(EditEngine) runs the block ops of one new version as splices. A splice
replaces a run of adjacent whole blocks, at a block-aligned cut, with new
towers:

  Cut. One descent (core.descend) to the first block the run replaces.
     A node the path leaves by its below link holds, by its after link, a
     piece right of the cut. A node it leaves by its after link is where
     a tower left of the cut reaches across it: its below side is the
     part of that tower the run cannot change. The run's removed blocks
     are then taken off the nearest pieces, each walked down its column,
     which leaves the pieces right of the run. A piece's level is that of
     the link holding it and its rank is its parent's less the rank of
     the child the path took, so no sibling node is read.
  Fold. The new towers, then the towers the path reached across the cut,
     go through core.push_tower, the fold build_with_levels builds a
     whole list with: a tower captures every piece of level <= its own,
     and a level-0 piece chains to its leaf.
  Share. The pieces and the below sides are old subtrees, linked as they
     are: only nodes whose links change are made. The tower just left of
     the cut is opened further, down the right edge of its below side,
     only when the nearest new piece is lower than the tower it replaces,
     as only then can a tower there capture it.

A lone modify is a run of one op like any other. It keeps the old
block's level, so its tower captures exactly that block's column and the
tail is never opened: the fold makes one node per move of the descent
and the new leaf, and needs no node off the path to the block.

New nodes are drafts, unfinalized core.Node objects whose links hold ids
or other drafts. A later splice of the batch reads them as it reads
stored nodes and never edits one. finish runs once, after the last
splice: it finalizes into the store, children first, only the drafts the
final root reaches.

Because the structure is canonical (see core), the result of any batch
is bit-identical to rebuilding from scratch over the edited block
sequence with the same level assignment; the randomized suite holds the
engine to exactly that oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import core
from .core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL, KIND_STUB, Node,
                   NodeStore)
from .errors import (BlockTooSmall, IndexOutOfRange, NotBlockAligned,
                     PathNotCovered, StructureCorrupt)
from .hashing import HashScheme

# Block op kinds of a splice run, as adaptor.BlockOp names them.
MODIFY = "modify"
INSERT = "insert"
REMOVE = "remove"


@dataclass
class CommitResult:
    new_root: int
    created_nodes: int
    shared_nodes: int   # distinct older nodes the created ones link to


def _draft(level, below, after, rank):
    return Node(KIND_INTERNAL, level, rank, below, after, 0, None, None)


class EditEngine:
    """One new version's splices over `root`, and one finalization of
    the drafts the final root reaches. `root` is the batch's current
    root, a node id until the first splice makes it a draft."""

    def __init__(self, store: NodeStore, scheme: HashScheme, root: int):
        self.store = store
        self.scheme = scheme
        self.root = root

    def _node(self, ref) -> Node:
        return ref if type(ref) is Node else self.store.get(ref)

    def splice(self, index: int, ops: list) -> None:
        """Apply a run of block ops at the block holding byte `index`
        (index = rank appends), each op starting where the one before
        ends. An op is (kind, length, block digest, level): a remove takes
        out the next old block, an insert puts a block with a tower of
        `level` before it, and a modify does both, keeping the old
        block's level."""
        rank = self._node(self.root).rank
        if not 0 <= index < rank + (ops[0][0] == INSERT):
            raise IndexOutOfRange(f"index {index} outside rank {rank}")
        for kind, length, _block, _level in ops:
            if kind != REMOVE and length < 1:
                raise BlockTooSmall(f"{kind} needs at least 1 byte")
        path, _ref, leaf, residual = core.descend(self.store.get, self.root,
                                                   index)
        if residual:
            if ops[0][0] == REMOVE:
                raise NotBlockAligned(f"index {index} is not a block start")
            if len(ops) > 1:
                # The later ops sit past the cut by the residual: each
                # takes its own descent.
                self.splice(index, ops[:1])
                return self.splice(index + ops[0][1], ops[1:])

        # The cut. Each tower reaching across it, outermost first, as
        # (level, base, rank, leaf): the part of its column the run
        # leaves as it is, a ref holding `rank` bytes, or a leaf to make
        # again if its chain changes.
        stack, towers = [core.FLOOR], []
        level = core.LEVEL_INF
        for ref, node, below, span in path:
            if below:
                stack.append((node.level, node.after, node.rank - span))
            else:
                towers.append((level, node.below, span, None)
                              if node.kind == KIND_INTERNAL
                              else (level, ref, node.rank, node))
                level, cross, cross_span, mark = (node.level, node, span,
                                                  len(stack))
        if not towers:
            raise StructureCorrupt("no tower reaches across the cut")
        if ops[0][0] == INSERT:     # the tower at the cut stays whole
            del stack[mark:]
            stack.append((level, cross.after, cross.rank - cross_span))
        elif leaf.after is not None:
            # The path went down the first removed block's column.
            stack.append((0, leaf.after, leaf.rank - leaf.length))

        new = []
        for n, (kind, length, block, new_level) in enumerate(ops):
            if kind != INSERT:
                taken = self._take(stack) if n else level
                if kind == MODIFY:
                    new_level = taken
            if kind != REMOVE:
                new.append((length, block, new_level))

        # The fold: the new towers, then those reaching across the cut.
        for length, block, new_level in reversed(new):
            chain, rank = core.take_chain(stack)
            rank += length
            core.push_tower(stack, new_level,
                            Node(KIND_LEAF, 0, rank, None, chain, length,
                                 block, None), rank, _draft)
        if stack[-1][0] < cross.level:
            self._open_tail(towers, stack[-1][0])
        for level, base, rank, leaf in reversed(towers):
            if leaf is not None and (leaf.after is not None
                                     or not stack[-1][0]):
                chain, rank = core.take_chain(stack)
                rank += leaf.length
                base = Node(leaf.kind, 0, rank, None, chain, leaf.length,
                            leaf.block, None)
            core.push_tower(stack, level, base, rank, _draft)
        self.root = stack[-1][1]

    def _take(self, stack: list) -> int:
        """Take the nearest piece, an old block's tower, off a fold stack,
        putting back the pieces its column holds; returns its level."""
        level, ref, _rank = stack.pop()
        node = self._node(ref)
        while node.kind == KIND_INTERNAL:
            below = self._node(node.below)
            stack.append((node.level, node.after, node.rank - below.rank))
            node = below
        if node.kind == KIND_STUB:
            raise PathNotCovered("cannot remove an unexpanded block")
        if node.kind == KIND_SENTINEL:
            raise IndexOutOfRange("a run passes the end of the list")
        if node.after is not None:
            stack.append((0, node.after, node.rank - node.length))
        return level

    def _open_tail(self, towers: list, floor: int) -> None:
        """Replace the innermost of the towers reaching across the cut by
        itself and the towers down the right edge of its base that can
        capture a piece of level `floor`; the first that cannot keeps the
        rest of the edge as its base."""
        level, ref, _rank, _leaf = towers.pop()
        node = self._node(ref)
        while node.after is not None and node.level >= floor:
            after = self._node(node.after)
            if node.kind == KIND_INTERNAL:
                towers.append((level, node.below, node.rank - after.rank,
                               None))
            else:
                towers.append((level, ref, node.rank, node))
            level, ref, node = node.level, node.after, after
        if node.kind == KIND_STUB:
            raise PathNotCovered("the cut's left edge is not expanded")
        towers.append((level, ref, node.rank,
                       node if node.after is None else None))

    def finish(self) -> CommitResult:
        """Finalize, children first, every draft the final root reaches,
        adding each to the store. Counts them and the distinct finalized
        nodes they link to."""
        store, scheme = self.store, self.scheme
        drafts, shared = [], set()
        todo = [self.root] if type(self.root) is Node else []
        while todo:    # preorder: every draft before its children
            draft = todo.pop()
            drafts.append(draft)
            below, after = draft.below, draft.after
            if type(below) is Node:
                todo.append(below)
            elif below is not None:
                shared.add(below)
            if type(after) is Node:
                todo.append(after)
            elif after is not None:
                shared.add(after)
        ids = {}
        for draft in reversed(drafts):
            after = draft.after
            if type(after) is Node:
                after = ids[after]
            if draft.kind == KIND_INTERNAL:
                below = draft.below
                if type(below) is Node:
                    below = ids[below]
                ids[draft] = core.make_internal(store, scheme, draft.level,
                                                below, after)
            else:
                ids[draft] = core.make_leaf(
                    store, scheme, draft.length, draft.block, after,
                    sentinel=draft.kind == KIND_SENTINEL)
        return CommitResult(ids.get(self.root, self.root), len(drafts),
                            len(shared))


def pmodify(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes) -> CommitResult:
    """Replace the block containing `index` with `data` (length may
    differ) in a new version; the old version stays intact."""
    eng = EditEngine(store, scheme, old_root)
    eng.splice(index, [(MODIFY, len(data), scheme.block_digest(data), None)])
    return eng.finish()


def pinsert(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes, levels: Iterator[int]) -> CommitResult:
    """Insert `data` as a new block at byte `index` in a new version.

    index = rank appends; an index inside a block inserts before that
    block. The tower level is the next one of `levels`.
    """
    eng = EditEngine(store, scheme, old_root)
    eng.splice(index, [(INSERT, len(data), scheme.block_digest(data),
                        next(levels))])
    return eng.finish()


def premove(store: NodeStore, scheme: HashScheme, old_root: int,
            index: int) -> CommitResult:
    """Remove the block starting at byte `index` in a new version."""
    eng = EditEngine(store, scheme, old_root)
    eng.splice(index, [(REMOVE, 0, None, None)])
    return eng.finish()


def materialize(store: NodeStore, root: int, get_block) -> bytes:
    """Reassemble a version's bytes, concatenating its blocks; get_block
    maps a block digest to its bytes."""
    return b"".join(leaf_blocks(core.iter_data_leaves(store, root),
                                get_block))


def leaf_blocks(leaves: Iterable[Node], get_block) -> Iterator[bytes]:
    """The blocks of `leaves`, in order, each fetched with get_block as
    it is asked for and checked against its leaf's length."""
    for leaf in leaves:
        block = get_block(leaf.block)
        if len(block) != leaf.length:
            raise StructureCorrupt("stored block length mismatch")
        yield block
