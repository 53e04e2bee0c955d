"""Fully persistent FlexList edits via path copying.

Every edit leaves the old version's node graph untouched and produces a
new root that shares all unchanged subtrees with it. One edit engine
(EditEngine) runs a batch of edits, the block ops of one new version:

  1. Each op locates its target with a read-only descent from the
     batch's current root: to the target leaf for modify; for insert and
     remove, to the boundary node whose after link enters the affected
     tower.
  2. It edits that path bottom-up. A node it changes becomes a draft: a
     finalized node is copied once, a draft an earlier op made is edited
     in place. Insert and remove re-home the subtree pieces the edit cuts
     loose (an inserted tower swallowing its shorter right neighbours, a
     removed tower releasing its captured ones) where the first tower
     tall enough to carry their link sits, creating missing nodes where
     a link needs a connection point, and splice out a node that loses
     its after link. A draft carries its rank, set again from its
     children whenever its links change, so later ops descend through
     drafts as through finalized nodes.
  3. finish runs once, after the last op: it finalizes into the store,
     children first, only the drafts the final root reaches.

Because the structure is canonical (see core), the result of any batch
is bit-identical to rebuilding from scratch over the edited block
sequence with the same level assignment; the randomized suite holds the
engine to exactly that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import (AFTER, BELOW, KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                   KIND_STUB, Node, NodeStore)
from .errors import (BlockTooSmall, IndexOutOfRange, NotBlockAligned,
                     PathNotCovered, StructureCorrupt)
from .hashing import HashScheme, LevelSource


class _Draft:
    """Mutable node under construction during one batch.

    Child slots hold either finalized node ids or other drafts; rank is
    kept equal to the children's (see EditEngine._link); node_id is
    assigned when finish finalizes the draft.
    """

    __slots__ = ("kind", "level", "rank", "length", "block", "below",
                 "after", "node_id")

    def __init__(self, kind, level, rank, length, block, below, after):
        self.kind = kind
        self.level = level
        self.rank = rank
        self.length = length
        self.block = block
        self.below = below
        self.after = after
        self.node_id = None

    @property
    def is_leaf(self):
        return self.kind != KIND_INTERNAL


Ref = object  # node id (int) or _Draft


@dataclass
class CommitResult:
    new_root: int
    created_nodes: int
    shared_nodes: int   # distinct older nodes the created ones link to


class EditEngine:
    """One new version's edits over `root`: located paths edited
    bottom-up, piece re-homing, and one finalization of the drafts the
    final root reaches. `root` is the batch's current root, a node id
    until the first op makes it a draft."""

    def __init__(self, store: NodeStore, scheme: HashScheme, root: int):
        self.store = store
        self.scheme = scheme
        self.root: Ref = root

    # -- ops ----------------------------------------------------------------

    def modify(self, index: int, length: int, block: bytes) -> None:
        """Give the block containing byte `index` a new length and
        digest."""
        self._check(index)
        if length < 1:
            raise BlockTooSmall("modify needs at least 1 byte")
        path, _residual = self.locate(index, to_leaf=True)
        *above, (ref, leaf, _direction) = path
        child = self.own(ref, leaf)
        # No link changes: the leaf and every node above it change rank
        # by the change in length.
        delta = length - child.length
        child.length, child.block = length, block
        child.rank += delta
        for ref, node, direction in reversed(above):
            draft = self.own(ref, node)
            setattr(draft, direction, child)
            draft.rank += delta
            child = draft
        self.root = child

    def insert(self, index: int, length: int, block: bytes,
               level: int) -> None:
        """Insert a block known by (length, digest), with a tower of
        `level`, at byte `index`: index = rank appends, an index inside a
        block inserts before that block."""
        self._check(index, appending=True)
        if length < 1:
            raise BlockTooSmall("insert needs at least 1 byte")
        path, residual = self.locate(index)
        if residual:
            path, residual = self.locate(index - residual)
            if residual:
                raise StructureCorrupt("boundary descent stopped mid-block")
        *above, (ref, stop, _direction) = path
        if not stop.is_leaf:
            cont, pendings = self._below_frame(
                ref, stop, stop.below,
                [[level, self.new_leaf(length, block, None)]])
        elif level == 0:
            cont = self._link(self.own(ref, stop), None,
                              self.new_leaf(length, block, stop.after))
            pendings = []
        else:
            pendings = [[level, self.new_leaf(length, block, stop.after)]]
            cont = self._link(self.own(ref, stop), None, None)
        self.root = self.rebuild(above, cont, pendings)

    def remove(self, index: int) -> None:
        """Remove the block starting at byte `index`. Missing nodes
        created to re-home the removed tower's after links take the level
        of the link they carry, which is what makes insert-then-remove
        digest-restoring."""
        self._check(index)
        path, residual = self.locate(index)
        if residual:
            raise NotBlockAligned(f"index {index} is not a block start")
        *above, (ref, stop, _direction) = path
        pendings = []
        if stop.is_leaf:
            removed = self._node(stop.after)
            if removed.kind == KIND_STUB:
                raise PathNotCovered("cannot remove an unexpanded block")
            cont = self._link(self.own(ref, stop), None, removed.after)
        else:
            pendings = self.disassemble(stop.after)
            smalls = [p for p in pendings if p[0] < stop.level]
            pendings = [p for p in pendings if p[0] >= stop.level]
            cont = stop.below
            if smalls:
                cont = self.attach(cont, smalls)
            if pendings and pendings[0][0] == stop.level:
                cont = self._link(self.own(ref, stop), cont, pendings[0][1])
                pendings = pendings[1:]
        self.root = self.rebuild(above, cont, pendings)

    def _check(self, index: int, appending: bool = False) -> None:
        rank = self._node(self.root).rank
        if not 0 <= index < rank + appending:
            raise IndexOutOfRange(f"index {index} outside rank {rank}")

    # -- drafts -------------------------------------------------------------

    def _node(self, ref: Ref):
        return ref if type(ref) is _Draft else self.store.get(ref)

    def own(self, ref: Ref, node) -> _Draft:
        """The draft to edit for `ref`, which reads as `node`: `ref`
        itself if it is a draft, else a copy of the finalized node, which
        takes the node's place when its parent is relinked."""
        if node is ref:
            return ref
        return _Draft(node.kind, node.level, node.rank, node.length,
                      node.block, node.below, node.after)

    def new_leaf(self, length: int, block: bytes, after: Ref | None) -> _Draft:
        return self._link(_Draft(KIND_LEAF, 0, 0, length, block, None, None),
                          None, after)

    def new_internal(self, level: int, below: Ref, after: Ref) -> _Draft:
        return self._link(_Draft(KIND_INTERNAL, level, 0, 0, None, None,
                                 None), below, after)

    def _link(self, draft: _Draft, below: Ref | None,
              after: Ref | None) -> _Draft:
        """Set a draft's links and its rank from them."""
        draft.below, draft.after = below, after
        rank = draft.length if below is None else self._node(below).rank
        draft.rank = rank if after is None else rank + self._node(after).rank
        return draft

    def _view(self, ref: Ref):
        node = self._node(ref)
        if node.kind == KIND_STUB:
            raise PathNotCovered("re-homing needs an unexpanded subtree")
        return node

    # -- located paths ------------------------------------------------------

    def locate(self, index: int, to_leaf: bool = False):
        """Read-only descent from the current root toward byte `index`.

        Stops at the boundary node whose below side spans exactly `index`
        bytes, or with to_leaf runs on, as core.search does, to the leaf
        holding byte `index`. Returns (path, residual): path lists
        (node id or draft, what it reads as, direction moved from it)
        from the root down, the stop last with direction None. A stop
        with residual > 0 sits inside a block (misaligned boundary).
        """
        get = self.store.get
        path = []
        ref, idx = self.root, index
        node = self._node(ref)
        while True:
            below = node.below
            if below is not None and type(below) is not _Draft:
                below = get(below)
            span = node.length if below is None else below.rank
            if idx < span:
                if node.is_leaf:
                    path.append((ref, node, None))
                    return path, idx
                path.append((ref, node, BELOW))
                ref, node = node.below, below
            elif idx == span and not to_leaf:
                path.append((ref, node, None))
                return path, 0
            else:
                if node.after is None:
                    raise StructureCorrupt("descent ran off the structure")
                idx -= span
                path.append((ref, node, AFTER))
                ref = node.after
                node = ref if type(ref) is _Draft else get(ref)
            if node.kind == KIND_STUB:
                raise PathNotCovered("edit path enters an unexpanded subtree")

    # -- piece re-homing ---------------------------------------------------

    def attach(self, base: Ref, pendings: list) -> Ref:
        """Merge pendings (ascending (level, piece) pairs positioned just
        right of base's span) onto base's right edge.

        A piece sinks into the after subtree of every node whose link
        level admits it and wraps above the first node it out-levels;
        level-0 pieces append to the leaf chain."""
        if not pendings:
            return base
        node = self._view(base)
        if node.is_leaf:
            zeros = [p for p in pendings if p[0] == 0]
            rest = [p for p in pendings if p[0] > 0]
            cur = base
            if zeros:
                if node.after is not None:
                    cur = self._with_after(base, node,
                                           self.attach(node.after, zeros))
                else:
                    cur = self._with_after(base, node, zeros[0][1])
            for level, piece in rest:
                cur = self.new_internal(level, cur, piece)
            return cur
        inner = [p for p in pendings if p[0] <= node.level]
        outer = [p for p in pendings if p[0] > node.level]
        cur = base
        if inner:
            cur = self._with_after(base, node,
                                   self.attach(node.after, inner))
        for level, piece in outer:
            cur = self.new_internal(level, cur, piece)
        return cur

    def _with_after(self, ref: Ref, node, after: Ref) -> _Draft:
        """Re-point the after link of `ref`, which reads as `node`."""
        return self._link(self.own(ref, node), node.below, after)

    # -- bottom-up rebuild ---------------------------------------------------

    def rebuild(self, above: list, cont: Ref, pendings: list) -> Ref:
        """Walk a located path upward from just above its stop, `cont`
        standing for what became of the stop: relink each node, re-home
        pendings and splice out nodes that lost their after link. Returns
        the new root."""
        for ref, node, direction in reversed(above):
            if direction == BELOW:
                cont, pendings = self._below_frame(ref, node, cont, pendings)
            else:
                ins = [p for p in pendings if p[0] <= node.level]
                pendings = [p for p in pendings if p[0] > node.level]
                cont = self._link(self.own(ref, node), node.below,
                                  self.attach(cont, ins))
        return self.attach(cont, pendings)

    def _below_frame(self, ref: Ref, node, cont: Ref, pendings: list):
        """Process one kept-after path node: its after piece lies right of
        the boundary; pendings below its level sink under it, a pending at
        its level takes over its link, taller pendings swallow its piece
        and render the node unnecessary."""
        level = node.level
        smalls = [p for p in pendings if p[0] < level]
        pendings = [p for p in pendings if p[0] >= level]
        if smalls:
            cont = self.attach(cont, smalls)
        if pendings:
            consumer = pendings[-1]
            consumer[1] = self.new_internal(level, consumer[1], node.after)
            if pendings[0][0] == level:
                return (self._link(self.own(ref, node), cont,
                                   pendings[0][1]), pendings[1:])
            return cont, pendings
        return self._link(self.own(ref, node), cont, node.after), pendings

    def disassemble(self, piece: Ref) -> list:
        """Break a removed tower's column into the (level, piece) parts it
        captured, ascending by link level."""
        released = []
        cur = piece
        while True:
            node = self._node(cur)
            if node.kind == KIND_STUB:
                raise PathNotCovered(
                    "cannot dissolve an unexpanded tower column")
            if node.kind == KIND_INTERNAL:
                released.append([node.level, node.after])
                cur = node.below
            else:
                if node.after is not None:
                    released.append([0, node.after])
                return list(reversed(released))

    # -- finalization --------------------------------------------------------

    def finish(self) -> CommitResult:
        """Finalize, children first, every draft the final root reaches,
        adding each to the store. Counts them and the distinct finalized
        nodes they link to."""
        store, scheme = self.store, self.scheme
        drafts, shared = [], set()
        todo = [self.root] if type(self.root) is _Draft else []
        while todo:    # preorder: every draft before its children
            draft = todo.pop()
            drafts.append(draft)
            below, after = draft.below, draft.after
            if type(below) is _Draft:
                todo.append(below)
            elif below is not None:
                shared.add(below)
            if type(after) is _Draft:
                todo.append(after)
            elif after is not None:
                shared.add(after)
        for draft in reversed(drafts):
            below, after = draft.below, draft.after
            if type(below) is _Draft:
                below = below.node_id
            if type(after) is _Draft:
                after = after.node_id
            if draft.kind == KIND_INTERNAL:
                draft.node_id = core.make_internal(
                    store, scheme, draft.level, below, after)
            else:
                draft.node_id = core.make_leaf(
                    store, scheme, draft.length, draft.block, after,
                    sentinel=draft.kind == KIND_SENTINEL)
        root = self.root
        return CommitResult(root.node_id if isinstance(root, _Draft)
                            else root, len(drafts), len(shared))


def pmodify(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes) -> CommitResult:
    """Replace the block containing `index` with `data` (length may
    differ) in a new version; the old version stays intact."""
    eng = EditEngine(store, scheme, old_root)
    eng.modify(index, len(data), scheme.block_digest(data))
    return eng.finish()


def pinsert(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes,
            src: LevelSource) -> tuple[CommitResult, LevelSource]:
    """Insert `data` as a new block at byte `index` in a new version.

    index = rank appends; an index inside a block inserts before that
    block. The tower level is drawn from src (one draw per insert).
    """
    level, src = src.draw()
    return insert_block(store, scheme, old_root, index, len(data),
                        scheme.block_digest(data), level), src


def insert_block(store: NodeStore, scheme: HashScheme, old_root: int,
                 index: int, length: int, block_digest: bytes,
                 level: int) -> CommitResult:
    """Insert a block known only by (length, digest) at the given level.

    The layer-2 index uses this directly: its leaves authenticate version
    records rather than stored data blocks.
    """
    eng = EditEngine(store, scheme, old_root)
    eng.insert(index, length, block_digest, level)
    return eng.finish()


def premove(store: NodeStore, scheme: HashScheme, old_root: int,
            index: int) -> CommitResult:
    """Remove the block starting at byte `index` in a new version (see
    EditEngine.remove)."""
    eng = EditEngine(store, scheme, old_root)
    eng.remove(index)
    return eng.finish()


def iter_data_leaves(store: NodeStore, root: int):
    """Yield a version's data leaves in order: leftmost descent, then the
    leaf chain. Raises as soon as their lengths add up to more than the
    root's rank, and after the last one if they add up to less."""
    rank = store.get(root).rank
    total = 0
    for leaf_id in core.iter_leaves(store, root):
        leaf = store.get(leaf_id)
        if leaf.kind == KIND_LEAF:
            total += leaf.length
            if total > rank:
                raise StructureCorrupt("data leaves pass the root's rank")
            yield leaf
    if total != rank:
        raise StructureCorrupt("materialized length disagrees with rank")


def materialize(store: NodeStore, root: int, get_block) -> bytes:
    """Reassemble a version's bytes, concatenating its blocks; get_block
    maps a block digest to its bytes."""
    return b"".join(_leaf_block(leaf, get_block)
                    for leaf in iter_data_leaves(store, root))


def read_range(store: NodeStore, root: int, start: int, length: int,
               get_block) -> bytes:
    """Bytes [start, start + length) of a version, searching for and
    fetching only the blocks that range covers."""
    parts = []
    end = start + length
    pos = start
    while pos < end:
        path = core.search(store, root, pos)
        leaf = store.get(path.leaf)
        parts.append(_leaf_block(leaf, get_block)[path.residual:
                                                  end - path.offset])
        pos = path.offset + leaf.length
    return b"".join(parts)


def _leaf_block(leaf: Node, get_block) -> bytes:
    block = get_block(leaf.block)
    if len(block) != leaf.length:
        raise StructureCorrupt("stored block length mismatch")
    return block
