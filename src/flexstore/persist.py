"""Fully persistent FlexList edits via path copying.

Every edit leaves the old version's node graph untouched and produces a
new root that shares all unchanged subtrees with it. One edit engine
(_EditEngine) runs every edit in three steps:

  1. descend copies the root and each node it moves through into a
     mutable draft. For modify the descent runs to the target leaf; for
     insert and remove it stops at the boundary node whose after link
     enters the affected tower.
  2. Insert and remove rework the copied path bottom-up. Subtree pieces
     cut loose by the edit (an inserted tower swallowing its shorter
     right neighbours, or a removed tower releasing its captured
     neighbours) are re-homed onto the path: a piece re-attaches where
     the first tower tall enough to carry its link sits, creating missing
     nodes where a link needs a connection point that has no node. A
     copy that loses its after link is spliced out of the path.
  3. finish finalizes, children first, the drafts the new root reaches,
     computing ranks and digests from their children. Drafts no longer
     reachable (spliced-out copies, a descent that was redone) are never
     finalized.

Because the structure is canonical (see core), the result of any edit is
bit-identical to rebuilding from scratch over the edited block sequence
with the same level assignment; the randomized suite holds the engine to
exactly that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import (AFTER, BELOW, KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                   KIND_STUB, Node, NodeStore, below_span)
from .errors import (BlockTooSmall, IndexOutOfRange, NotBlockAligned,
                     PathNotCovered, StructureCorrupt)
from .hashing import HashScheme, LevelSource


class _Draft:
    """Mutable copy of a node under construction during one edit.

    Child slots hold either finalized node ids or other drafts; node_id is
    assigned when finish finalizes the draft.
    """

    __slots__ = ("kind", "level", "length", "block", "below", "after",
                 "version", "node_id")

    def __init__(self, kind, level, length, block, below, after, version):
        self.kind = kind
        self.level = level
        self.length = length
        self.block = block
        self.below = below
        self.after = after
        self.version = version
        self.node_id = None

    @property
    def is_leaf(self):
        return self.kind != KIND_INTERNAL


Ref = object  # node id (int) or _Draft


@dataclass
class CommitResult:
    new_root: int
    created_nodes: int


class _EditEngine:
    """One edit's working state: the copying descent, piece re-homing and
    finalization of the drafts the new root reaches."""

    def __init__(self, store: NodeStore, scheme: HashScheme, version: int):
        self.store = store
        self.scheme = scheme
        self.version = version

    # -- draft helpers ----------------------------------------------------

    def copy(self, node_id: int) -> _Draft:
        node = self.store.get(node_id)
        return _Draft(node.kind, node.level, node.length, node.block,
                      node.below, node.after, self.version)

    def new_leaf(self, length: int, block: bytes, after: Ref | None) -> _Draft:
        return _Draft(KIND_LEAF, 0, length, block, None, after, self.version)

    def new_internal(self, level: int, below: Ref, after: Ref) -> _Draft:
        return _Draft(KIND_INTERNAL, level, 0, None, below, after,
                      self.version)

    def _view(self, ref: Ref):
        node = ref if isinstance(ref, _Draft) else self.store.get(ref)
        if node.kind == KIND_STUB:
            raise PathNotCovered("re-homing needs an unexpanded subtree")
        return node

    # -- copying descent ---------------------------------------------------

    def descend(self, root_id: int, index: int, to_leaf: bool = False):
        """Copying descent toward byte `index`.

        Stops at the boundary node whose below side spans exactly `index`
        bytes, or with to_leaf runs on, as core.search does, to the leaf
        holding byte `index`.
        Returns (root draft, frames, stop draft, residual) where frames
        lists (draft, direction moved from it) above the stop. A stop
        with residual > 0 sits inside a block (misaligned boundary).
        """
        droot = self.copy(root_id)
        frames: list[tuple[_Draft, str]] = []
        cur = self.store.get(root_id)
        dcur = droot
        idx = index
        while True:
            span = below_span(cur, self.store)
            if idx < span:
                if cur.is_leaf:
                    return droot, frames, dcur, idx
                frames.append((dcur, BELOW))
                nxt = cur.below
            elif idx == span and not to_leaf:
                return droot, frames, dcur, 0
            else:
                if cur.after is None:
                    raise StructureCorrupt("descent ran off the structure")
                idx -= span
                frames.append((dcur, AFTER))
                nxt = cur.after
            cur = self.store.get(nxt)
            if cur.kind == KIND_STUB:
                raise PathNotCovered("edit path enters an unexpanded subtree")
            dcur = self.copy(nxt)
            setattr(frames[-1][0], frames[-1][1], dcur)

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
                    cur = self._with_after(base,
                                           self.attach(node.after, zeros))
                else:
                    cur = self._with_after(base, zeros[0][1])
            for level, piece in rest:
                cur = self.new_internal(level, cur, piece)
            return cur
        inner = [p for p in pendings if p[0] <= node.level]
        outer = [p for p in pendings if p[0] > node.level]
        cur = base
        if inner:
            cur = self._with_after(base, self.attach(node.after, inner))
        for level, piece in outer:
            cur = self.new_internal(level, cur, piece)
        return cur

    def _with_after(self, ref: Ref, after: Ref) -> Ref:
        """Re-point a node's after link, copying it first if finalized."""
        if isinstance(ref, _Draft):
            ref.after = after
            return ref
        draft = self.copy(ref)
        draft.after = after
        return draft

    # -- bottom-up rebuild ---------------------------------------------------

    def rebuild(self, frames, stop: _Draft, cont: Ref, pendings: list) -> Ref:
        """Walk the copied path upward from just above `stop`, re-homing
        pendings and splicing copies that lost their after link."""
        for draft, direction in reversed(frames):
            if direction == BELOW:
                cont, pendings = self._below_frame(draft, cont, pendings)
            else:
                ins = [p for p in pendings if p[0] <= draft.level]
                pendings = [p for p in pendings if p[0] > draft.level]
                draft.after = self.attach(cont, ins)
                cont = draft
        return self.attach(cont, pendings)

    def _below_frame(self, draft: _Draft, cont: Ref, pendings: list):
        """Process one kept-after path node: its after piece lies right of
        the boundary; pendings below its level sink under it, a pending at
        its level takes over its link, taller pendings swallow its piece
        and render the copy unnecessary."""
        level = draft.level
        smalls = [p for p in pendings if p[0] < level]
        pendings = [p for p in pendings if p[0] >= level]
        if smalls:
            cont = self.attach(cont, smalls)
        if pendings:
            consumer = pendings[-1]
            consumer[1] = self.new_internal(level, consumer[1], draft.after)
            if pendings[0][0] == level:
                draft.after = pendings[0][1]
                pendings = pendings[1:]
                draft.below = cont
                return draft, pendings
            return cont, pendings
        draft.below = cont
        return draft, pendings

    def disassemble(self, piece_id: int) -> list:
        """Break a removed tower's column into the (level, piece) parts it
        captured, ascending by link level."""
        released = []
        cur = piece_id
        while True:
            node = self.store.get(cur)
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

    def finish(self, root_ref: Ref) -> CommitResult:
        """Finalize, children first, every draft the new root reaches."""
        store, scheme = self.store, self.scheme
        created = 0
        todo = [root_ref] if isinstance(root_ref, _Draft) else []
        while todo:
            draft = todo[-1]
            below, after = draft.below, draft.after
            if isinstance(below, _Draft):
                if below.node_id is None:
                    todo.append(below)
                    continue
                below = below.node_id
            if isinstance(after, _Draft):
                if after.node_id is None:
                    todo.append(after)
                    continue
                after = after.node_id
            todo.pop()
            if draft.kind == KIND_INTERNAL:
                draft.node_id = core.make_internal(
                    store, scheme, draft.level, below, after, draft.version)
            else:
                draft.node_id = core.make_leaf(
                    store, scheme, draft.length, draft.block, after,
                    draft.version, sentinel=draft.kind == KIND_SENTINEL)
            created += 1
        root = root_ref.node_id if isinstance(root_ref, _Draft) else root_ref
        return CommitResult(root, created)


def pmodify(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes, version: int) -> CommitResult:
    """Replace the block containing `index` with `data` (length may
    differ) in a new version; the old version stays intact."""
    root = store.get(old_root)
    if not 0 <= index < root.rank:
        raise IndexOutOfRange(f"index {index} outside rank {root.rank}")
    if len(data) < 1:
        raise BlockTooSmall("modify needs at least 1 byte")
    eng = _EditEngine(store, scheme, version)
    droot, _frames, leaf, _residual = eng.descend(old_root, index,
                                                  to_leaf=True)
    leaf.length = len(data)
    leaf.block = scheme.block_digest(data)
    return eng.finish(droot)


def pinsert(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            data: bytes, src: LevelSource,
            version: int) -> tuple[CommitResult, LevelSource]:
    """Insert `data` as a new block at byte `index` in a new version.

    index = rank appends; an index inside a block inserts before that
    block. The tower level is drawn from src (one draw per insert).
    """
    if len(data) < 1:
        raise BlockTooSmall("insert needs at least 1 byte")
    level, src = src.draw()
    result = insert_block(store, scheme, old_root, index, len(data),
                          scheme.block_digest(data), level, version)
    return result, src


def insert_block(store: NodeStore, scheme: HashScheme, old_root: int,
                 index: int, length: int, block_digest: bytes, level: int,
                 version: int) -> CommitResult:
    """Insert a block known only by (length, digest) at the given level.

    The layer-2 index uses this directly: its leaves authenticate version
    records rather than stored data blocks.
    """
    root = store.get(old_root)
    if not 0 <= index <= root.rank:
        raise IndexOutOfRange(f"index {index} outside rank {root.rank}")
    if length < 1:
        raise BlockTooSmall("insert needs at least 1 byte")
    eng = _EditEngine(store, scheme, version)
    _droot, frames, stop, residual = eng.descend(old_root, index)
    if residual:
        # index sits inside a block: the new block goes before it
        _droot, frames, stop, residual = eng.descend(old_root,
                                                     index - residual)
        if residual:
            raise StructureCorrupt("boundary descent stopped mid-block")
    if stop.is_leaf:
        new_leaf = eng.new_leaf(length, block_digest, stop.after)
        if level == 0:
            stop.after = new_leaf
            root_ref = eng.rebuild(frames, stop, stop, [])
        else:
            stop.after = None
            root_ref = eng.rebuild(frames, stop, stop, [[level, new_leaf]])
    else:
        new_leaf = eng.new_leaf(length, block_digest, None)
        cont, pendings = eng._below_frame(stop, stop.below,
                                          [[level, new_leaf]])
        root_ref = eng.rebuild(frames, stop, cont, pendings)
    return eng.finish(root_ref)


def premove(store: NodeStore, scheme: HashScheme, old_root: int, index: int,
            version: int) -> CommitResult:
    """Remove the block starting at byte `index` in a new version.

    The index must address byte 0 of a block; missing nodes created to
    re-home the removed tower's after links take the level of the link
    they carry, which is what makes insert-then-remove digest-restoring.
    """
    root = store.get(old_root)
    if not 0 <= index < root.rank:
        raise IndexOutOfRange(f"index {index} outside rank {root.rank}")
    eng = _EditEngine(store, scheme, version)
    _droot, frames, stop, residual = eng.descend(old_root, index)
    if residual:
        raise NotBlockAligned(f"index {index} is not a block start")
    if stop.is_leaf:
        removed = eng.store.get(stop.after)
        if removed.kind == KIND_STUB:
            raise PathNotCovered("cannot remove an unexpanded block")
        stop.after = removed.after
        root_ref = eng.rebuild(frames, stop, stop, [])
    else:
        pendings = eng.disassemble(stop.after)
        smalls = [p for p in pendings if p[0] < stop.level]
        pendings = [p for p in pendings if p[0] >= stop.level]
        cont = stop.below
        if smalls:
            cont = eng.attach(cont, smalls)
        if pendings and pendings[0][0] == stop.level:
            stop.after = pendings[0][1]
            stop.below = cont
            cont = stop
            pendings = pendings[1:]
        root_ref = eng.rebuild(frames, stop, cont, pendings)
    return eng.finish(root_ref)


def iter_data_leaves(store: NodeStore, root: int):
    """Yield a version's data leaves in order: leftmost descent, then the
    leaf chain. Raises after the last one if their lengths do not add up
    to the root's rank."""
    total = 0
    for leaf_id in core.iter_leaves(store, root):
        leaf = store.get(leaf_id)
        if leaf.kind == KIND_LEAF:
            yield leaf
            total += leaf.length
    if total != store.get(root).rank:
        raise StructureCorrupt("materialized length disagrees with rank")


def iter_blocks(store: NodeStore, root: int, get_block):
    """Yield a version's blocks in order; get_block maps a block digest to
    its bytes."""
    for leaf in iter_data_leaves(store, root):
        yield _leaf_block(leaf, get_block)


def materialize(store: NodeStore, root: int, get_block) -> bytes:
    """Reassemble a version's bytes, concatenating its blocks."""
    return b"".join(iter_blocks(store, root, get_block))


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
