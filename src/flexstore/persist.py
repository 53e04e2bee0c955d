"""Fully persistent FlexList edits via path copying.

Every edit leaves the old version's node graph untouched and produces a
new root that shares all unchanged subtrees with it. The general shape of
an edit:

  1. Descend from a fresh copy of the root toward the edit point, copying
     each node moved through (next_pos). For modify the descent runs to
     the target leaf; for insert/remove it stops at the boundary node
     whose after link enters the affected tower.
  2. Rework the copied path bottom-up. Subtree pieces cut loose by the
     edit (an inserted tower swallowing its shorter right neighbours, or
     a removed tower releasing its captured neighbours) are re-homed onto
     the path: a piece re-attaches where the first tower tall enough to
     carry its link sits, creating missing nodes where a link needs a
     connection point that has no node, and deleting copies that lost
     their after link and no longer contribute (delete_unode).
  3. recompute_path finalizes every surviving copy bottom-up, computing
     ranks and digests from current children.

Because the structure is canonical (see core), the result of any edit is
bit-identical to rebuilding from scratch over the edited block sequence
with the same level assignment; the randomized suite holds the engine to
exactly that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core
from .core import (AFTER, BELOW, KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                   KIND_STUB, Node, NodeStore, below_span, can_go_after,
                   can_go_below)
from .errors import (BlockTooSmall, IndexOutOfRange, NotBlockAligned,
                     PathNotCovered, StructureCorrupt)
from .hashing import HashScheme, LevelSource


class _Draft:
    """Mutable copy of a node under construction during one commit.

    Child slots hold either finalized node ids or other drafts; node_id is
    assigned when recompute_path finalizes the draft.
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

    @classmethod
    def copy_of(cls, node: Node, version: int) -> "_Draft":
        return cls(node.kind, node.level, node.length, node.block,
                   node.below, node.after, version)

    @property
    def is_leaf(self):
        return self.kind != KIND_INTERNAL


Ref = object  # node id (int) or _Draft


@dataclass
class TraversalState:
    """Shared traversal bookkeeping for the versioned algorithms.

    cn walks the old version; newcn is the already-created copy of the
    traversal frontier. npi is true except while an insert harvests the
    after links crossing its index.
    """

    prev: int
    cn: int
    newcn: _Draft
    index: int
    level: int = 0
    npi: bool = True
    stack: list = field(default_factory=list)
    version: int = 0


@dataclass
class CommitResult:
    new_root: int
    old_root: int
    created_nodes: int
    stack_depth: int


def next_pos(store: NodeStore, state: TraversalState) -> TraversalState:
    """Advance cn by the canGoBelow/canGoAfter discipline, honoring the
    level bound and npi; one version copy is created, linked and pushed
    to the stack per move."""
    while True:
        node = store.get(state.cn)
        direction = None
        if (state.npi and can_go_below(store, node, state.index)
                and store.get(node.below).level >= state.level):
            direction, dest = BELOW, node.below
        elif (can_go_after(store, node, state.index)
              and store.get(node.after).level >= state.level):
            direction, dest = AFTER, node.after
            state.index -= below_span(node, store)
        if direction is None:
            return state
        state.prev = state.cn
        dest_node = store.get(dest)
        if dest_node.kind == KIND_STUB:
            raise PathNotCovered("traversal entered an unexpanded subtree")
        copy = _Draft.copy_of(dest_node, state.version)
        setattr(state.newcn, direction, copy)
        state.newcn = copy
        state.cn = dest
        state.stack.append(copy)


def recompute_path(store: NodeStore, scheme: HashScheme, stack: list) -> None:
    """Finalize drafts deepest-first: recompute rank and digest from
    current children and append the record to the store. Idempotent for
    already-finalized drafts."""
    for draft in reversed(stack):
        _finalize(store, scheme, draft)


def _finalize(store: NodeStore, scheme: HashScheme, ref: Ref) -> int:
    if isinstance(ref, int):
        if ref not in store:
            raise StructureCorrupt(f"dangling link to {ref}")
        return ref
    if ref.node_id is not None:
        return ref.node_id
    below = _finalize(store, scheme, ref.below) if ref.below is not None else None
    after = _finalize(store, scheme, ref.after) if ref.after is not None else None
    after_node = store.get(after) if after is not None else None
    if ref.is_leaf:
        rank = ref.length + (after_node.rank if after_node else 0)
        digest = scheme.leaf_node(0, rank,
                                  after_node.digest if after_node else None,
                                  ref.length, ref.block,
                                  sentinel=ref.kind == KIND_SENTINEL)
        node = Node(ref.kind, 0, rank, None, after, ref.length, ref.block,
                    ref.version, digest)
    else:
        below_node = store.get(below)
        rank = below_node.rank + after_node.rank
        digest = scheme.internal_node(ref.level, rank, below_node.digest,
                                      after_node.digest)
        node = Node(KIND_INTERNAL, ref.level, rank, below, after, 0, None,
                    ref.version, digest)
    ref.node_id = store.add(node)
    return ref.node_id


class _EditEngine:
    """One commit's working state: draft registry plus re-homing logic."""

    def __init__(self, store: NodeStore, scheme: HashScheme, version: int):
        self.store = store
        self.scheme = scheme
        self.version = version
        self.stack: list[_Draft] = []

    # -- draft helpers ----------------------------------------------------

    def copy(self, node_id: int) -> _Draft:
        draft = _Draft.copy_of(self.store.get(node_id), self.version)
        self.stack.append(draft)
        return draft

    def new_leaf(self, length: int, block: bytes, after: Ref | None) -> _Draft:
        draft = _Draft(KIND_LEAF, 0, length, block, None, after, self.version)
        self.stack.append(draft)
        return draft

    def new_internal(self, level: int, below: Ref, after: Ref) -> _Draft:
        draft = _Draft(KIND_INTERNAL, level, 0, None, below, after,
                       self.version)
        self.stack.append(draft)
        return draft

    def delete_unode(self, draft: _Draft) -> None:
        """Drop an unnecessary version copy before it is ever finalized."""
        self.stack.remove(draft)

    def _view(self, ref: Ref):
        node = ref if isinstance(ref, _Draft) else self.store.get(ref)
        if node.kind == KIND_STUB:
            raise PathNotCovered("re-homing needs an unexpanded subtree")
        return node

    # -- boundary descent --------------------------------------------------

    def descend_boundary(self, root_id: int, index: int):
        """Copying descent to the boundary byte `index`.

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
            if idx == span:
                return droot, frames, dcur, 0
            if idx < span:
                if cur.is_leaf:
                    return droot, frames, dcur, idx
                frames.append((dcur, BELOW))
                nxt = cur.below
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
            self.delete_unode(draft)
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

    def finish(self, root_ref: Ref, old_root: int) -> CommitResult:
        depth = len(self.stack)
        recompute_path(self.store, self.scheme, self.stack)
        new_root = _finalize(self.store, self.scheme, root_ref)
        return CommitResult(new_root, old_root, depth, depth)


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
    droot = eng.copy(old_root)
    state = TraversalState(prev=old_root, cn=old_root, newcn=droot,
                           index=index, level=0, npi=True, stack=eng.stack,
                           version=version)
    next_pos(store, state)
    leaf = state.newcn
    if leaf.kind != KIND_LEAF or state.index >= leaf.length:
        raise StructureCorrupt("modify descent did not land on a data leaf")
    leaf.length = len(data)
    leaf.block = scheme.block_digest(data)
    return eng.finish(droot, old_root)


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
    droot, frames, stop, residual = eng.descend_boundary(old_root, index)
    if residual:
        # index sits inside a block: the new block goes before it
        eng = _EditEngine(store, scheme, version)
        droot, frames, stop, residual = eng.descend_boundary(
            old_root, index - residual)
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
    return eng.finish(root_ref, old_root)


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
    droot, frames, stop, residual = eng.descend_boundary(old_root, index)
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
        else:
            eng.delete_unode(stop)
        root_ref = eng.rebuild(frames, stop, cont, pendings)
    return eng.finish(root_ref, old_root)


def materialize(store: NodeStore, root: int, get_block) -> bytes:
    """Reassemble a version's bytes: leftmost descent, then the leaf
    chain, concatenating block contents. get_block maps a block digest to
    its bytes."""
    parts = []
    total = 0
    for leaf_id in core.iter_leaves(store, root):
        leaf = store.get(leaf_id)
        if leaf.kind != KIND_LEAF:
            continue
        parts.append(_leaf_block(leaf, get_block))
        total += leaf.length
    data = b"".join(parts)
    if total != store.get(root).rank:
        raise StructureCorrupt("materialized length disagrees with rank")
    return data


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
