"""The layer-2 authenticated version index.

One more FlexList, holding one leaf per committed version: leaf i has
length 1 so byte index equals version number. Each leaf's block digest
authenticates the version record material (layer-1 root digest plus the
update region), which is what lets challenges target the bytes a version
actually changed. The layer-2 root digest is the client's entire O(1)
metadata.

Membership of any set of versions is proven by one pruned subtree of
this list (proofs.build_path), the versions' leaves being the proven
ones; the verifier folds it over the records it was handed
(proofs.fold_path), and the root's rank is the version count.

Appends write each node once, as append-only authenticated logs do
(Crosby and Wallach 2009; the RFC 6962 Merkle tree). Versions only ever
arrive at the right end, so only the right edge of the list changes: the
towers whose column still reaches the latest version, the left
sentinel's and then the suffix maxima of the tower levels, which are
non-increasing. The edge is a stack of entries, one per such tower: its
level and its frozen part, the column less its last piece (the column
of the entry above, or, where its leaf chains to that, the bare leaf,
not yet written). Appending a tower of level h

  - pops every entry below h, writing each popped tower's final column
    node, which captures the column of the one popped above it;
  - writes the surviving top entry's grown frozen part;
  - pushes the new tower, whose frozen part is its bare leaf;
  - folds the edge, top down, into the meta digest: one hash per entry,
    about log n.

The list is the canonical one build_with_levels makes of the records and
their layer2_levels, so every digest is what a full persistent insert
gave.

Edge records. An append writes a node-log record of kind
core.KIND_EDGE for each entry it changed, at most two: the surviving top
and the new tower. A record holds the tower's level, its version (in the
rank field), a link to the frozen part (none for a bare leaf, whose
record digest it holds as its block instead) and a link to the record of
the entry below (none for the left sentinel's, whose level and version
are 0). A commit's last node record is the new tower's, its edge head.
The edge is derived from the head on first use, strictly, reading about
log n records. The edge nodes, the edge towers' full columns, are never
stored, as each append replaces them all: the fold that gives the meta
digest makes them, and the index resolves them at negative ids
(VersionIndex.get), so build_path walks the index as it walks a store.

Records are never rewritten, so every older edge head still derives the
edge it had: an index made with an older commit's head and the records
up to that commit rebuilds that commit's meta digest and proves versions
against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import proofs
from .core import (BAD, KIND_EDGE, KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                   LEVEL_INF, NO_LINK, Node, NodeStore, make_internal,
                   make_leaf)
from .errors import (NoSuchVersion, ProofRejected, StructureCorrupt,
                     VersionOutOfOrder)
from .hashing import (TAG_INTERNAL, TAG_LEAF, TAG_SENTINEL, HashScheme,
                      layer2_levels)


@dataclass(frozen=True)
class VersionRecord:
    version: int
    root: int                 # layer-1 root node id
    root_digest: bytes
    update_start: int
    update_length: int


# An edge entry is (level, version, frozen, span, part, record): the left
# sentinel's has level LEVEL_INF and version -1; frozen is the frozen
# part's node id, or None for a bare leaf; span and part are the frozen
# part's rank and digest, or a bare leaf's length and block digest (the
# version's record digest, or zeros for the sentinel); record is the id
# of the entry's edge record, None until it is written.


class VersionIndex:
    """Append-ordered index over version records.

    `head` is the id of the edge head record (None for an empty index),
    and `edge`, if given, the edge it derives, already derived.

    `records` is the source of the versions that precede this object:
    any sequence whose item k is version k's record (the repository's
    commit log, for one). It is read one record at a time, never copied;
    the records appended here stay in memory past it.
    """

    def __init__(self, store: NodeStore, scheme: HashScheme, seed: bytes,
                 head: int | None = None,
                 records: Sequence[VersionRecord] = (),
                 edge: list | None = None):
        self.store = store
        self.scheme = scheme
        self.seed = seed
        self.head = head
        self._source = records
        self._base = len(records)
        self._added: list[VersionRecord] = []
        self._edge = None if edge is None else list(edge)
        self._nodes = None      # the edge nodes, once folded

    @property
    def count(self) -> int:
        return self._base + len(self._added)

    @property
    def edge(self) -> list:
        """The edge entries, bottom (the left sentinel's) to top."""
        if self._edge is None:
            self._edge = self._derive()
        return self._edge

    # The id of the list's root, the left sentinel's column: edge node 0,
    # which get resolves.
    root = -1

    @property
    def meta_digest(self) -> bytes:
        return self._fold()[0].digest

    def get(self, node_id: int) -> Node:
        """A node of the list: for a negative id, edge node -id - 1 of
        this index's edge, else the stored node from the store."""
        if node_id < 0:
            return self._fold()[-node_id - 1]
        return self.store.get(node_id)

    def append_version(self, rec: VersionRecord) -> bytes:
        """Add a committed version's record; returns the new meta digest."""
        if rec.version != self.count:
            raise VersionOutOfOrder(
                f"expected version {self.count}, got {rec.version}")
        store, zero = self.store, self.scheme.zero
        block = self.scheme.version_record(
            rec.version, rec.root_digest, rec.update_start,
            rec.update_length)
        level = next(layer2_levels(self.seed, rec.version))
        edge = self.edge
        last = None    # (id, level) of the popped towers' column so far
        while edge[-1][0] < level:
            last = self._close(edge.pop(), last)
        if last is not None or level:
            top_level, top_version = edge[-1][:2]
            node_id = self._close(edge[-1], last)[0]
            node = store.get(node_id)
            edge[-1] = (top_level, top_version, node_id, node.rank,
                        node.digest, None)
        top_level, top_version, frozen, span, part, top_record = edge[-1]
        if top_record is None:
            sentinel = top_version < 0
            top_record = store.add(Node(
                KIND_EDGE, 0 if sentinel else top_level, max(top_version, 0),
                None if sentinel else edge[-2][5], frozen, 0,
                part if frozen is None else zero, zero))
            edge[-1] = (top_level, top_version, frozen, span, part,
                        top_record)
        self.head = store.add(Node(KIND_EDGE, level, rec.version, top_record,
                                   None, 0, block, zero))
        edge.append((level, rec.version, None, 1, block, self.head))
        self._added.append(rec)
        self._nodes = None
        return self.meta_digest

    def _close(self, entry: tuple, last: tuple | None) -> tuple[int, int]:
        """Write an edge tower's column up to `last`, the (id, level) of
        the column its last piece is, or without a last piece for None;
        returns the new node's id and the tower's level."""
        level, version, frozen, span, part, _record = entry
        if last is None or not last[1]:     # its leaf, chaining or not
            node_id = make_leaf(self.store, self.scheme, span, part,
                                None if last is None else last[0],
                                sentinel=version < 0)
        else:
            node_id = make_internal(self.store, self.scheme, last[1], frozen,
                                    last[0])
        return node_id, level

    def _fold(self) -> list[Node]:
        """The edge nodes, root first and the right sentinel last, node
        k - 1 at id -k linking to the next: the edge folded from the top
        down, one hash per entry, once per state of the index."""
        if self._nodes is not None:
            return self._nodes
        scheme = self.scheme
        sha, zero = scheme.hash_fn, scheme.zero
        pack_leaf, pack_internal = (scheme.leaf_layout.pack,
                                    scheme.internal_layout.pack)
        edge = self.edge
        rank, after_level = 0, 0
        digest = sha(pack_leaf(TAG_SENTINEL, 0, 0, 0, zero, 0, zero)).digest()
        nodes = [Node(KIND_SENTINEL, 0, 0, None, None, 0, zero, digest)]
        for k in range(len(edge), 0, -1):
            level, version, frozen, span, part, _record = edge[k - 1]
            rank += span
            if after_level:
                digest = sha(pack_internal(TAG_INTERNAL, after_level, rank,
                                           part, 1, digest)).digest()
                node = Node(KIND_INTERNAL, after_level, rank, frozen, -k - 1,
                            0, None, digest)
            else:
                sentinel = version < 0
                digest = sha(pack_leaf(TAG_SENTINEL if sentinel
                                       else TAG_LEAF, 0, rank, 1, digest,
                                       span, part)).digest()
                node = Node(KIND_SENTINEL if sentinel else KIND_LEAF, 0, rank,
                            None, -k - 1, span, part, digest)
            nodes.append(node)
            after_level = level
        nodes.reverse()
        self._nodes = nodes
        return nodes

    def _derive(self) -> list:
        """The edge of `head`, read down its records, strictly: each must
        be an edge record at its version's level, whose frozen part is a
        node, and fit under the one above it (see _fits), the head at the
        right end."""
        zero = self.scheme.zero
        if self.head is None:
            if self.count:
                raise StructureCorrupt("versions but no edge head")
            return [(LEVEL_INF, -1, None, 0, zero, None)]
        get = self.store.get
        entries = []
        record, above, above_level = self.head, self.count, 0
        while True:
            node = get(record)
            if node.kind != KIND_EDGE:
                raise StructureCorrupt(f"node {record} is not an edge record")
            sentinel = node.below is None
            level, version = ((LEVEL_INF, -1) if sentinel
                              else (node.level, node.rank))
            frozen = node.after
            if frozen is None:
                span, part = int(not sentinel), node.block
            else:
                frozen_node = get(frozen)
                if frozen_node.kind == KIND_EDGE:
                    raise StructureCorrupt(f"edge record {record}: frozen "
                                           "part is an edge record")
                span, part = frozen_node.rank, frozen_node.digest
            if not (sentinel or level == next(layer2_levels(self.seed,
                                                            version))):
                raise StructureCorrupt(f"edge record {record}: level is not "
                                       "its version's")
            if not _fits(level, version, None if frozen is None else span,
                         above_level, above):
                raise StructureCorrupt(f"edge record {record} does not fit "
                                       "the edge")
            entries.append((level, version, frozen, span, part, record))
            if sentinel:
                entries.reverse()
                return entries
            record, above, above_level = node.below, version, level

    def record(self, version: int) -> VersionRecord:
        if not 0 <= version < self.count:
            raise NoSuchVersion(f"version {version} does not exist")
        if version < self._base:
            return self._source[version]
        return self._added[version - self._base]

    def version_proof(self, versions: Iterable[int]
                      ) -> tuple[bytes, list[VersionRecord]]:
        """Prove the sorted distinct `versions` against the current root
        (hence the current meta digest) in one pruned subtree; returns
        it and the proven versions' records, in that order."""
        records = [self.record(v) for v in sorted(set(versions))]
        subtree, _digests = proofs.build_path(
            self, self.root, [r.version for r in records],
            [r.version + 1 for r in records])
        return subtree, records


def _fits(level: int, version: int, span: int | None, above_level: int,
          above: int) -> bool:
    """Whether an edge entry of `level` and `version` (LEVEL_INF and -1
    for the left sentinel's), whose frozen part spans `span` versions
    (None for a bare leaf), fits under an entry of `above_level` at
    version `above`, the right end being level 0 at the version count.
    It must lie left of it and be no lower; its frozen part must be bare
    exactly when the entry above is of level 0, and span the versions up
    to it."""
    start = max(version, 0)
    return (version < above and level >= above_level
            and (span is None) == (not above_level)
            and (int(version >= 0) if span is None else span)
            == above - start)


def edge_problems(edges: dict, ranks, flags, levels: list[int],
                  leaves: list[bytes], heads: list[int]) -> list[str]:
    """fsck's check of every edge record a node pass found in good shape
    (core.check_nodes's `edges`, with its `ranks` and `flags`), against the
    committed versions' layer-2 `levels` and leaf digests: each tower's
    record at its version's level, a bare one holding its version's leaf
    digest, and the record below each fitting under it (see _fits); and
    `heads`, the last node record of each version, each that version's
    record, fitting at the right end. Records that reach a bad one are
    left to the report of those that reach it."""
    problems = []

    def entry(node_id: int) -> tuple:
        level, version, below, after, _block = edges[node_id]
        if below == NO_LINK:
            level, version = LEVEL_INF, -1
        return level, version, None if after == NO_LINK else ranks[after]

    for node_id, (level, version, below, after, block) in edges.items():
        if flags[node_id] & BAD or below == NO_LINK:
            continue
        if version >= len(levels) or level != levels[version]:
            problems.append(f"node {node_id}: edge record of a version "
                            "at another level")
        elif after == NO_LINK and block != leaves[version]:
            problems.append(f"node {node_id}: edge record's leaf is not its "
                            "version's")
        elif not _fits(*entry(below), level, version):
            problems.append(f"node {node_id}: the edge record below it does "
                            "not fit")
    for version, head in enumerate(heads):
        if flags[head] & BAD:
            continue
        if (head not in edges or edges[head][2] == NO_LINK
                or edges[head][1] != version
                or not _fits(*entry(head), 0, version + 1)):
            problems.append(f"version {version}: last node record is not "
                            "its edge head")
    return problems


def verify_version_proof(scheme: HashScheme, meta: bytes, subtree: bytes,
                         records: Sequence) -> int:
    """Fold a layer-2 subtree over `records` (each with the version,
    root_digest, update_start and update_length of a VersionRecord,
    ascending) and check it against a meta digest; returns the version
    count, the root's rank.

    ProofRejected if the root digest is not `meta` or a proven leaf does
    not sit at its record's version; FormatError on a malformed subtree.
    On success the caller may trust the records' fields.
    """
    sub = proofs.fold_path(scheme, subtree, [
        (1, scheme.version_record(r.version, r.root_digest, r.update_start,
                                  r.update_length)) for r in records])
    if sub.digest[sub.root] != meta:
        raise ProofRejected("layer-2 digest mismatch")
    if sub.starts != [r.version for r in records]:
        raise ProofRejected("layer-2 leaf position disagrees with version "
                            "number")
    return sub.rank[sub.root]
