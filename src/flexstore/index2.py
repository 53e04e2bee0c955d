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

Edge links. An append records in its version's record where it left
the edge: `survivor`, the version of the tower on top of the edge below
the new one (-1 for the left sentinel's), and `frozen`, that tower's
frozen part as the append left it (None for a bare leaf). The survivor
was the top of its own version's edge, bare, and nothing below it has
changed since, so version v's edge is the survivor's edge without its
top, then the survivor with `frozen`, then tower v, bare. The edge is
derived from the last record on first use, strictly, following survivor
links down to the left sentinel's: about log n records, the levels from
the seed and the bare leaves from the records. The edge nodes, the edge
towers' full columns, are never stored, as each append replaces them
all: the fold that gives the meta digest makes them, and the index
resolves them at negative ids (VersionIndex.get), so build_path walks
the index as it walks a store.

Records are never rewritten, so an index made with the records up to
any version derives the edge that version had, rebuilds its meta digest
and proves versions against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import proofs
from .core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL, LEVEL_INF, Node,
                   NodeStore, make_internal, make_leaf)
from .errors import (NoSuchVersion, ProofRejected, StructureCorrupt,
                     VersionOutOfOrder)
from .hashing import HashScheme, layer2_levels


@dataclass(frozen=True)
class VersionRecord:
    version: int
    root: int                 # layer-1 root node id
    root_digest: bytes
    update_start: int
    update_length: int
    # The edge link (see the module docstring), which append_version
    # sets: the survivor's version, -1 for the left sentinel's, and its
    # frozen part's node id, None for a bare leaf.
    survivor: int = -1
    frozen: int | None = None


# An edge entry is (level, version, frozen, span, part): the left
# sentinel's has level LEVEL_INF and version -1; frozen is the frozen
# part's node id, or None for a bare leaf; span and part are the frozen
# part's rank and digest, or a bare leaf's length and block digest (the
# version's record digest, or zeros for the sentinel).


class VersionIndex:
    """Append-ordered index over version records.

    `edge`, if given, is the edge the records derive, already derived.

    `records` is the source of the versions that precede this object:
    any sequence whose item k is version k's record (the repository's
    commit log, for one). It is read one record at a time, never copied;
    the records appended here stay in memory past it.
    """

    def __init__(self, store: NodeStore, scheme: HashScheme, seed: bytes,
                 records: Sequence[VersionRecord] = (),
                 edge: list | None = None):
        self.store = store
        self.scheme = scheme
        self.seed = seed
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

    def append_version(self, rec: VersionRecord) -> VersionRecord:
        """Add a committed version's record, whose link is not read;
        returns the record with the link this append made."""
        if rec.version != self.count:
            raise VersionOutOfOrder(
                f"expected version {self.count}, got {rec.version}")
        block = self._leaf(rec)
        level = next(layer2_levels(self.seed, rec.version))
        edge = self.edge
        last = None    # (id, level) of the popped towers' column so far
        while edge[-1][0] < level:
            last = self._close(edge.pop(), last)
        top_level, survivor, frozen = edge[-1][:3]
        if last is not None or level:
            frozen = self._close(edge[-1], last)[0]
            node = self.store.get(frozen)
            edge[-1] = (top_level, survivor, frozen, node.rank, node.digest)
        edge.append((level, rec.version, None, 1, block))
        linked = VersionRecord(rec.version, rec.root, rec.root_digest,
                               rec.update_start, rec.update_length,
                               survivor, frozen)
        self._added.append(linked)
        self._nodes = None
        return linked

    def _close(self, entry: tuple, last: tuple | None) -> tuple[int, int]:
        """Write an edge tower's column up to `last`, the (id, level) of
        the column its last piece is, or without a last piece for None;
        returns the new node's id and the tower's level."""
        level, version, frozen, span, part = entry
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
        down, one node encoder call per entry, once per index state."""
        if self._nodes is not None:
            return self._nodes
        scheme = self.scheme
        internal_digest, zero = scheme.internal_digest, scheme.zero
        leaf_digest = scheme.leaf_digest
        edge = self.edge
        rank, after_level = 0, 0
        digest = leaf_digest(True, 0, None, 0, zero)
        nodes = [Node(KIND_SENTINEL, 0, 0, None, None, 0, zero, digest)]
        for k in range(len(edge), 0, -1):
            level, version, frozen, span, part = edge[k - 1]
            rank += span
            if after_level:
                digest = internal_digest(after_level, rank, part, digest)
                node = Node(KIND_INTERNAL, after_level, rank, frozen, -k - 1,
                            0, None, digest)
            else:
                sentinel = version < 0
                digest = leaf_digest(sentinel, rank, digest, span, part)
                node = Node(KIND_SENTINEL if sentinel else KIND_LEAF, 0, rank,
                            None, -k - 1, span, part, digest)
            nodes.append(node)
            after_level = level
        nodes.reverse()
        self._nodes = nodes
        return nodes

    def _derive(self) -> list:
        """The edge of the last version, read down the survivor links of
        the records, strictly: the last version's bare tower on top, and
        under each entry its record's survivor with its frozen part,
        which must be a node, down to the left sentinel's; each entry
        must fit under the one above it (see _fits)."""
        zero = self.scheme.zero
        if not self.count:
            return [(LEVEL_INF, -1, None, 0, zero)]
        version = self.count - 1
        rec = self.record(version)
        level = next(layer2_levels(self.seed, version))
        entries = [(level, version, None, 1, self._leaf(rec))]
        while True:
            survivor, frozen, above, above_level = (rec.survivor, rec.frozen,
                                                    rec.version, level)
            sentinel = survivor < 0
            if sentinel:
                level = LEVEL_INF
            else:
                rec = self.record(survivor)
                level = next(layer2_levels(self.seed, survivor))
            if frozen is not None:
                node = self.store.get(frozen)
                span, part = node.rank, node.digest
            else:
                span, part = (0, zero) if sentinel else (1, self._leaf(rec))
            if not _fits(level, survivor, None if frozen is None else span,
                         above_level, above):
                raise StructureCorrupt(f"version {above}: edge link does "
                                       "not fit the edge")
            entries.append((level, survivor, frozen, span, part))
            if sentinel:
                entries.reverse()
                return entries

    def _leaf(self, rec: VersionRecord) -> bytes:
        """A version's layer-2 leaf digest, its record digest."""
        return self.scheme.version_record(rec.version, rec.root_digest,
                                          rec.update_start,
                                          rec.update_length)

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
