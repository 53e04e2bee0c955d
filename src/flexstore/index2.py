"""The layer-2 authenticated version index.

One more FlexList, reused as-is, holding one leaf per committed version:
leaf i has length 1 so byte index equals version number. Each leaf's
block digest authenticates the version record material (layer-1 root
digest plus the update region), which is what lets challenges target the
bytes a version actually changed. The layer-2 root digest is the
client's entire O(1) metadata.

Membership of any set of versions is proven by one pruned subtree of
this list (proofs.build_path), the versions' leaves being the proven
ones; the verifier folds it over the records it was handed
(proofs.fold_path), and the root's rank is the version count.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import persist, proofs
from .core import NodeStore, build_with_levels
from .errors import NoSuchVersion, ProofRejected, VersionOutOfOrder
from .hashing import HashScheme, layer2_levels


@dataclass(frozen=True)
class VersionRecord:
    version: int
    root: int                 # layer-1 root node id
    root_digest: bytes
    update_start: int
    update_length: int


class VersionIndex:
    """Append-ordered index over version records.

    Appends are full persistent inserts, so proofs taken against any
    historical meta digest keep verifying against that digest.

    `records` is the source of the versions that precede this object:
    any sequence whose item k is version k's record (the repository's
    commit log, for one). It is read one record at a time, never copied;
    the records appended here stay in memory past it.
    """

    def __init__(self, store: NodeStore, scheme: HashScheme, seed: bytes,
                 root: int | None = None,
                 records: Sequence[VersionRecord] = ()):
        self.store = store
        self.scheme = scheme
        self.seed = seed
        self._source = records
        self._base = len(records)
        self._added: list[VersionRecord] = []
        if root is None:
            root = build_with_levels(store, scheme, [], [])
        self.root = root

    @property
    def count(self) -> int:
        return self._base + len(self._added)

    @property
    def meta_digest(self) -> bytes:
        return self.store.get(self.root).digest

    def append_version(self, rec: VersionRecord) -> bytes:
        """Add a committed version's record; returns the new meta digest."""
        if rec.version != self.count:
            raise VersionOutOfOrder(
                f"expected version {self.count}, got {rec.version}")
        material_digest = self.scheme.version_record(
            rec.version, rec.root_digest, rec.update_start,
            rec.update_length)
        result = persist.insert_block(
            self.store, self.scheme, self.root, index=self.count, length=1,
            block_digest=material_digest,
            level=next(layer2_levels(self.seed, rec.version)))
        self.root = result.new_root
        self._added.append(rec)
        return self.meta_digest

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
            self.store, self.root, [r.version for r in records],
            [r.version + 1 for r in records])
        return subtree, records


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
