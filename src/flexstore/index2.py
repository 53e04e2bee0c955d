"""The layer-2 authenticated version index.

One more FlexList, reused as-is, holding one leaf per committed version:
leaf i has length 1 so byte index equals version number. Each leaf's
block digest authenticates the version record material (layer-1 root
digest plus the update region), which is what lets challenges target the
bytes a version actually changed. The layer-2 root digest is the
client's entire O(1) metadata.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import persist, proofs
from .core import NodeStore, build_with_levels
from .errors import NoSuchVersion, VersionOutOfOrder
from .hashing import LEVELS_LAYER2, HashScheme, LevelSource
from .proofs import PathProof


@dataclass(frozen=True)
class VersionRecord:
    version: int
    root: int                 # layer-1 root node id
    root_digest: bytes
    update_start: int
    update_length: int


@dataclass(frozen=True)
class Layer2Proof:
    """Membership proof for one version record against a meta digest."""

    version: int
    root_digest: bytes
    update_start: int
    update_length: int
    path: PathProof


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
        self._source = records
        self._base = len(records)
        self._added: list[VersionRecord] = []
        self.src = LevelSource(seed, self._base, LEVELS_LAYER2)
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
        level, self.src = self.src.draw()
        result = persist.insert_block(self.store, self.scheme, self.root,
                                      index=self.count, length=1,
                                      block_digest=material_digest,
                                      level=level)
        self.root = result.new_root
        self._added.append(rec)
        return self.meta_digest

    def record(self, version: int) -> VersionRecord:
        if not 0 <= version < self.count:
            raise NoSuchVersion(f"version {version} does not exist")
        if version < self._base:
            return self._source[version]
        return self._added[version - self._base]

    def version_proof(self, version: int,
                      at_root: int | None = None) -> Layer2Proof:
        """Membership proof for `version`, by default against the current
        root (hence the current meta digest)."""
        rec = self.record(version)
        root = self.root if at_root is None else at_root
        path, offset, _leaf = proofs.build_path(self.store, root, version)
        if offset != version:
            raise NoSuchVersion("layer-2 leaf offset disagrees with version")
        return Layer2Proof(rec.version, rec.root_digest, rec.update_start,
                           rec.update_length, path)


def verify_version_proof(scheme: HashScheme, meta: bytes,
                         proof: Layer2Proof) -> tuple[bool, str]:
    """Check a layer-2 proof against a meta digest.

    On success the caller may trust (root_digest, update region, version
    count) taken from the proof.
    """
    material = scheme.version_record(proof.version, proof.root_digest,
                                     proof.update_start, proof.update_length)
    digest, rank, offset = proofs.fold_path(scheme, proof.path, material)
    if digest != meta:
        return False, "layer-2 digest mismatch"
    if offset != proof.version:
        return False, "layer-2 leaf position disagrees with version number"
    if proof.path.leaf_length != 1 or proof.path.leaf_sentinel:
        return False, "layer-2 leaf is not a version record leaf"
    return True, "ok"


def version_count_from_proof(proof: Layer2Proof) -> int:
    """Total versions under the folded root (its rank; leaves have
    length 1). Only meaningful after verify_version_proof accepted."""
    rank = proof.path.leaf_rank
    for step in proof.path.steps:
        rank = step.rank
    return rank
