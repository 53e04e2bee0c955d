import hashlib
from dataclasses import replace

import pytest

from flexstore import persist, proofs
from flexstore.core import NodeStore, check_subtree
from flexstore.errors import (FormatError, NoSuchVersion, ProofRejected,
                              VersionOutOfOrder)
from flexstore.hashing import HashScheme
from flexstore.index2 import (VersionIndex, VersionRecord,
                              verify_version_proof)

SCHEME = HashScheme()
SEED = bytes.fromhex("a0a1a2a3a4a5a6a7a8a9")


def record(v, payload=b"", start=0, length=10):
    digest = hashlib.sha1(b"root-%d-" % v + payload).digest()
    return VersionRecord(v, 0, digest, start, length)


def fresh_index(n=0):
    vindex = VersionIndex(NodeStore(), SCHEME, SEED)
    for v in range(n):
        vindex.append_version(record(v))
    return vindex


class TestAppend:
    def test_first_append(self):
        vindex = fresh_index()
        empty = vindex.meta_digest
        meta = vindex.append_version(record(0))
        assert meta != empty
        assert meta != SCHEME.zero
        assert vindex.count == 1

    def test_out_of_order_rejected(self):
        vindex = fresh_index(1)
        with pytest.raises(VersionOutOfOrder):
            vindex.append_version(record(0))
        with pytest.raises(VersionOutOfOrder):
            vindex.append_version(record(2))

    def test_meta_changes_iff_appended(self):
        vindex = fresh_index(3)
        before = vindex.meta_digest
        assert vindex.meta_digest == before
        vindex.append_version(record(3))
        assert vindex.meta_digest != before

    def test_hundred_appends_recompute(self):
        vindex = fresh_index(100)
        check_subtree(vindex.store, SCHEME, vindex.root)
        # replaying the records reproduces the meta digest exactly
        replay = VersionIndex(NodeStore(), SCHEME, SEED)
        for version in range(vindex.count):
            replay.append_version(vindex.record(version))
        assert replay.meta_digest == vindex.meta_digest


class TestVersionProof:
    def test_single_version_roundtrip(self):
        vindex = fresh_index(1)
        subtree, records = vindex.version_proof((0,))
        assert records == [vindex.record(0)]
        assert verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                    records) == 1

    def test_all_versions_roundtrip(self):
        vindex = fresh_index(100)
        for v in range(100):
            subtree, records = vindex.version_proof((v,))
            assert verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                        records) == 100, v

    def test_many_versions_in_one_subtree(self):
        vindex = fresh_index(40)
        subtree, records = vindex.version_proof((33, 0, 7, 33, 39))
        assert [r.version for r in records] == [0, 7, 33, 39]
        assert verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                    records) == 40
        for bad in (records[:3], records[1:], records[::-1],
                    records + [vindex.record(8)]):
            with pytest.raises((ProofRejected, FormatError)):
                verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                     bad)

    def test_record_at_another_offset_rejected(self):
        # A list whose leaf 0 holds version 1's record: every digest
        # closes, the leaf's position does not.
        vindex = fresh_index(0)
        rec = record(1)
        material = SCHEME.version_record(1, rec.root_digest,
                                         rec.update_start, rec.update_length)
        root = persist.insert_block(vindex.store, SCHEME, vindex.root,
                                    index=0, length=1,
                                    block_digest=material, level=0).new_root
        subtree, _digests = proofs.build_path(vindex.store, root, [0], [1])
        with pytest.raises(ProofRejected, match="position"):
            verify_version_proof(SCHEME, vindex.store.get(root).digest,
                                 subtree, [rec])

    def test_missing_version(self):
        vindex = fresh_index(2)
        with pytest.raises(NoSuchVersion):
            vindex.version_proof((2,))

    def test_tampered_update_length_rejected(self):
        vindex = fresh_index(5)
        subtree, (rec,) = vindex.version_proof((3,))
        bad = replace(rec, update_length=rec.update_length ^ 1)
        with pytest.raises(ProofRejected):
            verify_version_proof(SCHEME, vindex.meta_digest, subtree, [bad])

    def test_tampered_root_digest_rejected(self):
        vindex = fresh_index(5)
        subtree, (rec,) = vindex.version_proof((2,))
        flipped = bytes([rec.root_digest[0] ^ 1]) + rec.root_digest[1:]
        bad = replace(rec, root_digest=flipped)
        with pytest.raises(ProofRejected):
            verify_version_proof(SCHEME, vindex.meta_digest, subtree, [bad])

    def test_version_substitution_rejected(self):
        vindex = fresh_index(5)
        subtree, (rec,) = vindex.version_proof((2,))
        # version 4's own record, presented at version 2's leaf
        with pytest.raises(ProofRejected):
            verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                 [vindex.record(4)])
        # version 2's material under version 4's number
        with pytest.raises(ProofRejected):
            verify_version_proof(SCHEME, vindex.meta_digest, subtree,
                                 [replace(rec, version=4)])

    def test_historical_roots_stay_valid(self):
        vindex = fresh_index(0)
        history = []
        for v in range(30):
            vindex.append_version(record(v))
            history.append((vindex.root, vindex.meta_digest))
        for v, (root, meta) in enumerate(history):
            past = VersionIndex(vindex.store, SCHEME, SEED, root=root,
                                records=[vindex.record(k)
                                         for k in range(v + 1)])
            assert past.meta_digest == meta
            subtree, records = past.version_proof((v,))
            assert verify_version_proof(SCHEME, meta, subtree,
                                        records) == v + 1, v

    def test_shared_subtree_is_smaller_than_separate_ones(self):
        vindex = fresh_index(1000)

        def sizes(versions):
            shared, records = vindex.version_proof(versions)
            assert verify_version_proof(SCHEME, vindex.meta_digest, shared,
                                        records) == 1000
            return len(shared), sum(len(vindex.version_proof((v,))[0])
                                    for v in versions)

        # The latest ten versions share all but the bottom of their paths.
        shared, separate = sizes(range(990, 1000))
        assert shared < separate / 2, (shared, separate)
        # Ten versions spread over the history share only the top levels.
        shared, separate = sizes(range(0, 1000, 100))
        assert shared < separate, (shared, separate)
