import hashlib

import pytest

from flexstore.core import NodeStore, check_subtree
from flexstore.errors import NoSuchVersion, VersionOutOfOrder
from flexstore.hashing import HashScheme
from flexstore.index2 import (Layer2Proof, VersionIndex, VersionRecord,
                              verify_version_proof, version_count_from_proof)

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
        proof = vindex.version_proof(0)
        ok, reason = verify_version_proof(SCHEME, vindex.meta_digest, proof)
        assert ok, reason

    def test_all_versions_roundtrip(self):
        vindex = fresh_index(100)
        for v in range(100):
            proof = vindex.version_proof(v)
            ok, reason = verify_version_proof(SCHEME, vindex.meta_digest,
                                              proof)
            assert ok, (v, reason)
            assert version_count_from_proof(proof) == 100

    def test_missing_version(self):
        vindex = fresh_index(2)
        with pytest.raises(NoSuchVersion):
            vindex.version_proof(2)

    def test_tampered_update_length_rejected(self):
        vindex = fresh_index(5)
        proof = vindex.version_proof(3)
        bad = Layer2Proof(proof.version, proof.root_digest,
                          proof.update_start, proof.update_length ^ 1,
                          proof.path)
        ok, _ = verify_version_proof(SCHEME, vindex.meta_digest, bad)
        assert not ok

    def test_tampered_root_digest_rejected(self):
        vindex = fresh_index(5)
        proof = vindex.version_proof(2)
        flipped = bytes([proof.root_digest[0] ^ 1]) + proof.root_digest[1:]
        bad = Layer2Proof(proof.version, flipped, proof.update_start,
                          proof.update_length, proof.path)
        ok, _ = verify_version_proof(SCHEME, vindex.meta_digest, bad)
        assert not ok

    def test_version_substitution_rejected(self):
        vindex = fresh_index(5)
        proof = vindex.version_proof(2)
        bad = Layer2Proof(4, proof.root_digest, proof.update_start,
                          proof.update_length, proof.path)
        ok, _ = verify_version_proof(SCHEME, vindex.meta_digest, bad)
        assert not ok

    def test_historical_roots_stay_valid(self):
        vindex = fresh_index(0)
        history = []
        for v in range(30):
            vindex.append_version(record(v))
            history.append((vindex.root, vindex.meta_digest))
        for v, (root, meta) in enumerate(history):
            proof = vindex.version_proof(v, at_root=root)
            ok, reason = verify_version_proof(SCHEME, meta, proof)
            assert ok, (v, reason)
