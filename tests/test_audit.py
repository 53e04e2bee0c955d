import random
import struct

import pytest

from flexstore import audit, persist
from flexstore.audit import (Challenge, detection_probability,
                             expand_challenge, read_challenge, read_proof,
                             verify, write_challenge, write_proof)
from flexstore.core import NodeStore, build
from flexstore.errors import DomainError, EmptyRegion, FormatError, NoSuchVersion
from flexstore.hashing import HashScheme, LevelSource
from flexstore.index2 import VersionIndex, VersionRecord

SCHEME = HashScheme()
SEED = bytes.fromhex("00010203040506070809")
CH_SEED = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")


class Fixture:
    """Store with a few committed versions, audit-ready."""

    def __init__(self, block_count=16, block_len=8, commits=3, rng_seed=9):
        rng = random.Random(rng_seed)
        self.store = NodeStore()
        self.blocks = {}
        data = [self._block(rng, block_len) for _ in range(block_count)]
        src = LevelSource(SEED)
        root, src = build(self.store, SCHEME, data, src)
        self.vindex = VersionIndex(self.store, SCHEME, SEED)
        rank = self.store.get(root).rank
        self.vindex.append_version(VersionRecord(
            0, root, self.store.get(root).digest, 0, rank))
        for v in range(1, commits + 1):
            block = self._block(rng, block_len)
            idx = rng.randrange(block_count) * block_len
            result = persist.pmodify(self.store, SCHEME, root, idx, block, v)
            root = result.new_root
            self.vindex.append_version(VersionRecord(
                v, root, self.store.get(root).digest, idx, block_len))

    def _block(self, rng, n):
        b = bytes(rng.randrange(256) for _ in range(n))
        self.blocks[SCHEME.block_digest(b)] = b
        return b

    def get_block(self, digest):
        return self.blocks[digest]

    @property
    def meta(self):
        return self.vindex.meta_digest

    def prove(self, ch):
        return audit.prove(self.store, SCHEME, self.vindex, self.get_block,
                           ch)


class TestExpand:
    def test_single_byte_region(self):
        ch = Challenge(CH_SEED, 3)
        assert expand_challenge(ch, (0, 1)) == [0, 0, 0]
        assert expand_challenge(ch, (41, 1)) == [41, 41, 41]

    def test_golden_sequence(self):
        # Frozen once from the keyed-hash expansion with this seed.
        ch = Challenge(SEED, 4)
        assert expand_challenge(ch, (100, 50)) == [108, 113, 116, 128]

    def test_deterministic(self):
        ch = Challenge(CH_SEED, 16)
        assert expand_challenge(ch, (5, 1000)) == expand_challenge(ch, (5, 1000))

    def test_in_region(self):
        ch = Challenge(CH_SEED, 64)
        for idx in expand_challenge(ch, (100, 37)):
            assert 100 <= idx < 137

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            expand_challenge(Challenge(CH_SEED, 1), (3, 0))


class TestDetectionProbability:
    def test_reference_points(self):
        assert detection_probability(0.10, 20) == pytest.approx(0.878, abs=5e-4)
        assert detection_probability(0.10, 43) == pytest.approx(0.989, abs=5e-4)
        assert 0.985 <= detection_probability(0.01, 460) <= 0.995

    def test_no_challenge_no_detection(self):
        assert detection_probability(0.37, 0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            detection_probability(1.5, 3)
        with pytest.raises(DomainError):
            detection_probability(0.5, -1)


class TestProveVerify:
    def test_one_block_file(self):
        fx = Fixture(block_count=1, commits=0)
        ch = Challenge(CH_SEED, 1)
        proof = fx.prove(ch)
        ok, reason = verify(SCHEME, fx.meta, ch, proof)
        assert ok, reason

    def test_whole_file_latest(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 20)
        proof = fx.prove(ch)
        ok, reason = verify(SCHEME, fx.meta, ch, proof)
        assert ok, reason

    def test_update_region_challenge(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 6, (1, 3))
        proof = fx.prove(ch)
        ok, reason = verify(SCHEME, fx.meta, ch, proof)
        assert ok, reason

    def test_historical_version_challenge(self):
        fx = Fixture(commits=5)
        for v in range(6):
            ch = Challenge(CH_SEED, 4, (v,))
            ok, reason = verify(SCHEME, fx.meta, ch, fx.prove(ch))
            assert ok, (v, reason)

    def test_unknown_version(self):
        fx = Fixture()
        with pytest.raises(NoSuchVersion):
            fx.prove(Challenge(CH_SEED, 2, (99,)))

    def test_wrong_version_presented(self):
        fx = Fixture()
        proof = fx.prove(Challenge(CH_SEED, 4, (1,)))
        ok, _ = verify(SCHEME, fx.meta, Challenge(CH_SEED, 4, (2,)), proof)
        assert not ok

    def test_stale_proof_rejected_after_commit(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 4)
        proof = fx.prove(ch)
        old_meta = fx.meta
        rec = fx.vindex.records[-1]
        result = persist.pmodify(fx.store, SCHEME, rec.root, 0,
                                 fx._block(random.Random(5), 8),
                                 rec.version + 1)
        fx.vindex.append_version(VersionRecord(
            rec.version + 1, result.new_root,
            fx.store.get(result.new_root).digest, 0, 8))
        ok, _ = verify(SCHEME, fx.meta, ch, proof)
        assert not ok
        ok, reason = verify(SCHEME, old_meta, ch, proof)
        assert ok, reason

    def test_block_substitution_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 5)
        proof = fx.prove(ch)
        part = proof.parts[0]
        other = part.blocks[1]
        swapped = audit.BlockProof(part.blocks[0].index, other.block,
                                   part.blocks[0].path)
        bad = audit.VersionProof(
            (audit.VersionPart(part.layer2,
                               (swapped,) + part.blocks[1:]),))
        ok, _ = verify(SCHEME, fx.meta, ch, bad)
        assert not ok

    def test_self_chosen_indices_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 3)
        honest = fx.prove(ch)
        other = fx.prove(Challenge(bytes(10), 3))
        ok, _ = verify(SCHEME, fx.meta, ch, other)
        assert not ok
        ok, reason = verify(SCHEME, fx.meta, ch, honest)
        assert ok, reason

    def test_wrong_block_count(self):
        fx = Fixture()
        proof = fx.prove(Challenge(CH_SEED, 4))
        ok, _ = verify(SCHEME, fx.meta, Challenge(CH_SEED, 5), proof)
        assert not ok


class TestWireFormats:
    def test_challenge_roundtrip(self):
        ch = Challenge(CH_SEED, 20, (1, 5, 9))
        assert read_challenge(write_challenge(ch)) == ch

    def test_challenge_rejects_garbage(self):
        with pytest.raises(FormatError):
            read_challenge(b"nope")
        good = write_challenge(Challenge(CH_SEED, 2))
        with pytest.raises(FormatError):
            read_challenge(good + b"\x00")
        with pytest.raises(FormatError):
            read_challenge(good[:-1])

    def test_challenge_count_bounded(self):
        huge = 2 ** 40
        data = b"FXC1" + CH_SEED + struct.pack(">QQ", huge, 0)
        assert len(data) == 30
        with pytest.raises(FormatError):
            read_challenge(data)
        with pytest.raises(DomainError):
            Challenge(CH_SEED, huge)
        assert Challenge(CH_SEED, audit._MAX_COUNT).count == audit._MAX_COUNT

    def test_proof_roundtrip(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 8, (0, 2))
        proof = fx.prove(ch)
        data = write_proof(proof, SCHEME)
        back = read_proof(data, SCHEME)
        assert back == proof
        ok, reason = verify(SCHEME, fx.meta, ch, back)
        assert ok, reason

    def test_truncated_proof_rejected(self):
        fx = Fixture()
        data = write_proof(fx.prove(Challenge(CH_SEED, 2)), SCHEME)
        for cut in (0, 3, len(data) // 2, len(data) - 1):
            with pytest.raises(FormatError):
                read_proof(data[:cut], SCHEME)

    def test_bit_flips_rejected(self):
        # Sparse sweep here; the acceptance suite runs the exhaustive one.
        fx = Fixture(block_count=4, commits=1)
        ch = Challenge(CH_SEED, 2)
        data = write_proof(fx.prove(ch), SCHEME)
        rng = random.Random(77)
        positions = rng.sample(range(len(data)), min(120, len(data)))
        for pos in positions:
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            try:
                mutated = read_proof(bytes(flipped), SCHEME)
            except FormatError:
                continue
            ok, _ = verify(SCHEME, fx.meta, ch, mutated)
            assert not ok, pos
