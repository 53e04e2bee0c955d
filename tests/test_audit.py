import random
import struct

import pytest

from flexstore import audit, core, persist
from flexstore.adaptor import DiffEntry, format_diff, partial_from_proof
from flexstore.audit import (Challenge, detection_probability,
                             expand_challenge, read_challenge, read_proof,
                             verify, write_challenge, write_proof)
from flexstore.core import (KIND_INTERNAL, KIND_STUB, NodeStore, build,
                            build_with_levels)
from flexstore.errors import (DomainError, EmptyRegion, FormatError,
                              NoSuchVersion, ProofRejected)
from flexstore.hashing import HashScheme, LevelSource
from flexstore.index2 import VersionIndex, VersionRecord
from flexstore.repo import Repository

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
            result = persist.pmodify(self.store, SCHEME, root, idx, block)
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
        rec = fx.vindex.record(fx.vindex.count - 1)
        result = persist.pmodify(fx.store, SCHEME, rec.root, 0,
                                 fx._block(random.Random(5), 8))
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
        first, other = part.blocks[:2]
        assert first != other
        swapped = (other, first) + part.blocks[2:]
        bad = audit.VersionProof(
            (audit.VersionPart(part.layer2, part.subtree, swapped),))
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


def _flat_store(block_count, block_len, rng, levels=None):
    """One-version store and version index over random blocks; levels
    default to a drawn stream."""
    store = NodeStore()
    pieces = [rng.randbytes(block_len) for _ in range(block_count)]
    blocks = {SCHEME.block_digest(p): p for p in pieces}
    if levels is None:
        root, _src = build(store, SCHEME, pieces, LevelSource(SEED))
    else:
        root = build_with_levels(
            store, SCHEME, [(len(p), SCHEME.block_digest(p)) for p in pieces],
            levels)
    vindex = VersionIndex(store, SCHEME, SEED)
    vindex.append_version(VersionRecord(
        0, root, store.get(root).digest, 0, store.get(root).rank))
    return store, blocks, vindex


class TestPrunedSubtree:
    def test_range_proof_carries_each_block_once(self):
        store, blocks, vindex = _flat_store(512, 8, random.Random(3))
        root = vindex.record(0).root
        for first, k in ((0, 1), (17, 2), (100, 5), (300, 16), (40, 64)):
            proof = audit.prove_range(store, vindex, blocks.get, 0,
                                      first * 8, k * 8)
            part = proof.parts[0]
            assert len(part.blocks) == k
            partial = partial_from_proof(SCHEME, proof, vindex.meta_digest)
            nodes = [partial.store.get(i) for i in partial.store.ids()]
            expanded = [n for n in nodes if n.kind != KIND_STUB]
            internal = [n for n in nodes if n.kind == KIND_INTERNAL]
            depth = max(len(core.search(store, root, (first + j) * 8).entries)
                        for j in range(k))
            # Internal nodes inside the range map one to one onto the
            # towers they enter, so at most k, plus the two boundary paths;
            # the leaves add the k proven ones.
            assert len(internal) <= k + 2 * depth + 2, (first, k)
            assert len(expanded) <= 2 * k + 2 * depth + 4, (first, k)

    def test_audit_on_one_leaf_reads_one_block(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(random.Random(5).randbytes(64 * 64))
        repo = Repository.init(tmp_path / "r", block_size=64, seed=SEED,
                               input_file=src)
        try:
            # A one-block modify: version 1's update region is that block.
            repo.commit(format_diff([DiffEntry("replace", 640, b"x" * 64,
                                               64)]))
            gets = []
            real_get = repo.blocks.get

            def counting_get(digest):
                gets.append(digest)
                return real_get(digest)

            repo.blocks.get = counting_get
            ch = repo.make_challenge(CH_SEED, 460, (1,))
            proof = repo.prove(ch)
            assert len(proof.parts[0].blocks) == 1
            assert len(gets) == 1
            ok, reason = repo.verify(ch, proof)
            assert ok, reason
        finally:
            repo.close()

    def test_extra_proven_leaf_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 2, (1,))
        rec = fx.vindex.record(1)
        hit = expand_challenge(ch, (rec.update_start, rec.update_length))[0]
        # 64 bytes away: another 8-byte leaf no index of the challenge hits
        los = sorted((hit, (hit + 64) % 128))
        wider = audit._prove_part(fx.store, fx.vindex, fx.get_block, 1,
                                  los, [lo + 1 for lo in los])
        assert len(wider.blocks) == 2
        ok, reason = verify(SCHEME, fx.meta, ch,
                            audit.VersionProof((wider,)))
        assert not ok and "no challenged index" in reason

    def test_long_chain_decodes_without_recursion(self):
        # All towers at level 0: the leaves form one chain of 5,000 hops
        # under the left sentinel.
        n = 5000
        store, blocks, vindex = _flat_store(n, 1, random.Random(4),
                                            levels=[0] * n)
        meta = vindex.meta_digest
        data = write_proof(audit.prove_range(store, vindex, blocks.get, 0,
                                             n - 1, 1), SCHEME)
        partial = partial_from_proof(SCHEME, read_proof(data, SCHEME), meta)
        assert partial.root_digest == vindex.record(0).root_digest
        ch = Challenge(CH_SEED, 3)
        ok, reason = verify(SCHEME, meta, ch, read_proof(write_proof(
            audit.prove(store, SCHEME, vindex, blocks.get, ch), SCHEME),
            SCHEME))
        assert ok, reason


def _mutations(data, rng, flips, edits):
    """Truncations at every length, sampled bit flips, inserted and
    deleted bytes, and every 8-byte window set to 2^24 (which covers
    each count and length field), less any that leave the bytes as they
    were."""
    for mutated in _raw_mutations(data, rng, flips, edits):
        if mutated != data:
            yield mutated


def _raw_mutations(data, rng, flips, edits):
    for cut in range(len(data)):
        yield data[:cut]
    for _ in range(flips):
        pos = rng.randrange(len(data))
        yield data[:pos] + bytes([data[pos] ^ 1 << rng.randrange(8)]) \
            + data[pos + 1:]
    for _ in range(edits):
        pos = rng.randrange(len(data) + 1)
        yield data[:pos] + bytes([rng.randrange(256)]) + data[pos:]
        pos = rng.randrange(len(data))
        yield data[:pos] + data[pos + 1:]
    huge = struct.pack(">Q", 1 << 24)
    for pos in range(len(data) - 7):
        yield data[:pos] + huge + data[pos + 8:]


class TestHostileProofs:
    """Mutated proofs fail cleanly: read_proof raises FormatError only,
    verify only returns (False, reason), partial_from_proof raises only
    ProofRejected or FormatError."""

    def test_mutated_audit_proofs(self):
        fx = Fixture(block_count=4, commits=2)
        ch = Challenge(CH_SEED, 2, (1, 2))
        data = write_proof(fx.prove(ch), SCHEME)
        tried = 0
        for mutated in _mutations(data, random.Random(11), 600, 250):
            tried += 1
            try:
                proof = read_proof(mutated, SCHEME)
            except FormatError:
                continue
            ok, reason = verify(SCHEME, fx.meta, ch, proof)
            assert ok is False and isinstance(reason, str)
        assert tried >= 1500

    def test_mutated_range_proofs(self):
        store, blocks, vindex = _flat_store(12, 8, random.Random(12))
        meta = vindex.meta_digest
        data = write_proof(audit.prove_range(store, vindex, blocks.get, 0,
                                             40, 16), SCHEME)
        tried = 0
        for mutated in _mutations(data, random.Random(13), 600, 250):
            tried += 1
            with pytest.raises((FormatError, ProofRejected)):
                partial_from_proof(SCHEME, read_proof(mutated, SCHEME), meta)
        assert tried >= 1500

    def test_rank_overflow_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 2)
        part = fx.prove(ch).parts[0]
        stub = bytes([audit._STUB]) + bytes(20) + struct.pack(">Q", 2**64 - 1)
        bad = audit.VersionPart(part.layer2,
                                bytes([audit._INTERNAL, 1]) + stub * 2, ())
        ok, reason = verify(SCHEME, fx.meta, ch, audit.VersionProof((bad,)))
        assert not ok and "64 bits" in reason
        with pytest.raises(FormatError):
            partial_from_proof(SCHEME, audit.VersionProof((bad,)), fx.meta)
