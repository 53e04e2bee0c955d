import hashlib
import random
import struct
import time
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate

import pytest

from flexstore import audit, core, persist, proofs
from flexstore.adaptor import DiffEntry, format_diff, partial_from_proof
from flexstore.audit import (Challenge, detection_probability,
                             expand_challenge, read_challenge, read_proof,
                             verify, write_challenge, write_proof)
from flexstore.core import (KIND_INTERNAL, KIND_STUB, NodeStore, build,
                            build_with_levels)
from flexstore.errors import (DomainError, EmptyRegion, FormatError,
                              NoSuchVersion, ProofRejected)
from flexstore.hashing import HashScheme, challenge_indices, version_levels
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
        self.block_len = block_len
        data = [self._block(rng, block_len) for _ in range(block_count)]
        root = build(self.store, SCHEME, data, version_levels(SEED, 0))
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
        return audit.prove(self.store, self.vindex, self.get_block,
                           ch, self.block_len)


class TestExpand:
    def test_single_byte_region(self):
        ch = Challenge(CH_SEED, 3)
        assert list(expand_challenge(ch, (0, 1))) == [0, 0, 0]
        assert list(expand_challenge(ch, (41, 1))) == [41, 41, 41]

    def test_golden_sequence(self):
        # Frozen once from the keyed-hash expansion with this seed.
        ch = Challenge(SEED, 4)
        assert list(expand_challenge(ch, (100, 50))) == [108, 113, 116, 128]

    def test_deterministic(self):
        ch = Challenge(CH_SEED, 16)
        assert (list(expand_challenge(ch, (5, 1000)))
                == list(expand_challenge(ch, (5, 1000))))

    def test_in_region(self):
        ch = Challenge(CH_SEED, 64)
        for idx in expand_challenge(ch, (100, 37)):
            assert 100 <= idx < 137

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            expand_challenge(Challenge(CH_SEED, 1), (3, 0))

    def test_arguments_checked_as_made(self):
        """The expansion is drawn lazily, but its arguments are refused
        as it is made, before any draw."""
        with pytest.raises(DomainError):
            challenge_indices(CH_SEED, -1, 0, 1)
        with pytest.raises(DomainError):
            challenge_indices(CH_SEED, 1, 0, 0)

    @pytest.mark.parametrize("count, start, length", [
        (0, 0, 1), (1, 0, 1), (460, 7, 1000), (64, 0, 16 << 20),
        # 2^64 mod length near 2^63 and 2^62: about half and a quarter
        # of the draws are rejected
        (300, 0, (1 << 63) + 1), (50, 1 << 40, 3 * (1 << 62) - 1)])
    def test_matches_reference_formula(self, count, start, length):
        want, counter = [], 0
        limit = (1 << 64) - (1 << 64) % length
        while len(want) < count:
            value = int.from_bytes(hashlib.sha256(
                b"chal" + CH_SEED + struct.pack(">Q", counter)).digest()[:8],
                "big")
            counter += 1
            if value < limit:
                want.append(start + value % length)
        assert counter > count or length < 1 << 62
        assert list(challenge_indices(CH_SEED, count, start, length)) == want


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

    def test_verify_consumes_draws_as_drawn(self):
        """verify folds each challenged index as it is drawn, holding no
        list of them: a 2^14-draw whole-file audit of a 16 KiB store of
        1 KiB blocks peaks far below the 2^14 indices' own size."""
        store, blocks, vindex = _flat_store(16, 1024, random.Random(5))
        ch = Challenge(CH_SEED, 1 << 14)
        proof = audit.prove(store, vindex, blocks.get, ch, 1024)
        tracemalloc.start()
        try:
            ok, reason = verify(SCHEME, vindex.meta_digest, ch, proof)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok, reason
        assert peak < 64 << 10

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
        bad = replace(proof, parts=(replace(part, blocks=swapped),))
        ok, _ = verify(SCHEME, fx.meta, ch, bad)
        assert not ok

    def test_extra_block_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 5)
        proof = fx.prove(ch)
        part = proof.parts[0]
        bad = replace(proof, parts=(replace(
            part, blocks=part.blocks + part.blocks[:1]),))
        ok, reason = verify(SCHEME, fx.meta, ch, bad)
        assert not ok and "more leaves than it proves" in reason

    def test_self_chosen_indices_rejected(self):
        fx = Fixture()
        ch = Challenge(CH_SEED, 3)
        honest = fx.prove(ch)
        other = fx.prove(Challenge(bytes(10), 3))
        ok, _ = verify(SCHEME, fx.meta, ch, other)
        assert not ok
        ok, reason = verify(SCHEME, fx.meta, ch, honest)
        assert ok, reason

    def test_repeated_targets_prove_each_version_once(self):
        fx = Fixture(commits=5)
        ch = Challenge(CH_SEED, 4, (5, 2, 5))
        proof = fx.prove(ch)
        assert [part.version for part in proof.parts] == [2, 5]
        ok, reason = verify(SCHEME, fx.meta, ch, proof)
        assert ok, reason
        ok, reason = verify(SCHEME, fx.meta, Challenge(CH_SEED, 4, (2, 5)),
                            proof)
        assert ok, reason

    def test_missing_or_swapped_parts_rejected(self):
        fx = Fixture(commits=5)
        ch = Challenge(CH_SEED, 4, (1, 3, 4))
        proof = fx.prove(ch)
        first, middle, last = proof.parts
        for parts in ((first, last), (first, middle), (middle, last),
                      (middle, first, last), (first, last, middle),
                      (first, middle, middle, last)):
            ok, _ = verify(SCHEME, fx.meta, ch, replace(proof, parts=parts))
            assert not ok, [part.version for part in parts]
        # a shorter proof of its own, for fewer versions, is no answer
        fewer = fx.prove(Challenge(CH_SEED, 4, (1, 3)))
        ok, _ = verify(SCHEME, fx.meta, ch, fewer)
        assert not ok

    def test_wrong_block_count(self):
        fx = Fixture()
        proof = fx.prove(Challenge(CH_SEED, 4))
        ok, _ = verify(SCHEME, fx.meta, Challenge(CH_SEED, 5), proof)
        assert not ok


def _reference_prove(store, vindex, get_block, ch):
    """audit.prove taking every draw: the distinct challenged indices,
    each its own span."""
    layer2, records = vindex.version_proof(ch.versions
                                           or (vindex.count - 1,))
    parts = []
    for rec in records:
        region = audit.challenge_region(store, vindex, rec.version,
                                        not ch.versions)
        indices = sorted(set(expand_challenge(ch, region)))
        parts.append(audit._prove_part(store, get_block, rec, indices,
                                       [index + 1 for index in indices]))
    return audit.VersionProof(layer2, tuple(parts))


def _reference_verify(meta, ch, proof):
    """audit.verify taking every draw, with its reasons in its order."""
    try:
        count, subs = audit.check_proof(SCHEME, meta, proof)
        whole_file = not ch.versions
        versions = [part.version for part in proof.parts]
        if whole_file and versions != [count - 1]:
            return False, ("whole-file challenge must target the latest "
                           "version")
        if not whole_file and versions != sorted(set(ch.versions)):
            return False, ("proof parts are not the challenged versions, "
                           "each once, ascending")
        for part, sub in zip(proof.parts, subs):
            region = ((0, sub.rank[sub.root]) if whole_file
                      else (part.update_start, part.update_length))
            draws = expand_challenge(ch, region)
            if any(start + len(block) <= region[0]
                   or start >= region[0] + region[1]
                   for start, block in zip(sub.starts, part.blocks)):
                return False, ("proof carries a leaf no challenged index "
                               "can hit")
            hit = [False] * len(sub.starts)
            for index in draws:
                leaf = bisect_right(sub.starts, index) - 1
                if (leaf < 0 or index >= sub.starts[leaf]
                        + len(part.blocks[leaf])):
                    return False, (f"challenged index {index} lies in no "
                                   "proven leaf")
                hit[leaf] = True
            if not all(hit):
                return False, ("proof carries a leaf no challenged index "
                               "hits")
        return True, "ok"
    except ProofRejected as exc:
        return False, str(exc)
    except (FormatError, DomainError) as exc:
        return False, f"malformed proof: {exc}"
    except EmptyRegion:
        return False, "challenged version has an empty region"


def _region_store(rng, block_count, region_leaves, versions):
    """One tree over `block_count` random blocks of 1 to 24 bytes, and a
    version index whose `versions` versions all have it as their root,
    each with an update region that starts inside one leaf and ends
    inside the leaf `region_leaves` - 1 further on."""
    store = NodeStore()
    pieces = [rng.randbytes(rng.randint(1, 24)) for _ in range(block_count)]
    blocks = {SCHEME.block_digest(piece): piece for piece in pieces}
    root = build(store, SCHEME, pieces, version_levels(SEED, 0))
    offsets = list(accumulate(map(len, pieces), initial=0))
    vindex = VersionIndex(store, SCHEME, SEED)
    for version in range(versions):
        first = rng.randrange(block_count - region_leaves + 1)
        last = first + region_leaves - 1
        start = rng.randrange(offsets[first], offsets[first + 1])
        end = rng.randrange(max(start, offsets[last]), offsets[last + 1]) + 1
        vindex.append_version(VersionRecord(
            version, root, store.get(root).digest, start, end - start))
    return store, blocks, vindex


@pytest.fixture
def count_draws(monkeypatch):
    """Wrap audit.expand_challenge; the list holds every index drawn."""
    draws = []
    real = audit.expand_challenge

    def counting(ch, region):
        for index in real(ch, region):
            draws.append(index)
            yield index
    monkeypatch.setattr(audit, "expand_challenge", counting)
    return draws


class TestEarlyStop:
    """prove and verify stop drawing once every leaf of the region is
    hit; their proofs and verdicts are those of taking every draw."""

    @pytest.mark.parametrize("count", [1, 2, 460, 1 << 12])
    def test_same_proofs_and_verdicts_as_every_draw(self, count,
                                                    monkeypatch):
        rng = random.Random(count)
        for leaves in (1, 3, count, count + 7):
            stores = (
                # whole file: the region is every leaf
                (_region_store(rng, leaves, leaves, 1), ()),
                # update regions inside a longer file
                (_region_store(rng, leaves + 6, leaves, 3), (1,)),
                (_region_store(rng, leaves + 6, leaves, 3), (0, 2)))
            for (store, blocks, vindex), versions in stores:
                ch = Challenge(rng.randbytes(10), count, versions)
                want = write_proof(_reference_prove(store, vindex,
                                                    blocks.get, ch), SCHEME)
                # The leaf bound and the walk's limit set only what
                # proving costs: no leaf is longer than 24 bytes, but the
                # prover may be told 1 or 2^40.
                for max_leaf, limit in ((24, audit._UNHIT_LIMIT),
                                        (1, audit._UNHIT_LIMIT),
                                        (1 << 40, 0.0),
                                        (1 << 40, float("inf"))):
                    monkeypatch.setattr(audit, "_UNHIT_LIMIT", limit)
                    proof = audit.prove(store, vindex, blocks.get,
                                        ch, max_leaf)
                    assert write_proof(proof, SCHEME) == want, (
                        leaves, versions, max_leaf, limit)
                monkeypatch.undo()
                meta = vindex.meta_digest
                assert (verify(SCHEME, meta, ch, proof)
                        == _reference_verify(meta, ch, proof)
                        == (True, "ok"))

    def test_same_verdicts_on_every_bit_flip(self, count_draws):
        for fixture, ch in (
                (Fixture(block_count=4, commits=1),
                 Challenge(CH_SEED, 460, (1,))),        # one leaf
                (Fixture(block_count=3, commits=0),
                 Challenge(CH_SEED, 64))):              # three leaves
            data = write_proof(fixture.prove(ch), SCHEME)
            count_draws.clear()
            assert verify(SCHEME, fixture.meta, ch,
                          read_proof(data, SCHEME)) == (True, "ok")
            assert len(count_draws) < ch.count    # it did stop early
            verdicts = set()
            for bit in range(8 * len(data)):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 1 << bit % 8
                try:
                    proof = read_proof(bytes(flipped), SCHEME)
                except FormatError:
                    continue
                verdict = verify(SCHEME, fixture.meta, ch, proof)
                assert verdict == _reference_verify(fixture.meta, ch,
                                                    proof), bit
                assert not verdict[0], bit
                verdicts.add(verdict[1])
            assert len(verdicts) > 1

    def test_hit_leaves_with_a_gap_still_rejected(self):
        """Every proven leaf is hit, but they leave a leaf of the region
        out: the draws go on, and one lands in the gap."""
        rng = random.Random(3)
        store, blocks, vindex = _region_store(rng, 9, 3, 1)
        rec = vindex.record(0)
        ch = Challenge(CH_SEED, 460, (0,))
        honest = audit.prove(store, vindex, blocks.get, ch, 24)
        _count, (sub,) = audit.check_proof(SCHEME, vindex.meta_digest,
                                           honest)
        assert len(sub.starts) == 3
        for dropped in range(3):
            los = [start for i, start in enumerate(sub.starts)
                   if i != dropped]
            part = audit._prove_part(store, blocks.get, rec, los,
                                     [lo + 1 for lo in los])
            proof = replace(honest, parts=(part,))
            verdict = verify(SCHEME, vindex.meta_digest, ch, proof)
            assert verdict == _reference_verify(vindex.meta_digest, ch,
                                                proof)
            assert not verdict[0] and "lies in no proven leaf" in verdict[1]

    @pytest.mark.parametrize("side", ["before", "past"])
    def test_leaf_outside_the_region_refused_before_drawing(
            self, count_draws, side):
        """An honest proof of a 3-leaf update region with one more proven
        leaf that does not meet the region, before its start or past its
        end: at the 2^24-draw cap it is refused at once, with no index
        drawn."""
        rng = random.Random(11)
        store, blocks, vindex = _region_store(rng, 12, 3, 1)
        rec = vindex.record(0)
        ch = Challenge(CH_SEED, 1 << 24, (0,))
        honest = audit.prove(store, vindex, blocks.get, ch, 24)
        _count, (sub,) = audit.check_proof(SCHEME, vindex.meta_digest,
                                           honest)
        assert len(sub.starts) == 3
        end = rec.update_start + rec.update_length
        leaves = core.leaves_from(store, rec.root, 0)[1]
        starts = list(accumulate((leaf.length for leaf in leaves),
                                 initial=0))[:-1]
        if side == "before":
            outside = [s for s in starts if s < sub.starts[0]][-1:]
        else:
            outside = [s for s in starts if s >= end][:1]
        assert outside, side
        los = sorted(sub.starts + outside)
        part = audit._prove_part(store, blocks.get, rec, los,
                                 [lo + 1 for lo in los])
        proof = replace(honest, parts=(part,))
        count_draws.clear()
        began = time.perf_counter()
        verdict = verify(SCHEME, vindex.meta_digest, ch, proof)
        assert time.perf_counter() - began < 1.0
        assert verdict == (False, "proof carries a leaf no challenged index "
                                  "can hit")
        assert verdict == _reference_verify(vindex.meta_digest, ch, proof)
        assert count_draws == []

    def test_one_leaf_region_takes_one_draw(self, count_draws):
        """The largest challenge of a version whose update region lies
        inside one block: prove and verify each draw once."""
        fx = Fixture()
        ch = Challenge(CH_SEED, 1 << 24, (1,))
        proof = fx.prove(ch)
        assert len(count_draws) == 1
        count_draws.clear()
        assert verify(SCHEME, fx.meta, ch, proof) == (True, "ok")
        assert len(count_draws) == 1

    def test_prove_memory_set_by_leaves(self):
        """A whole-file prove of 2^16 draws over 1,024 leaves holds the
        leaves, not the draws: it peaks near what verify does."""
        store, blocks, vindex = _flat_store(1024, 1024, random.Random(6))
        ch = Challenge(CH_SEED, 1 << 16)
        peaks = []
        for run in (lambda: audit.prove(store, vindex, blocks.get,
                                        ch, 1024),
                    lambda: verify(SCHEME, vindex.meta_digest, ch, proof)):
            tracemalloc.start()
            try:
                result = run()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            proof = result
        assert result == (True, "ok")
        assert peaks[0] < 2 * peaks[1], peaks

    def test_proof_for_more_draws_rejected(self, tmp_path):
        """A whole-file proof for 50 draws carries leaves that 1 draw with
        the same seed does not hit: checked against that challenge, it is
        refused for them."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(3).randbytes(64 * 1024))
        with Repository.init(tmp_path / "r", block_size=1024, seed=SEED,
                             input_file=src) as repo:
            proof = repo.prove(Challenge(CH_SEED, 50))
            assert len(proof.parts[0].blocks) > 1
            assert repo.verify(Challenge(CH_SEED, 1), proof) == (
                False, "proof carries a leaf no challenged index hits")


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

    def test_framing_roundtrip(self):
        """read_proof then write_proof gives back the same bytes, for an
        audit proof and a range proof, and each block read equals the
        stored block."""
        fx = Fixture(block_count=32)
        cases = [fx.prove(Challenge(CH_SEED, 9, (1, 3))),
                   fx.prove(Challenge(CH_SEED, 9)),
                   audit.prove_range(fx.store, fx.vindex, fx.get_block, 2,
                                     20, 60)]
        for proof in cases:
            data = write_proof(proof, SCHEME)
            back = read_proof(data, SCHEME)
            assert write_proof(back, SCHEME) == data
            for part, sent in zip(back.parts, proof.parts, strict=True):
                assert part.blocks == sent.blocks
                assert [bytes(b) for b in part.blocks] == [
                    fx.blocks[SCHEME.block_digest(b)] for b in part.blocks]

    def test_block_framing_refused(self):
        """A block length that runs past the end, and a block count
        larger than the bytes that remain, are format errors."""
        fx = Fixture()
        data = write_proof(fx.prove(Challenge(CH_SEED, 2)), SCHEME)
        blocks = read_proof(data, SCHEME).parts[-1].blocks
        last = len(data) - len(blocks[-1]) - 8      # its length field
        first = len(data) - sum(8 + len(b) for b in blocks) - 8   # count
        for pos, value in ((last, len(blocks[-1]) + 1), (last, 2 ** 63),
                           (first, len(blocks) + 1), (first, 2 ** 40)):
            bad = bytearray(data)
            bad[pos:pos + 8] = struct.pack(">Q", value)
            with pytest.raises(FormatError):
                read_proof(bytes(bad), SCHEME)

    def test_old_format_refused(self):
        fx = Fixture()
        data = write_proof(fx.prove(Challenge(CH_SEED, 2)), SCHEME)
        with pytest.raises(FormatError, match="FXP2"):
            read_proof(b"FXP2" + data[4:], SCHEME)

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
        root = build(store, SCHEME, pieces, version_levels(SEED, 0))
    else:
        root = build_with_levels(
            store, SCHEME, [(len(p), SCHEME.block_digest(p)) for p in pieces],
            levels)
    vindex = VersionIndex(store, SCHEME, SEED)
    vindex.append_version(VersionRecord(
        0, root, store.get(root).digest, 0, store.get(root).rank))
    return store, blocks, vindex


class TestPrunedSubtree:
    @pytest.mark.parametrize("width", [19, 21])
    def test_fold_refuses_leaf_digest_of_wrong_width(self, width):
        store, blocks, vindex = _flat_store(16, 8, random.Random(4))
        data, digests = proofs.build_path(store, vindex.record(0).root,
                                          [10], [30])
        leaves = [(8, digest) for digest in digests]
        proofs.fold_path(SCHEME, data, leaves)
        leaves[-1] = (8, bytes(width))
        with pytest.raises(DomainError, match="width"):
            proofs.fold_path(SCHEME, data, leaves)

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
        hit = next(expand_challenge(ch, (rec.update_start,
                                         rec.update_length)))
        # 64 bytes away: another 8-byte leaf no index of the challenge hits
        los = sorted((hit, (hit + 64) % 128))
        honest = fx.prove(ch)
        wider = audit._prove_part(fx.store, fx.get_block, rec, los,
                                  [lo + 1 for lo in los])
        assert len(wider.blocks) == 2
        ok, reason = verify(SCHEME, fx.meta, ch,
                            replace(honest, parts=(wider,)))
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
            audit.prove(store, vindex, blocks.get, ch, 1), SCHEME),
            SCHEME))
        assert ok, reason


def _check_decoded(store, root, sub, offsets):
    """The decoded lists against the server's nodes: every expanded node
    has the kind, level, rank, length and block digest of the server
    node with its digest, and children with the digests of that node's;
    every stub has a server node's digest and rank; `starts` are the
    proven leaves' offsets."""
    by_digest = {store.get(i).digest: store.get(i) for i in store.ids()}
    assert sub.root == len(sub.digest) - 1
    assert sub.digest[sub.root] == store.get(root).digest
    for i, digest in enumerate(sub.digest):
        server = by_digest[digest]
        assert sub.rank[i] == server.rank
        if sub.kind[i] == KIND_STUB:
            assert (sub.level[i], sub.below[i], sub.after[i], sub.length[i],
                    sub.block[i]) == (0, None, None, 0, None)
            continue
        assert ((sub.kind[i], sub.level[i], sub.length[i], sub.block[i])
                == (server.kind, server.level, server.length, server.block))
        for link, want in ((sub.below[i], server.below),
                           (sub.after[i], server.after)):
            if want is None:
                assert link is None
            else:
                assert link < i
                assert sub.digest[link] == store.get(want).digest
    assert sub.starts == offsets


def _leaf_offsets(store, root, indices):
    return sorted({core.search(store, root, index).offset
                   for index in indices})


class TestRebuild:
    """proofs.fold_path's per-field lists against the prover's nodes,
    over whole-file audits, update-region audits and range proofs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_audits_decode_to_server_nodes(self, seed):
        fx = Fixture(block_count=48, commits=5, rng_seed=seed)
        rng = random.Random(seed)
        for versions in ((), (1, 3, 5), (rng.randrange(6),)):
            ch = Challenge(rng.randbytes(10), rng.randint(1, 40), versions)
            proof = read_proof(write_proof(fx.prove(ch), SCHEME), SCHEME)
            count, subs = audit.check_proof(SCHEME, fx.meta, proof)
            assert count == fx.vindex.count
            for part, sub in zip(proof.parts, subs, strict=True):
                rec = fx.vindex.record(part.version)
                region = ((0, fx.store.get(rec.root).rank) if not versions
                          else (rec.update_start, rec.update_length))
                _check_decoded(fx.store, rec.root, sub, _leaf_offsets(
                    fx.store, rec.root, expand_challenge(ch, region)))

    def test_range_proofs_decode_to_server_nodes(self):
        store, blocks, vindex = _flat_store(300, 8, random.Random(21))
        root, total = vindex.record(0).root, 300 * 8
        # the last span starts past the end: it proves the last block
        for start, length in ((0, 1), (17, 40), (800, 333), (total, 500)):
            proof = audit.prove_range(store, vindex, blocks.get, 0, start,
                                      length)
            _count, (sub,) = audit.check_proof(SCHEME, vindex.meta_digest,
                                               proof)
            first = min(start, total - 1)
            _check_decoded(store, root, sub, _leaf_offsets(
                store, root, range(first, max(min(start + length, total),
                                              first + 1))))

    def test_verify_makes_no_node(self, monkeypatch):
        fx = Fixture(block_count=64)
        ch = Challenge(CH_SEED, 40)
        proof = read_proof(write_proof(fx.prove(ch), SCHEME), SCHEME)
        made = []
        real_init = core.Node.__init__

        def counting(node, *fields):
            made.append(fields)
            real_init(node, *fields)
        monkeypatch.setattr(core.Node, "__init__", counting)
        ok, reason = verify(SCHEME, fx.meta, ch, proof)
        assert ok, reason
        assert made == []
        # The client's partial list is where node objects are made.
        partial = partial_from_proof(SCHEME, proof, fx.meta)
        assert len(made) == len(partial.store) > 0


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
        proof = fx.prove(ch)
        stub = bytes([proofs._STUB]) + bytes(20) + struct.pack(">Q",
                                                               2**64 - 1)
        bad = replace(proof, parts=(replace(
            proof.parts[0], subtree=bytes([proofs._INTERNAL, 1]) + stub * 2,
            blocks=()),))
        ok, reason = verify(SCHEME, fx.meta, ch, bad)
        assert not ok and "64 bits" in reason
        with pytest.raises(FormatError):
            partial_from_proof(SCHEME, bad, fx.meta)
