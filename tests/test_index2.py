import hashlib
from dataclasses import replace
from itertools import islice

import pytest

from flexstore import persist, proofs
from flexstore.core import (KIND_EDGE, Node, NodeStore, build_with_levels,
                            check_subtree)
from flexstore.errors import (FormatError, NoSuchVersion, ProofRejected,
                              StructureCorrupt, VersionOutOfOrder)
from flexstore.hashing import HashScheme, layer2_levels
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
        # Every stored node of the list lies under an edge entry's frozen
        # part; the edge nodes above them are derived, not stored.
        for _level, _version, frozen, _span, _part, _record in vindex.edge:
            if frozen is not None:
                check_subtree(vindex.store, SCHEME, frozen)
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
        store = NodeStore()
        rec = record(1)
        material = SCHEME.version_record(1, rec.root_digest,
                                         rec.update_start, rec.update_length)
        root = build_with_levels(store, SCHEME, [(1, material)], [0])
        subtree, _digests = proofs.build_path(store, root, [0], [1])
        with pytest.raises(ProofRejected, match="position"):
            verify_version_proof(SCHEME, store.get(root).digest, subtree,
                                 [rec])

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
            history.append((vindex.head, vindex.meta_digest))
        for v, (head, meta) in enumerate(history):
            past = VersionIndex(vindex.store, SCHEME, SEED, head=head,
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


def _levels(seed, n):
    return list(islice(layer2_levels(seed, 0), n))


def _has_zero_run_and_tie(levels):
    """Levels that open with a run of eight level-0 towers (the left
    sentinel's bare leaf chaining along them), hold a run of twelve
    further on, and two towers of one level >= 1 with only lower ones
    between them (the later captured by the earlier at its own level)."""
    zero_run = any(not any(levels[i:i + 12])
                   for i in range(8, len(levels) - 12))
    tie = any(levels[i] and levels[j] == levels[i]
              and max(levels[i + 1:j], default=0) < levels[i]
              for i in range(len(levels)) for j in range(i + 1, len(levels)))
    return not any(levels[:8]) and zero_run and tie


def _picked_seed(n):
    """The first seed, counting up from zero, whose first n levels
    _has_zero_run_and_tie accepts."""
    for k in range(100_000):
        seed = k.to_bytes(10, "big")
        levels = _levels(seed, 8)
        if not any(levels) and _has_zero_run_and_tie(_levels(seed, n)):
            return seed
    raise AssertionError("no seed found")


def _rebuild_meta(seed, records):
    """The meta digest build_with_levels gives for the records."""
    store = NodeStore()
    leaves = [(1, SCHEME.version_record(r.version, r.root_digest,
                                        r.update_start, r.update_length))
              for r in records]
    root = build_with_levels(store, SCHEME, leaves,
                             _levels(seed, len(records)))
    return store.get(root).digest


class TestEdgeAppend:
    """Appends over the right edge give the canonical list: the oracle
    is a build_with_levels rebuild of the records."""

    @pytest.mark.parametrize("seed", [SEED, bytes(10), b"\xff" * 10,
                                      "picked"],
                             ids=["a0-a9", "zeros", "ones", "picked"])
    def test_meta_equals_rebuild_after_every_append(self, seed):
        if seed == "picked":
            seed = _picked_seed(300)
        vindex = VersionIndex(NodeStore(), SCHEME, seed)
        assert vindex.meta_digest == _rebuild_meta(seed, [])
        records = []
        for v in range(300):
            records.append(record(v))
            assert (vindex.append_version(records[-1])
                    == _rebuild_meta(seed, records)), v

    @pytest.mark.parametrize("seed", [SEED, "picked"],
                             ids=["a0-a9", "picked"])
    def test_long_history_matches_rebuild(self, seed):
        """3,000 appends: after each, the meta digest a full persistent
        insert gives (the list's canonical shape, edited); after every
        100th, and the last, a rebuild."""
        if seed == "picked":
            seed = _picked_seed(3000)
        vindex = VersionIndex(NodeStore(), SCHEME, seed)
        store = NodeStore()
        root = build_with_levels(store, SCHEME, [], [])
        records = []
        for v, level in enumerate(_levels(seed, 3000)):
            rec = record(v)
            records.append(rec)
            eng = persist.EditEngine(store, SCHEME, root)
            eng.splice(v, [(persist.INSERT, 1, SCHEME.version_record(
                v, rec.root_digest, rec.update_start, rec.update_length),
                level)])
            root = eng.finish().new_root
            meta = vindex.append_version(rec)
            assert meta == store.get(root).digest, v
            if v % 100 == 99 or v == 2999:
                assert meta == _rebuild_meta(seed, records), v

    def test_appends_write_few_records(self):
        """Each stored node is written once: over 1,000 appends the store
        grows by at most 4 records per append, nodes and edge records,
        at most two of them edge records."""
        vindex = fresh_index(0)
        store = vindex.store
        for v in range(1000):
            first = store.next_id
            vindex.append_version(record(v))
            new = [store.get(i).kind for i in range(first, store.next_id)]
            assert 1 <= new.count(KIND_EDGE) <= 2, v
            assert new[-1] == KIND_EDGE and store.next_id - 1 == vindex.head
        assert store.next_id <= 4 * 1000

    def test_older_heads_rebuild_older_edges(self):
        """An index on any earlier head and the records up to it derives
        the edge the index had then, and appending to it from there
        gives what the first index gave."""
        vindex = fresh_index(0)
        heads, edges, metas = [], [], []
        for v in range(60):
            metas.append(vindex.append_version(record(v)))
            heads.append(vindex.head)
            edges.append(list(vindex.edge))
        records = [vindex.record(v) for v in range(60)]
        for v in range(0, 60, 7):
            past = VersionIndex(vindex.store, SCHEME, SEED, head=heads[v],
                                records=records[:v + 1])
            assert past.edge == edges[v]
            assert past.append_version(records[v + 1]) == metas[v + 1]


class TestDerivedEdge:
    def test_each_index_proves_against_its_own_root(self):
        """Two indexes on one store each resolve their own edge nodes, so
        each proves against its own meta digest, in any order; the store
        holds no edge node."""
        vindex = fresh_index(20)
        older = VersionIndex(vindex.store, SCHEME, SEED, head=vindex.head,
                             records=[vindex.record(v) for v in range(20)])
        vindex.append_version(record(20))
        with pytest.raises(StructureCorrupt, match="missing"):
            vindex.store.get(vindex.root)
        for index, count in ((vindex, 21), (older, 20), (vindex, 21),
                             (older, 20)):
            assert index.get(index.root).digest == index.meta_digest
            subtree, records = index.version_proof((0, count - 1))
            assert verify_version_proof(SCHEME, index.meta_digest, subtree,
                                        records) == count

    @pytest.mark.parametrize("field, value, message", [
        ("kind", 1, "not an edge record"),
        ("level", 7, "level is not its version's"),
        ("rank", 5, "level is not its version's|does not fit"),
        ("after", 0, "does not fit"),
    ], ids=["kind", "level", "rank", "after"])
    def test_head_that_does_not_fit_is_refused(self, field, value, message):
        """A head record rewritten in memory is refused as the edge is
        derived from it."""
        vindex = fresh_index(12)
        store = vindex.store
        head = store.get(vindex.head)
        forged = Node(head.kind, head.level, head.rank, head.below,
                      head.after, head.length, head.block, head.digest)
        setattr(forged, field, value)
        store._nodes[vindex.head] = forged
        fresh = VersionIndex(store, SCHEME, SEED, head=vindex.head,
                             records=[vindex.record(v) for v in range(12)])
        with pytest.raises(StructureCorrupt, match=message):
            fresh.meta_digest
