import random

import pytest

from flexstore import persist
from flexstore.core import (KIND_INTERNAL, Node, NodeStore,
                            build_with_levels, check_subtree,
                            iter_data_leaves, make_leaf, search)
from flexstore.errors import (BlockTooSmall, IndexOutOfRange,
                              NotBlockAligned, StructureCorrupt)
from flexstore.hashing import HashScheme, version_levels
from flexstore.persist import pinsert, pmodify, premove

SCHEME = HashScheme()
SEED = bytes.fromhex("0102030405060708090a")


def fresh(blocks_levels, store=None):
    store = store or NodeStore()
    pairs = [(len(b), SCHEME.block_digest(b)) for b, _ in blocks_levels]
    levels = [l for _, l in blocks_levels]
    root = build_with_levels(store, SCHEME, pairs, levels)
    return store, root


def rebuild_digest(blocks_levels):
    store, root = fresh(blocks_levels)
    return store.get(root).digest


def rand_block(rng, limit=12):
    return bytes(rng.randrange(256) for _ in range(rng.randint(1, limit)))


def block_at(seq, idx):
    """Position of the block holding byte idx in a (block, level) list."""
    acc = 0
    for pos, (b, _) in enumerate(seq):
        if idx < acc + len(b):
            return pos
        acc += len(b)
    raise IndexError(idx)


class TestNextPos:
    """A lone modify, a one-op run through the fold, keeps its block's
    level: it makes one node per move of the descent and the new leaf,
    observed through pmodify's created_nodes."""

    def test_one_copy_per_move(self):
        rng = random.Random(11)
        for trial in range(30):
            seq = [(rand_block(rng), rng.choice([0, 0, 1, 2, 3]))
                   for _ in range(rng.randint(1, 30))]
            store, root = fresh(seq)
            before = store.get(root).digest
            idx = rng.randrange(store.get(root).rank)
            moves = len(search(store, root, idx).entries)
            data = rand_block(rng)
            result = pmodify(store, SCHEME, root, idx, data)
            assert result.created_nodes == moves + 1, trial  # plus the root
            pos = block_at(seq, idx)
            want = rebuild_digest(
                seq[:pos] + [(data, seq[pos][1])] + seq[pos + 1:])
            assert store.get(result.new_root).digest == want, trial
            assert store.get(root).digest == before
            check_subtree(store, SCHEME, root)

    def test_copies_bounded_by_reference_walk(self):
        # Instrumented oracle: hops counted over the plain structure.
        rng = random.Random(12)
        seq = [(rand_block(rng), rng.choice([0, 0, 1, 2, 3]))
               for _ in range(64)]
        store, root = fresh(seq)
        height = store.get(root).level
        for _ in range(50):
            idx = rng.randrange(store.get(root).rank)
            path = search(store, root, idx)
            after_hops = sum(1 for _, d in path.entries if d == "after")
            result = pmodify(store, SCHEME, root, idx, b"x")
            assert result.created_nodes - 1 <= height + 1 + 2 * after_hops


class TestRecomputePath:
    """The copied path is recomputed bottom-up after an edit."""

    def test_leaf_change_alters_root(self):
        seq = [(b"abcd", 1), (b"efgh", 0)]
        store, root = fresh(seq)
        before = store.get(root).digest
        result = pmodify(store, SCHEME, root, 0, b"ABCD")
        assert store.get(result.new_root).digest != before
        assert store.get(root).digest == before


class TestModify:
    def test_identical_content_same_digest(self):
        seq = [(b"hello", 1)]
        store, root = fresh(seq)
        result = pmodify(store, SCHEME, root, 0, b"hello")
        assert store.get(result.new_root).digest == store.get(root).digest
        assert result.new_root != root

    def test_matches_rebuild(self):
        rng = random.Random(21)
        for trial in range(100):
            n = rng.randint(1, 24)
            seq = [(rand_block(rng), rng.choice([0, 0, 1, 2, 3]))
                   for _ in range(n)]
            store, root = fresh(seq)
            pos = rng.randrange(n)
            data = rand_block(rng)
            idx = sum(len(b) for b, _ in seq[:pos])
            result = pmodify(store, SCHEME, root, idx, data)
            want = rebuild_digest(
                seq[:pos] + [(data, seq[pos][1])] + seq[pos + 1:])
            assert store.get(result.new_root).digest == want, trial

    def test_old_version_untouched(self):
        seq = [(b"one", 1), (b"two", 0), (b"three", 2)]
        store, root = fresh(seq)
        before = store.get(root).digest
        result = pmodify(store, SCHEME, root, 3, b"TWO!")
        assert store.get(root).digest == before
        check_subtree(store, SCHEME, root)
        check_subtree(store, SCHEME, result.new_root)

    def test_length_change(self):
        seq = [(b"aa", 0), (b"bb", 1)]
        store, root = fresh(seq)
        result = pmodify(store, SCHEME, root, 2, b"wider-block")
        assert store.get(result.new_root).rank == 2 + 11
        want = rebuild_digest([(b"aa", 0), (b"wider-block", 1)])
        assert store.get(result.new_root).digest == want

    def test_copy_count_is_path_plus_root(self):
        seq = [(b"abc", 2), (b"def", 0), (b"ghi", 1)]
        store, root = fresh(seq)
        path_len = len(search(store, root, 4).entries)
        result = pmodify(store, SCHEME, root, 4, b"DEF")
        assert result.created_nodes == path_len + 1

    def test_bad_inputs(self):
        store, root = fresh([(b"abc", 0)])
        with pytest.raises(IndexOutOfRange):
            pmodify(store, SCHEME, root, 3, b"x")
        with pytest.raises(BlockTooSmall):
            pmodify(store, SCHEME, root, 0, b"")


class TestInsert:
    def test_into_empty(self):
        store, root = fresh([])
        result = pinsert(store, SCHEME, root, 0, b"first",
                         version_levels(SEED, 0))
        assert store.get(result.new_root).rank == 5
        assert store.get(root).rank == 0
        level = next(version_levels(SEED, 0))
        assert store.get(result.new_root).digest == rebuild_digest(
            [(b"first", level)])

    def test_append_and_prepend(self):
        rng = random.Random(31)
        seq = [(b"middle", 1)]
        store, root = fresh(seq)
        levels, oracle = version_levels(SEED, 7), version_levels(SEED, 7)
        lvl_a = next(oracle)
        result = pinsert(store, SCHEME, root, 6, b"end", levels)
        assert store.get(result.new_root).digest == rebuild_digest(
            [(b"middle", 1), (b"end", lvl_a)])
        lvl_b = next(oracle)
        result2 = pinsert(store, SCHEME, result.new_root, 0, b"start",
                          levels)
        assert store.get(result2.new_root).digest == rebuild_digest(
            [(b"start", lvl_b), (b"middle", 1), (b"end", lvl_a)])

    def test_random_inserts_match_rebuild(self):
        rng = random.Random(32)
        for trial in range(120):
            n = rng.randint(0, 24)
            seq = [(rand_block(rng), rng.choice([0, 0, 0, 1, 1, 2, 3, 4]))
                   for _ in range(n)]
            store, root = fresh(seq)
            total = sum(len(b) for b, _ in seq)
            idx = rng.randint(0, total)
            data = rand_block(rng)
            version = rng.randrange(1000)
            level = next(version_levels(SEED, version))
            result = pinsert(store, SCHEME, root, idx, data,
                             version_levels(SEED, version))
            pos = 0
            acc = 0
            for i, (b, _) in enumerate(seq):
                if idx < acc + len(b):
                    pos = i
                    break
                acc += len(b)
            else:
                pos = len(seq)
            new_seq = seq[:pos] + [(data, level)] + seq[pos:]
            assert store.get(result.new_root).digest == rebuild_digest(new_seq), trial
            check_subtree(store, SCHEME, result.new_root)
            check_subtree(store, SCHEME, root)

    def test_mid_block_index_same_as_block_start(self):
        rng = random.Random(33)
        for trial in range(60):
            seq = [(rng.randbytes(rng.randint(2, 12)),
                    rng.choice([0, 0, 1, 2, 3]))
                   for _ in range(rng.randint(1, 24))]
            store, root = fresh(seq)
            pos = rng.randrange(len(seq))
            start = sum(len(b) for b, _ in seq[:pos])
            mid = start + rng.randrange(1, len(seq[pos][0]))
            level = rng.choice([0, 0, 1, 2, 4])
            at_start = pinsert(store, SCHEME, root, start, b"new",
                               iter([level]))
            at_mid = pinsert(store, SCHEME, root, mid, b"new", iter([level]))
            assert (store.get(at_mid.new_root).digest
                    == store.get(at_start.new_root).digest), trial
            assert at_mid.created_nodes == at_start.created_nodes, trial

    def test_bad_inputs(self):
        store, root = fresh([(b"abc", 0)])
        with pytest.raises(IndexOutOfRange):
            pinsert(store, SCHEME, root, 4, b"x", version_levels(SEED, 0))
        with pytest.raises(BlockTooSmall):
            pinsert(store, SCHEME, root, 0, b"", version_levels(SEED, 0))


class TestRemove:
    def test_only_block(self):
        store, root = fresh([(b"solo", 3)])
        result = premove(store, SCHEME, root, 0)
        assert store.get(result.new_root).rank == 0
        assert store.get(result.new_root).digest == rebuild_digest([])
        assert store.get(root).rank == 4

    def test_alignment_required(self):
        store, root = fresh([(b"abcd", 1), (b"efgh", 0)])
        with pytest.raises(NotBlockAligned):
            premove(store, SCHEME, root, 2)
        with pytest.raises(IndexOutOfRange):
            premove(store, SCHEME, root, 8)

    def test_insert_then_remove_restores_digest(self):
        rng = random.Random(41)
        for trial in range(120):
            n = rng.randint(0, 20)
            seq = [(rand_block(rng), rng.choice([0, 0, 1, 1, 2, 3]))
                   for _ in range(n)]
            store, root = fresh(seq)
            before = store.get(root).digest
            total = sum(len(b) for b, _ in seq)
            # normalize to the block start pinsert would use
            idx = rng.randint(0, total)
            acc = 0
            for b, _ in seq:
                if idx < acc + len(b):
                    idx = acc
                    break
                acc += len(b)
            data = rand_block(rng)
            result = pinsert(store, SCHEME, root, idx, data,
                             version_levels(SEED, rng.randrange(500)))
            result2 = premove(store, SCHEME, result.new_root, idx)
            assert store.get(result2.new_root).digest == before, trial

    def test_random_removes_match_rebuild(self):
        rng = random.Random(42)
        for trial in range(120):
            n = rng.randint(1, 24)
            seq = [(rand_block(rng), rng.choice([0, 0, 0, 1, 1, 2, 3, 5]))
                   for _ in range(n)]
            store, root = fresh(seq)
            pos = rng.randrange(n)
            idx = sum(len(b) for b, _ in seq[:pos])
            result = premove(store, SCHEME, root, idx)
            want = rebuild_digest(seq[:pos] + seq[pos + 1:])
            assert store.get(result.new_root).digest == want, trial
            check_subtree(store, SCHEME, result.new_root)
            check_subtree(store, SCHEME, root)


class TestMaterialize:
    def test_empty(self):
        store, root = fresh([])
        assert persist.materialize(store, root, lambda d: b"") == b""

    def test_concatenation(self):
        blocks = {SCHEME.block_digest(b): b for b in (b"B1", b"B2x", b"B3yz")}
        seq = [(b"B1", 1), (b"B2x", 0), (b"B3yz", 2)]
        store, root = fresh(seq)
        got = persist.materialize(store, root, blocks.__getitem__)
        assert got == b"B1B2xB3yz"

    def test_snapshots_across_commits(self):
        rng = random.Random(51)
        blocks = {}

        def put(b):
            blocks[SCHEME.block_digest(b)] = b
            return b

        seq = [(put(rand_block(rng)), rng.choice([0, 1, 2]))
               for _ in range(6)]
        store, root = fresh(seq)
        snaps = [(root, b"".join(b for b, _ in seq))]
        # The same stream twice: one for the inserts, one to read ahead.
        levels, oracle = version_levels(SEED, 0), version_levels(SEED, 0)
        for v in range(1, 50):
            total = sum(len(b) for b, _ in seq)
            choice = rng.choice(["ins", "mod", "rem"]) if seq else "ins"
            if choice == "ins":
                pos = rng.randint(0, len(seq))
                data = put(rand_block(rng))
                byte = sum(len(b) for b, _ in seq[:pos])
                level = next(oracle)
                result = pinsert(store, SCHEME, root, byte, data, levels)
                seq = seq[:pos] + [(data, level)] + seq[pos:]
            elif choice == "mod":
                pos = rng.randrange(len(seq))
                data = put(rand_block(rng))
                byte = sum(len(b) for b, _ in seq[:pos])
                result = pmodify(store, SCHEME, root, byte, data)
                seq = seq[:pos] + [(data, seq[pos][1])] + seq[pos + 1:]
            else:
                pos = rng.randrange(len(seq))
                byte = sum(len(b) for b, _ in seq[:pos])
                result = premove(store, SCHEME, root, byte)
                seq = seq[:pos] + seq[pos + 1:]
            root = result.new_root
            snaps.append((root, b"".join(b for b, _ in seq)))
        for i, (r, want) in enumerate(snaps):
            assert persist.materialize(store, r, blocks.__getitem__) == want, i

    def test_walk_stops_once_past_rank(self):
        """A DAG that reaches one leaf twice under a root claiming one
        leaf's bytes: the walk raises before it yields the second."""
        store = NodeStore()
        leaf = make_leaf(store, SCHEME, 4, SCHEME.block_digest(b"data"),
                         None)
        twice = store.add(Node(KIND_INTERNAL, 1, 4, leaf, leaf, 0, None,
                               SCHEME.zero))
        yielded = []
        with pytest.raises(StructureCorrupt, match="pass the root's rank"):
            for node in iter_data_leaves(store, twice):
                yielded.append(node)
        assert len(yielded) == 1
