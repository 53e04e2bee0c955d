import hashlib
import io
import random
import struct

import pytest

from flexstore.core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                            KIND_STUB, Node, NodeStore, block_layout, build,
                            build_with_levels, check_subtree, iter_leaves,
                            read_blocks, search, split_blocks)
from flexstore.errors import BlockTooSmall, IndexOutOfRange
from flexstore.hashing import HashScheme, LevelSource

SCHEME = HashScheme()
SEED = bytes.fromhex("00010203040506070809")


def mklist(lengths, levels, store=None):
    store = store or NodeStore()
    pairs = [(n, SCHEME.block_digest(bytes([i % 256, n])))
             for i, n in enumerate(lengths)]
    root = build_with_levels(store, SCHEME, pairs, levels)
    return store, root, pairs


@pytest.mark.parametrize("kind, name", [(KIND_INTERNAL, "int"),
                                        (KIND_LEAF, "leaf"),
                                        (KIND_SENTINEL, "sent"),
                                        (KIND_STUB, "stub")])
def test_node_repr_names_every_kind(kind, name):
    node = Node(kind, 2, 7, None, None, 0, None, SCHEME.zero)
    assert repr(node) == f"<{name} lvl=2 rank=7 len=0>"


class TestSplitBlocks:
    def test_remainder(self):
        assert [len(b) for b in split_blocks(b"abcde", 2)] == [2, 2, 1]

    def test_empty(self):
        assert split_blocks(b"", 4) == []

    def test_exact(self):
        assert [len(b) for b in split_blocks(bytes(4096), 2048)] == [2048, 2048]

    def test_concatenation(self):
        data = bytes(range(256)) * 3
        assert b"".join(split_blocks(data, 7)) == data

    def test_bad_size(self):
        with pytest.raises(BlockTooSmall):
            split_blocks(b"x", 0)
        with pytest.raises(BlockTooSmall):
            read_blocks(io.BytesIO(b"x"), 0)

    @pytest.mark.parametrize("size, block_size", [(0, 4), (4096, 2048),
                                                  (5000, 2048), (1, 7)])
    def test_read_blocks_as_split(self, size, block_size):
        data = random.Random(size).randbytes(size)
        assert (list(read_blocks(io.BytesIO(data), block_size))
                == split_blocks(data, block_size))


class TestLevelStream:
    def test_matches_bit_definition(self):
        # Independent oracle: count leading one-bits of the draw's digest.
        src = LevelSource(SEED)
        for counter in range(200):
            material = (b"level" + b"\x00" + SEED
                        + struct.pack(">Q", counter))
            digest = hashlib.sha256(material).digest()
            expect = 0
            for byte in digest:
                if byte == 0xFF:
                    expect += 8
                    continue
                for bit in range(7, -1, -1):
                    if byte >> bit & 1:
                        expect += 1
                    else:
                        break
                break
            level, src = src.draw()
            assert level == expect

    def test_known_draws(self):
        # Frozen positions in this seed's stream exhibiting the geometric
        # definition: no heads, and exactly two heads before tails.
        assert LevelSource(SEED, 4).draw()[0] == 0
        assert LevelSource(SEED, 1).draw()[0] == 2

    def test_counter_advances_once_per_draw(self):
        src = LevelSource(SEED)
        _, src = src.draw()
        assert src.counter == 1

    def test_geometric_distribution(self):
        src = LevelSource(SEED)
        draws = []
        for _ in range(100_000):
            level, src = src.draw()
            draws.append(level)
        for k in range(1, 6):
            frac = sum(1 for l in draws if l >= k) / len(draws)
            assert abs(frac - 2 ** -k) < 0.01


class TestNodeDigest:
    # Golden vectors frozen from the canonical encoding computed by hand
    # with struct + hashlib (see the layouts in hashing.py).

    def test_shipped_vector_file(self):
        import json
        from pathlib import Path
        vectors = json.loads(
            (Path(__file__).parent / "data" / "golden_vectors.json")
            .read_text())
        leaf = vectors["leaf"]
        got = SCHEME.leaf_node(
            leaf["level"], leaf["rank"], None, leaf["length"],
            SCHEME.block_digest(bytes.fromhex(leaf["block_content_hex"])))
        assert got.hex() == leaf["digest"]
        rec = vectors["version_record"]
        got = SCHEME.version_record(
            rec["version"],
            hashlib.sha1(rec["root_digest_preimage"].encode()).digest(),
            rec["update_start"], rec["update_length"])
        assert got.hex() == rec["digest"]
        exp = vectors["challenge_expansion"]
        from flexstore.hashing import challenge_indices
        assert challenge_indices(bytes.fromhex(exp["seed_hex"]),
                                 exp["count"], exp["start"],
                                 exp["length"]) == exp["indices"]

    def test_leaf_golden(self):
        digest = SCHEME.leaf_node(0, 5, None, 5,
                                  SCHEME.block_digest(b"hello"))
        assert digest.hex() == "58fa81ec7977bc03b5b5777bb6423d4f7af6116b"

    def test_internal_golden_and_position_dependence(self):
        below = hashlib.sha1(b"left").digest()
        after = hashlib.sha1(b"right").digest()
        digest = SCHEME.internal_node(3, 55, below, after)
        swapped = SCHEME.internal_node(3, 55, after, below)
        assert digest.hex() == "31449bf2d3a093dfe841b9ad7632cde7446f9697"
        assert swapped.hex() == "fcb1c4437d0454e83dda5253e833c67c65ee80f2"
        assert digest != swapped

    def test_sentinel_golden(self):
        digest = SCHEME.leaf_node(0, 0, None, 0, SCHEME.zero, sentinel=True)
        assert digest.hex() == "8ad9ee6f80b9cf935ad3bc8f10850f03a6b20526"

    def test_deterministic(self):
        a = SCHEME.leaf_node(0, 9, None, 9, SCHEME.block_digest(b"x" * 9))
        b = SCHEME.leaf_node(0, 9, None, 9, SCHEME.block_digest(b"x" * 9))
        assert a == b

    def test_every_field_matters(self):
        base = dict(level=2, rank=30, below=hashlib.sha1(b"b").digest(),
                    after=hashlib.sha1(b"a").digest())
        reference = SCHEME.internal_node(**base)
        for field, value in (("level", 3), ("rank", 31),
                             ("below", hashlib.sha1(b"B").digest()),
                             ("after", None)):
            changed = dict(base, **{field: value})
            assert SCHEME.internal_node(**changed) != reference


class TestSearch:
    def test_deducts_left_behind_rank(self):
        # At the node whose below-subtree holds 35 bytes, index 40 goes
        # after and continues with 40 - 35 = 5.
        store, root, pairs = mklist([35, 20, 35], [2, 1, 1])
        path = search(store, root, 40)
        assert path.offset == 35
        assert path.residual == 5
        assert store.get(path.leaf).block == pairs[1][1]

    def test_single_block(self):
        store, root, pairs = mklist([7], [1])
        path = search(store, root, 0)
        assert path.residual == 0
        assert store.get(path.leaf).block == pairs[0][1]
        assert len(path.entries) >= 1

    def test_out_of_range(self):
        store, root, _ = mklist([7], [0])
        with pytest.raises(IndexOutOfRange):
            search(store, root, 7)

    def test_empty_list_always_errors(self):
        store, root, _ = mklist([], [])
        with pytest.raises(IndexOutOfRange):
            search(store, root, 0)

    def test_agrees_with_linear_scan(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 64)
            lengths = [rng.randint(1, 9) for _ in range(n)]
            levels = [rng.choice([0, 0, 0, 1, 1, 2, 3]) for _ in range(n)]
            store, root, pairs = mklist(lengths, levels)
            total = sum(lengths)
            for _ in range(25):
                idx = rng.randrange(total)
                acc = 0
                for bi, length in enumerate(lengths):
                    if idx < acc + length:
                        break
                    acc += length
                path = search(store, root, idx)
                assert path.offset == acc
                assert path.residual == idx - acc
                assert store.get(path.leaf).block == pairs[bi][1]


class TestBuild:
    def test_empty(self):
        store, root, _ = mklist([], [])
        assert store.get(root).rank == 0
        check_subtree(store, SCHEME, root)

    def test_single_block_rank(self):
        store, root, _ = mklist([7], [2])
        assert store.get(root).rank == 7

    def test_total_rank_is_length_sum(self):
        rng = random.Random(5)
        lengths = [rng.randint(1, 50) for _ in range(40)]
        levels = [rng.choice([0, 1, 2, 3]) for _ in range(40)]
        store, root, _ = mklist(lengths, levels)
        assert store.get(root).rank == sum(lengths)

    def test_rank_law_and_digest_binding(self):
        rng = random.Random(6)
        lengths = [rng.randint(1, 9) for _ in range(50)]
        levels = [rng.choice([0, 0, 1, 2, 4]) for _ in range(50)]
        store, root, _ = mklist(lengths, levels)
        stats = check_subtree(store, SCHEME, root)
        assert stats["bytes"] == sum(lengths)
        assert stats["leaves"] == 52  # blocks plus two sentinels

    def test_matches_sequential_insertion(self):
        from flexstore import persist
        blocks = [bytes([i + 1]) * (i + 1) for i in range(10)]
        src = LevelSource(SEED)
        store, root_built = NodeStore(), None
        root_built, _ = build(store, SCHEME, blocks, LevelSource(SEED))
        store2 = NodeStore()
        root2 = build_with_levels(store2, SCHEME, [], [])
        src = LevelSource(SEED)
        offset = 0
        for b in blocks:
            result, src = persist.pinsert(store2, SCHEME, root2, offset, b,
                                          src)
            root2 = result.new_root
            offset += len(b)
        assert store.get(root_built).digest == store2.get(root2).digest

    def test_level_source_threading(self):
        blocks = [b"ab", b"cd"]
        store = NodeStore()
        _, src = build(store, SCHEME, blocks, LevelSource(SEED))
        assert src.counter == 2

    def test_layout_roundtrip(self):
        lengths = [3, 1, 4, 1, 5]
        store, root, _ = mklist(lengths, [0, 1, 0, 2, 0])
        assert block_layout(store, root) == lengths

    def test_leaf_iteration_order(self):
        store, root, pairs = mklist([2, 3, 4], [1, 0, 2])
        data_leaves = [store.get(i).block for i in iter_leaves(store, root)
                       if store.get(i).kind == 1]
        assert data_leaves == [d for _, d in pairs]

    def test_zero_length_block_rejected(self):
        with pytest.raises(BlockTooSmall):
            mklist([0], [1])
