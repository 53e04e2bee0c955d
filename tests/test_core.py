import hashlib
import io
import random
from collections import Counter
from itertools import islice
import struct

import pytest

from flexstore.core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                            KIND_STUB, Node, NodeStore, block_layout, build,
                            build_with_levels, check_subtree,
                            iter_data_leaves, leaves_from, make_leaf,
                            read_blocks, search)
from flexstore.errors import (BlockTooSmall, DomainError, IndexOutOfRange,
                              StructureCorrupt)
from flexstore.hashing import HashScheme, layer2_levels, version_levels

SCHEME = HashScheme()
SEED = bytes.fromhex("00010203040506070809")


def mklist(lengths, levels, store=None):
    store = store or NodeStore()
    pairs = [(n, SCHEME.block_digest(bytes([i % 256, n])))
             for i, n in enumerate(lengths)]
    root = build_with_levels(store, SCHEME, pairs, levels)
    return store, root, pairs


class _CountingStore:
    """A view of a store that counts each id's gets."""

    def __init__(self, store):
        self.store, self.gets = store, Counter()

    def get(self, node_id):
        self.gets[node_id] += 1
        return self.store.get(node_id)


@pytest.mark.parametrize("kind, name", [(KIND_INTERNAL, "int"),
                                        (KIND_LEAF, "leaf"),
                                        (KIND_SENTINEL, "sent"),
                                        (KIND_STUB, "stub")])
def test_node_repr_names_every_kind(kind, name):
    node = Node(kind, 2, 7, None, None, 0, None, SCHEME.zero)
    assert repr(node) == f"<{name} lvl=2 rank=7 len=0>"


def split(data, block_size):
    return list(read_blocks(io.BytesIO(data), block_size))


class TestSplitBlocks:
    def test_remainder(self):
        assert [len(b) for b in split(b"abcde", 2)] == [2, 2, 1]

    def test_empty(self):
        assert split(b"", 4) == []

    def test_exact(self):
        assert [len(b) for b in split(bytes(4096), 2048)] == [2048, 2048]

    def test_concatenation(self):
        data = bytes(range(256)) * 3
        assert b"".join(split(data, 7)) == data

    def test_bad_size(self):
        with pytest.raises(BlockTooSmall):
            read_blocks(io.BytesIO(b"x"), 0)

    @pytest.mark.parametrize("size, block_size", [(0, 4), (4096, 2048),
                                                  (5000, 2048), (1, 7)])
    def test_read_blocks_as_split(self, size, block_size):
        """The pieces are the slices of block_size from each multiple of
        it."""
        data = random.Random(size).randbytes(size)
        assert split(data, block_size) == [
            data[i:i + block_size] for i in range(0, size, block_size)]


def _oracle_level(domain, counter):
    """Independent oracle: the leading one-bits of the draw's digest,
    counted bit by bit."""
    material = (b"level" + bytes([domain]) + SEED
                + struct.pack(">Q", counter))
    level = 0
    for byte in hashlib.sha256(material).digest():
        if byte == 0xFF:
            level += 8
            continue
        for bit in range(7, -1, -1):
            if byte >> bit & 1:
                level += 1
            else:
                break
        break
    return level


class TestLevelStream:
    def test_matches_bit_definition(self):
        levels = version_levels(SEED, 0)
        for counter in range(200):
            assert next(levels) == _oracle_level(0, counter)

    # Draws frozen from the bit-by-bit count: counters 0-255 and 2^32 +
    # 0-63 of SEED, in each domain, one digit per level. In domain 0
    # these are versions 0's and 1's layer-1 streams; in domain 1, the
    # layer-2 towers of versions 0-255 and 2^32 to 2^32 + 63.
    FROZEN_DRAWS = {
        (version_levels, 0): (
            "12410350002003200220010102003000006101021110306131022233"
            "03016000110212203012210000210311220242111621121400402013"
            "00122100000110000301010004211050630203020525010732300001"
            "10101501011200104200000330210001033030210010200242000023"
            "03001000011110211125000000110120"),
        (version_levels, 1): (
            "20201033022003002002112010000100201122100002000120000001"
            "10000013"),
        (layer2_levels, 0): (
            "20020101103100113000010500100023200321101501002010001203"
            "03100413000060041000030010000000102001300031000202100100"
            "20226000100010000010310202711602000403001124140202510200"
            "04010000021130103101122080010011100020420214000000013400"
            "00601004000013110321110000041101"),
        (layer2_levels, 1 << 32): (
            "00020021000200050130210104000110003010000001101213000611"
            "20000010"),
    }

    def test_frozen_draws(self):
        for (stream, version), levels in self.FROZEN_DRAWS.items():
            got = islice(stream(SEED, version), len(levels))
            assert "".join(map(str, got)) == levels, (stream, version)

    def test_version_levels(self):
        """Version v's layer-1 stream is counters (v << 32) + k of domain
        0; the layer-2 tower of version v is counter v of domain 1."""
        for version in (0, 1, 7, 1000):
            assert list(islice(version_levels(SEED, version), 3)) == [
                _oracle_level(0, (version << 32) + k) for k in range(3)]
            assert list(islice(layer2_levels(SEED, version), 3)) == [
                _oracle_level(1, version + k) for k in range(3)]

    def test_known_draws(self):
        # Frozen positions in this seed's stream exhibiting the geometric
        # definition: no heads, and exactly two heads before tails.
        levels = list(islice(version_levels(SEED, 0), 5))
        assert levels[4] == 0
        assert levels[1] == 2

    def test_geometric_distribution(self):
        draws = list(islice(version_levels(SEED, 0), 100_000))
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
        assert leaf["level"] == 0
        got = SCHEME.leaf_digest(
            False, leaf["rank"], None, leaf["length"],
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
        assert list(challenge_indices(bytes.fromhex(exp["seed_hex"]),
                                      exp["count"], exp["start"],
                                      exp["length"])) == exp["indices"]

    def test_leaf_golden(self):
        digest = SCHEME.leaf_digest(False, 5, None, 5,
                                    SCHEME.block_digest(b"hello"))
        assert digest.hex() == "58fa81ec7977bc03b5b5777bb6423d4f7af6116b"

    def test_internal_golden_and_position_dependence(self):
        below = hashlib.sha1(b"left").digest()
        after = hashlib.sha1(b"right").digest()
        digest = SCHEME.internal_digest(3, 55, below, after)
        swapped = SCHEME.internal_digest(3, 55, after, below)
        assert digest.hex() == "31449bf2d3a093dfe841b9ad7632cde7446f9697"
        assert swapped.hex() == "fcb1c4437d0454e83dda5253e833c67c65ee80f2"
        assert digest != swapped

    def test_sentinel_golden(self):
        digest = SCHEME.leaf_digest(True, 0, None, 0, SCHEME.zero)
        assert digest.hex() == "8ad9ee6f80b9cf935ad3bc8f10850f03a6b20526"

    def test_deterministic(self):
        block = SCHEME.block_digest(b"x" * 9)
        a = SCHEME.leaf_digest(False, 9, None, 9, block)
        b = SCHEME.leaf_digest(False, 9, None, 9, block)
        assert a == b

    def test_every_field_matters(self):
        base = dict(level=2, rank=30, below=hashlib.sha1(b"b").digest(),
                    after=hashlib.sha1(b"a").digest())
        reference = SCHEME.internal_digest(**base)
        for field, value in (("level", 3), ("rank", 31),
                             ("below", hashlib.sha1(b"B").digest()),
                             ("after", None)):
            changed = dict(base, **{field: value})
            assert SCHEME.internal_digest(**changed) != reference


def _concatenated(scheme, tag, level, rank, after, tail):
    """A node's canonical bytes spelled out field by field, as the
    layouts in hashing.py give them."""
    flag = b"\x00" + scheme.zero if after is None else b"\x01" + after
    return scheme.digest(bytes([tag]) + struct.pack(">QQ", level, rank)
                         + tail[0] + flag + tail[1])


class TestPackedEncoder:
    @pytest.mark.parametrize("name", ["sha1", "sha256"])
    def test_matches_concatenated_fields(self, name):
        scheme = HashScheme(name)
        rng = random.Random(name)
        for _ in range(50):
            level, rank = rng.randrange(65), rng.randrange(1 << 64)
            below, block = rng.randbytes(scheme.width), rng.randbytes(
                scheme.width)
            after = rng.choice([None, rng.randbytes(scheme.width)])
            length = rng.randrange(1 << 64)
            assert scheme.internal_digest(level, rank, below, after) == (
                _concatenated(scheme, 0, level, rank, after, (below, b"")))
            for tag, sentinel in ((1, False), (2, True)):
                tail = (b"", struct.pack(">Q", length) + block)
                assert scheme.leaf_digest(
                    sentinel, rank, after, length, block) == (
                    _concatenated(scheme, tag, 0, rank, after, tail))
            root, start = rng.randbytes(scheme.width), rng.randrange(1 << 64)
            assert scheme.version_record(rank, root, start, length) == (
                scheme.digest(b"\x03" + struct.pack(">Q", rank) + root
                              + struct.pack(">QQ", start, length)))

    def test_wrong_width_digest_refused(self):
        for bad in (bytes(19), bytes(21)):
            with pytest.raises(DomainError):
                SCHEME.version_record(0, bad, 0, 1)


class TestCheckSubtreeLinks:
    """check_subtree checks nodes in ascending id order, so it must
    refuse, not trip over, a link that does not point back to a node
    that exists."""

    def _leaf(self, after):
        block = SCHEME.block_digest(b"x")
        return Node(KIND_LEAF, 0, 1, None, after, 1, block, SCHEME.zero)

    def _store(self, *nodes):
        store = NodeStore()
        make_leaf(store, SCHEME, 0, None, None, sentinel=True)   # id 0
        for node in nodes:
            store.add(node)
        return store

    @pytest.mark.parametrize("verified", [False, True])
    def test_link_to_a_later_id(self, verified):
        store = NodeStore()
        make_leaf(store, SCHEME, 0, None, None, sentinel=True)   # id 0
        store.add(self._leaf(2))                                 # id 1
        make_leaf(store, SCHEME, 1, SCHEME.block_digest(b"y"), 0)   # id 2
        checked = {}
        if verified:     # the later node itself is sound
            check_subtree(store, SCHEME, 2, checked)
        with pytest.raises(StructureCorrupt, match="node 1 links to a "
                           "later node"):
            check_subtree(store, SCHEME, 1, checked)

    def test_internal_link_to_a_later_id(self):
        store = self._store(
            Node(KIND_INTERNAL, 1, 1, 2, 0, 0, None, SCHEME.zero),  # id 1
            self._leaf(0))                                          # id 2
        with pytest.raises(StructureCorrupt, match="later node"):
            check_subtree(store, SCHEME, 1)

    @pytest.mark.parametrize("after", [2, 100])
    def test_link_to_a_missing_id(self, after):
        store = self._store(self._leaf(after))    # id 1; ids 0-1 exist
        with pytest.raises(StructureCorrupt, match="missing"):
            check_subtree(store, SCHEME, 1)

    def test_rank_past_64_bits(self):
        store = NodeStore()
        for _ in range(2):
            make_leaf(store, SCHEME, 1 << 63, SCHEME.block_digest(b"z"),
                      None)                                     # ids 0, 1
        store.add(Node(KIND_INTERNAL, 1, 0, 0, 1, 0, None, SCHEME.zero))
        with pytest.raises(StructureCorrupt, match="out of range"):
            check_subtree(store, SCHEME, 2)

    def test_cycle(self):
        store = self._store(self._leaf(2), self._leaf(1))   # ids 1 and 2
        for root in (1, 2):
            with pytest.raises(StructureCorrupt, match="later node"):
                check_subtree(store, SCHEME, root)


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
        verified = {}
        check_subtree(store, SCHEME, root, verified)
        leaves = [node for node in verified.values()
                  if node.kind != KIND_INTERNAL]
        assert sum(leaf.length for leaf in leaves) == sum(lengths)
        assert len(leaves) == 52  # blocks plus two sentinels

    def test_matches_sequential_insertion(self):
        from flexstore import persist
        blocks = [bytes([i + 1]) * (i + 1) for i in range(10)]
        store = NodeStore()
        root_built = build(store, SCHEME, blocks, version_levels(SEED, 0))
        store2 = NodeStore()
        root2 = build_with_levels(store2, SCHEME, [], [])
        levels = version_levels(SEED, 0)
        offset = 0
        for b in blocks:
            result = persist.pinsert(store2, SCHEME, root2, offset, b,
                                     levels)
            root2 = result.new_root
            offset += len(b)
        assert store.get(root_built).digest == store2.get(root2).digest

    def test_level_source_threading(self):
        """build takes one level per block from the stream it is given."""
        levels = version_levels(SEED, 0)
        build(NodeStore(), SCHEME, [b"ab", b"cd"], levels)
        assert next(levels) == _oracle_level(0, 2)

    def test_layout_roundtrip(self):
        lengths = [3, 1, 4, 1, 5]
        store, root, _ = mklist(lengths, [0, 1, 0, 2, 0])
        assert block_layout(store, root) == lengths

    def test_leaf_iteration_order(self):
        store, root, pairs = mklist([2, 3, 4], [1, 0, 2])
        data_leaves = [leaf.block for leaf in iter_data_leaves(store, root)]
        assert data_leaves == [d for _, d in pairs]

    def test_leaves_from_is_a_suffix_of_the_walk(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 48)
            lengths = [rng.randint(1, 9) for _ in range(n)]
            levels = [rng.choice([0, 0, 0, 1, 1, 2, 3]) for _ in range(n)]
            store, root, _ = mklist(lengths, levels)
            walk = list(iter_data_leaves(store, root))
            start = 0
            for i, length in enumerate(lengths):
                for byte in range(start, start + length):
                    offset, leaves = leaves_from(store, root, byte)
                    assert offset == start
                    assert list(leaves) == walk[i:]
                start += length

    def test_leaves_from_gets_each_node_once(self):
        """The descent and a walk of k leaves on from it get each node at
        most once, the root included; an index outside [0, rank) is
        refused."""
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randint(1, 48)
            lengths = [rng.randint(1, 9) for _ in range(n)]
            levels = [rng.choice([0, 0, 0, 1, 1, 2, 3]) for _ in range(n)]
            store, root, _ = mklist(lengths, levels)
            counting = _CountingStore(store)
            _offset, leaves = leaves_from(counting, root,
                                          rng.randrange(sum(lengths)))
            for _leaf in islice(leaves, rng.randint(0, n)):
                pass
            assert counting.gets[root] == 1
            assert max(counting.gets.values()) == 1
            for byte in (-1, sum(lengths)):
                with pytest.raises(IndexOutOfRange):
                    leaves_from(store, root, byte)

    def test_zero_length_block_rejected(self):
        with pytest.raises(BlockTooSmall):
            mklist([0], [1])
