import io
import random
from bisect import bisect_right
from itertools import islice

import pytest

from flexstore import adaptor, audit, core, persist
from flexstore.adaptor import (BlockOp, DiffEntry, apply_ops_partial,
                               diff_to_ops, parse_diff, partial_from_proof,
                               translate_diffs)
from flexstore.core import (NodeStore, block_layout, build,
                            build_with_levels, leaves_from, read_blocks)
from flexstore.errors import (DiffOutOfRange, FormatError, OverlappingDiffs,
                              PathNotCovered, ProofRejected)
from flexstore.hashing import HashScheme, version_levels
from flexstore.index2 import VersionIndex, VersionRecord
from helpers import format_diff

SCHEME = HashScheme()
SEED = bytes.fromhex("0b0c0d0e0f1011121314")


def apply_diffs(data: bytes, entries) -> bytes:
    """Byte-level reference semantics for diff application."""
    out = []
    pos = 0
    for e in entries:
        out.append(data[pos:e.at])
        out.append(e.data)
        pos = e.at + e.span
    out.append(data[pos:])
    return b"".join(out)


def _apply_ops_blocks(data, ops, block_size=8):
    blocks = list(read_blocks(io.BytesIO(data), block_size))
    for op in ops:
        starts = [0]
        for b in blocks:
            starts.append(starts[-1] + len(b))
        if op.kind == "insert":
            # find block boundary position
            pos = starts.index(op.index) if op.index in starts else None
            assert pos is not None, "insert not at a boundary"
            blocks.insert(pos, op.data)
        elif op.kind == "modify":
            pos = starts.index(op.index)
            blocks[pos] = op.data
        else:
            pos = starts.index(op.index)
            del blocks[pos]
    return b"".join(blocks)


class TestDiffFile:
    def test_roundtrip(self):
        entries = [DiffEntry("insert", 3, b"new\nbytes"),
                   DiffEntry("delete", 20, delete_len=5),
                   DiffEntry("replace", 30, b"xy", 4)]
        assert parse_diff(format_diff(entries)) == entries
        rng = random.Random(54)
        for _ in range(200):
            entries = [rng.choice([
                DiffEntry("insert", rng.randrange(1 << 40),
                          rng.randbytes(rng.randint(0, 12))),
                DiffEntry("delete", rng.randrange(1 << 40),
                          delete_len=rng.randrange(1 << 20)),
                DiffEntry("replace", rng.randrange(1 << 40),
                          rng.randbytes(rng.randint(0, 12)),
                          rng.randrange(1 << 20))])
                for _ in range(rng.randint(0, 6))]
            assert parse_diff(format_diff(entries)) == entries

    def test_payload_may_contain_newlines(self):
        entries = [DiffEntry("insert", 0, b"\n\n\n")]
        assert parse_diff(format_diff(entries)) == entries

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_diff(b"I 3\n")
        with pytest.raises(FormatError):
            parse_diff(b"X 1 2\n")
        with pytest.raises(FormatError):
            parse_diff(b"I 0 4\nab\n")  # payload shorter than declared
        with pytest.raises(FormatError):
            parse_diff(b"R 10 -5 3\nabc\n")  # negative delete length
        with pytest.raises(FormatError):
            parse_diff(b"D 10 -5\n")
        # A header is its tag and its numbers, one space before each,
        # each number ASCII digits; bytes.split() and int() would take
        # the first ten.
        for header in (b"I 1_0 3", b"I +5 3", b"I 5 +3", b"I\t5 3",
                       b"I 5\t3", b"I 5  3", b"I  5 3", b" I 5 3", b"I 5 3 ",
                       b"I 5 3\r", b"I 5 \xd9\xa1", b"i 5 3", b"",
                       b"I " + b"1" * 5000 + b" 3"):
            with pytest.raises(FormatError, match="bad diff header"):
                parse_diff(header + b"\nabc\n")


class TestDiffToOps:
    BS = 8

    def ops_for(self, data, entries):
        layout = [len(b) for b in read_blocks(io.BytesIO(data), self.BS)]
        return diff_to_ops(entries, layout, self.BS,
                           lambda s, n: data[s:s + n])

    def test_empty_diff(self):
        assert self.ops_for(b"x" * 20, []) == []

    def test_one_byte_replace_is_single_modify(self):
        data = bytes(range(32))
        ops = self.ops_for(data, [DiffEntry("replace", 11, b"\xff", 1)])
        assert len(ops) == 1
        assert ops[0].kind == "modify" and ops[0].index == 8
        assert _apply_ops_blocks(data, ops, self.BS) == apply_diffs(
            data, [DiffEntry("replace", 11, b"\xff", 1)])

    def test_small_insert_modifies_containing_block(self):
        # An in-block insertion whose result fits within twice the block
        # size stays a modify; rewriting the block and inserting a new
        # one are both sound translations, this implementation picks the
        # modify form below the threshold.
        data = b"the lady was here..."
        entries = [DiffEntry("insert", 9, b"in red ")]
        ops = self.ops_for(data, entries)
        assert ops[0].kind == "modify"
        assert _apply_ops_blocks(data, ops, self.BS) == apply_diffs(data,
                                                                    entries)

    def test_large_insert_splits(self):
        data = bytes(range(32))
        payload = bytes(range(64, 64 + 40))
        entries = [DiffEntry("insert", 4, payload)]
        ops = self.ops_for(data, entries)
        kinds = [op.kind for op in ops]
        assert kinds[0] == "modify"
        assert "insert" in kinds
        assert _apply_ops_blocks(data, ops, self.BS) == apply_diffs(data,
                                                                    entries)

    def test_whole_block_delete_is_remove(self):
        data = bytes(range(32))
        entries = [DiffEntry("delete", 8, delete_len=16)]
        ops = self.ops_for(data, entries)
        assert [op.kind for op in ops] == ["remove", "remove"]
        assert _apply_ops_blocks(data, ops, self.BS) == apply_diffs(data,
                                                                    entries)

    def test_append_at_end(self):
        data = bytes(range(20))
        entries = [DiffEntry("insert", 20, b"tail")]
        ops = self.ops_for(data, entries)
        assert _apply_ops_blocks(data, ops, self.BS) == data + b"tail"

    def test_zero_length_replace_at_end_appends(self):
        data = bytes(range(20))
        entries = [DiffEntry("replace", 20, b"tail", 0)]
        ops = self.ops_for(data, entries)
        assert [op.kind for op in ops] == ["modify"]
        assert _apply_ops_blocks(data, ops, self.BS) == data + b"tail"

    def test_into_empty_file(self):
        ops = self.ops_for(b"", [DiffEntry("insert", 0, bytes(30))])
        assert all(op.kind == "insert" for op in ops)
        assert _apply_ops_blocks(b"", ops, self.BS) == bytes(30)

    def test_out_of_range(self):
        with pytest.raises(DiffOutOfRange):
            self.ops_for(b"abc", [DiffEntry("delete", 1, delete_len=5)])

    def test_overlap(self):
        with pytest.raises(OverlappingDiffs):
            self.ops_for(bytes(32), [DiffEntry("delete", 4, delete_len=8),
                                     DiffEntry("replace", 6, b"x", 1)])

    def test_random_diffs_match_byte_oracle(self):
        rng = random.Random(61)
        for trial in range(250):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randint(0, 200)))
            entries = random_entries(rng, len(data))
            ops = self.ops_for(data, entries)
            want = apply_diffs(data, entries)
            got = _apply_ops_blocks(data, ops, self.BS)
            assert got == want, trial


    def test_tree_locate_matches_layout_list(self):
        # The server's entry point (one search per group, then the leaf
        # walk, reading only the touched blocks) against the client's (a
        # list of block lengths), and both against the list-indexed
        # reference translation.
        rng = random.Random(61)
        for trial in range(250):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randint(0, 200)))
            entries = random_entries(rng, len(data))
            pieces = list(read_blocks(io.BytesIO(data), self.BS))
            blocks = {SCHEME.block_digest(p): p for p in pieces}
            store = NodeStore()
            root = build(store, SCHEME, pieces, version_levels(SEED, trial))

            def blocks_from(byte):
                start, leaves = leaves_from(store, root, byte)
                return start, persist.leaf_blocks(leaves, blocks.__getitem__)
            located = translate_diffs(entries, len(data), blocks_from,
                                      self.BS)
            listed = self.ops_for(data, entries)
            assert located == listed, trial
            assert listed == reference_diff_to_ops(
                entries, [len(p) for p in pieces], self.BS,
                lambda s, n: data[s:s + n]), trial


def reference_diff_to_ops(diffs, layout, block_size, read_range):
    """The translation indexed by block number over the full layout list,
    kept as the reference the locate-based one must match."""
    from bisect import bisect_right
    total = sum(layout)
    diffs = [e for e in diffs if e.span > 0 or e.data]
    if not diffs:
        return []
    starts = [0]
    for length in layout:
        starts.append(starts[-1] + length)
    groups = []
    for e in diffs:
        if total == 0:
            a = b = -1
        elif e.kind == "insert" and e.at == total:
            a = b = len(layout) - 1
        elif e.span == 0:
            a = b = bisect_right(starts, e.at) - 1
        else:
            a = bisect_right(starts, e.at) - 1
            b = bisect_right(starts, e.at + e.span - 1) - 1
        if groups and a <= groups[-1][1]:
            groups[-1][1] = max(groups[-1][1], b)
            groups[-1][2].append(e)
        else:
            groups.append([a, b, [e]])
    ops = []
    delta = 0
    for a, b, entries in groups:
        if a < 0:
            region_start = region_end = 0
        else:
            region_start, region_end = starts[a], starts[b] + layout[b]
        parts = []
        pos = region_start
        for e in entries:
            parts += [read_range(pos, e.at - pos), e.data]
            pos = e.at + e.span
        parts.append(read_range(pos, region_end - pos))
        region = b"".join(parts)
        chunks = ([region] if len(region) <= 2 * block_size else
                  [region[i:i + block_size]
                   for i in range(0, len(region), block_size)])
        base = region_start + delta
        if a < 0:
            for chunk in chunks:
                ops.append(BlockOp("insert", base, chunk))
                base += len(chunk)
        elif not region:
            ops += [BlockOp("remove", base)] * (b - a + 1)
        else:
            ops.append(BlockOp("modify", base, chunks[0]))
            at = base + len(chunks[0])
            ops += [BlockOp("remove", at)] * (b - a)
            for chunk in chunks[1:]:
                ops.append(BlockOp("insert", at, chunk))
                at += len(chunk)
        delta += len(region) - (region_end - region_start)
    return ops


def random_entries(rng, total, max_entries=6):
    entries = []
    pos = 0
    for _ in range(rng.randint(0, max_entries)):
        if pos > total:
            break
        at = rng.randint(pos, total)
        kind = rng.choice(["insert", "delete", "replace"])
        if kind == "insert":
            payload = bytes(rng.randrange(256)
                            for _ in range(rng.randint(1, 30)))
            entries.append(DiffEntry("insert", at, payload))
            pos = at
        else:
            span = rng.randint(1, max(1, total - at))
            if at + span > total:
                continue
            payload = (b"" if kind == "delete" else
                       bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 30))))
            entries.append(DiffEntry(kind, at, payload, span))
            pos = at + span
    return entries


class ServerFixture:
    """Full store plus version index, standing in for the server side."""

    BS = 8

    def __init__(self, data, rng_seed=5):
        self.store = NodeStore()
        self.blocks = {}
        pieces = list(read_blocks(io.BytesIO(data), self.BS))
        for p in pieces:
            self.blocks[SCHEME.block_digest(p)] = p
        root = build(self.store, SCHEME, pieces, version_levels(SEED, 0))
        self.vindex = VersionIndex(self.store, SCHEME, SEED)
        self.vindex.append_version(VersionRecord(
            0, root, self.store.get(root).digest, 0,
            self.store.get(root).rank))
        self.data = data

    @property
    def latest(self):
        return self.vindex.record(self.vindex.count - 1)

    def levels(self):
        """The next commit's level stream, made afresh for each side that
        applies it, as a real client and server each derive it."""
        return version_levels(SEED, self.vindex.count)

    def range_proof(self, start, length):
        return audit.prove_range(self.store, self.vindex, self.blocks.get,
                                 self.latest.version, start, length)

    def commit_ops(self, ops):
        """The server side of a batch, applied as chained one-op edits
        (pmodify, pinsert, premove): the reference that the one-engine
        batches of apply_ops and apply_ops_partial are compared with."""
        rec = self.latest
        root = rec.root
        levels = self.levels()
        for op in ops:
            if op.kind == "modify":
                self.blocks[SCHEME.block_digest(op.data)] = op.data
                result = persist.pmodify(self.store, SCHEME, root, op.index,
                                         op.data)
            elif op.kind == "insert":
                self.blocks[SCHEME.block_digest(op.data)] = op.data
                result = persist.pinsert(self.store, SCHEME, root,
                                         op.index, op.data, levels)
            else:
                result = persist.premove(self.store, SCHEME, root, op.index)
            root = result.new_root
        new_digest = self.store.get(root).digest
        self.vindex.append_version(VersionRecord(
            rec.version + 1, root, new_digest, 0,
            max(self.store.get(root).rank, 1)))
        return new_digest


class TestPartial:
    def test_single_block_file_is_full_list(self):
        fx = ServerFixture(b"12345678")
        proof = fx.range_proof(0, 8)
        partial = partial_from_proof(SCHEME, proof, fx.vindex.meta_digest)
        assert partial.root_digest == fx.latest.root_digest
        # every node of the one-block structure is present, no stubs
        from flexstore.core import KIND_STUB
        kinds = [partial.store.get(i).kind for i in partial.store.ids()]
        assert KIND_STUB not in kinds

    def test_partial_folds_to_root(self):
        data = bytes(range(256)) * 2
        fx = ServerFixture(data)
        proof = fx.range_proof(64, 8)
        partial = partial_from_proof(SCHEME, proof, fx.vindex.meta_digest)
        assert partial.root_digest == fx.latest.root_digest

    def test_rejects_bad_proof(self):
        fx = ServerFixture(bytes(64))
        proof = fx.range_proof(0, 8)
        with pytest.raises(ProofRejected):
            partial_from_proof(SCHEME, proof, b"\x00" * 20)

    def test_rebuilds_only_one_version_part(self):
        fx = ServerFixture(bytes(range(64)))
        fx.commit_ops([BlockOp("modify", 8, b"REWRITE!")])
        proof = audit.prove(fx.store, fx.vindex, fx.blocks.get,
                            audit.Challenge(bytes(10), 2, (0, 1)))
        meta = fx.vindex.meta_digest
        with pytest.raises(ProofRejected):
            partial_from_proof(SCHEME, proof, meta)
        latest = audit.prove(fx.store, fx.vindex, fx.blocks.get,
                             audit.Challenge(bytes(10), 2, (1,)))
        partial = partial_from_proof(SCHEME, latest, meta)
        assert partial.root_digest == fx.vindex.record(1).root_digest

    def test_modify_on_proven_path_matches_server(self):
        data = bytes(range(128))
        fx = ServerFixture(data)
        proof = fx.range_proof(16, 8)
        partial = partial_from_proof(SCHEME, proof, fx.vindex.meta_digest)
        ops = [BlockOp("modify", 16, b"REWRITE!")]
        client_digest, _ = apply_ops_partial(partial, ops, fx.levels())
        server_digest = fx.commit_ops(ops)
        assert client_digest == server_digest

    def test_empty_ops_keep_digest(self):
        fx = ServerFixture(bytes(64))
        proof = fx.range_proof(0, 8)
        partial = partial_from_proof(SCHEME, proof, fx.vindex.meta_digest)
        digest, _ = apply_ops_partial(partial, [], fx.levels())
        assert digest == fx.latest.root_digest

    def test_unproven_path_refused(self):
        data = bytes(range(128))
        fx = ServerFixture(data)
        proof = fx.range_proof(0, 8)
        partial = partial_from_proof(SCHEME, proof, fx.vindex.meta_digest)
        with pytest.raises(PathNotCovered):
            apply_ops_partial(partial, [BlockOp("modify", 96, b"X" * 8)],
                              fx.levels())

    def test_random_batches_agree_with_server(self):
        rng = random.Random(71)
        agreements = 0
        for trial in range(60):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randint(8, 300)))
            fx = ServerFixture(data, rng_seed=trial)
            entries = random_entries(rng, len(data), max_entries=3)
            layout = block_layout(fx.store, fx.latest.root)
            ops = diff_to_ops(entries, layout, fx.BS,
                              lambda s, n: data[s:s + n])
            if not ops:
                continue
            start, length = adaptor.required_range(entries, layout)
            proof = fx.range_proof(start, max(length, 1))
            partial = partial_from_proof(SCHEME, proof,
                                         fx.vindex.meta_digest)
            client_digest, _ = apply_ops_partial(partial, ops, fx.levels())
            server_digest = fx.commit_ops(ops)
            assert client_digest == server_digest, trial
            agreements += 1
        assert agreements >= 40


class TestLoneModify:
    """A lone modify is a one-op run through the fold. At every byte of
    small lists, on a full store and on a partial list proven on exactly
    the modified block, it must rebuild the edited list and make one node
    per move of the descent plus the new leaf."""

    @staticmethod
    def lists():
        rng = random.Random(23)
        for n in range(1, 9):
            patterns = [[0] * n, [6] + [0] * (n - 1)]
            patterns += [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
                         for _ in range(3)]
            for levels in patterns:
                yield [bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 4)))
                       for _ in range(n)], levels

    @staticmethod
    def build(blocks, levels):
        store = NodeStore()
        root = build_with_levels(
            store, SCHEME, [(len(b), SCHEME.block_digest(b)) for b in blocks],
            levels)
        return store, root

    def test_every_byte_full_and_partial(self):
        rng = random.Random(24)
        for blocks, levels in self.lists():
            store, root = self.build(blocks, levels)
            vindex = VersionIndex(store, SCHEME, SEED)
            vindex.append_version(VersionRecord(
                0, root, store.get(root).digest, 0, store.get(root).rank))
            by_digest = {SCHEME.block_digest(b): b for b in blocks}
            start = 0
            for pos, block in enumerate(blocks):
                proof = audit.prove_range(store, vindex, by_digest.get, 0,
                                          start, len(block))
                for index in range(start, start + len(block)):
                    data = bytes(rng.randrange(256)
                                 for _ in range(rng.randint(1, 5)))
                    edited = blocks[:pos] + [data] + blocks[pos + 1:]
                    want_store, want = self.build(edited, levels)
                    want = want_store.get(want).digest
                    partial = partial_from_proof(SCHEME, proof,
                                                 vindex.meta_digest)
                    for on, at in ((store, root),
                                   (partial.store, partial.root)):
                        moves = len(core.search(on, at, index).entries)
                        result = adaptor.apply_ops(
                            on, SCHEME, at, [BlockOp("modify", index, data)],
                            iter(()))
                        case = (blocks, levels, index, on is store)
                        assert on.get(result.new_root).digest == want, case
                        assert result.created_nodes == moves + 1, case
                start += len(block)


def _random_batch(rng, entries, levels):
    """1 to 40 random block ops over `entries`, a list of [block, level,
    index in the original list or None], which it edits to match, each
    insert taking the next of `levels`. About half the ops after the
    first sit where the op before them ends, as apply_ops counts it (its
    index plus its new bytes), so they join its run. Returns the ops and
    the original indices of the blocks the ops touched and of the block
    left of each (the padding adaptor.required_range adds): what a range
    proof must cover."""
    ops, touched = [], set()
    end = None
    for _ in range(rng.randint(1, 40)):
        starts = [0]
        for block, _level, _orig in entries:
            starts.append(starts[-1] + len(block))
        kind = rng.choice(["modify", "insert", "remove"]) if entries \
            else "insert"
        if (end is not None and end < starts[-1] + (kind == "insert")
                and rng.random() < 0.5):
            index = end
            pos = bisect_right(starts, index) - 1
            if kind == "remove" and starts[pos] != index:
                kind = "modify"
        else:
            pos = rng.randint(0, len(entries) - (kind != "insert"))
            index = starts[pos]
            if kind != "remove" and pos < len(entries):
                index += rng.randrange(len(entries[pos][0]))  # inside it
        touched.update(entries[p][2] for p in (pos - 1, pos)
                       if 0 <= p < len(entries))
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        if kind == "modify":
            entries[pos][0] = data
        elif kind == "insert":
            entries.insert(pos, [data, next(levels), None])
        else:
            del entries[pos]
            data = None
        ops.append(BlockOp(kind, index, data))
        end = index + len(data or b"")
    touched.discard(None)
    return ops, touched


def _build_entries(store, entries):
    return build_with_levels(
        store, SCHEME,
        [(len(b), SCHEME.block_digest(b)) for b, _l, _o in entries],
        [level for _b, level, _o in entries])


class TestBatch:
    """apply_ops runs a whole batch through one edit engine and finalizes
    once; the chained one-op wrappers, a rebuild and the same batch on a
    range-proof partial list are its references."""

    def test_batches_match_chained_ops_rebuild_and_partial(self,
                                                           monkeypatch):
        made = []
        for name in ("make_leaf", "make_internal"):
            def counted(*args, real=getattr(core, name), **kwargs):
                made.append(None)
                return real(*args, **kwargs)
            monkeypatch.setattr(core, name, counted)
        real_finish = persist.EditEngine.finish

        def finish(eng):
            drafts, todo = [], [eng.root]
            while todo:
                ref = todo.pop()
                if isinstance(ref, core.Node):
                    drafts.append(ref)
                    todo += [ref.below, ref.after]
            first = eng.store.next_id
            result = real_finish(eng)
            # finish numbers the drafts children first, in reverse of
            # this preorder.
            assert [d.rank for d in reversed(drafts)] == [
                eng.store.get(i).rank for i in range(first,
                                                     eng.store.next_id)]
            assert len(drafts) == result.created_nodes
            return result
        monkeypatch.setattr(persist.EditEngine, "finish", finish)

        rng = random.Random(4242)
        for trial in range(500):
            version = rng.randrange(1 << 20)
            initial = version_levels(SEED, version)
            entries = []
            for orig in range(rng.randint(0, 30)):
                entries.append([bytes(rng.randrange(256) for _ in
                                      range(rng.randint(1, 12))),
                                next(initial), orig])
            store, blocks = NodeStore(), {}
            for block, _level, _orig in entries:
                blocks[SCHEME.block_digest(block)] = block
            root = _build_entries(store, entries)
            vindex = VersionIndex(store, SCHEME, SEED)
            vindex.append_version(VersionRecord(
                0, root, store.get(root).digest, 0, store.get(root).rank))
            starts = [0]
            for block, _level, _orig in entries:
                starts.append(starts[-1] + len(block))
            # The batch's level stream, made afresh for each use.
            oracle = version_levels(SEED, version + 1)
            ops, touched = _random_batch(rng, entries, oracle)

            del made[:]
            levels = version_levels(SEED, version + 1)
            result = adaptor.apply_ops(store, SCHEME, root, ops, levels)
            assert len(made) == result.created_nodes, trial
            # One draw per insert: both streams stand at the same place.
            assert list(islice(levels, 16)) == list(islice(oracle, 16))
            digest = store.get(result.new_root).digest

            chained = root
            levels = version_levels(SEED, version + 1)
            for op in ops:
                if op.kind == "modify":
                    step = persist.pmodify(store, SCHEME, chained, op.index,
                                           op.data)
                elif op.kind == "insert":
                    step = persist.pinsert(store, SCHEME, chained, op.index,
                                           op.data, levels)
                else:
                    step = persist.premove(store, SCHEME, chained, op.index)
                chained = step.new_root
            assert store.get(chained).digest == digest, trial

            rebuilt = NodeStore()
            assert rebuilt.get(_build_entries(rebuilt, entries)).digest \
                == digest, trial

            lo, hi = (min(touched), max(touched) + 1) if touched else (0, 0)
            proof = audit.prove_range(store, vindex, blocks.get, 0,
                                      starts[lo], max(starts[hi] - starts[lo],
                                                      1))
            partial = partial_from_proof(SCHEME, proof, vindex.meta_digest)
            client_digest, _ = apply_ops_partial(
                partial, ops, version_levels(SEED, version + 1))
            assert client_digest == digest, trial

    def test_one_descent_per_group(self, monkeypatch):
        """Each group translate_diffs emits is one run, spliced after one
        root descent: a delete over k blocks (with and without a partial
        block left), a long insert and a lone modify."""
        data = bytes(range(256)) * 4
        store = NodeStore()
        root = build(store, SCHEME, read_blocks(io.BytesIO(data), 8),
                     version_levels(SEED, 0))
        layout = block_layout(store, root)
        descents = []

        def descend(get, root, index, real=core.descend):
            descents.append(index)
            return real(get, root, index)
        for entries, kinds in (
                ([DiffEntry("delete", 20, delete_len=48)],
                 ["modify"] + ["remove"] * 6),
                ([DiffEntry("delete", 16, delete_len=40)], ["remove"] * 5),
                ([DiffEntry("insert", 100, b"z" * 30)],
                 ["modify"] + ["insert"] * 4),
                ([DiffEntry("replace", 300, b"xy", 2)], ["modify"])):
            ops = diff_to_ops(entries, layout, 8,
                              lambda s, n: data[s:s + n])
            assert [op.kind for op in ops] == kinds
            monkeypatch.setattr(core, "descend", descend)
            del descents[:]
            result = adaptor.apply_ops(store, SCHEME, root, ops,
                                       version_levels(SEED, 1))
            monkeypatch.undo()
            assert len(descents) == 1, kinds
            chained, levels = root, version_levels(SEED, 1)
            for op in ops:
                if op.kind == "modify":
                    step = persist.pmodify(store, SCHEME, chained, op.index,
                                           op.data)
                elif op.kind == "insert":
                    step = persist.pinsert(store, SCHEME, chained, op.index,
                                           op.data, levels)
                else:
                    step = persist.premove(store, SCHEME, chained, op.index)
                chained = step.new_root
            assert (store.get(result.new_root).digest
                    == store.get(chained).digest), kinds
