import builtins
import io
import json
import os
import random
import resource
import struct
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from flexstore import adaptor, cli, core, hashing, persist
from flexstore.adaptor import DiffEntry, format_diff
from flexstore.errors import (BlockTooSmall, DomainError, EmptyCommit,
                              NoSuchVersion, PathExists, RepositoryLocked,
                              StructureCorrupt)
from flexstore.repo import STORE_FORMAT, Repository

SEED_HEX = "00112233445566778899"


def pack_records(repo):
    """The block index as (digest, offset, length) records, read from the
    file."""
    raw = (repo.path / "blocks" / "index").read_bytes()
    return list(struct.iter_unpack(f">{repo.scheme.width}sQI", raw))


def pack_place(repo, digest):
    """(offset, length) of a block in the pack."""
    return next((offset, length) for d, offset, length in pack_records(repo)
                if d == digest)


def apply_diffs(data, entries):
    out, pos = [], 0
    for e in entries:
        out.append(data[pos:e.at])
        out.append(e.data)
        pos = e.at + e.span
    out.append(data[pos:])
    return b"".join(out)


@pytest.fixture
def repo(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(0).randbytes(4096))
    r = Repository.init(tmp_path / "repo", block_size=256,
                        seed=bytes.fromhex(SEED_HEX), input_file=src)
    yield r
    r.close()


class TestInit:
    def test_empty_init(self, tmp_path):
        r = Repository.init(tmp_path / "r", seed=bytes.fromhex(SEED_HEX))
        try:
            assert r.materialize(0) == b""
            assert r.latest.version == 0
        finally:
            r.close()

    def test_init_with_file(self, repo):
        assert repo.store.get(repo.latest.root).rank == 4096
        assert len(repo.materialize(0)) == 4096

    def test_init_twice_refused(self, repo, tmp_path):
        with pytest.raises(PathExists):
            Repository.init(repo.path)

    def test_refused_init_writes_nothing(self, tmp_path, capsys):
        """Bad arguments are refused before anything is written, so a
        valid init into the same path then succeeds."""
        path = tmp_path / "r"
        missing = tmp_path / "no-such-input.bin"
        assert cli.main(["--repo", str(path), "init", "--block-size",
                         "0"]) == cli.EXIT_USAGE
        assert cli.main(["--repo", str(path), "init", "--seed", "00"]
                        ) == cli.EXIT_USAGE
        assert cli.main(["--repo", str(path), "init", "--file",
                         str(missing)]) == cli.EXIT_IO
        with pytest.raises(DomainError):
            Repository.init(path, hash_name="md5")
        with pytest.raises(BlockTooSmall):
            Repository.init(path, block_size=-3)
        assert not path.exists() or not any(path.iterdir())
        assert cli.main(["--repo", str(path), "init", "--seed",
                         SEED_HEX]) == cli.EXIT_OK
        capsys.readouterr()

    def test_read_only_command_recreates_no_node_log(self, repo, capsys):
        repo.close()
        nodes = repo.path / "nodes"
        for segment in nodes.iterdir():
            segment.unlink()
        nodes.rmdir()
        with pytest.raises(StructureCorrupt, match="nodes"):
            Repository.open(repo.path)
        capsys.readouterr()
        assert cli.main(["--repo", str(repo.path), "log"]) == cli.EXIT_REJECT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nodes" in err
        assert not nodes.exists()

    def test_reopen_round_trip(self, repo):
        repo.close()
        again = Repository.open(repo.path)
        try:
            assert again.meta_digest == repo.meta_digest
            assert again.materialize(0) == random.Random(0).randbytes(4096)
        finally:
            again.close()

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5])
    def test_other_store_format_refused(self, repo, capsys, fmt):
        repo.close()
        config_path = repo.path / "config.json"
        config = json.loads(config_path.read_text())
        assert config["format"] == STORE_FORMAT
        if fmt is None:
            del config["format"]
        else:
            config["format"] = fmt
        config_path.write_text(json.dumps(config))
        _assert_refused(repo.path, capsys)

    def test_commits_continue_across_reopens(self, repo):
        # The level stream position persists, so edits made by a fresh
        # process extend the same canonical structure.
        repo.commit(format_diff([DiffEntry("insert", 64, b"a" * 100)]))
        repo.close()
        again = Repository.open(repo.path)
        try:
            again.commit(format_diff([DiffEntry("delete", 0,
                                                 delete_len=300)]))
            assert again.fsck() == []
            ch = again.make_challenge(bytes(10), 6, (1, 2))
            ok, reason = again.verify(ch, again.prove(ch))
            assert ok, reason
        finally:
            again.close()


class TestCommit:
    def test_empty_diff_rejected(self, repo):
        with pytest.raises(EmptyCommit):
            repo.commit(b"")

    def test_one_byte_replace(self, repo):
        before_blocks = len(repo.blocks.all_digests())
        diff = format_diff([DiffEntry("replace", 100, b"\xff", 1)])
        summary = repo.commit(diff)
        assert summary["version"] == 1
        assert summary["ops"] == 1
        assert len(repo.blocks.all_digests()) <= before_blocks + 1
        data = repo.materialize(1)
        assert data[100] == 0xFF and len(data) == 4096

    def test_dedup_zero_growth(self, repo):
        # Re-committing content identical to existing blocks adds nothing
        # to the block store.
        original = repo.materialize(0)
        repo.commit(format_diff([DiffEntry("replace", 0, b"\xaa" * 4, 4)]))
        count_after_first = len(repo.blocks.all_digests())
        repo.commit(format_diff(
            [DiffEntry("replace", 0, original[0:4], 4)]))
        assert len(repo.blocks.all_digests()) == count_after_first

    def test_random_commits_and_checkouts(self, repo, tmp_path):
        rng = random.Random(99)
        current = repo.materialize(0)
        snapshots = [current]
        for _ in range(25):
            entries = []
            pos = 0
            for _ in range(rng.randint(1, 3)):
                if pos >= len(current):
                    break
                at = rng.randint(pos, len(current))
                kind = rng.choice(["insert", "delete", "replace"])
                if kind == "insert":
                    payload = os.urandom(rng.randint(1, 600))
                    entries.append(DiffEntry("insert", at, payload))
                    pos = at
                else:
                    span = rng.randint(1, min(500, max(1, len(current) - at)))
                    if at + span > len(current):
                        continue
                    payload = (b"" if kind == "delete"
                               else os.urandom(rng.randint(1, 600)))
                    entries.append(DiffEntry(kind, at, payload, span))
                    pos = at + span
            if not entries:
                continue
            try:
                repo.commit(format_diff(entries))
            except EmptyCommit:
                continue
            current = apply_diffs(current, entries)
            snapshots.append(current)
            assert repo.materialize(repo.latest.version) == current
        for v, snap in enumerate(snapshots):
            assert repo.materialize(v) == snap
        assert repo.fsck() == []

    def test_lock_blocks_second_writer(self, repo):
        with repo.write_lock():
            with pytest.raises(RepositoryLocked):
                with repo.write_lock():
                    pass

    def test_lock_of_dead_writer_is_taken(self, repo):
        with _lock_holder(repo.path / "lock") as child:
            (repo.path / "lock").write_text(str(child.pid))
        repo.commit(format_diff([DiffEntry("replace", 0, b"Q", 1)]))
        assert repo.latest.version == 1
        assert (repo.path / "lock").exists()

    @pytest.mark.parametrize("content", [
        pytest.param(str(os.getpid()), id="live pid"), "not a pid", ""])
    def test_lock_of_live_or_unknown_writer_blocks(self, repo, content):
        # Whatever the file holds, a live process holding the lock blocks.
        (repo.path / "lock").write_text(content)
        with _lock_holder(repo.path / "lock"):
            with pytest.raises(RepositoryLocked):
                repo.commit(format_diff([DiffEntry("replace", 0, b"Q", 1)]))
        assert (repo.path / "lock").read_text() == content
        assert repo.latest.version == 0

    @pytest.mark.parametrize("content", ["not a pid", ""])
    def test_leftover_lock_file_is_taken(self, repo, content):
        (repo.path / "lock").write_text(content)
        repo.commit(format_diff([DiffEntry("replace", 0, b"Q", 1)]))
        assert repo.latest.version == 1
        assert (repo.path / "lock").read_text() == content

    def test_multi_op_commit_leaves_no_orphans(self, repo):
        first_id = repo.store.next_id
        summary = repo.commit(format_diff([
            DiffEntry("replace", 10, b"a" * 700, 20),
            DiffEntry("delete", 1000, delete_len=600),
            DiffEntry("insert", 2500, b"b" * 900),
            DiffEntry("replace", 3900, b"c", 5)]))
        assert summary["ops"] > 4
        reached = _reach_new(repo.store, (repo.latest.root, repo.vindex.root),
                             first_id)
        assert len(reached) == repo.store.next_id - first_id

    def test_summary_counts_match_graph_walk(self, repo):
        for entries in ([DiffEntry("replace", 300, b"xy", 2)],
                        [DiffEntry("insert", 0, b"h" * 600),
                         DiffEntry("delete", 2048, delete_len=512)]):
            first_id = repo.store.next_id
            summary = repo.commit(format_diff(entries))
            created = _reach_new(repo.store, (repo.latest.root,), first_id)
            shared = {child for node_id in created
                      for child in (repo.store.get(node_id).below,
                                    repo.store.get(node_id).after)
                      if child is not None and child < first_id}
            assert summary["created_nodes"] == len(created)
            assert summary["shared_nodes"] == len(shared)

    def test_each_new_block_hashed_once(self, repo, monkeypatch):
        """A commit hashes each op's data once, as it stores the block."""
        ops = []
        real_translate = adaptor.translate_diffs

        def translate(*args, **kwargs):
            ops.extend(real_translate(*args, **kwargs))
            return ops
        hashed = []
        real_digest = hashing.HashScheme.block_digest

        def block_digest(scheme, block):
            hashed.append(block)
            return real_digest(scheme, block)
        monkeypatch.setattr(adaptor, "translate_diffs", translate)
        monkeypatch.setattr(hashing.HashScheme, "block_digest", block_digest)
        repo.commit(format_diff([
            DiffEntry("replace", 10, b"a" * 700, 20),
            DiffEntry("delete", 1000, delete_len=600),
            DiffEntry("insert", 2500, b"b" * 900)]))
        data_ops = [op.data for op in ops if op.data is not None]
        assert len(data_ops) > 4 and hashed == data_ops

    @pytest.mark.parametrize("blocks", [64, 2048])
    def test_one_entry_commit_reads_few_blocks(self, tmp_path, blocks):
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(4).randbytes(blocks * 256))
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        gets = []
        real_get = repo.blocks.get

        def counting_get(digest):
            gets.append(digest)
            return real_get(digest)

        repo.blocks.get = counting_get
        try:
            at = blocks * 128 + 250  # straddles two blocks
            repo.commit(format_diff([DiffEntry("replace", at, b"new", 9)]))
            assert len(gets) <= 3
            assert repo.materialize(1)[at:at + 3] == b"new"
        finally:
            repo.close()

    def test_one_entry_commit_appends_only_its_new_blocks(self, repo):
        """The index grows by one record per block no earlier version
        holds, and the pack by exactly those blocks' bytes."""
        def leaf_blocks(version):
            root = repo.record(version).root
            leaves = (repo.store.get(i) for i in core.iter_leaves(repo.store,
                                                                  root))
            return {leaf.block: leaf.length for leaf in leaves
                    if leaf.kind == core.KIND_LEAF}
        blocks = repo.path / "blocks"
        sizes = [(blocks / name).stat().st_size for name in ("index", "pack")]
        repo.commit(format_diff([DiffEntry("replace", 250, b"new" * 40, 9)]))
        new = leaf_blocks(1).items() - leaf_blocks(0).items()
        assert len(new) == 3
        assert ((blocks / "index").stat().st_size - sizes[0]
                == len(new) * (repo.scheme.width + 12))
        assert ((blocks / "pack").stat().st_size - sizes[1]
                == sum(length for _digest, length in new))

    @pytest.mark.parametrize("hash_name, width", [("sha1", 70),
                                                  ("sha256", 94)])
    def test_commit_appends_one_record_per_created_node(
            self, tmp_path, monkeypatch, hash_name, width):
        """The node log grows by one record per node the commit creates:
        the layer-1 nodes its summary counts and the layer-2 nodes of the
        version's append."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(3).randbytes(4096))
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX),
                               hash_name=hash_name, input_file=src)
        layer2 = []
        real_insert = persist.insert_block

        def insert_block(*args, **kwargs):
            result = real_insert(*args, **kwargs)
            layer2.append(result.created_nodes)
            return result
        monkeypatch.setattr(persist, "insert_block", insert_block)
        log = repo.path / "nodes" / "log"
        try:
            assert repo.store.layout.size == width
            before = log.stat().st_size
            summary = repo.commit(format_diff([
                DiffEntry("replace", 10, b"a" * 300, 20),
                DiffEntry("insert", 2500, b"b" * 600)]))
            assert len(layer2) == 1 and layer2[0] > 0
            assert (log.stat().st_size - before
                    == (summary["created_nodes"] + layer2[0]) * width)
        finally:
            repo.close()


class TestCheckout:
    def test_version_zero_after_commits(self, repo, tmp_path):
        original = repo.materialize(0)
        repo.commit(format_diff([DiffEntry("delete", 0, delete_len=1000)]))
        out = tmp_path / "out.bin"
        assert repo.checkout(0, out) == len(original)
        assert out.read_bytes() == original

    def test_missing_block_leaves_no_file(self, repo, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # The last block, so the earlier ones were written first; it is
        # also the last in the pack, which loses its final byte.
        last = repo.store.get(core.search(repo.store, repo.latest.root,
                                          4095).leaf)
        offset, length = pack_place(repo, last.block)
        pack = repo.path / "blocks" / "pack"
        assert pack.stat().st_size == offset + length
        os.truncate(pack, offset + length - 1)
        with pytest.raises(StructureCorrupt):
            repo.checkout(0, out_dir / "out.bin")
        assert list(out_dir.iterdir()) == []

    def test_reads_adjacent_blocks_in_runs(self, repo, tmp_path,
                                           monkeypatch):
        """Blocks back to back in the pack come from one read: version 0's
        16 blocks in one, and version 1's in three, split around the new
        block appended at the end of the pack. Only reads of the pack
        count: the commit record of a version is a read of its own."""
        repo.commit(format_diff([DiffEntry("replace", 1000, b"y" * 10, 10)]))
        reads = []
        real_pread = os.pread
        packs = set()

        def counting(fd, length, offset):
            if fd in packs:
                reads.append(length)
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", counting)
        packs.add(repo.blocks._pack)
        for version, runs in ((0, 1), (1, 3)):
            reads.clear()
            out = tmp_path / f"v{version}.bin"
            repo.checkout(version, out)
            assert len(reads) == runs
            assert out.read_bytes() == repo.materialize(version)
        # A read holds at most 64 KiB, however long the run.
        src = tmp_path / "big.bin"
        src.write_bytes(random.Random(6).randbytes(100 * 2048))
        big = Repository.init(tmp_path / "big", block_size=2048,
                              seed=bytes.fromhex(SEED_HEX), input_file=src)
        try:
            packs.add(big.blocks._pack)
            reads.clear()
            big.checkout(0, tmp_path / "big.out")
            assert reads == [64 * 1024] * 3 + [8 * 1024]
        finally:
            big.close()

    def test_length_disagreeing_with_index_leaves_no_file(self, repo,
                                                          tmp_path):
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        _digest, _offset, length = pack_records(repo)[-1]
        raw[-4:] = struct.pack(">I", length - 1)
        index.write_bytes(bytes(raw))
        repo.close()
        again = Repository.open(repo.path)
        try:
            with pytest.raises(StructureCorrupt, match="length"):
                again.checkout(0, tmp_path / "out.bin")
        finally:
            again.close()
        assert not (tmp_path / "out.bin").exists()

    def test_missing_version(self, repo, tmp_path):
        with pytest.raises(NoSuchVersion):
            repo.checkout(7, tmp_path / "x")

    def test_opens_no_file_but_its_output(self, tmp_path, monkeypatch):
        src = tmp_path / "input.bin"
        data = random.Random(5).randbytes(2048 * 64)
        src.write_bytes(data)
        repo = Repository.init(tmp_path / "repo", block_size=64,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        opened = []

        def recording(real):
            def wrapper(file, *args, **kwargs):
                opened.append(os.fspath(file))
                return real(file, *args, **kwargs)
            return wrapper
        out = tmp_path / "out.bin"
        try:
            repo.close()
            repo = Repository.open(repo.path)
            with monkeypatch.context() as patch:
                for owner, name in ((builtins, "open"), (io, "open"),
                                    (os, "open")):
                    patch.setattr(owner, name,
                                  recording(getattr(owner, name)))
                assert repo.checkout(0, out) == len(data)
        finally:
            repo.close()
        assert out.read_bytes() == data
        assert set(opened) == {f"{out}.tmp"}


class TestFsck:
    def test_clean(self, repo):
        assert repo.fsck() == []

    def test_detects_corrupt_block(self, repo):
        digest = repo.blocks.all_digests()[3]
        offset, _length = pack_place(repo, digest)
        pack = repo.path / "blocks" / "pack"
        raw = bytearray(pack.read_bytes())
        raw[offset] ^= 0xFF
        pack.write_bytes(bytes(raw))
        problems = repo.fsck()
        assert any("content" in p for p in problems)

    def test_detects_missing_block(self, repo):
        digest = repo.blocks.all_digests()[0]
        offset, _length = pack_place(repo, digest)
        os.truncate(repo.path / "blocks" / "pack", offset)
        assert repo.fsck() != []

    def test_detects_length_disagreeing_with_index(self, repo):
        # The last record loses a byte: its block now reads one byte
        # short of its leaf's length.
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        _digest, _offset, length = pack_records(repo)[-1]
        raw[-4:] = struct.pack(">I", length - 1)
        index.write_bytes(bytes(raw))
        repo.close()
        again = Repository.open(repo.path)
        try:
            assert any("disagrees" in p for p in again.fsck())
        finally:
            again.close()

    def test_block_cut_short_refused(self, repo):
        digest, offset, length = pack_records(repo)[-1]
        os.truncate(repo.path / "blocks" / "pack", offset + length - 1)
        with pytest.raises(StructureCorrupt, match="cut short"):
            repo.blocks.get(digest)
        assert any("cut short" in p for p in repo.fsck())

    def test_reads_each_file_in_runs(self, tmp_path, monkeypatch):
        """One fsck of a freshly opened store of 2,048 blocks reads each
        file in runs of at most 64 KiB, plus a few reads per file, not
        one read per block or per node record."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(8).randbytes(2048 * 256))
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        for at in (1000, 300000):
            repo.commit(format_diff([DiffEntry("replace", at, b"run", 3)]))
        repo.close()
        files = [repo.path / name for name in (
            "blocks/pack", "blocks/index", "nodes/log", "versions.log")]
        bound = sum(-(-path.stat().st_size // (64 * 1024)) + 2
                    for path in files)
        reads = []
        real_pread = os.pread

        def counting(fd, length, offset):
            reads.append(length)
            return real_pread(fd, length, offset)
        again = Repository.open(repo.path)
        try:
            monkeypatch.setattr(os, "pread", counting)
            assert again.fsck() == []
        finally:
            again.close()
        assert len(reads) <= bound
        assert max(reads) <= 64 * 1024

    def test_hashes_each_stored_block_once(self, repo, monkeypatch):
        # Versions share blocks, and version 2 holds a block twice.
        repo.commit(format_diff([DiffEntry("insert", 700, b"x" * 300)]))
        repo.commit(format_diff([DiffEntry("replace", 0, bytes(256), 256),
                                 DiffEntry("replace", 512, bytes(256), 256)]))
        hashed = []
        real = hashing.HashScheme.block_digest

        def counting(scheme, block):
            hashed.append(block)
            return real(scheme, block)
        monkeypatch.setattr(hashing.HashScheme, "block_digest", counting)
        assert repo.fsck() == []
        assert len(hashed) == len(pack_records(repo)) == len(set(hashed))

    def test_tampered_commit_record_fails_layer2_replay(self, repo):
        """A version's update region, changed in its commit record and
        nowhere else, no longer rebuilds to the logged meta digest."""
        repo.commit(format_diff([DiffEntry("replace", 300, b"ab", 2)]))
        width = repo.log.layout.size
        repo.close()
        log = repo.path / "versions.log"
        raw = bytearray(log.read_bytes())
        start = width + 8 + repo.scheme.width  # version 1's update start
        raw[start + 7] ^= 0x01
        log.write_bytes(bytes(raw))
        again = Repository.open(repo.path)
        try:
            assert again.fsck() == ["layer-2 root does not match a replay "
                                    "of the version log"]
        finally:
            again.close()

    @pytest.mark.parametrize("name", ["pack", "index"])
    def test_short_block_file_refused_at_open(self, repo, name):
        repo.close()
        path = repo.path / "blocks" / name
        os.truncate(path, path.stat().st_size - 1)
        with pytest.raises(StructureCorrupt):
            Repository.open(repo.path)

    @pytest.mark.parametrize("fault, message", [
        ("offset", "out of sequence"), ("digest", "indexed twice")])
    def test_bad_index_record_refused(self, repo, fault, message):
        repo.close()
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        width = repo.scheme.width
        if fault == "offset":
            raw[width + 7] ^= 0x01  # the first record's offset
        else:  # the last record names the first record's block
            raw[-(width + 12):-12] = raw[:width]
        index.write_bytes(bytes(raw))
        again = Repository.open(repo.path)  # reads the last record only
        try:
            with pytest.raises(StructureCorrupt, match=message):
                again.materialize(0)
        finally:
            again.close()

    def test_detects_node_bit_flip(self, repo):
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[-1] ^= 0x01  # tail of the newest record's digest
        log.write_bytes(bytes(raw))
        reopened = Repository.open(repo.path)  # decodes no node record
        try:
            assert reopened.fsck() != []
        finally:
            reopened.close()

    def test_torn_node_record_refused_at_open(self, repo):
        repo.commit(format_diff([DiffEntry("replace", 5, b"tear", 4)]))
        repo.close()
        log = repo.path / "nodes" / "log"
        log.write_bytes(log.read_bytes()[:-5])
        with pytest.raises(StructureCorrupt, match="node log ends"):
            Repository.open(repo.path)

    def test_lost_trailing_record_refused_at_open(self, repo):
        repo.commit(format_diff([DiffEntry("replace", 5, b"lost", 4)]))
        last = repo.store.next_id - 1
        record = repo.store._encode(repo.store.get(last))
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = log.read_bytes()
        assert raw.endswith(record)
        log.write_bytes(raw[:-len(record)])
        with pytest.raises(StructureCorrupt, match="node log ends"):
            Repository.open(repo.path)

    def test_node_log_cut_after_open_refused_on_read(self, repo):
        repo.close()
        again = Repository.open(repo.path)
        try:
            os.truncate(repo.path / "nodes" / "log", 0)
            with pytest.raises(StructureCorrupt, match="cut short"):
                again.meta_digest
        finally:
            again.close()

    @pytest.mark.parametrize("target", ["self", "later"])
    def test_hostile_link_refused(self, repo, tmp_path, target):
        """A data leaf whose after link names itself or a later record
        would make every walk endless. The record is refused when it is
        decoded: checkout exits 1 and leaves no file, fsck reports it,
        both in bounded time."""
        leaf = next(i for i in range(repo.store.next_id)
                    if repo.store.get(i).kind == core.KIND_LEAF
                    and repo.store.get(i).length == 256)
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        # after is the fifth field: kind, level, rank and below come
        # first.
        after = struct.calcsize(repo.store.layout.format[:5])
        at = leaf * repo.store.layout.size + after
        link = leaf if target == "self" else leaf + 1
        raw[at:at + 8] = link.to_bytes(8, "big")
        log.write_bytes(bytes(raw))
        out = tmp_path / "out.bin"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = [sys.executable, "-m", "flexstore.cli", "--repo",
               str(repo.path)]

        def small_files():
            # An endless checkout dies at 1 MiB instead of filling the disk.
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
        checkout = subprocess.run(
            run + ["checkout", "--version", "0", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=small_files)
        assert checkout.returncode == cli.EXIT_REJECT
        assert checkout.stderr.count("\n") == 1
        assert f"node {leaf} links to a later node" in checkout.stderr
        assert not out.exists() and not Path(f"{out}.tmp").exists()
        fsck = subprocess.run(run + ["fsck"], env=env, capture_output=True,
                              text=True, timeout=30)
        assert fsck.returncode == cli.EXIT_REJECT
        assert f"node {leaf} links to a later node" in fsck.stdout


class TestMalformedMetadata:
    @pytest.mark.parametrize("name, content, append", [
        # A JSON commit line, as format 4 wrote, one record wide.
        ("versions.log", b'{"version": 1, "root": 99999, "nodes": 999, '
                         b'"blocks": 9, "layer2_root": 98}\n', True),
        ("config.json", b"{not json\n", False),
        ("config.json", b'{"format": %d, "hash": "md5", "seed": ""}'
         % STORE_FORMAT, False),
    ])
    def test_refused_with_one_line(self, repo, capsys, name, content,
                                   append):
        repo.close()
        target = repo.path / name
        target.write_bytes((target.read_bytes() if append else b"")
                           + content)
        _assert_refused(repo.path, capsys)

    @pytest.mark.parametrize("field", ["root", "layer2_root", "nodes",
                                       "blocks"])
    def test_bad_commit_record_field(self, repo, capsys, field):
        """The last commit record is checked at open: its roots lie below
        its `nodes`, and the node log and the block index hold the
        records it counts."""
        repo.close()
        log = repo.path / "versions.log"
        names = ["root", "root_digest", "update_start", "update_length",
                 "layer2_root", "level_counter", "nodes", "blocks"]
        values = dict(zip(names, repo.log.layout.unpack(log.read_bytes())))
        if field in ("root", "layer2_root"):
            values[field], message = values["nodes"], "root past"
        else:
            values[field] += 1
            message = {"nodes": "node log", "blocks": "block index"}[field]
        log.write_bytes(repo.log.layout.pack(*values.values()))
        with pytest.raises(StructureCorrupt, match=message):
            Repository.open(repo.path)
        _assert_refused(repo.path, capsys)

    def test_unknown_node_kind_refused_on_read(self, repo, capsys):
        root = repo.vindex.root
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[root * repo.store.layout.size] = 9
        log.write_bytes(bytes(raw))
        again = Repository.open(repo.path)  # decodes no node record
        try:
            with pytest.raises(StructureCorrupt, match="unknown kind 9"):
                again.meta_digest
        finally:
            again.close()
        assert cli.main(["--repo", str(repo.path), "log"]) == cli.EXIT_REJECT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_middle_record_refused_by_its_reader(self, repo, capsys,
                                                     tmp_path):
        """open reads only the last commit record; an earlier one is
        refused, in one line, by the command that reads it."""
        for at in (10, 20):
            repo.commit(format_diff([DiffEntry("replace", at, b"mid", 3)]))
        width = repo.log.layout.size
        repo.close()
        log = repo.path / "versions.log"
        raw = bytearray(log.read_bytes())
        raw[width:width + 8] = (2 ** 64 - 1).to_bytes(8, "big")  # v1 root
        log.write_bytes(bytes(raw))
        args = ["--repo", str(repo.path)]
        out = str(tmp_path / "out.bin")
        capsys.readouterr()
        assert cli.main(args + ["checkout", "--version", "2", "--out", out]
                        ) == cli.EXIT_OK
        for command in (["log"], ["checkout", "--version", "1", "--out",
                                  out]):
            assert cli.main(args + command) == cli.EXIT_REJECT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "version 1 names a root past" in err
        assert cli.main(args + ["fsck"]) == cli.EXIT_REJECT
        assert "version 1 names a root past" in capsys.readouterr().out


class TestOpen:
    def _store(self, tmp_path, commits):
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(0).randbytes(4096))
        path = tmp_path / f"repo-{commits}"
        repo = Repository.init(path, block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        rng = random.Random(commits)
        for _ in range(commits):
            repo.commit(format_diff([DiffEntry(
                "replace", rng.randrange(4000), rng.randbytes(8), 8)]))
        meta = repo.meta_digest
        repo.close()
        return path, meta

    def test_open_is_flat(self, tmp_path):
        """open decodes no history: right after it, as many nodes are
        decoded after 2 commits as after 200, at most one; and a 1-byte
        modify still finalizes at most depth + 1 layer-1 nodes."""
        decoded = []
        for commits in (2, 200):
            path, meta = self._store(tmp_path, commits)
            repo = Repository.open(path)
            try:
                decoded.append(len(repo.store))
                assert repo.meta_digest == meta
                root = repo.latest.root
                depth = len(core.search(repo.store, root, 1234).entries)
                summary = repo.commit(format_diff(
                    [DiffEntry("replace", 1234, b"!", 1)]))
                assert summary["created_nodes"] <= depth + 1
                assert repo.fsck() == []
            finally:
                repo.close()
        assert decoded[0] == decoded[1] <= 1


def _assert_refused(path, capsys):
    """open raises StructureCorrupt, and the CLI says so in one line."""
    with pytest.raises(StructureCorrupt):
        Repository.open(path)
    capsys.readouterr()
    assert cli.main(["--repo", str(path), "log"]) == cli.EXIT_REJECT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@contextmanager
def _lock_holder(lock):
    """A child process that holds the writer lock until the with-block
    ends, when it is killed."""
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, sys, time\n"
         "fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR)\n"
         "fcntl.flock(fd, fcntl.LOCK_EX)\n"
         "print('locked', flush=True)\n"
         "time.sleep(600)\n", str(lock)],
        stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "locked\n"
        yield child
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()


def _reach_new(store, roots, first_id):
    """Ids at or above first_id that the roots reach."""
    seen = set()
    todo = [r for r in roots if r >= first_id]
    while todo:
        node_id = todo.pop()
        if node_id not in seen:
            seen.add(node_id)
            node = store.get(node_id)
            todo.extend(c for c in (node.below, node.after)
                        if c is not None and c >= first_id)
    return seen


class TestTamper:
    def test_gated_in_cli(self, repo):
        code = cli.main(["--repo", str(repo.path), "tamper",
                         "--delete-fraction", "0.5"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("fraction", ["2", "-0.5", "nan"])
    def test_bad_fraction_exits_2(self, repo, capsys, fraction):
        def files():
            return {p: p.read_bytes() for p in repo.path.rglob("*")
                    if p.is_file()}
        before = files()
        code = cli.main(["--repo", str(repo.path), "tamper",
                         "--delete-fraction", fraction, "--allow-data-loss"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert files() == before   # not even the lock file
        assert cli.main(["--repo", str(repo.path), "fsck"]) == cli.EXIT_OK

    def test_corruption_detected_by_audit(self, repo):
        repo.commit(format_diff(
            [DiffEntry("replace", 0, os.urandom(2048), 2048)]))
        report = repo.tamper(1.0, scope="version-delta", rng_seed=1)
        assert report["corrupted"] == report["targets"] > 0
        ch = repo.make_challenge(bytes(10), 10, ())
        proof = repo.prove(ch)
        ok, reason = repo.verify(ch, proof)
        assert not ok


class TestCliPipeline:
    def run(self, *args):
        return cli.main(list(args))

    def test_full_pipeline(self, tmp_path, capsys):
        src = tmp_path / "f.bin"
        src.write_bytes(os.urandom(4096))
        repo_path = str(tmp_path / "repo")
        assert self.run("--repo", repo_path, "init", "--file", str(src),
                        "--block-size", "256", "--seed", SEED_HEX) == 0
        diff = tmp_path / "d1.diff"
        diff.write_bytes(format_diff([DiffEntry("insert", 512, b"z" * 300)]))
        assert self.run("--repo", repo_path, "commit", "--diff",
                        str(diff)) == 0
        assert self.run("--repo", repo_path, "log") == 0
        out = tmp_path / "co.bin"
        assert self.run("--repo", repo_path, "checkout", "--version", "1",
                        "--out", str(out)) == 0
        assert len(out.read_bytes()) == 4396
        chf = tmp_path / "c.chal"
        prf = tmp_path / "p.proof"
        assert self.run("--repo", repo_path, "challenge", "--seed",
                        "ffeeddccbbaa99887766", "--count", "8", "--out",
                        str(chf)) == 0
        assert self.run("--repo", repo_path, "prove", "--challenge",
                        str(chf), "--out", str(prf)) == 0
        assert self.run("--repo", repo_path, "verify", "--challenge",
                        str(chf), "--proof", str(prf)) == 0
        captured = capsys.readouterr()
        assert "accept" in captured.out
        assert self.run("--repo", repo_path, "fsck") == 0

    def test_truncated_proof_rejects_exit_1(self, tmp_path, capsys):
        src = tmp_path / "f.bin"
        src.write_bytes(os.urandom(1024))
        repo_path = str(tmp_path / "repo")
        self.run("--repo", repo_path, "init", "--file", str(src),
                 "--block-size", "128", "--seed", SEED_HEX)
        chf, prf = tmp_path / "c", tmp_path / "p"
        self.run("--repo", repo_path, "challenge", "--seed",
                 "ffeeddccbbaa99887766", "--count", "2", "--out", str(chf))
        self.run("--repo", repo_path, "prove", "--challenge", str(chf),
                 "--out", str(prf))
        prf.write_bytes(prf.read_bytes()[:-9])
        assert self.run("--repo", repo_path, "verify", "--challenge",
                        str(chf), "--proof", str(prf)) == 1
        assert "reject" in capsys.readouterr().out

    def test_checkout_determinism(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(os.urandom(2048))
        repo_path = str(tmp_path / "repo")
        self.run("--repo", repo_path, "init", "--file", str(src),
                 "--seed", SEED_HEX)
        chf1, chf2 = tmp_path / "c1", tmp_path / "c2"
        for chf in (chf1, chf2):
            self.run("--repo", repo_path, "challenge", "--seed",
                     "ffeeddccbbaa99887766", "--count", "4", "--out",
                     str(chf))
        assert chf1.read_bytes() == chf2.read_bytes()
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        for p in (p1, p2):
            self.run("--repo", repo_path, "prove", "--challenge", str(chf1),
                     "--out", str(p))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("command", ["challenge", "prove"])
    def test_unwritable_out_exit_3(self, tmp_path, repo, capsys, command):
        chf = tmp_path / "c.chal"
        assert self.run("--repo", str(repo.path), "challenge", "--count",
                        "4", "--out", str(chf)) == 0
        out = tmp_path / "missing" / "out"
        args = (["--count", "4"] if command == "challenge"
                else ["--challenge", str(chf)])
        capsys.readouterr()
        assert self.run("--repo", str(repo.path), command, *args, "--out",
                        str(out)) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_init_existing_path_exit_3(self, tmp_path):
        repo_path = str(tmp_path / "repo")
        assert self.run("--repo", repo_path, "init", "--seed",
                        SEED_HEX) == 0
        assert self.run("--repo", repo_path, "init", "--seed",
                        SEED_HEX) == 3

    def test_huge_challenge_count_exit_2(self, tmp_path, repo):
        with pytest.raises(DomainError):
            repo.make_challenge(bytes(10), 2 ** 40, ())
        chf = tmp_path / "c.chal"
        assert self.run("--repo", str(repo.path), "challenge", "--count",
                        str(2 ** 40), "--out", str(chf)) == cli.EXIT_USAGE
        assert not chf.exists()

    def test_non_numeric_versions_exit_2(self, tmp_path, repo, capsys):
        chf = tmp_path / "c.chal"
        assert self.run("--repo", str(repo.path), "challenge", "--count",
                        "4", "--versions", "x", "--out",
                        str(chf)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not chf.exists()

    def test_bad_version_exit_2(self, tmp_path):
        repo_path = str(tmp_path / "repo")
        self.run("--repo", repo_path, "init", "--seed", SEED_HEX)
        assert self.run("--repo", repo_path, "checkout", "--version", "9",
                        "--out", str(tmp_path / "x")) == 2


class TestUpdatePhase:
    """Client flow: range proof -> partial list -> local apply -> new meta."""

    def test_client_digest_matches_server_commit(self, repo):
        from flexstore.adaptor import (apply_ops_partial, diff_to_ops,
                                       partial_from_proof, required_range)
        from flexstore.core import block_layout
        from flexstore.index2 import VersionIndex
        from flexstore.core import NodeStore

        entries = [DiffEntry("replace", 700, b"patch", 40),
                   DiffEntry("insert", 1500, b"x" * 90)]
        current = repo.materialize(repo.latest.version)
        layout = block_layout(repo.store, repo.latest.root)
        ops = diff_to_ops(entries, layout, repo.block_size,
                          lambda s, n: current[s:s + n])
        start, length = required_range(entries, layout)
        proof = repo.prove_blocks(repo.latest.version, start, length)
        src = repo.level_source()
        meta_before = repo.meta_digest
        # client side: rebuild, apply, roll its own layer-2 replica forward
        partial = partial_from_proof(repo.scheme, proof, meta_before)
        client_root_digest, _ = apply_ops_partial(partial, ops, src)
        replica = VersionIndex(NodeStore(), repo.scheme, repo.seed)
        for version in range(repo.vindex.count):
            replica.append_version(repo.record(version))
        # server side commits the same diff
        summary = repo.commit(format_diff(entries))
        assert repo.latest.root_digest == client_root_digest
        replica.append_version(repo.latest)
        assert replica.meta_digest.hex() == summary["meta"]

    def test_storage_growth_bounded(self, repo):
        import os

        def tree_bytes(path):
            total = 0
            for dirpath, _dirs, files in os.walk(path):
                for f in files:
                    total += os.path.getsize(os.path.join(dirpath, f))
            return total

        node_record_cap = 128  # generous per-record ceiling, sha1 scheme
        before = tree_bytes(repo.path)
        payload = random.Random(3).randbytes(600)
        summary = repo.commit(format_diff(
            [DiffEntry("replace", 100, payload, 600)]))
        grown = tree_bytes(repo.path) - before
        changed_block_bytes = 3 * repo.block_size  # blocks overlapping the edit
        allowance = (changed_block_bytes
                     + summary["created_nodes"] * node_record_cap + 512)
        assert grown <= allowance
        # and nowhere near a full-file copy
        assert grown < 4096


class TestEmptiedVersionChallenges:
    def test_empty_region_refused(self, tmp_path):
        from flexstore.errors import EmptyRegion
        src = tmp_path / "f.bin"
        src.write_bytes(random.Random(1).randbytes(512))
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        try:
            repo.commit(format_diff([DiffEntry("delete", 0,
                                               delete_len=512)]))
            assert repo.materialize(1) == b""
            with pytest.raises(EmptyRegion):
                repo.make_challenge(bytes(10), 4, (1,))
            with pytest.raises(EmptyRegion):
                repo.make_challenge(bytes(10), 4, ())  # latest, rank 0
            # the old version remains challengeable
            ch = repo.make_challenge(bytes(10), 4, (0,))
            ok, reason = repo.verify(ch, repo.prove(ch))
            assert ok, reason
        finally:
            repo.close()


class TestWholeFileTargetsLatest:
    def test_old_version_part_rejected(self, repo):
        repo.commit(format_diff([DiffEntry("replace", 0, b"AA", 2)]))
        from flexstore import audit
        seed = bytes.fromhex("abcdefabcdefabcdefab")
        stale_part = repo.prove(audit.Challenge(seed, 3, (0,)))
        ok, reason = repo.verify(audit.Challenge(seed, 3, ()), stale_part)
        assert not ok
        assert "latest" in reason


class TestSha256Config:
    def test_pipeline_with_sha256(self, tmp_path, capsys):
        src = tmp_path / "f.bin"
        src.write_bytes(random.Random(2).randbytes(1024))
        repo = Repository.init(tmp_path / "repo", block_size=128,
                               seed=bytes.fromhex(SEED_HEX),
                               hash_name="sha256", input_file=src)
        try:
            assert repo.scheme.width == 32
            repo.commit(format_diff([DiffEntry("replace", 5, b"zz", 2)]))
            assert repo.fsck() == []
            ch = repo.make_challenge(bytes(10), 4, ())
            ok, reason = repo.verify(ch, repo.prove(ch))
            assert ok, reason
        finally:
            repo.close()
        again = Repository.open(tmp_path / "repo")
        try:
            assert again.materialize(1)[5:7] == b"zz"
        finally:
            again.close()
