import builtins
import errno
import io
import json
import os
import random
import resource
import shutil
import struct
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest

from flexstore import adaptor, audit, cli, core, errors, hashing
from flexstore import repo as repo_mod
from flexstore.adaptor import DiffEntry, format_diff
from flexstore.errors import (BlockTooSmall, DomainError, EmptyCommit,
                              IOFailure, NoSuchVersion, PathExists,
                              ProofRejected, RepositoryLocked,
                              StructureCorrupt)
from flexstore.index2 import VersionIndex
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

    def test_block_size_past_the_records_refused(self, tmp_path, capsys):
        """Records keep a block's length as u32 and an edit keeps blocks
        of up to twice the block size, so init refuses a block size past
        2^31 - 1 (exit 2) and writes nothing."""
        path = tmp_path / "r"
        for size in (2 ** 31, 2 ** 40):
            assert cli.main(["--repo", str(path), "init", "--block-size",
                             str(size)]) == cli.EXIT_USAGE
        assert not path.exists()
        assert cli.main(["--repo", str(path), "init", "--block-size",
                         str(2 ** 31 - 1)]) == cli.EXIT_OK
        capsys.readouterr()

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

    def test_bad_seed_refused_before_writing(self, tmp_path):
        """A seed of the wrong length is refused as the first level stream
        is made, before anything is written."""
        path = tmp_path / "r"
        with pytest.raises(DomainError):
            Repository.init(path, seed=bytes(3))
        assert not path.exists() or not any(path.iterdir())

    def test_init_on_a_regular_file_refused(self, tmp_path, capsys):
        path = tmp_path / "r"
        path.write_bytes(b"x")
        with pytest.raises(PathExists):
            Repository.init(path)
        capsys.readouterr()
        assert cli.main(["--repo", str(path), "init"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not an empty directory" in err
        assert path.read_bytes() == b"x"

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

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5, 6, 7, 8])
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
        # The seed and the version fix the level streams, so edits made
        # by a fresh process extend the same canonical structure.
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

    def test_each_record_file_opened_for_append_once(self, repo,
                                                     monkeypatch):
        """A writer keeps one append descriptor per record file across
        its commits, not one per flush."""
        repo.close()
        again = Repository.open(repo.path)
        opened = []
        real_open = builtins.open

        def recording(file, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(Path(file).relative_to(repo.path).as_posix())
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(repo_mod, "open", recording, raising=False)
        rng = random.Random(50)
        try:
            for _ in range(50):
                again.commit(format_diff([DiffEntry(
                    "replace", rng.randrange(4000), rng.randbytes(8), 8)]))
            assert again.fsck() == []
        finally:
            again.close()
        assert sorted(opened) == ["blocks/index", "blocks/pack", "nodes/log",
                                  "versions.log"]

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
        assert repo.latest.frozen is not None
        reached = _reach_new(repo.store, (repo.latest.root,
                                          repo.latest.frozen), first_id)
        assert len(reached) == repo.store.next_id - first_id

    def test_layer2_records_per_commit(self, repo):
        """Over 1,000 commits the layer-2 append writes at most 2 node
        records per commit on average. Every record a commit writes is
        reached from its layer-1 root or the frozen part its edge link
        names, and every stored layer-2 node from the latest edge's
        frozen parts: no record is reached from neither."""
        rng = random.Random(26)
        layer2 = 0
        for _ in range(1000):
            first = repo.store.next_id
            summary = repo.commit(format_diff([DiffEntry(
                "replace", rng.randrange(4000), rng.randbytes(8), 8)]))
            layer2 += repo.store.next_id - first - summary["created_nodes"]
            reached = _reach_new(repo.store, [repo.latest.root] + (
                [] if repo.latest.frozen is None else [repo.latest.frozen]),
                first)
            assert len(reached) == repo.store.next_id - first
        assert layer2 <= 2 * 1000
        layer1 = _reach_new(repo.store, [repo.record(v).root
                                         for v in range(1001)], 0)
        latest = _reach_new(repo.store, [
            frozen for _level, _version, frozen, _span, _part
            in repo.vindex.edge if frozen is not None], 0)
        assert not layer1 & latest
        assert len(layer1) + len(latest) == repo.store.next_id

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

    def test_one_search_per_group_of_entries(self, tmp_path, monkeypatch):
        """Three groups, one a delete over about 20 blocks: each group
        searches once (core.leaves_from) and walks on through the leaves
        it needs."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(5).randbytes(64 * 256))
        searches = []
        real_search = core.leaves_from

        def search(*args):
            searches.append(args[2])
            return real_search(*args)
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        try:
            entries = [DiffEntry("replace", 300, b"x" * 40, 30),
                       DiffEntry("delete", 2000, delete_len=20 * 256),
                       DiffEntry("insert", 12000, b"y" * 600)]
            monkeypatch.setattr(core, "leaves_from", search)
            repo.commit(format_diff(entries))
            monkeypatch.undo()
            assert searches == [300, 2000, 12000]
            assert repo.materialize(1) == apply_diffs(src.read_bytes(),
                                                      entries)
        finally:
            repo.close()

    def test_block_shared_by_entries_is_fetched_once(self, repo):
        """Three entries inside one block: the commit gets that block
        once and no other."""
        old = repo.materialize(0)
        leaf = repo.store.get(core.search(repo.store, repo.latest.root,
                                          300).leaf)
        gets = []
        real_get = repo.blocks.get

        def counting_get(digest):
            gets.append(digest)
            return real_get(digest)
        repo.blocks.get = counting_get
        entries = [DiffEntry("replace", 260, b"ab", 4),
                   DiffEntry("insert", 300, b"cd"),
                   DiffEntry("delete", 400, delete_len=10)]
        repo.commit(format_diff(entries))
        del repo.blocks.get
        assert gets == [leaf.block]
        assert repo.materialize(1) == apply_diffs(old, entries)

    def test_one_entry_commit_appends_only_its_new_blocks(self, repo):
        """The index grows by one record per block no earlier version
        holds, and the pack by exactly those blocks' bytes."""
        def leaf_blocks(version):
            root = repo.record(version).root
            return {leaf.block: leaf.length
                    for leaf in core.iter_data_leaves(repo.store, root)}
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
        real_append = VersionIndex.append_version

        def append_version(vindex, rec):
            first = vindex.store.next_id
            linked = real_append(vindex, rec)
            layer2.append(vindex.store.next_id - first)
            return linked
        monkeypatch.setattr(VersionIndex, "append_version", append_version)
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
        """Blocks back to back in the pack are one extent, read with one
        preadv: version 0's 16 blocks one, and version 1's three, split
        around the new block appended at the end of the pack. The buffer
        is the version's size where that is below 1 MiB, so each version
        is one write. An extent longer than the buffer is read a
        buffer-full at a time, and each buffer-full is one write. A
        materialize reads into one buffer of the version's size, one
        preadv per extent. Nothing else reads the pack."""
        repo.commit(format_diff([DiffEntry("replace", 1000, b"y" * 10, 10)]))
        expected = [repo.materialize(0), repo.materialize(1)]
        reads, writes, preads = [], [], []
        real_preadv, real_write, real_pread = os.preadv, os.write, os.pread
        packs = set()

        def counting_preadv(fd, buffers, offset):
            if fd in packs:
                reads.append(sum(map(len, buffers)))
            return real_preadv(fd, buffers, offset)

        def counting_write(fd, data):
            writes.append(len(data))
            return real_write(fd, data)

        def counting_pread(fd, length, offset):
            if fd in packs:
                preads.append(length)
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "preadv", counting_preadv)
        monkeypatch.setattr(os, "write", counting_write)
        monkeypatch.setattr(os, "pread", counting_pread)
        packs.add(repo.blocks._pack._fd)
        for version, runs in ((0, 1), (1, 3)):
            reads.clear()
            writes.clear()
            out = tmp_path / f"v{version}.bin"
            repo.checkout(version, out)
            assert len(reads) == runs
            assert writes == [4096]
            assert out.read_bytes() == expected[version]
        src = tmp_path / "big.bin"
        src.write_bytes(random.Random(6).randbytes(100 * 2048))
        big = Repository.init(tmp_path / "big", block_size=2048,
                              seed=bytes.fromhex(SEED_HEX), input_file=src)
        try:
            packs.add(big.blocks._pack._fd)
            reads.clear()
            writes.clear()
            big.checkout(0, tmp_path / "big.out")
            assert reads == writes == [100 * 2048]
            assert (tmp_path / "big.out").read_bytes() == src.read_bytes()
            monkeypatch.setattr(repo_mod, "_COPY_LIMIT", 64 * 1024)
            reads.clear()
            writes.clear()
            big.checkout(0, tmp_path / "big.out")
            assert reads == writes == [64 * 1024] * 3 + [8 * 1024]
            reads.clear()
            assert big.materialize(0) == src.read_bytes()
            assert reads == [100 * 2048]
        finally:
            big.close()
        assert preads == []
        assert (tmp_path / "big.out").read_bytes() == src.read_bytes()

    def test_materialize_holds_the_version_once(self, tmp_path):
        """A materialize reads the version into one buffer of its size:
        the tracemalloc peak of one call on a 1 MiB version is about that
        size, not twice it."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(9).randbytes(1 << 20))
        with Repository.init(tmp_path / "big", block_size=4096,
                             seed=bytes.fromhex(SEED_HEX),
                             input_file=src) as big:
            tracemalloc.start()
            try:
                data = big.materialize(0)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert data == src.read_bytes()
        assert peak <= 1.25 * (1 << 20)

    def test_every_version_across_buffer_boundaries(self, tmp_path,
                                                    monkeypatch):
        """Through a buffer of 3,000 bytes, checkout and materialize of
        every version of a store of 300 one-block commits, freshly
        opened, equal a replay of the diffs. Each extent is one preadv per
        buffer-full it fills, and each full buffer one write; extents
        straddle the buffer's end, and some are longer than it."""
        limit = 3000
        monkeypatch.setattr(repo_mod, "_COPY_LIMIT", limit)
        rng = random.Random(19)
        versions = [rng.randbytes(64 * 256)]
        src = tmp_path / "input.bin"
        src.write_bytes(versions[0])
        repo = Repository.init(tmp_path / "repo", block_size=256,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        try:
            for _ in range(300):
                entry = DiffEntry("replace", rng.randrange(64) * 256
                                  + rng.randrange(249), rng.randbytes(8), 8)
                repo.commit(format_diff([entry]))
                versions.append(apply_diffs(versions[-1], [entry]))
        finally:
            repo.close()
        reads, writes = [], []
        real_preadv, real_write = os.preadv, os.write

        def counting_preadv(fd, buffers, offset):
            reads.append(sum(map(len, buffers)))
            return real_preadv(fd, buffers, offset)

        def counting_write(fd, data):
            writes.append(len(data))
            return real_write(fd, data)

        straddling = longer = 0
        again = Repository.open(repo.path)
        try:
            for version, want in enumerate(versions):
                leaves = list(core.iter_data_leaves(
                    again.store, again.record(version).root))
                pieces, at = [], 0
                for _offset, length in again.blocks._extents(leaves):
                    straddling += at // limit != (at + length - 1) // limit
                    longer += length > limit
                    while length:
                        n = min(length, limit - at % limit)
                        pieces.append(n)
                        at += n
                        length -= n
                reads.clear()
                writes.clear()
                out = tmp_path / "out.bin"
                with monkeypatch.context() as patch:
                    patch.setattr(os, "preadv", counting_preadv)
                    patch.setattr(os, "write", counting_write)
                    assert again.checkout(version, out) == len(want)
                    assert writes == [limit] * (len(want) // limit) + [
                        len(want) % limit]
                    assert reads == pieces
                    assert again.materialize(version) == want
                assert out.read_bytes() == want
        finally:
            again.close()
        assert straddling > 300 and longer > 0

    @pytest.mark.parametrize("code, nth", [(errno.ENOSPC, 1),
                                           (errno.ENOSPC, 2),
                                           (errno.EIO, 1),
                                           (errno.EINVAL, 2)])
    def test_failed_copy_leaves_no_file(self, repo, tmp_path, monkeypatch,
                                        code, nth):
        """An error from the first write of a buffer-full, or from a later
        one, is an IOFailure, and neither the output nor the temporary
        file is left."""
        repo.commit(format_diff([DiffEntry("replace", 1000, b"y" * 10, 10)]))
        monkeypatch.setattr(repo_mod, "_COPY_LIMIT", 1024)   # 4 writes
        real_write = os.write
        calls = []

        def failing(fd, data):
            calls.append(len(data))
            if len(calls) == nth:
                raise OSError(code, os.strerror(code))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", failing)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(IOFailure):
            repo.checkout(1, out_dir / "out.bin")
        assert calls == [1024] * nth
        assert list(out_dir.iterdir()) == []

    def test_short_copies_are_continued(self, repo, tmp_path, monkeypatch):
        """A write that takes less than it was given goes on with the
        rest."""
        repo.commit(format_diff([DiffEntry("replace", 1000, b"y" * 10, 10)]))
        real_write = os.write
        counts = []

        def short(fd, data):
            counts.append(len(data))
            return real_write(fd, data[:1000])

        monkeypatch.setattr(os, "write", short)
        for version in (0, 1):
            counts.clear()
            out = tmp_path / f"v{version}.bin"
            assert repo.checkout(version, out) == 4096
            assert counts == [4096, 3096, 2096, 1096, 96]
            assert out.read_bytes() == repo.materialize(version)

    def test_gets_each_node_once(self, repo, tmp_path, monkeypatch):
        """A checkout of a freshly opened store gets each node its root
        reaches once: one walk, no second get per leaf."""
        repo.close()
        fresh = Repository.open(repo.path)
        gets = []
        real_get = repo_mod.DurableNodeStore.get

        def counting(store, node_id):
            gets.append(node_id)
            return real_get(store, node_id)

        try:
            with monkeypatch.context() as patch:
                patch.setattr(repo_mod.DurableNodeStore, "get", counting)
                fresh.checkout(0, tmp_path / "out.bin")
            reached, todo = set(), [fresh.record(0).root]
            while todo:
                node_id = todo.pop()
                reached.add(node_id)
                node = fresh.store.get(node_id)
                todo.extend(c for c in (node.below, node.after)
                            if c is not None)
        finally:
            fresh.close()
        assert len(reached) > 16
        assert sorted(gets) == sorted(reached)

    def test_reads_node_records_in_runs(self, tmp_path, monkeypatch):
        """A checkout of a freshly opened store reads the node log in runs
        of at most 64 KiB, at most one read per run plus two, and never
        a byte past the committed end, where a crashed writer left
        records."""
        src = tmp_path / "input.bin"
        want = random.Random(7).randbytes(2048 * 64)
        src.write_bytes(want)
        repo = Repository.init(tmp_path / "repo", block_size=64,
                               seed=bytes.fromhex(SEED_HEX), input_file=src)
        entries = [DiffEntry("replace", at, b"run", 3) for at in (100, 70000)]
        for entry in entries:
            repo.commit(format_diff([entry]))
        want = apply_diffs(want, entries)
        width = repo.store.layout.size
        repo.close()
        log = repo.path / "nodes" / "log"
        end = log.stat().st_size
        assert end > 3 * 64 * 1024
        with open(log, "ab") as fh:
            fh.write(b"\xff" * (1000 * width))
        reads = []
        real_pread = os.pread

        def counting(fd, length, offset):
            reads.append((fd, length, offset))
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", counting)
        out = tmp_path / "out.bin"
        again = Repository.open(repo.path)
        try:
            assert again.checkout(2, out) == len(want)
            node_log = again.store._file._fd
        finally:
            again.close()
        runs = [(length, offset) for fd, length, offset in reads
                if fd == node_log]
        assert len(runs) <= -(-end // (64 * 1024)) + 2
        assert max(length for length, _offset in runs) <= 64 * 1024
        assert max(offset + length for length, offset in runs) <= end
        assert out.read_bytes() == want

    def test_replaces_output_through_new_temporary_file(self, repo,
                                                         tmp_path):
        """The output is replaced; its temporary file is made with the
        umask applied, as open() makes a file, and is gone afterwards."""
        out = tmp_path / "out.bin"
        out.write_bytes(b"old content")
        old_mask = os.umask(0o027)
        try:
            assert repo.checkout(0, out) == 4096
        finally:
            os.umask(old_mask)
        assert out.read_bytes() == repo.materialize(0)
        assert out.stat().st_mode & 0o777 == 0o640
        assert not Path(f"{out}.tmp").exists()

    def test_existing_temporary_file_refused_and_kept(self, repo, tmp_path,
                                                      capsys):
        """A file already at `<out>.tmp` is someone else's: checkout exits
        3 naming it, and leaves it and the output as they were."""
        out = tmp_path / "out.bin"
        tmp = Path(f"{out}.tmp")
        tmp.write_bytes(b"not a checkout")
        repo.close()
        assert cli.main(["--repo", str(repo.path), "checkout", "--version",
                         "0", "--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp) in err
        assert tmp.read_bytes() == b"not a checkout"
        assert not out.exists()
        again = Repository.open(repo.path)
        try:
            with pytest.raises(PathExists):
                again.checkout(0, out)
        finally:
            again.close()
        assert tmp.read_bytes() == b"not a checkout"

    @staticmethod
    def _refused_everywhere(repo, tmp_path, monkeypatch, edit_index, match):
        """After replaces in blocks 3 and 11, edit the block index file,
        then expect version 1's checkout and materialize to be refused;
        the checkout, through a buffer of 1 KiB, has written its first
        buffer-fulls by then, and leaves neither its output nor its
        temporary file."""
        repo.commit(format_diff([DiffEntry("replace", 1000, b"y" * 10, 10),
                                 DiffEntry("replace", 3000, b"z" * 10, 10)]))
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        edit_index(raw, repo.scheme.width + 12)
        index.write_bytes(bytes(raw))
        repo.close()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setattr(repo_mod, "_COPY_LIMIT", 1024)
        again = Repository.open(repo.path)
        real_write, writes = os.write, []

        def counting(fd, data):
            writes.append(len(data))
            return real_write(fd, data)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", counting)
                with pytest.raises(StructureCorrupt, match=match):
                    again.checkout(1, out_dir / "out.bin")
            assert writes
            with pytest.raises(StructureCorrupt, match=match):
                again.materialize(1)
        finally:
            again.close()
        assert list(out_dir.iterdir()) == []

    def test_length_disagreeing_with_index_leaves_no_file(self, repo,
                                                          tmp_path,
                                                          monkeypatch):
        def shorten_last(raw, size):   # block 11's new block
            length, = struct.unpack(">I", raw[-4:])
            raw[-4:] = struct.pack(">I", length - 1)
        self._refused_everywhere(repo, tmp_path, monkeypatch, shorten_last,
                                 "length")

    def test_block_missing_from_index_leaves_no_file(self, repo, tmp_path,
                                                     monkeypatch):
        def flip_digest(raw, size):
            raw[8 * size] ^= 1     # block 8
        self._refused_everywhere(repo, tmp_path, monkeypatch, flip_digest,
                                 "missing from store")

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
    def test_log_cut_short_while_open_reported(self, repo):
        """versions.log losing its last record while the store is open is
        reported by fsck in one line, with no line per version."""
        repo.commit(format_diff([DiffEntry("insert", 0, b"cut")]))
        log = repo.path / "versions.log"
        os.truncate(log, log.stat().st_size - repo.log.layout.size)
        assert repo.fsck() == ["versions.log cut short at record 1"]

    def test_checkout_of_a_root_with_a_raised_rank_refused(self, repo,
                                                           capsys, tmp_path):
        """A version whose root record's rank was raised by 5 is refused
        by checkout once its leaves fall short of the rank: exit 1, with
        neither the output nor its temporary file left."""
        root, size = repo.latest.root, repo.store.layout.size
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        at = root * size + 2      # the rank follows kind u8 and level u8
        rank = int.from_bytes(raw[at:at + 8], "big")
        raw[at:at + 8] = (rank + 5).to_bytes(8, "big")
        log.write_bytes(bytes(raw))
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert cli.main(["--repo", str(repo.path), "checkout", "--version",
                         "0", "--out", str(out)]) == cli.EXIT_REJECT
        assert capsys.readouterr().err == (
            "error: materialized length disagrees with rank\n")
        assert not out.exists() and not Path(f"{out}.tmp").exists()

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

    def test_reads_commit_records_in_runs(self, repo, monkeypatch):
        """fsck decodes the commit log in runs: two reads of versions.log
        for 1,000 versions, not one per version."""
        rng = random.Random(1000)
        for _ in range(999):
            repo.commit(format_diff([DiffEntry(
                "replace", rng.randrange(4000), rng.randbytes(8), 8)]))
        repo.close()
        again = Repository.open(repo.path)
        reads = []
        real_pread = os.pread

        def counting(fd, length, offset):
            if fd == again.log._file._fd:
                reads.append(length)
            return real_pread(fd, length, offset)
        try:
            assert again.latest.version == 999
            monkeypatch.setattr(os, "pread", counting)
            assert again.fsck() == []
        finally:
            again.close()
        assert len(reads) <= 2

    def test_log_reads_commit_records_in_runs(self, repo, monkeypatch,
                                              capsys):
        """`flexstore log` decodes the commit log in runs: after open, two
        reads of versions.log for 1,000 versions, not one per version.
        Its meta digest reads one record more per edge entry above the
        left sentinel's, the last version's and each survivor's, about
        log n."""
        rng = random.Random(1001)
        for _ in range(999):
            repo.commit(format_diff([DiffEntry(
                "replace", rng.randrange(4000), rng.randbytes(8), 8)]))
        repo.close()
        reads, repos = [], []
        real_open, real_pread = Repository.open, os.pread

        def opening(cls, path):
            opened = real_open(path)
            repos.append(opened)
            versions_log = opened.log._file._fd

            def counting(fd, length, offset):
                if fd == versions_log:
                    reads.append(length)
                return real_pread(fd, length, offset)
            monkeypatch.setattr(os, "pread", counting)
            return opened

        monkeypatch.setattr(Repository, "open", classmethod(opening))
        capsys.readouterr()
        assert cli.main(["--repo", str(repo.path), "log"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1001 and lines[999].startswith("version 999 ")
        size = repos[0].log.layout.size
        hops = [length for length in reads if length == size]
        assert len(reads) - len(hops) <= 2
        edge = repos[0].vindex.edge     # derived by `log`: no read here
        assert len(hops) == len(edge) - 1 <= 20

    def test_refused_node_record_reported_once(self, repo):
        """A node record that every version reaches is refused in one
        line; one more line names, as ranges, the versions that reach
        it, without the reason."""
        for at in (10, 2000):
            repo.commit(format_diff([DiffEntry("replace", at, b"kind", 4)]))
        leaf = 1      # the last data leaf, which all three versions share
        for version in range(3):
            assert leaf in _reach_new(repo.store, [repo.record(version).root],
                                      0)
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[leaf * repo.store.layout.size] = 9
        log.write_bytes(bytes(raw))
        again = Repository.open(repo.path)
        try:
            problems = again.fsck()
        finally:
            again.close()
        assert [p for p in problems if "unknown kind 9" in p] == [
            f"node {leaf}: unknown kind 9"]
        assert [p for p in problems if p.startswith("version")] == [
            "versions 0-2: reach a bad node record"]

    def test_block_equal_to_a_version_record_is_clean(self, tmp_path):
        """A data block whose bytes are version 0's record material has
        the block digest of version 0's layer-2 leaf, at another length.
        Block flags count only under layer-1 roots, so fsck is clean."""
        src = tmp_path / "input.bin"
        src.write_bytes(bytes(range(90)))
        with Repository.init(tmp_path / "repo", block_size=45,
                             seed=bytes.fromhex(SEED_HEX),
                             input_file=src) as repo:
            rec, scheme = repo.record(0), repo.scheme
            material = scheme.record_layout.pack(
                hashing.TAG_VERSION_RECORD, 0, rec.root_digest,
                rec.update_start, rec.update_length)
            repo.commit(format_diff([DiffEntry("replace", 0, material,
                                               len(material))]))
            assert scheme.version_record(
                0, rec.root_digest, rec.update_start, rec.update_length
            ) in repo.blocks.all_digests()
            assert repo.fsck() == []

    def test_decodes_at_most_the_edge(self, repo):
        """fsck checks every node record in one pass that builds no node:
        after open, at most the latest edge's records and their frozen
        parts, for the meta digest, enter the node map."""
        for at in (10, 2000):
            repo.commit(format_diff([DiffEntry("replace", at, b"map", 3)]))
        repo.close()
        with Repository.open(repo.path) as again:
            assert again.fsck() == []
            assert len(again.store) <= 2 * len(again.vindex.edge)

    def test_shared_leaf_digest_flip_reported_once(self, repo):
        """A digest byte flipped in a data leaf that several records link
        to breaks each of their hashes too, but only the leaf is reported;
        every version reaches it, and one line names them all."""
        for at in (10, 2000):
            repo.commit(format_diff([DiffEntry("replace", at, b"flip", 4)]))
        links = [link for node_id in range(repo.log.commit(2).nodes)
                 for link in (repo.store.get(node_id).below,
                              repo.store.get(node_id).after)]
        reached = _reach_new(repo.store, [repo.record(version).root
                                          for version in range(3)], 0)
        # The reached data leaf that the most records link to.
        leaf = max((node_id for node_id in reached
                    if repo.store.get(node_id).kind == core.KIND_LEAF),
                   key=links.count)
        assert links.count(leaf) > 1
        size = repo.store.layout.size
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[(leaf + 1) * size - 1] ^= 0x01   # its digest's last byte
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            problems = again.fsck()
        assert [p for p in problems if p.startswith("node ")] == [
            f"node {leaf}: digest mismatch"]
        assert [p for p in problems if p.startswith("version")] == [
            "versions 0-2: reach a bad node record"]

    def test_layer2_leaf_flip_names_versions_in_one_line(self, repo):
        """A digest byte flipped in version 0's layer-2 leaf, as the
        latest layer-2 root holds it, gives one node line and one line
        naming, as ranges, the versions whose edges reach it."""
        for at in range(10, 4000, 800):
            repo.commit(format_diff([DiffEntry("replace", at, b"two", 3)]))
        leaf = core.search(repo.vindex, repo.vindex.root, 0).leaf
        assert leaf >= 0     # a stored node, not an edge node
        versions = [v for v in range(repo.vindex.count)
                    if leaf in _reach_new(repo.store, _frozen_parts(repo, v),
                                          0)]
        assert len(versions) > 1
        size = repo.store.layout.size
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[(leaf + 1) * size - 1] ^= 0x01   # its digest's last byte
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            problems = again.fsck()
        assert [p for p in problems if p.startswith("node ")] == [
            f"node {leaf}: digest mismatch"]
        assert [p for p in problems if p.startswith("version")] == [
            f"versions {repo_mod._ranges(versions)}: edges reach a bad node "
            "record"]

    def test_versions_named_as_ranges(self):
        assert repo_mod._ranges([0, 1, 2, 5, 7, 8]) == "0-2, 5, 7-8"
        assert repo_mod._ranges([4]) == "4"

    def test_missing_block_reported_once_per_leaf(self, repo):
        """A block the index lacks gives one line per leaf record that
        holds it, naming the block, however many versions reach it, and
        no line per version."""
        for at in (10, 2000):
            repo.commit(format_diff([DiffEntry("replace", at, b"lost", 4)]))
        digest = repo.store.get(1).block   # all three versions hold it
        roots = [repo.record(version).root for version in range(3)]
        holders = sorted(
            node_id for node_id in _reach_new(repo.store, roots, 0)
            if repo.store.get(node_id).kind == core.KIND_LEAF
            and repo.store.get(node_id).block == digest)
        width = repo.scheme.width
        repo.close()
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        at = raw.index(digest)
        assert at % (width + 12) == 0
        raw[at] ^= 0x01      # the index now names another digest
        index.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            problems = again.fsck()
        assert sorted(p for p in problems if p.startswith("leaf ")) == [
            f"leaf {node_id}: block {digest.hex()} missing"
            for node_id in holders]
        assert not [p for p in problems if p.startswith("version ")]

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

    @pytest.mark.parametrize("field, source, problems", [
        ("nodes", 3, ["versions.log: version 1 counts 44 nodes, but its "
                      "last is node 31"]),
        ("blocks", 3, ["version 2: counts fewer records than version 1"]),
    ], ids=["nodes", "blocks"])
    def test_commit_record_checked_against_the_one_before(
            self, repo, field, source, problems):
        """A middle commit record's count, rewritten with another record's
        value that every check against the last record accepts, is
        reported by fsck."""
        for at in (100, 1500, 3000):     # each commit adds a block
            repo.commit(format_diff([DiffEntry("insert", at, b"n" * 40)]))
        layout = repo.log.layout
        names = ("root", "root_digest", "start", "length", "nodes",
                 "blocks")
        repo.close()
        log = repo.path / "versions.log"
        raw = bytearray(log.read_bytes())
        records = [list(layout.unpack_from(raw, k * layout.size))
                   for k in range(4)]
        index = names.index(field)
        assert records[1][index] != records[source][index]
        records[1][index] = records[source][index]
        layout.pack_into(raw, layout.size, *records[1])
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            assert again.fsck() == problems

    def test_middle_commit_record_node_count_raised(self, repo, capsys):
        """A middle commit record's node count one past the honest value
        still lies below the last record's, but is not one past the
        record's last node, its root or its frozen part: reading the
        version refuses it, and fsck and `flexstore log` report it."""
        for at in (100, 1500, 3000):
            repo.commit(format_diff([DiffEntry("insert", at, b"n" * 40)]))
        layout = repo.log.layout
        repo.close()
        log = repo.path / "versions.log"
        raw = bytearray(log.read_bytes())
        fields = list(layout.unpack_from(raw, layout.size))
        fields[4] += 1       # version 1's nodes
        layout.pack_into(raw, layout.size, *fields)
        log.write_bytes(bytes(raw))
        message = (f"versions.log: version 1 counts {fields[4]} nodes, but "
                   f"its last is node {fields[4] - 2}")
        with Repository.open(repo.path) as again:
            with pytest.raises(StructureCorrupt, match=message):
                again.record(1)
            assert again.fsck() == [message]
        capsys.readouterr()
        assert cli.main(["--repo", str(repo.path), "log"]) == cli.EXIT_REJECT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tampered_commit_record_fails_layer2_replay(self, repo):
        """A version's update region changed in its commit record, with
        its record digest and nowhere else, no longer replays to the
        stored layer-2 nodes that hold its leaf: the edge links that name
        them and the meta digest disagree with the replay. Changed
        without its record digest, the record is refused as it is
        read."""
        for at in range(100, 1000, 150):
            repo.commit(format_diff([DiffEntry("replace", at, b"ab", 2)]))
        layout = repo.log.layout
        repo.close()
        log = repo.path / "versions.log"
        raw = bytearray(log.read_bytes())
        fields = list(layout.unpack_from(raw, layout.size))
        fields[2] ^= 0x01        # version 1's update start
        layout.pack_into(raw, layout.size, *fields)
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            assert again.fsck() == ["versions.log: version 1's record "
                                    "digest does not match its fields"]
        fields[-1] = repo.scheme.version_record(1, *fields[1:4])
        layout.pack_into(raw, layout.size, *fields)
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            # Version 4's append froze the part that holds version 1.
            assert again.fsck() == [
                "version 4: edge link disagrees with a replay of the "
                "version log",
                "edge links' meta digest does not match a replay of the "
                "version log"]

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

    def test_block_indexed_twice_reported(self, repo):
        """The last index record and its pack bytes rewritten to repeat
        the first block, of the same length: fsck names the block."""
        repo.close()
        (first, start, length), (_last, offset, last_length) = (
            pack_records(repo)[0], pack_records(repo)[-1])
        assert length == last_length
        pack = repo.path / "blocks" / "pack"
        raw = bytearray(pack.read_bytes())
        raw[offset:offset + length] = raw[start:start + length]
        pack.write_bytes(bytes(raw))
        index = repo.path / "blocks" / "index"
        raw = bytearray(index.read_bytes())
        raw[-(repo.scheme.width + 12):-12] = first
        index.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            assert f"block {first.hex()}: indexed twice" in again.fsck()

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

    def test_node_log_cut_mid_pass_keeps_earlier_problems(self, tmp_path):
        """A node log cut, after open, inside its second run ends fsck's
        node pass with one line, and the bad record the first run held is
        still reported."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(1).randbytes(8192))
        with Repository.init(tmp_path / "repo", block_size=8,
                             seed=bytes.fromhex(SEED_HEX),
                             input_file=src) as repo:
            step, size = repo.store._file.step, repo.store.layout.size
            assert repo.store.next_id > step + 10
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[4 * size - 1] ^= 0x01     # node 3's digest's last byte
        log.write_bytes(bytes(raw))
        with Repository.open(repo.path) as again:
            os.truncate(log, (step + 10) * size + 3)
            problems = again.fsck()
        assert "node 3: digest mismatch" in problems
        assert f"node log cut short at record {step + 10}" in problems

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
        # A JSON commit line, as format 4 wrote, at least one record
        # wide. A fixed id, so a longer record does not rename the test.
        pytest.param("versions.log", b'{"version": 1, "root": 99999, '
                     b'"nodes": 999, "blocks": 9, "layer2_root": 98, '
                     b'"level_counter": 4096}\n', True,
                     id="versions.log-format 4 line"),
        ("config.json", b"{not json\n", False),
        # A fixed id, so a format bump does not rename the test.
        pytest.param("config.json", b'{"format": %d, "hash": "md5", '
                     b'"seed": ""}' % STORE_FORMAT, False,
                     id="config.json-current format"),
    ])
    def test_refused_with_one_line(self, repo, capsys, name, content,
                                   append):
        repo.close()
        target = repo.path / name
        target.write_bytes((target.read_bytes() if append else b"")
                           + content)
        _assert_refused(repo.path, capsys)

    @pytest.mark.parametrize("key, value", [
        ("block_size", None), ("block_size", 0), ("block_size", -2048),
        ("block_size", "2048"), ("block_size", 2048.0),
        ("block_size", True), ("block_size", 2 ** 31), ("seed", "00"),
        ("seed", "00" * 11)])
    def test_bad_config_field(self, repo, capsys, key, value):
        """A config.json field the store cannot work with is refused at
        open, as a corrupt store (exit 1, one line), by every command."""
        repo.close()
        path = repo.path / "config.json"
        config = json.loads(path.read_text())
        if value is None:
            del config[key]
        else:
            config[key] = value
        path.write_text(json.dumps(config))
        with pytest.raises(StructureCorrupt, match="malformed config.json"):
            Repository.open(repo.path)
        diff = repo.path.parent / "edit.diff"
        diff.write_bytes(format_diff([DiffEntry("insert", 0, b"x")]))
        for command in (["log"], ["fsck"], ["commit", "--diff", str(diff)]):
            capsys.readouterr()
            assert cli.main(["--repo", str(repo.path)] + command
                            ) == cli.EXIT_REJECT, command
            err = capsys.readouterr().err
            assert err.startswith("error: malformed config.json: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["root", "nodes", "blocks", "frozen",
                                       "survivor", "update_start"])
    def test_bad_commit_record_field(self, repo, capsys, field):
        """The last commit record is checked at open: its record digest is
        its version record's, its node count is one past its last node,
        its root or frozen part, its survivor lies below its version, and
        the node log and the block index hold the records it counts."""
        repo.commit(format_diff([DiffEntry("replace", 10, b"last", 4)]))
        repo.close()
        log = repo.path / "versions.log"
        names = ["root", "root_digest", "update_start", "update_length",
                 "nodes", "blocks", "survivor", "frozen", "record_digest"]
        raw = log.read_bytes()
        last = len(raw) - repo.log.layout.size
        values = dict(zip(names, repo.log.layout.unpack(raw[last:])))
        if field in ("root", "frozen"):
            values[field] = values["nodes"]
            message = f"counts {values['nodes']} nodes, but its last is node"
        elif field == "survivor":
            values[field], message = 1, "links to a later version"
        else:
            values[field] += 1
            message = {"nodes": "nodes, but its last is node",
                       "blocks": "block index",
                       "update_start": "record digest"}[field]
        log.write_bytes(raw[:last] + repo.log.layout.pack(*values.values()))
        with pytest.raises(StructureCorrupt, match=message):
            Repository.open(repo.path)
        _assert_refused(repo.path, capsys)

    def test_unknown_node_kind_refused_on_read(self, repo, capsys):
        frozen = repo.latest.frozen     # read as the edge is derived
        assert frozen is not None
        repo.close()
        log = repo.path / "nodes" / "log"
        raw = bytearray(log.read_bytes())
        raw[frozen * repo.store.layout.size] = 9
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
        refused = f"nodes, but its last is node {2 ** 64 - 1}"
        capsys.readouterr()
        assert cli.main(args + ["checkout", "--version", "2", "--out", out]
                        ) == cli.EXIT_OK
        for command in (["log"], ["checkout", "--version", "1", "--out",
                                  out]):
            assert cli.main(args + command) == cli.EXIT_REJECT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "version 1 counts" in err and refused in err
        assert cli.main(args + ["fsck"]) == cli.EXIT_REJECT
        assert refused in capsys.readouterr().out


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

    def test_writer_and_reader_prove_alike(self, tmp_path):
        """300 commits of one-spot edits on 64 KiB: every 25th, the writer,
        whose edge comes from its appends, and a fresh open, whose edge is
        derived from the head, give the same FXP3 bytes for a challenge
        of an older version and the latest."""
        rng = random.Random(27)
        src = tmp_path / "input.bin"
        src.write_bytes(rng.randbytes(64 * 1024))
        path = tmp_path / "repo"
        with Repository.init(path, block_size=512,
                             seed=bytes.fromhex(SEED_HEX),
                             input_file=src) as writer:
            for version in range(1, 301):
                writer.commit(format_diff([DiffEntry(
                    "replace", rng.randrange(64 * 1024 - 8),
                    rng.randbytes(8), 8)]))
                if version % 25:
                    continue
                ch = writer.make_challenge(
                    rng.randbytes(10), 8, (rng.randrange(version), version))
                proof = audit.write_proof(writer.prove(ch), writer.scheme)
                with Repository.open(path) as reader:
                    assert audit.write_proof(reader.prove(ch),
                                             reader.scheme) == proof
                assert proof.startswith(b"FXP3")

    @pytest.mark.parametrize("name", ["versions.log", "blocks/index"])
    def test_read_error_closes_what_open_opened(self, repo, monkeypatch,
                                                name):
        """An I/O error reading a file's last record makes open raise
        IOFailure and leaves none of the descriptors it opened open."""
        repo.close()
        failing = os.fspath(repo.path / name)
        opened, closed, bad, reads = [], [], [], []
        real_open, real_close, real_pread = os.open, os.close, os.pread

        def recording_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            opened.append(fd)
            if os.fspath(path) == failing:
                bad.append(fd)
            return fd

        def recording_close(fd):
            closed.append(fd)
            if fd in bad:
                bad.remove(fd)
            real_close(fd)

        def pread(fd, length, offset):
            if fd in bad:
                reads.append(fd)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_pread(fd, length, offset)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", recording_open)
            patch.setattr(os, "close", recording_close)
            patch.setattr(os, "pread", pread)
            for _ in range(5):
                with pytest.raises(IOFailure, match="unreadable"):
                    Repository.open(repo.path)
        assert len(reads) == 5
        assert sorted(closed) == sorted(opened)

    @pytest.mark.parametrize("name", ["blocks/pack", "blocks/index",
                                      "nodes/log", "versions.log"])
    def test_write_error_closes_what_init_opened(self, tmp_path, monkeypatch,
                                                 name):
        """A write to one store file failing with ENOSPC makes init raise
        IOFailure and leaves none of the descriptors it opened open."""
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(0).randbytes(4096))
        opened, closed = [], []
        real_open, real_close, real_file_open = os.open, os.close, open

        def recording_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            opened.append(fd)
            return fd

        def recording_close(fd):
            closed.append(fd)
            real_close(fd)

        def failing_open(file, mode="r", *args, **kwargs):
            if "a" in mode and os.fspath(file).endswith(name):
                return _FullDisk(file, mode)
            return real_file_open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", recording_open)
            patch.setattr(os, "close", recording_close)
            patch.setattr(repo_mod, "open", failing_open, raising=False)
            with pytest.raises(IOFailure, match="unwritable"):
                Repository.init(tmp_path / "repo", block_size=256,
                                input_file=src)
        assert sorted(closed) == sorted(opened)

    def test_log_without_a_complete_record_refused(self, repo, capsys):
        """A versions.log cut inside its first record holds no committed
        version: open refuses it, and `log` exits 1 saying so."""
        repo.close()
        log = repo.path / "versions.log"
        log.write_bytes(log.read_bytes()[:repo.log.layout.size - 1])
        with pytest.raises(StructureCorrupt,
                           match="holds no committed version"):
            Repository.open(repo.path)
        assert cli.main(["--repo", str(repo.path), "log"]) == cli.EXIT_REJECT
        assert capsys.readouterr().err == (
            "error: versions.log holds no committed version\n")


class _FullDisk(io.FileIO):
    def write(self, _data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", ["log", "checkout", "challenge", "prove",
                                     "verify", "fsck", "commit", "tamper"])
@pytest.mark.parametrize("name", ["versions.log", "nodes/log", "blocks/pack",
                                  "blocks/index"])
def test_read_error_on_a_store_file(repo, tmp_path, monkeypatch, capsys,
                                    name, command):
    """With every positioned read of one store file failing with EIO, a
    command that reads the file exits 3 with one line, and one that does
    not exits as it does without the fault."""
    repo.commit(format_diff([DiffEntry("replace", 300, b"new", 3)]))
    repo.close()
    base, work = tmp_path / "base", tmp_path / "work"
    os.rename(repo.path, base)
    chf, prf, diff = (tmp_path / f for f in ("c.chal", "p.proof", "d.diff"))
    diff.write_bytes(format_diff([DiffEntry("replace", 700, b"again", 5)]))
    out = tmp_path / "out"
    args = {"log": [], "fsck": [],
            "checkout": ["--version", "0", "--out", str(out)],
            "challenge": ["--seed", SEED_HEX, "--count", "8", "--versions",
                          "0,1", "--out", str(out)],
            "prove": ["--challenge", str(chf), "--out", str(out)],
            "verify": ["--challenge", str(chf), "--proof", str(prf)],
            "commit": ["--diff", str(diff)],
            "tamper": ["--delete-fraction", "1", "--allow-data-loss"]}

    def run(command):
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(base, work)
        with suppress(FileNotFoundError):
            out.unlink()
        code = cli.main(["--repo", str(work), command, *args[command]])
        return code, *capsys.readouterr()

    for step in ("challenge", "prove"):
        assert run(step)[0] == cli.EXIT_OK
        os.rename(out, chf if step == "challenge" else prf)
    want = run(command)
    assert want[0] == cli.EXIT_OK, want
    failing, bad, reads = os.fspath(work / name), set(), []
    real_open, real_pread, real_preadv = os.open, os.pread, os.preadv

    def recording_open(path, *rest, **kwargs):
        fd = real_open(path, *rest, **kwargs)
        if os.fspath(path) == failing:
            bad.add(fd)
        return fd

    def failing_read(real):
        def read(fd, *rest):
            if fd in bad:
                reads.append(fd)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real(fd, *rest)
        return read

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        patch.setattr(os, "pread", failing_read(real_pread))
        patch.setattr(os, "preadv", failing_read(real_preadv))
        got = run(command)
    if reads:
        code, _out, err = got
        assert code == cli.EXIT_IO, got
        assert err.startswith("error: ") and err.count("\n") == 1, got
        assert os.strerror(errno.EIO) in err
    else:
        assert got == want


@pytest.mark.parametrize("name", ["versions.log", "nodes/log", "blocks/pack",
                                  "blocks/index"])
def test_close_error_on_a_store_file(repo, monkeypatch, capsys, name):
    """With the close of one store file's descriptor failing with EIO,
    which releases it all the same, `log` exits 3 with one line, and
    every descriptor the command opened is closed."""
    repo.close()
    failing, opened, closed, bad = os.fspath(repo.path / name), [], [], []
    real_open, real_close = os.open, os.close

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened.append(fd)
        if os.fspath(path) == failing:
            bad.append(fd)
        return fd

    def failing_close(fd):
        closed.append(fd)
        real_close(fd)
        if fd in bad:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        patch.setattr(os, "close", failing_close)
        code = cli.main(["--repo", str(repo.path), "log"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.strerror(errno.EIO) in err
    assert len(bad) == 1 and len(opened) == 4
    assert sorted(closed) == sorted(opened)


def test_commit_names_its_version_when_a_close_fails(repo, monkeypatch,
                                                    capsys, tmp_path):
    """With the close of the node log's descriptor failing with EIO after
    the commit record is written, `commit` exits 3 with one line, and
    stdout names the version it committed, as a reopen shows."""
    repo.close()
    failing, bad = os.fspath(repo.path / "nodes/log"), []
    real_open, real_close = os.open, os.close

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        if os.fspath(path) == failing:
            bad.append(fd)
        return fd

    def failing_close(fd):
        real_close(fd)
        if fd in bad:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    diff = tmp_path / "edit.diff"
    diff.write_bytes(format_diff([DiffEntry("insert", 0, b"landed")]))
    with monkeypatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        patch.setattr(os, "close", failing_close)
        code = cli.main(["--repo", str(repo.path), "commit", "--diff",
                         str(diff)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_IO and len(bad) == 1
    assert captured.out.startswith("version 1 rank 4102\n")
    assert captured.err == ("error: node log unclosable: "
                            f"{OSError(errno.EIO, os.strerror(errno.EIO))}\n")
    with Repository.open(repo.path) as again:
        assert again.latest.version == 1


# The exit code of each error class in errors.py, as cli.py documents
# them: 2 for usage and domain errors, 3 for I/O failures, 1 otherwise.
EXIT_CODES = {
    errors.FlexStoreError: cli.EXIT_REJECT,
    errors.IndexOutOfRange: cli.EXIT_USAGE,
    errors.StructureCorrupt: cli.EXIT_REJECT,
    errors.NotBlockAligned: cli.EXIT_USAGE,
    errors.BlockTooSmall: cli.EXIT_USAGE,
    errors.VersionOutOfOrder: cli.EXIT_USAGE,
    errors.NoSuchVersion: cli.EXIT_USAGE,
    errors.EmptyRegion: cli.EXIT_USAGE,
    errors.ProofRejected: cli.EXIT_REJECT,
    errors.PathNotCovered: cli.EXIT_REJECT,
    errors.DiffOutOfRange: cli.EXIT_USAGE,
    errors.OverlappingDiffs: cli.EXIT_USAGE,
    errors.EmptyCommit: cli.EXIT_USAGE,
    errors.PathExists: cli.EXIT_IO,
    errors.IOFailure: cli.EXIT_IO,
    errors.FormatError: cli.EXIT_USAGE,
    errors.DomainError: cli.EXIT_USAGE,
    errors.RepositoryLocked: cli.EXIT_IO,
}


def test_exit_code_table_names_every_error_class():
    assert {value for value in vars(errors).values()
            if isinstance(value, type)
            and issubclass(value, errors.FlexStoreError)} == set(EXIT_CODES)


@pytest.mark.parametrize("error, code", EXIT_CODES.items(),
                         ids=[error.__name__ for error in EXIT_CODES])
def test_error_exit_code(tmp_path, monkeypatch, capsys, error, code):
    """Each error class, raised as the store opens, exits with its code
    and one `error:` line."""
    def refuse(path):
        raise error("refused")

    monkeypatch.setattr(Repository, "open", staticmethod(refuse))
    assert cli.main(["--repo", str(tmp_path), "log"]) == code
    assert capsys.readouterr().err == "error: refused\n"


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


def _frozen_parts(repo, version):
    """The frozen parts of version `version`'s edge, derived from the
    records up to it: the stored layer-2 nodes its edge reaches."""
    past = VersionIndex(repo.store, repo.scheme, repo.seed,
                        records=[repo.record(v) for v in range(version + 1)])
    return [frozen for _level, _version, frozen, _span, _part in past.edge
            if frozen is not None]


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

    def test_version_delta_targets_the_update_region(self, repo,
                                                      monkeypatch):
        """The blocks a walk from byte 0 finds overlapping each version's
        update region, on versions made by every kind of entry and on a
        version emptied to rank 0."""
        for entries in ([DiffEntry("replace", 300, b"x" * 40, 30)],
                        [DiffEntry("insert", 1000, b"y" * 700),
                         DiffEntry("delete", 3000, delete_len=600)],
                        [DiffEntry("delete", 0, delete_len=100)],
                        [DiffEntry("insert", 4000, b"z" * 10)]):
            repo.commit(format_diff(entries))
        rank = repo.store.get(repo.latest.root).rank
        repo.commit(format_diff([DiffEntry("delete", 0, delete_len=rank)]))

        def full_walk(version):
            rec = repo.record(version)
            targets, end = set(), 0
            for leaf in core.iter_data_leaves(repo.store, rec.root):
                start, end = end, end + leaf.length
                if start >= rec.update_start + rec.update_length:
                    break
                if end > rec.update_start:
                    targets.add(leaf.block)
            return targets
        overwritten = []
        monkeypatch.setattr(repo.blocks, "overwrite",
                            lambda digest, data: overwritten.append(digest))
        counts = []
        for version in range(repo.vindex.count):
            overwritten.clear()
            report = repo.tamper(1.0, version=version)
            assert set(overwritten) == full_walk(version)
            counts.append(report["targets"])
        assert counts[0] == 16 and min(counts[1:-1]) > 0 and counts[-1] == 0

    @pytest.mark.parametrize("fraction, targets, corrupted", [
        (0.5, 1, 1), (0.10, 100, 10), (0.5, 3, 2), (0.25, 2, 1),
        (0.001, 5, 1), (0.0, 5, 0), (1.0, 0, 0), (1.0, 7, 7)])
    def test_count_rounds_half_up(self, repo, monkeypatch, fraction, targets,
                                  corrupted):
        """Half a block rounds up, and a fraction above 0 corrupts at
        least one of the targets there are."""
        digests = [bytes([i]) * 20 for i in range(targets)]
        overwritten = []
        monkeypatch.setattr(repo.blocks, "all_digests", lambda: digests)
        monkeypatch.setattr(repo.blocks, "get", lambda digest: b"block")
        monkeypatch.setattr(repo.blocks, "overwrite",
                            lambda digest, data: overwritten.append(digest))
        report = repo.tamper(fraction, scope="blocks")
        assert report == {"scope": "blocks", "targets": targets,
                          "corrupted": corrupted}
        assert len(set(overwritten)) == corrupted

    def test_corruption_detected_by_audit(self, repo):
        repo.commit(format_diff(
            [DiffEntry("replace", 0, os.urandom(2048), 2048)]))
        report = repo.tamper(1.0, scope="version-delta", rng_seed=1)
        assert report["corrupted"] == report["targets"] > 0
        ch = repo.make_challenge(bytes(10), 10, ())
        proof = repo.prove(ch)
        ok, reason = repo.verify(ch, proof)
        assert not ok

    def test_write_error_exits_3(self, repo, monkeypatch, capsys):
        """A failed in-place write to the pack exits 3 with one line."""
        repo.close()
        real_open = open

        class FullDisk(io.FileIO):
            def write(self, _data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def failing_open(file, mode="r", *args, **kwargs):
            if "+" in mode and str(file).endswith("pack"):
                return FullDisk(file, mode)
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(repo_mod, "open", failing_open, raising=False)
        assert cli.main(["--repo", str(repo.path), "tamper",
                         "--delete-fraction", "1", "--scope", "blocks",
                         "--allow-data-loss"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.strerror(errno.ENOSPC) in err


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

    def test_proof_for_more_draws_rejects_exit_1(self, tmp_path, capsys):
        """A whole-file proof for 50 draws, checked against a challenge of
        1 draw with the same seed, carries leaves no draw hits: verify
        exits 1 and says so."""
        src = tmp_path / "f.bin"
        src.write_bytes(random.Random(3).randbytes(64 * 1024))
        repo_path = str(tmp_path / "repo")
        assert self.run("--repo", repo_path, "init", "--file", str(src),
                        "--block-size", "1024", "--seed", SEED_HEX) == 0
        files = {count: tmp_path / f"c{count}" for count in (1, 50)}
        for count, chf in files.items():
            assert self.run("--repo", repo_path, "challenge", "--seed",
                            "ffeeddccbbaa99887766", "--count", str(count),
                            "--out", str(chf)) == 0
        prf = tmp_path / "p"
        assert self.run("--repo", repo_path, "prove", "--challenge",
                        str(files[50]), "--out", str(prf)) == 0
        capsys.readouterr()
        assert self.run("--repo", repo_path, "verify", "--challenge",
                        str(files[1]), "--proof", str(prf)) == 1
        assert capsys.readouterr().out == (
            "reject: proof carries a leaf no challenged index hits\n")

    @pytest.mark.parametrize("layer2, keep_parts, reason", [
        (bytes.fromhex("0201030000"), True,
         "internal node missing a child"),
        (b"\x01" + bytes(20) + (1).to_bytes(8, "big"), False,
         "pruned subtree has no expanded root"),
    ], ids=["internal node without after", "stub only, no parts"])
    def test_malformed_layer2_subtree_rejects_exit_1(
            self, tmp_path, capsys, layer2, keep_parts, reason):
        """A proof whose layer-2 subtree is malformed, with its parts or
        with none, is refused by verify: exit 1, naming the fault."""
        src = tmp_path / "f.bin"
        src.write_bytes(random.Random(5).randbytes(2048))
        repo_path = str(tmp_path / "repo")
        assert self.run("--repo", repo_path, "init", "--file", str(src),
                        "--block-size", "256", "--seed", SEED_HEX) == 0
        chf, prf = tmp_path / "c", tmp_path / "p"
        assert self.run("--repo", repo_path, "challenge", "--seed",
                        "ffeeddccbbaa99887766", "--count", "4", "--out",
                        str(chf)) == 0
        assert self.run("--repo", repo_path, "prove", "--challenge",
                        str(chf), "--out", str(prf)) == 0
        scheme = hashing.HashScheme()
        proof = audit.read_proof(prf.read_bytes(), scheme)
        prf.write_bytes(audit.write_proof(audit.VersionProof(
            layer2, proof.parts if keep_parts else ()), scheme))
        capsys.readouterr()
        assert self.run("--repo", repo_path, "verify", "--challenge",
                        str(chf), "--proof", str(prf)) == 1
        assert (capsys.readouterr().out
                == f"reject: malformed proof: {reason}\n")

    def test_challenge_of_an_empty_version_rejects_exit_1(self, tmp_path,
                                                          capsys):
        """A challenge of version 0 of an empty store, answered with that
        version's range proof, is refused by verify: exit 1."""
        repo_path = tmp_path / "repo"
        assert self.run("--repo", str(repo_path), "init", "--seed",
                        SEED_HEX) == 0
        chf, prf = tmp_path / "c", tmp_path / "p"
        chf.write_bytes(audit.write_challenge(audit.Challenge(bytes(10), 1,
                                                              (0,))))
        with Repository.open(repo_path) as repo:
            prf.write_bytes(audit.write_proof(repo.prove_blocks(0, 0, 0),
                                              repo.scheme))
        capsys.readouterr()
        assert self.run("--repo", str(repo_path), "verify", "--challenge",
                        str(chf), "--proof", str(prf)) == 1
        assert capsys.readouterr().out == (
            "reject: challenged version has an empty region\n")

    def test_init_with_a_seed_not_hex_exits_2(self, tmp_path, capsys):
        path = tmp_path / "repo"
        assert self.run("--repo", str(path), "init", "--seed",
                        "zz" * 10) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be hex") and err.count(
            "\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("diff", [
        b"X 0 1\nz\n",                              # bad header
        b"I 0 10\nshort\n",                         # truncated payload
        b"I 9999 1\nz\n",                           # past the file's end
        b"R 8 4 1\nz\nR 10 1 1\nz\n",               # overlapping
        b"I 0 1",                                   # header, no newline
        b"I x 1\nz\n",                              # a field not a number
        b"I 0 1\nzz",                               # payload, no newline
    ], ids=["bad header", "truncated payload", "out of range", "overlapping",
            "header without newline", "non-integer field",
            "payload without newline"])
    def test_bad_diff_exits_2(self, tmp_path, repo, capsys, diff):
        """A malformed diff is a usage error, as an out-of-range or an
        overlapping one is, and commits nothing."""
        path = tmp_path / "bad.diff"
        path.write_bytes(diff)
        assert self.run("--repo", str(repo.path), "commit", "--diff",
                        str(path)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        with Repository.open(repo.path) as again:
            assert again.latest.version == 0

    def test_malformed_challenge_exits_2_for_prove_1_for_verify(
            self, tmp_path, repo, capsys):
        """prove takes a malformed challenge as a usage error; verify
        rejects it, as it rejects a malformed proof."""
        chf, prf = tmp_path / "c.chal", tmp_path / "p.proof"
        args = ["--repo", str(repo.path)]
        assert self.run(*args, "challenge", "--count", "4", "--out",
                        str(chf)) == 0
        assert self.run(*args, "prove", "--challenge", str(chf), "--out",
                        str(prf)) == 0
        chf.write_bytes(chf.read_bytes()[:-1])
        capsys.readouterr()
        assert self.run(*args, "prove", "--challenge", str(chf), "--out",
                        str(tmp_path / "p2")) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "p2").exists()
        assert self.run(*args, "verify", "--challenge", str(chf), "--proof",
                        str(prf)) == cli.EXIT_REJECT
        assert capsys.readouterr().out.startswith("reject: malformed input")

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

    def test_stale_base_rejected(self, repo):
        """A range proof of an older version is no base for the client's
        next version, though every digest in it closes."""
        for at in (100, 2000):
            repo.commit(format_diff([DiffEntry("replace", at, b"new", 3)]))
        meta = repo.meta_digest
        with pytest.raises(ProofRejected, match="not the latest"):
            adaptor.partial_from_proof(repo.scheme,
                                       repo.prove_blocks(0, 0, 600), meta)
        partial = adaptor.partial_from_proof(
            repo.scheme, repo.prove_blocks(2, 0, 600), meta)
        assert partial.root_digest == repo.latest.root_digest

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
