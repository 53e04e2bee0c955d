import os
import random
import subprocess
import sys

import pytest

from flexstore import cli
from flexstore.adaptor import DiffEntry, format_diff
from flexstore.errors import (DomainError, EmptyCommit, NoSuchVersion,
                              PathExists, RepositoryLocked, StructureCorrupt)
from flexstore.repo import Repository

SEED_HEX = "00112233445566778899"


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

    def test_reopen_round_trip(self, repo):
        repo.close()
        again = Repository.open(repo.path)
        try:
            assert again.meta_digest == repo.meta_digest
            assert again.materialize(0) == random.Random(0).randbytes(4096)
        finally:
            again.close()

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
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        (repo.path / "lock").write_text(str(child.pid))
        repo.commit(format_diff([DiffEntry("replace", 0, b"Q", 1)]))
        assert repo.latest.version == 1
        assert not (repo.path / "lock").exists()

    @pytest.mark.parametrize("content", [str(os.getpid()), "not a pid", ""])
    def test_lock_of_live_or_unknown_writer_blocks(self, repo, content):
        (repo.path / "lock").write_text(content)
        with pytest.raises(RepositoryLocked):
            repo.commit(format_diff([DiffEntry("replace", 0, b"Q", 1)]))
        assert (repo.path / "lock").read_text() == content
        assert repo.latest.version == 0

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


class TestCheckout:
    def test_version_zero_after_commits(self, repo, tmp_path):
        original = repo.materialize(0)
        repo.commit(format_diff([DiffEntry("delete", 0, delete_len=1000)]))
        out = tmp_path / "out.bin"
        repo.checkout(0, out)
        assert out.read_bytes() == original

    def test_missing_version(self, repo, tmp_path):
        with pytest.raises(NoSuchVersion):
            repo.checkout(7, tmp_path / "x")


class TestFsck:
    def test_clean(self, repo):
        assert repo.fsck() == []

    def test_detects_corrupt_block(self, repo):
        digest = repo.blocks.all_digests()[3]
        path = repo.blocks._path(digest)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        problems = repo.fsck()
        assert any("content" in p for p in problems)

    def test_detects_missing_block(self, repo):
        digest = repo.blocks.all_digests()[0]
        repo.blocks._path(digest).unlink()
        assert repo.fsck() != []

    def test_detects_node_bit_flip(self, repo):
        import struct

        from flexstore.errors import FlexStoreError
        segment = next((repo.path / "nodes").glob("segment-*.dat"))
        repo.close()
        raw = bytearray(segment.read_bytes())
        raw[-1] ^= 0x01  # tail of the newest record's digest
        segment.write_bytes(bytes(raw))
        try:
            reopened = Repository.open(repo.path)
        except (FlexStoreError, struct.error):
            return  # the flip broke the log framing: detected at open
        try:
            assert reopened.fsck() != []
        finally:
            reopened.close()

    def test_torn_node_record_refused_at_open(self, repo):
        repo.commit(format_diff([DiffEntry("replace", 5, b"tear", 4)]))
        repo.close()
        segment = sorted((repo.path / "nodes").glob("segment-*.dat"))[-1]
        segment.write_bytes(segment.read_bytes()[:-5])
        with pytest.raises(StructureCorrupt):
            Repository.open(repo.path)


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
        for rec in repo.vindex.records:
            replica.append_version(rec)
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
