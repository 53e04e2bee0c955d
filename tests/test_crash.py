"""Crash consistency of a commit.

A commit writes its blocks, then its node records, then its commit
record in versions.log. Wherever a writer stops, `open` must give the previous
version or the new one with its meta digest, `fsck` must be clean, and
a further commit must succeed and leave `fsck` clean.
"""

import errno
import io
import os
import random
import shutil
import subprocess
import sys

import pytest

from flexstore import cli, core
from flexstore import repo as repo_mod
from flexstore.adaptor import DiffEntry
from flexstore.errors import RepositoryLocked
from flexstore.repo import Repository
from helpers import format_diff

SEED = bytes.fromhex("00112233445566778899")
# The entry straddles a block boundary: a modify, a remove and two
# inserts, so three block puts; then 6 layer-1 node records, and from the
# layer-2 append 2 frozen nodes, the last node records of the commit.
EDIT = format_diff([DiffEntry("replace", 60, b"crash-" * 2, 8)])
NEXT = format_diff([DiffEntry("insert", 0, b"next")])
NODE_LOG = "nodes/log"
PACK, INDEX = "blocks/pack", "blocks/index"


class Crash(Exception):
    pass


@pytest.fixture
def states(tmp_path):
    """A store at version 0, a copy of it that took a clean commit of EDIT,
    the bytes of their logs and both meta digests."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(7).randbytes(512))
    path = tmp_path / "repo"
    repo = Repository.init(path, block_size=64, seed=SEED, input_file=src)
    repo.close()
    before = _logs(path)
    clean = tmp_path / "clean"
    shutil.copytree(path, clean)
    repo = Repository.open(clean)
    meta = [repo.meta_digest]
    repo.commit(EDIT)
    meta.append(repo.meta_digest)
    repo.close()
    return path, clean, before, _logs(clean), meta


def _logs(path):
    return {name: (path / name).read_bytes()
            for name in ("versions.log", NODE_LOG, PACK, INDEX)}


def _restore(path, logs):
    for name, data in logs.items():
        (path / name).write_bytes(data)


def _expect(path, version, meta):
    """The store opens at `version` with its meta digest and a clean
    fsck, and takes one more commit that keeps fsck clean and leaves every
    file holding its committed records and nothing else."""
    repo = Repository.open(path)
    try:
        assert repo.latest.version == version
        assert repo.meta_digest == meta[version]
        assert repo.fsck() == []
        repo.commit(NEXT)
    finally:
        repo.close()
    repo = Repository.open(path)
    try:
        assert repo.latest.version == version + 1
        assert repo.fsck() == []
        # The writer cut what was left past the committed ends.
        blocks = [block for _digest, block in repo.blocks.scan()]
        assert ((path / INDEX).stat().st_size
                == len(blocks) * (repo.scheme.width + 12))
        assert ((path / PACK).stat().st_size
                == sum(len(block) for block in blocks))
        assert ((path / NODE_LOG).stat().st_size
                == repo.store.next_id * repo.store.layout.size)
        assert ((path / "versions.log").stat().st_size
                == (version + 2) * repo.log.layout.size)
    finally:
        repo.close()


# (owner, method, which call of it raises, before or after the call runs,
#  the version open gives afterwards)
POINTS = [(repo_mod.BlockStore, "put", 1, "before", 0),
          (repo_mod.BlockStore, "put", 1, "after", 0),
          (repo_mod.BlockStore, "put", 2, "before", 0),
          (repo_mod.BlockStore, "put", 2, "after", 0),
          # finish adds the layer-1 records straight to the node store
          (repo_mod.DurableNodeStore, "add", 1, "before", 0),
          (repo_mod.DurableNodeStore, "add", 4, "before", 0),
          # the layer-2 append: its first frozen node, and before and
          # after its last
          (repo_mod.DurableNodeStore, "add", 7, "before", 0),
          (repo_mod.DurableNodeStore, "add", 8, "before", 0),
          (repo_mod.DurableNodeStore, "add", 8, "after", 0),
          # the node log's flush, after the pack's and the index's
          (repo_mod._RecordFile, "flush", 3, "before", 0),
          # after the flush comes the commit record
          (repo_mod._RecordFile, "flush", 3, "after", 0),
          # the first call after the commit record
          (repo_mod._RecordFile, "mark_committed", 1, "before", 1)]


def _inject(monkeypatch, owner, name, nth, when):
    real = getattr(owner, name)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(None)
        if len(calls) == nth and when == "before":
            raise Crash
        result = real(*args, **kwargs)
        if len(calls) == nth:
            raise Crash
        return result
    monkeypatch.setattr(owner, name, faulty)


@pytest.mark.parametrize("owner, name, nth, when, version", POINTS)
def test_raise_at_each_write(states, monkeypatch, owner, name, nth, when,
                             version):
    path, _clean, _before, _after, meta = states
    repo = Repository.open(path)
    with monkeypatch.context() as patch:
        _inject(patch, owner, name, nth, when)
        with pytest.raises(Crash):
            repo.commit(EDIT)
    repo.close()
    _expect(path, version, meta)


@pytest.mark.parametrize("owner, name, nth, when, version", POINTS)
def test_same_object_commits_after_a_raise(states, monkeypatch, owner, name,
                                           nth, when, version):
    path, _clean, _before, _after, meta = states
    repo = Repository.open(path)
    try:
        with monkeypatch.context() as patch:
            _inject(patch, owner, name, nth, when)
            with pytest.raises(Crash):
                repo.commit(EDIT)
        if version == 1:
            # The record is on disk but this object never saw it commit.
            with pytest.raises(RepositoryLocked):
                repo.commit(NEXT)
        else:
            assert repo.latest.version == 0
            assert repo.meta_digest == meta[0]
            # The failed commit's index left this object's edge as it was.
            ch = repo.make_challenge(bytes(10), 8, ())
            assert repo.verify(ch, repo.prove(ch))[0]
            repo.commit(EDIT)
            assert repo.meta_digest == meta[1]
    finally:
        repo.close()
    _expect(path, 1, meta)


@pytest.mark.parametrize("point", ["flush", "mark_committed"])
def test_killed_writer(states, point):
    """SIGKILL at the node log's flush, with the pack and the index
    written, or at its mark, with the commit record written, drops what
    the writer had buffered and keeps the lock file; neither blocks the
    next writer."""
    path, _clean, _before, _after, meta = states
    script = (
        "import os, signal, sys\n"
        "from flexstore import repo\n"
        f"real = repo._RecordFile.{point}\n"
        "def kill(self):\n"
        "    if self.name == 'node log':\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    real(self)\n"
        f"setattr(repo._RecordFile, {point!r}, kill)\n"
        f"repo.Repository.open(sys.argv[1]).commit({EDIT!r})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", script, str(path)],
                           env=env, timeout=120)
    assert child.returncode == -9
    _expect(path, 1 if point == "mark_committed" else 0, meta)


def test_commit_line_cut_at_every_length(states):
    """The commit record cut at every byte: only the whole record
    commits."""
    _path, path, before, after, meta = states
    start = len(before["versions.log"])
    record = after["versions.log"][start:]
    repo = Repository.open(path)
    try:
        assert len(record) == repo.log.layout.size
        assert repo.log.commit(1).nodes > repo.log.commit(0).nodes
    finally:
        repo.close()
    for cut in range(len(record) + 1):
        _restore(path, {**after,
                        "versions.log": after["versions.log"][:start + cut]})
        _expect(path, 1 if cut == len(record) else 0, meta)


def _cut_past_committed_end(states, name):
    """What the commit appended to one file, cut at every byte, with the
    other files as they were before it; then 40 junk bytes past each
    committed end."""
    _path, path, before, after, meta = states
    grown = after[name]
    assert grown.startswith(before[name]) and grown != before[name]
    for cut in range(len(before[name]), len(grown) + 1):
        _restore(path, {**before, name: grown[:cut]})
        _expect(path, 0, meta)
    for version, logs in enumerate((before, after)):
        _restore(path, {**logs, name: logs[name] + b"\x01" * 40})
        _expect(path, version, meta)


def test_node_log_cut_past_committed_end(states):
    _cut_past_committed_end(states, NODE_LOG)


def test_node_log_cut_inside_layer2_records(states):
    """The commit's node records, cut at the start, inside and at the end
    of each frozen layer-2 node it wrote, the last node records of the
    commit, with the commit record not yet written: open gives the old
    version, and the next writer cuts the node log back."""
    _path, path, before, after, meta = states
    repo = Repository.open(path)
    try:
        first, end = repo.log.commit(0).nodes, repo.log.commit(1).nodes
        size = repo.store.layout.size
        layer1 = set(_reach(repo.store, repo.record(1).root))
        frozen = [node_id for node_id in range(first, end)
                  if node_id not in layer1]
        assert repo.record(1).frozen == end - 1
    finally:
        repo.close()
    assert frozen == [end - 2, end - 1]
    for node_id in frozen:
        for at in (0, 1, size // 2, size - 1, size):
            _restore(path, {**before,
                            NODE_LOG: after[NODE_LOG][:node_id * size + at]})
            _expect(path, 0, meta)


def _reach(store, root):
    """The ids a root reaches."""
    seen, todo = set(), [root]
    while todo:
        node_id = todo.pop()
        if node_id not in seen:
            seen.add(node_id)
            node = store.get(node_id)
            todo += [link for link in (node.below, node.after)
                     if link is not None]
    return seen


@pytest.mark.parametrize("name", [PACK, INDEX])
def test_block_file_cut_past_committed_end(states, name):
    _cut_past_committed_end(states, name)


def test_uncommitted_node_records_truncated(states, monkeypatch):
    """A commit that flushed its node records and then died leaves them
    past the committed end, `nodes` records of the node log; the next
    writer cuts them off."""
    path, _clean, before, _after, meta = states
    repo = Repository.open(path)
    with monkeypatch.context() as patch:
        _inject(patch, repo_mod._RecordFile, "flush", 3, "after")
        with pytest.raises(Crash):
            repo.commit(EDIT)
    committed = repo.log.last.nodes * repo.store.layout.size
    repo.close()
    assert len(before[NODE_LOG]) == committed
    assert (path / NODE_LOG).stat().st_size > committed
    assert (path / "versions.log").read_bytes() == before["versions.log"]
    _expect(path, 0, meta)


def test_crash_after_an_early_pack_write(tmp_path, monkeypatch):
    """A commit whose new blocks fill the pack's write buffer writes them
    before its commit point. A raise right after that first write leaves
    the old version, and the next commit cuts the pack back."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(8).randbytes(64 * 1024))
    path = tmp_path / "repo"
    repo = Repository.init(path, block_size=4096, seed=SEED, input_file=src)
    meta = [repo.meta_digest]
    before = _logs(path)
    real_flush = repo_mod._RecordFile.flush

    def flush(self):
        real_flush(self)
        if self.name == "block pack":
            raise Crash
    insert = DiffEntry("insert", 100, random.Random(9).randbytes(3 << 20))
    with monkeypatch.context() as patch:
        patch.setattr(repo_mod._RecordFile, "flush", flush)
        with pytest.raises(Crash):
            repo.commit(format_diff([insert]))
    repo.close()
    grown = (path / PACK).stat().st_size - len(before[PACK])
    assert repo_mod._COPY_LIMIT <= grown < len(insert.data)
    assert _logs(path) | {PACK: before[PACK]} == before
    _expect(path, 0, meta)


def test_torn_last_line_opens_previous_version(states):
    _path, path, _before, after, meta = states
    _restore(path, {**after, "versions.log": after["versions.log"][:-1]})
    repo = Repository.open(path)
    try:
        assert repo.latest.version == 0
        assert repo.meta_digest == meta[0]
    finally:
        repo.close()


def test_store_holds_only_the_commit_files(states):
    path = states[0]
    repo = Repository.open(path)
    repo.commit(EDIT)
    repo.close()
    assert sorted(os.listdir(path)) == ["blocks", "config.json", "lock",
                                        "nodes", "versions.log"]
    assert sorted(os.listdir(path / "blocks")) == ["index", "pack"]
    assert os.listdir(path / "nodes") == ["log"]


class _FullDisk(io.FileIO):
    def write(self, _data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fail_writes(monkeypatch, target):
    """Make the commit's writes to one target raise ENOSPC."""
    name = {"block pack": PACK, "block index": INDEX, "node log": NODE_LOG,
            "versions.log": "versions.log"}[target]
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        if "a" in mode and str(file).endswith(name):
            return _FullDisk(file, mode)
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(repo_mod, "open", failing_open, raising=False)


@pytest.mark.parametrize("target", ["block pack", "block index", "node log",
                                    "versions.log"])
def test_write_error_exits_3(states, monkeypatch, capsys, tmp_path, target):
    path, _clean, _before, _after, meta = states
    diff = tmp_path / "edit.diff"
    diff.write_bytes(EDIT)
    with monkeypatch.context() as patch:
        _fail_writes(patch, target)
        code = cli.main(["--repo", str(path), "commit", "--diff", str(diff)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.strerror(errno.ENOSPC) in err
    _expect(path, 0, meta)
