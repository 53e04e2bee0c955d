"""Durable repository: block store, node store and commit log.

On-disk layout under the repository root (store format 5):

    config.json    store format, hash function, block size, seed
    versions.log   one fixed-width commit record per version, in order
    nodes/log      one fixed-width node record per node, in id order
    blocks/pack    block content, appended back to back
    blocks/index   one fixed-width record per block in the pack:
                   digest || u64 offset || u32 length, in pack order
    lock           the writer lock, taken with flock

Every integer is big-endian. Record k of `versions.log` is version k:
root || root digest || update start || update length || layer-2 root ||
level counter || nodes || blocks, each a u64 but the digest (76 bytes
with SHA-1). Record k of `nodes/log` is node k: kind u8 || level u8 ||
rank || version || below || after (u64 each, 2^64 - 1 for no link) ||
length u32 || block digest (zeros for an internal node) || node digest
(78 bytes with SHA-1).

Blocks are content-addressed, so identical content across versions (or
within one file) is stored once. Records and blocks are write-once;
commits append, never rewrite.

A commit writes its blocks (pack, then index record), then its node
records (flushed), then its commit record. That record is the commit
point: besides the version record it holds the layer-2 root id, the level
counter, `nodes`, the number of node records the version needs, and
`blocks`, the number of index records. `open` reads `config.json`, the
last complete commit record and the last block index record it counts,
and checks that the node log holds `nodes` records: its cost does not
grow with history. What a crashed writer left past those ends (a record
cut short, trailing node records, blocks and index records) is ignored,
and the next writer truncates it before appending. Nothing is fsynced,
so this holds for a process that dies, not for power loss.

Every other record is decoded, strictly, when it is first read: a commit
record when its version is asked for, a node record on the first `get`
of its id. A node record may link only to earlier ids, as every honest
writer finalizes children first, so every walk is over a DAG.

Writers hold an exclusive flock on `lock`, which the kernel releases
when the holder exits; read-only commands do not take it.
"""

from __future__ import annotations

import errno
import fcntl
import io
import json
import os
import random
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import NamedTuple

from . import adaptor, audit, core, persist
from .core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL, KIND_STUB, Node,
                   NodeStore)
from .errors import (BlockTooSmall, DomainError, EmptyCommit, EmptyRegion,
                     IOFailure, PathExists, RepositoryLocked,
                     StructureCorrupt)
from .hashing import LEVELS_LAYER2, SEED_BYTES, HashScheme, LevelSource
from .index2 import VersionIndex, VersionRecord

# Version of the on-disk layout, kept in config.json; open refuses any
# other.
STORE_FORMAT = 5
_NO_LINK = (1 << 64) - 1   # a node record's below or after, when absent
_INDEX_RUN = 4096    # block index records read at a time
_LENGTH_MASK = 0xFFFFFFFF
_RUN_LIMIT = 64 * 1024   # bytes per read and write in a checkout


class DurableNodeStore(NodeStore):
    """Node store backed by one append-only file of fixed-width records,
    record k holding node k.

    Only the first `committed` records count: the constructor checks that
    the file holds them and reads none. `get` decodes a record on first
    use, with one positioned read, into the node map, which also holds
    every node added in this process, and keeps it there: an unbounded
    cache, as a bounded one would decode again on every walk of the whole
    store.
    """

    def __init__(self, path: Path, scheme: HashScheme, committed: int):
        super().__init__()
        self.path = path
        self.layout = struct.Struct(
            f">BBQQQQI{scheme.width}s{scheme.width}s")
        self._zero = scheme.zero
        self._handle = None
        try:
            self._fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError as exc:
            raise StructureCorrupt(f"node log {path} is missing") from exc
        except OSError as exc:
            raise IOFailure(f"node log unreadable: {exc}") from exc
        if os.fstat(self._fd).st_size < committed * self.layout.size:
            self.close()
            raise StructureCorrupt(f"node log ends before node {committed}")
        self._next_id = self._committed = committed

    @classmethod
    def create(cls, path: Path, scheme: HashScheme) -> "DurableNodeStore":
        path.parent.mkdir()
        path.touch()
        return cls(path, scheme, 0)

    def get(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            return self._load(node_id)

    def _load(self, node_id: int) -> Node:
        size = self.layout.size
        if not 0 <= node_id < self._committed:
            raise StructureCorrupt(f"node {node_id} missing from store")
        raw = os.pread(self._fd, size, node_id * size)
        if len(raw) != size:
            raise StructureCorrupt(f"node log cut short at node {node_id}")
        (kind, level, rank, version, below, after, length, block,
         digest) = self.layout.unpack(raw)
        below = None if below == _NO_LINK else below
        after = None if after == _NO_LINK else after
        if kind == KIND_INTERNAL:
            valid = (below is not None and after is not None and not length
                     and block == self._zero)
            block = None
        elif kind == KIND_LEAF:
            valid = below is None and not level and length > 0
        elif kind == KIND_SENTINEL:
            valid = (below is None and not level and not length
                     and block == self._zero)
        else:
            raise StructureCorrupt(f"node {node_id}: unknown kind {kind}")
        if not valid:
            raise StructureCorrupt(f"node {node_id}: malformed record")
        if ((below is not None and below >= node_id)
                or (after is not None and after >= node_id)):
            raise StructureCorrupt(f"node {node_id} links to a later node")
        node = Node(kind, level, rank, below, after, length, block, version,
                    digest)
        self._nodes[node_id] = node
        return node

    def _encode(self, node: Node) -> bytes:
        return self.layout.pack(
            node.kind, node.level, node.rank, node.version,
            _NO_LINK if node.below is None else node.below,
            _NO_LINK if node.after is None else node.after, node.length,
            self._zero if node.block is None else node.block, node.digest)

    def add(self, node: Node) -> int:
        if node.kind == KIND_STUB:
            raise StructureCorrupt("stub nodes are never persisted")
        node_id = super().add(node)
        if self._handle is None:
            # At the committed end: a writer truncates before it adds.
            self._handle = open(self.path, "ab")
        self._handle.write(self._encode(node))
        return node_id

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def _close_writer(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        self._close_writer()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def mark_committed(self) -> None:
        """Count every record added so far as committed; call after flush."""
        self._committed = self._next_id

    def discard_uncommitted(self) -> None:
        """Drop the records past the committed end, from memory and from
        the node log (a writer's work only)."""
        self._close_writer()
        for node_id in range(self._committed, self._next_id):
            del self._nodes[node_id]
        self._next_id = self._committed
        os.truncate(self.path, self._committed * self.layout.size)


class Commit(NamedTuple):
    """One commit record: a version and the store state it commits."""

    record: VersionRecord
    layer2_root: int
    level_counter: int
    nodes: int           # node records the store holds
    blocks: int          # block index records the store holds


class CommitLog:
    """The commit records in versions.log, fixed-width, record k being
    version k: reading a version is one positioned read.

    Only complete records count, and only `count` of them: the
    constructor takes as many as the file holds and reads the last. A
    record is decoded strictly when it is read: its roots must lie below
    its `nodes`, and its counts must not pass the last record's. As a
    sequence of version records it is the source a VersionIndex reads.
    """

    def __init__(self, path: Path, scheme: HashScheme):
        self.path = path
        self.layout = struct.Struct(f">Q{scheme.width}sQQQQQQ")
        self._pending: Commit | None = None
        try:
            self._fd = os.open(path, os.O_RDONLY)
            try:
                self.count = os.fstat(self._fd).st_size // self.layout.size
                self.last = (self._read(self.count - 1, None) if self.count
                             else None)
            except (OSError, StructureCorrupt):
                self.close()
                raise
        except OSError as exc:
            raise IOFailure(f"version log unreadable: {exc}") from exc

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, version: int) -> VersionRecord:
        return self.commit(version).record

    def commit(self, version: int) -> Commit:
        """Decode the commit record of one committed version."""
        return self._read(version, self.last)

    def _read(self, version: int, last: Commit | None) -> Commit:
        size = self.layout.size
        raw = os.pread(self._fd, size, version * size)
        if len(raw) != size:
            raise StructureCorrupt(f"versions.log ends before version "
                                   f"{version}")
        (root, root_digest, start, length, layer2_root, level_counter,
         nodes, blocks) = self.layout.unpack(raw)
        if root >= nodes or layer2_root >= nodes:
            raise StructureCorrupt(f"versions.log: version {version} names "
                                   f"a root past its {nodes} nodes")
        if last is not None and (nodes > last.nodes or blocks > last.blocks):
            raise StructureCorrupt(f"versions.log: version {version} counts "
                                   "more records than the last version")
        return Commit(VersionRecord(version, root, root_digest, start, length),
                      layer2_root, level_counter, nodes, blocks)

    def append(self, commit: Commit) -> None:
        """Write a commit record: the commit point. It counts once
        mark_committed runs."""
        rec = commit.record
        with open(self.path, "ab") as fh:
            fh.write(self.layout.pack(
                rec.root, rec.root_digest, rec.update_start,
                rec.update_length, commit.layer2_root, commit.level_counter,
                commit.nodes, commit.blocks))
        self._pending = commit

    def mark_committed(self) -> None:
        self.count += 1
        self.last, self._pending = self._pending, None

    def discard_uncommitted(self) -> None:
        """Cut a record a writer never finished (a writer's work only).
        Refuses if a complete record appeared past the committed ones
        since this log was opened: another writer committed."""
        end = self.count * self.layout.size
        if not end <= os.fstat(self._fd).st_size < end + self.layout.size:
            raise RepositoryLocked(
                "versions.log changed since the store was opened")
        os.truncate(self.path, end)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class BlockStore:
    """Content-addressed blocks in one append-only pack file.

    `pack` holds block bytes back to back; `index` holds one fixed-width
    record per block, digest || u64 offset || u32 length, in pack order.
    Only the first `committed` records count: opening reads the last of
    them, for the pack's committed end, and the digest map is decoded on
    first use. Reads are one pread each on a descriptor held open; the
    writer descriptors open on the first write, which a writer makes
    under the lock.
    """

    def __init__(self, directory: Path, scheme: HashScheme, committed: int):
        self.directory = directory
        self.scheme = scheme
        self._record = struct.Struct(f">{scheme.width}sQI")
        # digest -> offset << 32 | length: one int per block, as the
        # map stays in memory for the life of the store.
        self._map: dict[bytes, int] | None = None
        self._writers: tuple[int, int] | None = None
        self._pack = self._index = None
        try:
            self._pack = os.open(directory / "pack", os.O_RDONLY)
            self._index = os.open(directory / "index", os.O_RDONLY)
            end = 0
            if committed:
                last = os.pread(self._index, self._record.size,
                                (committed - 1) * self._record.size)
                if len(last) != self._record.size:
                    raise StructureCorrupt(
                        f"block index ends before record {committed}")
                _digest, offset, length = self._record.unpack(last)
                end = offset + length
            if os.fstat(self._pack).st_size < end:
                raise StructureCorrupt(f"block pack ends before byte {end}")
        except OSError as exc:
            self.close()
            raise IOFailure(f"block store unreadable: {exc}") from exc
        except StructureCorrupt:
            self.close()
            raise
        self._count = self._committed = committed
        self._end = self._committed_end = end

    @classmethod
    def create(cls, directory: Path, scheme: HashScheme) -> "BlockStore":
        directory.mkdir()
        for name in ("pack", "index"):
            (directory / name).touch()
        return cls(directory, scheme, 0)

    @property
    def count(self) -> int:
        """Index records written, committed or not."""
        return self._count

    def _records(self):
        """Yield (digest, offset, length) for every committed index record,
        in pack order, reading a bounded run of records at a time. Each
        block must start where the one before it ended."""
        size, end = self._record.size, 0
        for first in range(0, self._committed, _INDEX_RUN):
            want = min(_INDEX_RUN, self._committed - first) * size
            raw = os.pread(self._index, want, first * size)
            if len(raw) != want:
                raise StructureCorrupt(
                    f"block index ends before record {self._committed}")
            for digest, offset, length in self._record.iter_unpack(raw):
                if offset != end:
                    raise StructureCorrupt(
                        f"block index record at byte {offset} out of "
                        "sequence")
                end += length
                yield digest, offset, length

    def _blocks(self) -> dict[bytes, int]:
        """digest -> offset << 32 | length of every committed record,
        decoded from the index on first use."""
        if self._map is None:
            blocks = {}
            for digest, offset, length in self._records():
                if digest in blocks:
                    raise StructureCorrupt(
                        f"block {digest.hex()} indexed twice")
                blocks[digest] = offset << 32 | length
            self._map = blocks
        return self._map

    def put(self, data: bytes) -> bytes:
        digest = self.scheme.block_digest(data)
        blocks = self._blocks()
        if digest not in blocks:
            pack, index = self._writer()
            _write_at(pack, data, self._end)
            _write_at(index, self._record.pack(digest, self._end, len(data)),
                      self._count * self._record.size)
            blocks[digest] = self._end << 32 | len(data)
            self._end += len(data)
            self._count += 1
        return digest

    def get(self, digest: bytes) -> bytes:
        try:
            place = self._blocks()[digest]
        except KeyError:
            raise StructureCorrupt(
                f"block {digest.hex()} missing from store") from None
        return self._read(digest, place >> 32, place & _LENGTH_MASK)

    def read_leaves(self, leaves):
        """Yield the blocks of data leaves, in order, as runs of bytes:
        blocks that lie back to back in the pack come from one pread of
        at most _RUN_LIMIT bytes. Refuses a missing block, or one whose
        stored length disagrees with its leaf, with StructureCorrupt."""
        blocks = self._blocks()
        run, start, end = None, 0, 0
        for leaf in leaves:
            place = blocks.get(leaf.block)
            if place is None:
                raise StructureCorrupt(
                    f"block {leaf.block.hex()} missing from store")
            offset, length = place >> 32, place & _LENGTH_MASK
            if length != leaf.length:
                raise StructureCorrupt("stored block length mismatch")
            if (run is None or offset != end
                    or end + length - start > _RUN_LIMIT):
                if run is not None:
                    yield self._read(run, start, end - start)
                run, start = leaf.block, offset
            end = offset + length
        if run is not None:
            yield self._read(run, start, end - start)

    def scan(self):
        """Yield (digest, block) for every committed record in pack order,
        one block in memory at a time. Neither uses nor builds the digest
        map, so a check of the whole pack leaves no map behind."""
        for digest, offset, length in self._records():
            yield digest, self._read(digest, offset, length)

    def _read(self, digest: bytes, offset: int, length: int) -> bytes:
        data = os.pread(self._pack, length, offset)
        if len(data) != length:
            raise StructureCorrupt(f"block {digest.hex()} cut short in the "
                                   "pack")
        return data

    def all_digests(self) -> list[bytes]:
        """Every stored block's digest, in pack order."""
        return list(self._blocks())

    def overwrite(self, digest: bytes, data: bytes) -> None:
        """Replace a stored block's bytes in place (fault injection)."""
        _write_at(self._writer()[0], data, self._blocks()[digest] >> 32)

    def _writer(self) -> tuple[int, int]:
        if self._writers is None:
            pack = os.open(self.directory / "pack", os.O_WRONLY)
            try:
                index = os.open(self.directory / "index", os.O_WRONLY)
            except OSError:
                os.close(pack)
                raise
            self._writers = (pack, index)
        return self._writers

    def mark_committed(self) -> None:
        """Count every record written so far as committed."""
        self._committed, self._committed_end = self._count, self._end

    def discard_uncommitted(self) -> None:
        """Cut the pack and the index back to their committed ends, and
        forget the blocks past them (a writer's work only)."""
        pack, index = self._writer()
        os.ftruncate(pack, self._committed_end)
        os.ftruncate(index, self._committed * self._record.size)
        if self._map is not None:
            # Records enter the map in pack order; the newest leave first.
            for _ in range(self._count - self._committed):
                self._map.popitem()
        self._count, self._end = self._committed, self._committed_end

    def close(self) -> None:
        for fd in (self._pack, self._index, *(self._writers or ())):
            if fd is not None:
                os.close(fd)
        self._pack = self._index = self._writers = None


class Repository:
    """One versioned, auditable file store rooted at a directory."""

    def __init__(self, path: Path, config: dict, store: DurableNodeStore,
                 blocks: BlockStore, log: CommitLog, vindex: VersionIndex,
                 level_counter: int):
        self.path = path
        self.config = config
        self.scheme = HashScheme(config["hash"])
        self.block_size = config["block_size"]
        self.seed = bytes.fromhex(config["seed"])
        self.store = store
        self.blocks = blocks
        self.log = log
        self.vindex = vindex
        self._level_counter = level_counter

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def init(cls, path, block_size: int = 2048, seed: bytes | None = None,
             hash_name: str = "sha1",
             input_file: Path | None = None) -> "Repository":
        path = Path(path)
        # Check every argument before anything is written, so a refused
        # init leaves no partial store behind.
        scheme = HashScheme(hash_name)
        block_size = int(block_size)
        if block_size < 1:
            raise BlockTooSmall("block_size must be >= 1")
        if seed is None:
            seed = os.urandom(SEED_BYTES)
        src = LevelSource(seed)
        if path.exists() and any(path.iterdir()):
            raise PathExists(f"{path} already exists and is not empty")
        try:
            with (open(input_file, "rb") if input_file
                  else io.BytesIO()) as fh:
                path.mkdir(parents=True, exist_ok=True)
                config = {"format": STORE_FORMAT, "hash": hash_name,
                          "block_size": block_size, "seed": seed.hex()}
                (path / "config.json").write_text(
                    json.dumps(config, sort_keys=True) + "\n")
                (path / "versions.log").touch()
                log = CommitLog(path / "versions.log", scheme)
                store = DurableNodeStore.create(path / "nodes" / "log", scheme)
                blocks = BlockStore.create(path / "blocks", scheme)
                root, src = core.build(
                    store, scheme, core.read_blocks(fh, block_size), src,
                    block_digest=blocks.put)
            vindex = VersionIndex(store, scheme, seed, records=log)
            rank = store.get(root).rank
            vindex.append_version(
                VersionRecord(0, root, store.get(root).digest, 0, rank))
            repo = cls(path, config, store, blocks, log, vindex, 0)
            repo._append_commit(vindex, src.counter)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        return repo

    @classmethod
    def open(cls, path) -> "Repository":
        path = Path(path)
        try:
            raw_config = (path / "config.json").read_bytes()
        except OSError as exc:
            raise IOFailure(f"not a repository: {path}") from exc
        with _malformed("config.json"):
            config = json.loads(raw_config)
            if (not isinstance(config, dict)
                    or config.get("format") != STORE_FORMAT):
                raise StructureCorrupt(
                    f"config.json: not a store of format {STORE_FORMAT}")
            scheme = HashScheme(config["hash"])
            seed = bytes.fromhex(config["seed"])
        with ExitStack() as opened:
            log = CommitLog(path / "versions.log", scheme)
            opened.callback(log.close)
            last = log.last
            if last is None:
                raise StructureCorrupt(
                    "versions.log holds no committed version")
            store = DurableNodeStore(path / "nodes" / "log", scheme,
                                     last.nodes)
            opened.callback(store.close)
            blocks = BlockStore(path / "blocks", scheme, last.blocks)
            opened.pop_all()
        vindex = VersionIndex(store, scheme, seed, root=last.layer2_root,
                              records=log)
        return cls(path, config, store, blocks, log, vindex,
                   last.level_counter)

    def close(self) -> None:
        self.store.close()
        self.blocks.close()
        self.log.close()

    @contextmanager
    def write_lock(self):
        """Hold the writer lock: an exclusive flock on the lock file. The
        kernel drops it when the holder exits, so a crashed writer leaves
        at most an unlocked file behind."""
        lock = self.path / "lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise RepositoryLocked(f"{lock} is held by another writer")
            yield
        finally:
            os.close(fd)

    # -- bookkeeping ----------------------------------------------------------

    def _discard_uncommitted(self) -> None:
        """Truncate what a failed or crashed commit left past the committed
        end of versions.log, the node log and the block pack and index.
        Refuses if a complete commit record appeared since this store was
        opened: another writer committed."""
        self.log.discard_uncommitted()
        self.store.discard_uncommitted()
        self.blocks.discard_uncommitted()

    def _append_commit(self, vindex: VersionIndex, level_counter: int) -> None:
        """The commit point: with the blocks written, flush the node log,
        then append the version's commit record. Only then does this
        object move to the new version."""
        self.store.flush()
        self.log.append(Commit(vindex.record(vindex.count - 1), vindex.root,
                               level_counter, self.store.next_id,
                               self.blocks.count))
        self.store.mark_committed()
        self.blocks.mark_committed()
        self.log.mark_committed()
        self.vindex, self._level_counter = vindex, level_counter

    def level_source(self) -> LevelSource:
        """Current position in the construction level stream; a client
        holding the seed replays the same stream for its own edits."""
        return LevelSource(self.seed, self._level_counter)

    @property
    def meta_digest(self) -> bytes:
        return self.vindex.meta_digest

    @property
    def latest(self) -> VersionRecord:
        return self.vindex.record(self.vindex.count - 1)

    def record(self, version: int) -> VersionRecord:
        return self.vindex.record(version)

    # -- content ----------------------------------------------------------

    def materialize(self, version: int) -> bytes:
        rec = self.record(version)
        return persist.materialize(self.store, rec.root, self.blocks.get)

    def checkout(self, version: int, out_path) -> int:
        """Write one version to out_path block by block, through a
        temporary file beside it, so a failed checkout leaves no partial
        file."""
        rec = self.record(version)
        tmp = Path(f"{out_path}.tmp")
        try:
            # A write call per 2 KiB block takes about twice as long as
            # one write of the joined file; 64 KiB writes do not. A 1 MiB
            # buffer was as fast but raised the benchmark's peak RSS.
            with open(tmp, "wb", buffering=_RUN_LIMIT) as fh:
                fh.writelines(self.blocks.read_leaves(
                    persist.iter_data_leaves(self.store, rec.root)))
            tmp.replace(out_path)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        finally:
            tmp.unlink(missing_ok=True)
        return self.store.get(rec.root).rank

    # -- commit ----------------------------------------------------------

    def commit(self, diff_bytes: bytes) -> dict:
        """Apply a diff as one new version; returns a summary."""
        with self.write_lock():
            try:
                self._discard_uncommitted()
                return self._commit(diff_bytes)
            except OSError as exc:
                raise IOFailure(f"commit failed: {exc}") from exc

    def _commit(self, diff_bytes: bytes) -> dict:
        diffs = adaptor.parse_diff(diff_bytes)
        latest = self.latest
        old_root = latest.root
        ops = adaptor.translate_diffs(
            diffs, self.store.get(old_root).rank,
            lambda byte: core.block_start(self.store, old_root, byte),
            self.block_size,
            lambda start, length: persist.read_range(
                self.store, old_root, start, length, self.blocks.get))
        if not ops:
            raise EmptyCommit("diff produced no block operations")
        version = latest.version + 1
        # Each new block reaches the pack as its op runs, before finish
        # adds the first node record.
        result, src = adaptor.apply_ops(self.store, self.scheme, old_root,
                                        ops, self.level_source(), version,
                                        block_digest=self.blocks.put)
        root = result.new_root
        node = self.store.get(root)
        start, length = _update_region(ops, node.rank)
        # A new index, so this object keeps the old one until the commit
        # point has passed.
        vindex = VersionIndex(self.store, self.scheme, self.seed,
                              root=self.vindex.root, records=self.log)
        vindex.append_version(
            VersionRecord(version, root, node.digest, start, length))
        self._append_commit(vindex, src.counter)
        return {"version": version, "meta": self.meta_digest.hex(),
                "ops": len(ops), "created_nodes": result.created_nodes,
                "shared_nodes": result.shared_nodes, "rank": node.rank}

    # -- audit plumbing ----------------------------------------------------

    def make_challenge(self, seed: bytes, count: int,
                       versions: tuple[int, ...]) -> audit.Challenge:
        ch = audit.Challenge(seed, count, versions)
        whole = not versions
        for v in versions or (self.latest.version,):
            _start, length = audit.challenge_region(self.store, self.vindex,
                                                    v, whole)
            if length < 1:
                raise EmptyRegion(f"version {v} has no challengeable bytes")
        return ch

    def prove(self, ch: audit.Challenge) -> audit.VersionProof:
        return audit.prove(self.store, self.scheme, self.vindex,
                           self.blocks.get, ch)

    def verify(self, ch: audit.Challenge,
               proof: audit.VersionProof) -> tuple[bool, str]:
        return audit.verify(self.scheme, self.meta_digest, ch, proof)

    def prove_blocks(self, version: int, start: int,
                     length: int) -> audit.VersionProof:
        """Range proof: every block intersecting [start, start+length) of
        one version, for the update-phase client flow."""
        return audit.prove_range(self.store, self.vindex, self.blocks.get,
                                 version, start, length)

    # -- integrity ----------------------------------------------------------

    def fsck(self) -> list[str]:
        """Sweep every invariant the store promises; returns violations."""
        problems = []
        records: list[VersionRecord | None] = []
        verified: dict[int, Node] = {}
        for version in range(self.vindex.count):
            try:
                rec = self.vindex.record(version)
            except StructureCorrupt as exc:
                problems.append(str(exc))
                records.append(None)
                continue
            records.append(rec)
            try:
                stored = self.store.get(rec.root)
                if stored.digest != rec.root_digest:
                    problems.append(
                        f"version {version}: logged root digest "
                        "disagrees with the node store")
                core.check_subtree(self.store, self.scheme, rec.root,
                                   verified)
            except StructureCorrupt as exc:
                problems.append(f"version {version}: {exc}")
                continue
            if not (rec.update_start + rec.update_length <= stored.rank
                    or stored.rank == 0):
                problems.append(
                    f"version {version}: update region exceeds rank")
        problems += self._fsck_layer2(records)
        # Every committed node record decodes, reached or not.
        for node_id in range(self.store.next_id):
            if node_id not in verified:
                try:
                    self.store.get(node_id)
                except StructureCorrupt as exc:
                    problems.append(str(exc))
        lengths: dict[bytes, int] = {}    # of every index record
        try:
            for digest, data in self.blocks.scan():
                if digest in lengths:
                    problems.append(f"block {digest.hex()}: indexed twice")
                lengths[digest] = len(data)
                if self.scheme.block_digest(data) != digest:
                    problems.append(f"block {digest.hex()}: content does "
                                    "not match its address")
        except StructureCorrupt as exc:
            problems.append(str(exc))
        for node_id, node in verified.items():
            if node.kind != KIND_LEAF:
                continue
            length = lengths.get(node.block)
            if length is None:
                problems.append(
                    f"leaf {node_id}: block {node.block.hex()} missing")
            elif length != node.length:
                problems.append(
                    f"leaf {node_id}: stored length {node.length} disagrees "
                    "with block size")
        return problems

    def _fsck_layer2(self, records: list[VersionRecord | None]) -> list[str]:
        """Rebuild the layer-2 list from the version records in one pass
        (its shape is canonical, so it must give the logged meta digest),
        and check the stored one's ranks and digests."""
        problems = []
        if None not in records:
            scheme, src = self.scheme, LevelSource(self.seed, 0,
                                                   LEVELS_LAYER2)
            levels = []
            for _ in records:
                level, src = src.draw()
                levels.append(level)
            leaves = [(1, scheme.version_record(
                rec.version, rec.root_digest, rec.update_start,
                rec.update_length)) for rec in records]
            replay = NodeStore()
            root = core.build_with_levels(replay, scheme, leaves, levels)
            if replay.get(root).digest != self.vindex.meta_digest:
                problems.append("layer-2 root does not match a replay of "
                                "the version log")
        try:
            core.check_subtree(self.store, self.scheme, self.vindex.root)
        except StructureCorrupt as exc:
            problems.append(f"layer-2 structure: {exc}")
        return problems

    # -- fault injection (test support, explicitly gated in the CLI) --------

    def tamper(self, fraction: float, scope: str = "version-delta",
               version: int | None = None, rng_seed: int = 0) -> dict:
        """Corrupt a fraction of stored blocks in place. The prover keeps
        answering challenges; verification catches the damage."""
        if not 0 <= fraction <= 1:    # false for NaN too
            raise DomainError(f"fraction {fraction} is outside [0, 1]")
        if scope == "version-delta":
            rec = self.record(self.latest.version if version is None
                              else version)
            targets = self._region_blocks(rec)
        elif scope == "blocks":
            targets = self.blocks.all_digests()
        else:
            raise EmptyRegion(f"unknown tamper scope {scope!r}")
        targets = sorted(set(targets))
        count = round(fraction * len(targets))
        rng = random.Random(rng_seed)
        chosen = rng.sample(targets, count) if count else []
        with self.write_lock():
            for digest in chosen:
                length = len(self.blocks.get(digest))
                garbage = rng.randbytes(length)
                while self.scheme.block_digest(garbage) == digest:
                    garbage = rng.randbytes(length)
                self.blocks.overwrite(digest, garbage)
        return {"scope": scope, "targets": len(targets),
                "corrupted": len(chosen)}

    def _region_blocks(self, rec: VersionRecord) -> list[bytes]:
        digests = []
        offset = 0
        for leaf_id in core.iter_leaves(self.store, rec.root):
            leaf = self.store.get(leaf_id)
            if leaf.kind != KIND_LEAF:
                continue
            start, end = offset, offset + leaf.length
            offset = end
            if end <= rec.update_start:
                continue
            if start >= rec.update_start + rec.update_length:
                break
            digests.append(leaf.block)
        return digests


@contextmanager
def _malformed(name: str):
    """Report content of the named file that fails to parse as
    StructureCorrupt."""
    try:
        yield
    except (ValueError, KeyError, TypeError, DomainError) as exc:
        raise StructureCorrupt(f"malformed {name}: {exc}") from exc


def _write_at(fd: int, data: bytes, offset: int) -> None:
    if os.pwrite(fd, data, offset) != len(data):
        raise OSError(errno.ENOSPC, f"short write at byte {offset}")


def _update_region(ops: list[adaptor.BlockOp], rank: int) -> tuple[int, int]:
    """(start, length) of the bytes a commit's ops wrote, clipped to the
    new version's rank; at least one byte unless the version is empty."""
    if rank == 0:
        return 0, 0
    lo = min(op.index for op in ops)
    hi = max(op.index + len(op.data or b"") for op in ops)
    start = min(lo, rank - 1)
    return start, max(1, min(hi, rank) - start)
