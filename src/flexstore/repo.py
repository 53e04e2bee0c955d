"""Durable repository: block store, node store and commit log.

On-disk layout under the repository root (store format 6):

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
rank || below || after (u64 each, 2^64 - 1 for no link) || length u32 ||
block digest (zeros for an internal node) || node digest (70 bytes with
SHA-1).

Blocks are content-addressed, so identical content across versions (or
within one file) is stored once. Records and blocks are write-once;
commits append, never rewrite.

The three logs are record files (_RecordFile). A commit writes each new
block to the pack as it is put, and keeps its index, node and commit
records in memory until the end, then writes them in that order, one
write per file. The commit record is the commit point: besides the
version record it holds the layer-2 root id, the level counter, `nodes`
and `blocks`, the node and index records the version counts. `open`
reads `config.json`, the last complete commit record and the last index
record it counts, and checks the node log's size: its cost does not grow
with history. What a crashed writer left past those ends is ignored, and
the next writer truncates it. Nothing is fsynced, so this holds for a
process that dies, not for power loss.

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
from itertools import islice, tee
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
STORE_FORMAT = 6
_NO_LINK = (1 << 64) - 1   # a node record's below or after, when absent
_LENGTH_MASK = 0xFFFFFFFF
_RUN_LIMIT = 64 * 1024   # bytes per read of a run of records or blocks


def _open_read(path: Path, name: str) -> int:
    """A read-only descriptor of one of the store's files: a missing file
    is a corrupt store, any other error an I/O failure."""
    try:
        return os.open(path, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise StructureCorrupt(f"{name} {path} is missing") from exc
    except OSError as exc:
        raise IOFailure(f"{name} unreadable: {exc}") from exc


class _RecordFile:
    """An append-only file of fixed-width records, of which only the first
    `committed` count. What lies past them is a crashed writer's: readers
    never ask for it, and `discard_uncommitted` cuts it off.

    Appended records stay in memory until `flush` writes them at the end
    of the file in one write; they count once `mark_committed` runs.
    `committed` None counts every complete record the file holds.
    """

    def __init__(self, path: Path, layout: struct.Struct, name: str,
                 committed: int | None = None):
        self.path, self.layout, self.name = path, layout, name
        self._fd = _open_read(path, name)
        self._buffer = bytearray()
        stored = self.stored()
        if committed is None:
            committed = stored
        elif stored < committed:
            self.close()
            raise StructureCorrupt(f"{name} ends before record {committed}")
        self.committed = self.count = committed

    def stored(self) -> int:
        """Complete records in the file, committed or not."""
        return os.fstat(self._fd).st_size // self.layout.size

    def read(self, first: int, n: int = 1):
        """Unpack records first .. first + n - 1, all committed, from one
        positioned read."""
        size = self.layout.size
        try:
            raw = os.pread(self._fd, n * size, first * size)
        except OSError as exc:
            raise IOFailure(f"{self.name} unreadable: {exc}") from exc
        if len(raw) != n * size:
            raise StructureCorrupt(f"{self.name} cut short at record "
                                   f"{first + len(raw) // size}")
        return self.layout.iter_unpack(raw)

    def runs(self):
        """The ids of the committed records, as ranges that fill reads of
        at most _RUN_LIMIT bytes."""
        step = _RUN_LIMIT // self.layout.size
        return (range(first, min(first + step, self.committed))
                for first in range(0, self.committed, step))

    def append(self, record: bytes) -> None:
        self._buffer += record
        self.count += 1

    def flush(self) -> None:
        """Write the appended records at the end of the file."""
        if self._buffer:
            with open(self.path, "ab") as fh:
                fh.write(self._buffer)
            self._buffer.clear()

    def mark_committed(self) -> None:
        """Count every appended record as committed; call after flush."""
        self.committed = self.count

    def discard_uncommitted(self) -> None:
        """Drop the records past the committed end, from memory and from
        the file (a writer's work only)."""
        self._buffer.clear()
        self.count = self.committed
        os.truncate(self.path, self.committed * self.layout.size)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class DurableNodeStore(NodeStore):
    """Node store backed by the node log, record k holding node k.

    The constructor checks that the log holds the committed records and
    reads none. `get` decodes a record on first use, with one positioned
    read, into the node map, which also holds every node added in this
    process, and keeps it there: an unbounded cache, as a bounded one
    would decode again on every walk of the whole store.
    """

    def __init__(self, path: Path, scheme: HashScheme, committed: int):
        super().__init__()
        self._file = _RecordFile(
            path, struct.Struct(f">BBQQQI{scheme.width}s{scheme.width}s"),
            "node log", committed)
        self.layout = self._file.layout
        self._zero = scheme.zero
        self._next_id = committed

    def get(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            pass
        if not 0 <= node_id < self._file.committed:
            raise StructureCorrupt(f"node {node_id} missing from store")
        fields, = self._file.read(node_id)
        node = self._nodes[node_id] = self._decode(node_id, fields)
        return node

    def load_committed(self) -> list[str]:
        """Decode every committed record the node map lacks, reading only
        the runs of the log that hold one; returns one problem per record
        refused."""
        problems, nodes = [], self._nodes
        for ids in self._file.runs():
            if all(map(nodes.__contains__, ids)):
                continue
            for node_id, fields in zip(ids, self._file.read(ids.start,
                                                            len(ids))):
                if node_id not in nodes:
                    try:
                        nodes[node_id] = self._decode(node_id, fields)
                    except StructureCorrupt as exc:
                        problems.append(str(exc))
        return problems

    def _decode(self, node_id: int, fields: tuple) -> Node:
        kind, level, rank, below, after, length, block, digest = fields
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
        return Node(kind, level, rank, below, after, length, block, digest)

    def _encode(self, node: Node) -> bytes:
        return self.layout.pack(
            node.kind, node.level, node.rank,
            _NO_LINK if node.below is None else node.below,
            _NO_LINK if node.after is None else node.after, node.length,
            self._zero if node.block is None else node.block, node.digest)

    def add(self, node: Node) -> int:
        if node.kind == KIND_STUB:
            raise StructureCorrupt("stub nodes are never persisted")
        self._file.append(self._encode(node))
        return super().add(node)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def mark_committed(self) -> None:
        """Count every record added so far as committed; call after flush."""
        self._file.mark_committed()

    def discard_uncommitted(self) -> None:
        """Drop the records past the committed end, from memory and from
        the node log (a writer's work only)."""
        for node_id in range(self._file.committed, self._next_id):
            del self._nodes[node_id]
        self._next_id = self._file.committed
        self._file.discard_uncommitted()


class Commit(NamedTuple):
    """One commit record: a version and the store state it commits."""

    record: VersionRecord
    layer2_root: int
    level_counter: int
    nodes: int           # node records the store holds
    blocks: int          # block index records the store holds


class CommitLog:
    """The commit records in versions.log, record k being version k:
    reading a version is one positioned read.

    Only complete records count, and only `len(self)` of them: the
    constructor takes as many as the file holds and reads the last. A
    record is decoded strictly when it is read: its roots must lie below
    its `nodes`, and its counts must not pass the last record's. As a
    sequence of version records it is the source a VersionIndex reads.
    """

    def __init__(self, path: Path, scheme: HashScheme):
        self._file = _RecordFile(
            path, struct.Struct(f">Q{scheme.width}sQQQQQQ"), "versions.log")
        self.layout = self._file.layout
        self._pending: Commit | None = None
        self.last = None
        try:
            self.last = self.commit(len(self) - 1) if len(self) else None
        except StructureCorrupt:
            self.close()
            raise

    def __len__(self) -> int:
        return self._file.committed

    def __getitem__(self, version: int) -> VersionRecord:
        return self.commit(version).record

    def commit(self, version: int) -> Commit:
        """Decode the commit record of one committed version."""
        (root, root_digest, start, length, layer2_root, level_counter,
         nodes, blocks), = self._file.read(version)
        if root >= nodes or layer2_root >= nodes:
            raise StructureCorrupt(f"versions.log: version {version} names "
                                   f"a root past its {nodes} nodes")
        last = self.last
        if last is not None and (nodes > last.nodes or blocks > last.blocks):
            raise StructureCorrupt(f"versions.log: version {version} counts "
                                   "more records than the last version")
        return Commit(VersionRecord(version, root, root_digest, start, length),
                      layer2_root, level_counter, nodes, blocks)

    def append(self, commit: Commit) -> None:
        """Write a commit record: the commit point. It counts once
        mark_committed runs."""
        rec = commit.record
        self._file.append(self.layout.pack(
            rec.root, rec.root_digest, rec.update_start, rec.update_length,
            commit.layer2_root, commit.level_counter, commit.nodes,
            commit.blocks))
        self._file.flush()
        self._pending = commit

    def mark_committed(self) -> None:
        self._file.mark_committed()
        self.last, self._pending = self._pending, None

    def discard_uncommitted(self) -> None:
        """Cut a record a writer never finished (a writer's work only).
        Refuses if a complete record appeared past the committed ones
        since this log was opened: another writer committed."""
        if self._file.stored() != len(self):
            raise RepositoryLocked(
                "versions.log changed since the store was opened")
        self._file.discard_uncommitted()

    def close(self) -> None:
        self._file.close()


class BlockStore:
    """Content-addressed blocks in one append-only pack file.

    `pack` holds block bytes back to back; `index` is a record file with
    one record per block, digest || u64 offset || u32 length, in pack
    order. Opening reads the last committed index record, for the pack's
    committed end, and the digest map is decoded on first use. A put
    writes the block to the pack at once, through a descriptor opened on
    the first write, which a writer makes under the lock; its index
    record waits for `flush`.
    """

    def __init__(self, directory: Path, scheme: HashScheme, committed: int):
        self.directory = directory
        self.scheme = scheme
        # digest -> offset << 32 | length: one int per block, as the
        # map stays in memory for the life of the store.
        self._map: dict[bytes, int] | None = None
        self._pack_writer: int | None = None
        self._index = None
        self._pack = _open_read(directory / "pack", "block pack")
        try:
            self._index = _RecordFile(
                directory / "index", struct.Struct(f">{scheme.width}sQI"),
                "block index", committed)
            end = 0
            if committed:
                (_digest, offset, length), = self._index.read(committed - 1)
                end = offset + length
            if os.fstat(self._pack).st_size < end:
                raise StructureCorrupt(f"block pack ends before byte {end}")
        except BaseException:
            self.close()
            raise
        self._end = self._committed_end = end

    @property
    def count(self) -> int:
        """Index records written, committed or not."""
        return self._index.count

    def _records(self):
        """Yield (digest, offset << 32 | length) for every committed index
        record, in pack order. Each block must start where the one before
        it ended."""
        end = 0
        for ids in self._index.runs():
            for digest, offset, length in self._index.read(ids.start,
                                                           len(ids)):
                if offset != end:
                    raise StructureCorrupt(f"block index record at byte "
                                           f"{offset} out of sequence")
                end += length
                yield digest, offset << 32 | length

    def _blocks(self) -> dict[bytes, int]:
        """digest -> offset << 32 | length of every committed record,
        decoded from the index on first use."""
        if self._map is None:
            blocks = {}
            for digest, place in self._records():
                if digest in blocks:
                    raise StructureCorrupt(
                        f"block {digest.hex()} indexed twice")
                blocks[digest] = place
            self._map = blocks
        return self._map

    def put(self, data: bytes) -> bytes:
        digest = self.scheme.block_digest(data)
        blocks = self._blocks()
        if digest not in blocks:
            _write_at(self._writer(), data, self._end)
            self._index.append(self._index.layout.pack(digest, self._end,
                                                       len(data)))
            blocks[digest] = self._end << 32 | len(data)
            self._end += len(data)
        return digest

    def flush(self) -> None:
        """Write the index records of the blocks put since the last flush."""
        self._index.flush()

    def get(self, digest: bytes) -> bytes:
        try:
            place = self._blocks()[digest]
        except KeyError:
            raise StructureCorrupt(
                f"block {digest.hex()} missing from store") from None
        return self._read(place >> 32, place & _LENGTH_MASK)

    def read_leaves(self, leaves):
        """Yield the blocks of data leaves, in order, as runs of bytes (see
        _runs). Refuses a missing block, or one whose stored length
        disagrees with its leaf, with StructureCorrupt."""
        get = self._blocks().get

        def places():
            for leaf in leaves:
                place = get(leaf.block)
                if place is None:
                    raise StructureCorrupt(
                        f"block {leaf.block.hex()} missing from store")
                if place & _LENGTH_MASK != leaf.length:
                    raise StructureCorrupt("stored block length mismatch")
                yield place
        return (run for run, _count in self._runs(places()))

    def scan(self):
        """Yield (digest, block) for every committed record in pack order,
        one run in memory at a time. Neither uses nor builds the digest
        map, so a check of the whole pack leaves no map behind."""
        records, places = tee(self._records())
        for run, count in self._runs(place for _digest, place in places):
            end = 0
            for digest, place in islice(records, count):
                at, end = end, end + (place & _LENGTH_MASK)
                yield digest, run[at:end]

    def _runs(self, places):
        """Yield (bytes, count) for runs of places, each offset << 32 |
        length: places that lie back to back in the pack come from one
        pread of at most _RUN_LIMIT bytes, or of one longer block."""
        count, start, end = 0, 0, -1
        for place in places:
            offset, length = place >> 32, place & _LENGTH_MASK
            if offset != end or offset + length - start > _RUN_LIMIT:
                if count:
                    yield self._read(start, end - start), count
                count, start = 0, offset
            count += 1
            end = offset + length
        if count:
            yield self._read(start, end - start), count

    def _read(self, offset: int, length: int) -> bytes:
        data = os.pread(self._pack, length, offset)
        if len(data) != length:
            raise StructureCorrupt(f"block pack cut short at byte "
                                   f"{offset + len(data)}")
        return data

    def all_digests(self) -> list[bytes]:
        """Every stored block's digest, in pack order."""
        return list(self._blocks())

    def overwrite(self, digest: bytes, data: bytes) -> None:
        """Replace a stored block's bytes in place (fault injection)."""
        _write_at(self._writer(), data, self._blocks()[digest] >> 32)

    def _writer(self) -> int:
        if self._pack_writer is None:
            self._pack_writer = os.open(self.directory / "pack", os.O_WRONLY)
        return self._pack_writer

    def mark_committed(self) -> None:
        """Count every block put so far as committed; call after flush."""
        self._index.mark_committed()
        self._committed_end = self._end

    def discard_uncommitted(self) -> None:
        """Cut the pack and the index back to their committed ends, and
        forget the blocks past them (a writer's work only)."""
        if self._map is not None:
            # Records enter the map in pack order; the newest leave first.
            for _ in range(self._index.count - self._index.committed):
                self._map.popitem()
        os.ftruncate(self._writer(), self._committed_end)
        self._index.discard_uncommitted()
        self._end = self._committed_end

    def close(self) -> None:
        for fd in (self._pack, self._pack_writer):
            if fd is not None:
                os.close(fd)
        self._pack = self._pack_writer = None
        if self._index is not None:
            self._index.close()


class Repository:
    """One versioned, auditable file store rooted at a directory."""

    def __init__(self, path: Path, config: dict, store: DurableNodeStore,
                 blocks: BlockStore, log: CommitLog, vindex: VersionIndex,
                 level_counter: int):
        self.path = path
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
                for name in ("versions.log", "nodes/log", "blocks/pack",
                             "blocks/index"):
                    (path / name).parent.mkdir(exist_ok=True)
                    (path / name).touch()
                log = CommitLog(path / "versions.log", scheme)
                store = DurableNodeStore(path / "nodes" / "log", scheme, 0)
                blocks = BlockStore(path / "blocks", scheme, 0)
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
        try:
            config = json.loads(raw_config)
            if (not isinstance(config, dict)
                    or config.get("format") != STORE_FORMAT):
                raise StructureCorrupt(
                    f"config.json: not a store of format {STORE_FORMAT}")
            scheme = HashScheme(config["hash"])
            seed = bytes.fromhex(config["seed"])
        except (ValueError, KeyError, TypeError, DomainError) as exc:
            raise StructureCorrupt(f"malformed config.json: {exc}") from exc
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

    def _append_commit(self, vindex: VersionIndex, level_counter: int) -> None:
        """The commit point: with the blocks in the pack, flush the block
        index and the node log, then append the version's commit record.
        Only then does this object move to the new version."""
        self.blocks.flush()
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
        return b"".join(self.blocks.read_leaves(
            persist.iter_data_leaves(self.store, rec.root)))

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
                # Cut what a failed or crashed commit left past the
                # committed ends; the log refuses if another writer
                # committed since this store was opened.
                self.log.discard_uncommitted()
                self.store.discard_uncommitted()
                self.blocks.discard_uncommitted()
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
                                        ops, self.level_source(),
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
        # Every committed node record decodes, reached or not.
        try:
            problems = self.store.load_committed()
        except StructureCorrupt as exc:
            problems = [str(exc)]
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
            targets, end = [], 0
            for leaf in persist.iter_data_leaves(self.store, rec.root):
                start, end = end, end + leaf.length
                if start >= rec.update_start + rec.update_length:
                    break
                if end > rec.update_start:
                    targets.append(leaf.block)
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
