"""Durable repository: block store, node store and commit log.

On-disk layout under the repository root (store format 10):

    config.json    store format, hash function, block size, seed
    versions.log   one fixed-width commit record per version, in order
    nodes/log      one fixed-width node record per node, in id order
    blocks/pack    block content, appended back to back
    blocks/index   one fixed-width record per block in the pack:
                   digest || u64 offset || u32 length, in pack order
    lock           the writer lock, taken with flock

Every integer is big-endian. Record k of `versions.log` is version k:
root || root digest || update start || update length || nodes || blocks
|| survivor || frozen || record digest, each a u64 but the digests (96
bytes with SHA-1): survivor and frozen are the version's layer-2 edge
link (see index2), 2^64 - 1 for the left sentinel's survivor and for a
bare leaf's frozen part, and the record digest is the version record's,
its layer-2 leaf digest, which no stored node holds while the leaf is
bare on the edge.
Record k of `nodes/log` is node k: kind u8 || level u8 || rank || below
|| after (u64 each, 2^64 - 1 for no link) || length u32 || block digest
(zeros for an internal node) || node digest (70 bytes with SHA-1).

Blocks are content-addressed, so identical content across versions (or
within one file) is stored once. Records and blocks are write-once;
commits append, never rewrite.

The four store files are record files (_RecordFile), the pack one of
one-byte records, and share one write policy: what a commit appends to
a file is buffered, written whenever the buffer reaches _COPY_LIMIT
bytes, and the rest written at the end in the order pack, index, node
log, commit record: the order of `Repository.files`. A commit's node
records are its layer-1 nodes, then the layer-2 nodes the append
writes once and for all. The commit record is the commit point: besides
the version record and its edge link it holds `nodes` and `blocks`, the
node and index records the version counts. `nodes` is one past its last
node, the larger of its root and frozen part; a middle record's
`blocks` is checked only for never falling, as no other record says
what it must be until a leaf names its index record. Once it is
written, the commit counts every file's new records as committed, and
only then moves the repository to the new version. Neither the layer-2
root nor the meta digest is stored: the edge links derive them, on
first use, from about log n commit records. No stream position is
stored either: the seed and the version number fix every tower level.
`open` reads `config.json`, the last complete commit record and the
last index record it counts, and checks the node log's and the pack's
sizes; its cost does not grow with history. What a crashed writer left
past those ends is ignored, and the next writer's commit cuts all four
files back to them before it appends. Nothing is fsynced, so this holds
for a process that dies, not for power loss.

Every other record is decoded, strictly, when it is first read: a commit
record when its version is asked for, a node record on the first `get`
of its id, from the run of the node log that holds it, read whole on
the first `get` of any of its ids and kept. A node record may link only
to earlier ids, as every honest writer finalizes children first, so
every walk is over a DAG.

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
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain, groupby
from pathlib import Path
from typing import NamedTuple

from . import adaptor, audit, core, persist
from .core import (BAD, BAD_BLOCK, KIND_INTERNAL, KIND_LEAF, KIND_STUB,
                   NO_LINK, Node, NodeStore)
from .errors import (BlockTooSmall, DomainError, EmptyCommit, EmptyRegion,
                     IOFailure, PathExists, RepositoryLocked,
                     StructureCorrupt)
from .hashing import SEED_BYTES, HashScheme, version_levels
from .index2 import VersionIndex, VersionRecord

# Version of the on-disk layout, kept in config.json; open refuses any
# other.
STORE_FORMAT = 10
_LENGTH_MASK = 0xFFFFFFFF
# The largest block size: index and node records keep a block's length
# as u32, and an edit keeps blocks of up to twice the block size.
_MAX_BLOCK_SIZE = (1 << 31) - 1
# Bytes per read into memory of a run of records or blocks, so memory
# stays flat whatever the file size.
_RUN_LIMIT = 64 * 1024
# Bytes of the buffer a checkout or a materialize reads the pack through
# (or the version's size, if smaller), and of the appends a record file
# buffers before it writes them: memory stays flat, with few writes.
_COPY_LIMIT = 1024 * 1024


class _RecordFile:
    """An append-only file of fixed-width records, of which only the first
    `committed` count. What lies past them is a crashed writer's: readers
    never ask for it, and `discard_uncommitted` cuts it off. The pack's
    records are its bytes. Appended records are buffered, and written at
    the end of the file, through an append descriptor opened on the first
    write and kept until `close`, whenever the buffer reaches _COPY_LIMIT
    bytes and at `flush`; they count once `mark_committed` runs. Their
    owners read and append; the Repository flushes, marks, cuts and
    closes all four files, one loop over them in commit order per step.
    `committed` None counts every complete record the file holds. An
    OSError from the file, a close's too, is raised as IOFailure, or as
    StructureCorrupt for a missing file.
    """

    def __init__(self, path: Path, layout: struct.Struct, name: str,
                 committed: int | None = None):
        self.path, self.layout, self.name = path, layout, name
        self.unit = "byte" if layout.size == 1 else "record"
        self.step = _RUN_LIMIT // layout.size     # records per run
        self._appender = None
        self._buffer = bytearray()
        self._fd = self._os("unreadable", os.open, path, os.O_RDONLY)
        try:
            stored = self.stored()
            if committed is None:
                committed = stored
            elif stored < committed:
                raise StructureCorrupt(
                    f"{name} ends before {self.unit} {committed}")
        except BaseException:
            self.close()
            raise
        self.committed = self.count = committed

    def _os(self, failed: str, call, *args):
        """call(*args), its OSError raised as the class docstring says."""
        try:
            return call(*args)
        except FileNotFoundError as exc:
            raise StructureCorrupt(
                f"{self.name} {self.path} is missing") from exc
        except OSError as exc:
            raise IOFailure(f"{self.name} {failed}: {exc}") from exc

    def stored(self) -> int:
        """Complete records in the file, committed or not."""
        return (self._os("unreadable", os.fstat, self._fd).st_size
                // self.layout.size)

    def _cut_short(self, first: int, got: int) -> StructureCorrupt:
        return StructureCorrupt(f"{self.name} cut short at {self.unit} "
                                f"{first + got // self.layout.size}")

    def read(self, first: int, n: int = 1):
        """Unpack records first .. first + n - 1, all committed, from one
        positioned read."""
        return self.layout.iter_unpack(self.read_raw(first, n))

    def read_raw(self, first: int, n: int) -> bytes:
        """The bytes of records first .. first + n - 1, all committed,
        from one positioned read."""
        size = self.layout.size
        try:
            raw = os.pread(self._fd, n * size, first * size)
        except OSError as exc:
            raise IOFailure(f"{self.name} unreadable: {exc}") from exc
        if len(raw) != n * size:
            raise self._cut_short(first, len(raw))
        return raw

    def fill(self, runs, buffer: bytearray):
        """Read runs of committed records, (first, count) pairs, in order
        into `buffer`: one positioned read per run, or per buffer-full of
        a longer one. Yield a view of the buffer each time it is full,
        and of what it holds after the last run; the next read
        overwrites it."""
        size, buffer = self.layout.size, memoryview(buffer)
        limit, fill = len(buffer), 0
        for first, count in runs:
            offset, length = first * size, count * size
            while length:
                n = min(length, limit - fill)
                try:
                    got = os.preadv(self._fd, (buffer[fill:fill + n],),
                                    offset)
                except OSError as exc:
                    raise IOFailure(f"{self.name} unreadable: {exc}") from exc
                if got != n:
                    raise self._cut_short(offset // size, got)
                offset += n
                length -= n
                fill += n
                if fill == limit:
                    yield buffer
                    fill = 0
        if fill:
            yield buffer[:fill]

    def run(self, record: int) -> range:
        """The ids of the committed records in the run that holds
        committed record `record`: `step` records from a multiple of
        `step`, which fill a read of at most _RUN_LIMIT bytes, cut at the
        committed count."""
        first = record - record % self.step
        return range(first, min(first + self.step, self.committed))

    def scan(self):
        """(id, fields) for every committed record in order, one run (see
        `run`) read at a time, as it is reached."""
        return chain.from_iterable(
            zip(ids, self.read(ids.start, len(ids)))
            for ids in map(self.run, range(0, self.committed, self.step)))

    def append(self, records: bytes) -> None:
        """Append whole records; a buffer-full is written at once."""
        self._buffer += records
        self.count += len(records) // self.layout.size
        if len(self._buffer) >= _COPY_LIMIT:
            self.flush()

    def _write(self, file, data) -> None:
        if self._os("unwritable", file.write, data) != len(data):
            raise IOFailure(f"{self.name} unwritable: short write")

    def flush(self) -> None:
        """Write the appended records at the end of the file."""
        if self._buffer:
            if self._appender is None:
                self._appender = self._os("unwritable", open, self.path,
                                          "ab", 0)
            self._write(self._appender, self._buffer)
            self._buffer.clear()

    def overwrite(self, first: int, records: bytes) -> None:
        """Write records in place from committed record `first` on (fault
        injection only)."""
        with self._os("unwritable", open, self.path, "r+b", 0) as file:
            self._os("unwritable", file.seek, first * self.layout.size)
            self._write(file, records)

    def mark_committed(self) -> None:
        """Count every appended record as committed; call after flush."""
        self.committed = self.count

    def discard_uncommitted(self) -> None:
        """Drop the records past the committed end, from the buffer and
        from the file (a writer's work only)."""
        self._buffer.clear()
        self.count = self.committed
        end = self.committed * self.layout.size
        if self._os("unreadable", os.fstat, self._fd).st_size != end:
            self._os("unwritable", os.truncate, self.path, end)

    def close(self) -> None:
        """Close both descriptors, the second even if the first fails:
        the kernel releases a descriptor whose close fails all the same."""
        try:
            if self._appender is not None:
                self._os("unclosable", self._appender.close)
        finally:
            if self._fd is not None:
                fd, self._fd = self._fd, None
                self._os("unclosable", os.close, fd)


class DurableNodeStore(NodeStore):
    """Node store backed by the node log, record k holding node k.

    The constructor checks that the log holds the committed records and
    reads none. `get` decodes a record on first use into the node map,
    which also holds every node added in this process, and keeps it
    there. The record comes from its run of the log (see
    _RecordFile.run), read with one positioned read on the first `get`
    of any id in it and kept as bytes, so a walk makes one read per run
    it enters rather than one per node; only the records asked for are
    decoded. A run is cut at the committed count when it is read, so no
    byte past the committed end is ever read. A kept run still holds
    every id of its run that the node map lacks: the ids committed since
    it was read were added in this process, and are in the map. Any
    other id is missing: StructureCorrupt.
    """

    def __init__(self, path: Path, scheme: HashScheme, committed: int):
        super().__init__()
        self._file = _RecordFile(
            path, struct.Struct(f">BBQQQI{scheme.width}s{scheme.width}s"),
            "node log", committed)
        self.layout = self._file.layout
        self._zero = scheme.zero
        self._next_id = committed
        self._runs: dict[int, bytes] = {}  # first id -> bytes of its run

    def get(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            pass
        if not 0 <= node_id < self._file.committed:
            raise StructureCorrupt(f"node {node_id} missing from store")
        ids = self._file.run(node_id)
        raw = self._runs.get(ids.start)
        if raw is None:
            raw = self._runs[ids.start] = self._file.read_raw(ids.start,
                                                              len(ids))
        fields = self.layout.unpack_from(
            raw, (node_id - ids.start) * self.layout.size)
        problem = core.shape_problem(node_id, fields, self._zero)
        if problem is not None:
            raise StructureCorrupt(problem)
        kind, level, rank, below, after, length, block, digest = fields
        node = self._nodes[node_id] = Node(
            kind, level, rank, None if below == NO_LINK else below,
            None if after == NO_LINK else after, length,
            None if kind == KIND_INTERNAL else block, digest)
        return node

    def check(self, scheme: HashScheme, block_lengths: dict) -> tuple:
        """(problems, ranks, digests, flags) of core.check_nodes
        over every committed record, a run at a time; a record not read
        stays BAD, and a read that comes up short ends the pass with one
        more problem."""
        n, problems = self._file.committed, []
        ranks, digests, flags = [0] * n, [scheme.zero] * n, [BAD] * n
        try:
            for problem in core.check_nodes(scheme, self._file.scan(), ranks,
                                            digests, flags, block_lengths):
                problems.append(problem)
        except StructureCorrupt as exc:
            problems.append(str(exc))
        return problems, ranks, digests, flags

    def _encode(self, node: Node) -> bytes:
        return self.layout.pack(*core.record_fields(node, self._zero))

    def add(self, node: Node) -> int:
        if node.kind == KIND_STUB:
            raise StructureCorrupt("stub nodes are never persisted")
        self._file.append(self._encode(node))
        return super().add(node)

    def forget_uncommitted(self) -> None:
        """Drop the nodes added past the committed end from memory, before
        the node log is cut (a writer's work only)."""
        for node_id in range(self._file.committed, self._next_id):
            del self._nodes[node_id]
        self._next_id = self._file.committed


class Commit(NamedTuple):
    """One commit record: a version and the store state it commits."""

    record: VersionRecord
    nodes: int           # node records the store holds
    blocks: int          # block index records the store holds


class CommitLog:
    """The commit records in versions.log, record k being version k:
    reading a version is one positioned read.

    Only complete records count, and only `len(self)` of them: the
    constructor takes as many as the file holds and reads the last. A
    record is decoded strictly when it is read: its record digest must be
    its version record's, the `nodes` it counts one past its last node
    (its root or frozen part), its survivor an earlier version, and its
    counts must not pass the last record's. As a sequence of version
    records it is the source a VersionIndex reads.
    """

    def __init__(self, path: Path, scheme: HashScheme):
        self._file = _RecordFile(
            path, struct.Struct(f">Q{scheme.width}sQQQQQQ{scheme.width}s"),
            "versions.log")
        self.layout = self._file.layout
        self._digest = scheme.version_record
        self.last = None
        try:
            self.last = self.commit(len(self) - 1) if len(self) else None
        except BaseException:
            self._file.close()
            raise

    def __len__(self) -> int:
        return self._file.committed

    def __getitem__(self, version: int) -> VersionRecord:
        return self.commit(version).record

    def commit(self, version: int) -> Commit:
        """Decode the commit record of one committed version."""
        fields, = self._file.read(version)
        return self._decode(version, fields)

    def scan(self):
        """Yield, for every committed version in order, its Commit or the
        StructureCorrupt that refuses its record, reading the log in runs
        (fsck's sweep)."""
        for version, fields in self._file.scan():
            try:
                yield self._decode(version, fields)
            except StructureCorrupt as exc:
                yield exc

    def _decode(self, version: int, fields: tuple) -> Commit:
        (root, root_digest, start, length, nodes, blocks, survivor, frozen,
         digest) = fields
        if digest != self._digest(version, root_digest, start, length):
            raise StructureCorrupt(f"versions.log: version {version}'s "
                                   "record digest does not match its fields")
        last_node = root if frozen == NO_LINK else max(root, frozen)
        if last_node + 1 != nodes:
            raise StructureCorrupt(f"versions.log: version {version} counts "
                                   f"{nodes} nodes, but its last is node "
                                   f"{last_node}")
        if version <= survivor != NO_LINK:
            raise StructureCorrupt(f"versions.log: version {version} links "
                                   "to a later version")
        last = self.last
        if last is not None and (nodes > last.nodes or blocks > last.blocks):
            raise StructureCorrupt(f"versions.log: version {version} counts "
                                   "more records than the last version")
        return Commit(VersionRecord(
            version, root, root_digest, start, length,
            -1 if survivor == NO_LINK else survivor,
            None if frozen == NO_LINK else frozen), nodes, blocks)

    def append(self, commit: Commit) -> None:
        """Buffer a commit record, the commit point once written."""
        rec = commit.record
        self._file.append(self.layout.pack(
            rec.root, rec.root_digest, rec.update_start, rec.update_length,
            commit.nodes, commit.blocks,
            NO_LINK if rec.survivor < 0 else rec.survivor,
            NO_LINK if rec.frozen is None else rec.frozen,
            self._digest(rec.version, rec.root_digest, rec.update_start,
                         rec.update_length)))

    def check_unchanged(self) -> None:
        """Refuse if a complete record appeared past the committed ones
        since this log was opened: another writer committed."""
        if self._file.stored() != len(self):
            raise RepositoryLocked(
                "versions.log changed since the store was opened")


class BlockStore:
    """Content-addressed blocks in one append-only pack file.

    `pack` holds block bytes back to back, a record file of one-byte
    records; `index` is a record file with one record per block, digest
    || u64 offset || u32 length, in pack order. Opening reads the last
    committed index record, for the pack's committed end, and the digest
    map is decoded on first use. A put appends the block to the pack and
    its record to the index, to be written by the commit.

    Reads of many blocks go by extent, a run of blocks that lie back to
    back in the pack: `_extents` takes a version's leaves to extents of
    any length in one pass that also looks up and checks each leaf's
    block, and `_fill` reads them into the caller's buffer (see
    _RecordFile.fill). `copy_leaves` writes each buffer-full of at most
    _COPY_LIMIT bytes to an output file, and `Repository.materialize`
    reads the version into one buffer of its size. The committed pack is
    one run of blocks in index order (see `_records`), so `scan` reads it
    in runs of _RUN_LIMIT bytes (or one longer block) with no coalescing.
    """

    def __init__(self, directory: Path, scheme: HashScheme, committed: int):
        self.scheme = scheme
        # digest -> offset << 32 | length: one int per block, as the
        # map stays in memory for the life of the store.
        self._map: dict[bytes, int] | None = None
        self._index = _RecordFile(
            directory / "index", struct.Struct(f">{scheme.width}sQI"),
            "block index", committed)
        try:
            end = 0
            if committed:
                (_digest, offset, length), = self._index.read(committed - 1)
                end = offset + length
            self._pack = _RecordFile(directory / "pack", struct.Struct("B"),
                                     "block pack", end)
        except BaseException:
            self._index.close()
            raise

    @property
    def count(self) -> int:
        """Index records written, committed or not."""
        return self._index.count

    def _records(self):
        """Yield (digest, offset << 32 | length) for every committed index
        record, in pack order. Each block must start where the one before
        it ended."""
        end = 0
        for _id, (digest, offset, length) in self._index.scan():
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
            end = self._pack.count
            self._pack.append(data)
            self._index.append(self._index.layout.pack(digest, end,
                                                       len(data)))
            blocks[digest] = end << 32 | len(data)
        return digest

    def get(self, digest: bytes) -> bytes:
        try:
            place = self._blocks()[digest]
        except KeyError:
            raise StructureCorrupt(
                f"block {digest.hex()} missing from store") from None
        return self._pack.read_raw(place >> 32, place & _LENGTH_MASK)

    def _extents(self, leaves):
        """Yield (offset, length) for each run of data leaves whose blocks
        lie back to back in the pack, in order, however long the run: one
        pass that looks up each leaf's block and refuses a missing one, or
        one whose stored length disagrees with its leaf, with
        StructureCorrupt."""
        get = self._blocks().get
        start = end = 0
        for leaf in leaves:
            length = leaf.length
            place = get(leaf.block)
            # Most blocks follow the one before, with their leaf's length.
            if place == end << 32 | length:
                end += length
                continue
            if place is None:
                raise StructureCorrupt(
                    f"block {leaf.block.hex()} missing from store")
            if place & _LENGTH_MASK != length:
                raise StructureCorrupt("stored block length mismatch")
            if end > start:
                yield start, end - start
            start = place >> 32
            end = start + length
        if end > start:
            yield start, end - start

    def _fill(self, leaves, buffer: bytearray):
        """Read the blocks of data leaves into `buffer`, which is empty
        only if they are, an extent at a time (see _RecordFile.fill)."""
        return self._pack.fill(self._extents(leaves), buffer)

    def copy_leaves(self, leaves, size: int, out: int) -> int:
        """Write the blocks of data leaves, which add up to at most `size`
        bytes, in order to descriptor `out` at its position, and return
        the bytes written: one os.write per buffer-full of at most
        _COPY_LIMIT bytes (see _fill), continued where the kernel writes
        less."""
        written = 0
        for data in self._fill(leaves, bytearray(min(size, _COPY_LIMIT))):
            while data:
                n = os.write(out, data)
                if n == 0:
                    raise OSError(errno.ENOSPC, "short write")
                data = data[n:]
                written += n
        return written

    def scan(self):
        """Yield (digest, block) for every committed record in pack order,
        one run of the pack in memory at a time: a block not in hand is
        read with those after it, _RUN_LIMIT bytes from its offset (or
        the block, if longer), cut at the committed end. Neither uses nor
        builds the digest map, so a check of the whole pack leaves no map
        behind."""
        run, start = b"", 0   # the pack bytes in hand, from offset start
        for digest, place in self._records():
            offset, length = place >> 32, place & _LENGTH_MASK
            if offset + length > start + len(run):
                run, start = self._pack.read_raw(offset, max(length, min(
                    _RUN_LIMIT, self._pack.committed - offset))), offset
            yield digest, run[offset - start:offset - start + length]

    def all_digests(self) -> list[bytes]:
        """Every stored block's digest, in pack order."""
        return list(self._blocks())

    def overwrite(self, digest: bytes, data: bytes) -> None:
        """Replace a stored block's bytes in place (fault injection)."""
        self._pack.overwrite(self._blocks()[digest] >> 32, data)

    def forget_uncommitted(self) -> None:
        """Drop the blocks put past the committed end from the digest map,
        before the index is cut (a writer's work only)."""
        if self._map is not None:
            # Records enter the map in pack order; the newest leave first.
            for _ in range(self._index.count - self._index.committed):
                self._map.popitem()


class Repository:
    """One versioned, auditable file store rooted at a directory."""

    def __init__(self, path: Path, config: dict):
        """Open the store files at the last committed version, or at none
        for a store that holds none; a failure closes what was opened."""
        self.path = path
        self.scheme = scheme = HashScheme(config["hash"])
        self.block_size = config["block_size"]
        self.seed = bytes.fromhex(config["seed"])
        with ExitStack() as opened:
            self.log = CommitLog(path / "versions.log", scheme)
            opened.callback(self.log._file.close)
            last = self.log.last
            nodes, blocks = ((0, 0) if last is None
                             else (last.nodes, last.blocks))
            self.store = DurableNodeStore(path / "nodes/log", scheme, nodes)
            opened.callback(self.store._file.close)
            self.blocks = BlockStore(path / "blocks", scheme, blocks)
            opened.pop_all()
        # The record files in commit order: a commit writes them in this
        # order, the commit record last.
        self.files = (self.blocks._pack, self.blocks._index,
                      self.store._file, self.log._file)
        self.vindex = VersionIndex(self.store, scheme, self.seed,
                                   records=self.log)

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
        if block_size > _MAX_BLOCK_SIZE:
            raise DomainError(f"block_size must be <= {_MAX_BLOCK_SIZE}")
        if seed is None:
            seed = os.urandom(SEED_BYTES)
        levels = version_levels(seed, 0)   # refuses a bad seed
        if path.exists() and (not path.is_dir() or any(path.iterdir())):
            raise PathExists(f"{path} already exists and is not an empty "
                             "directory")
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
                repo = cls(path, config)
                try:
                    root = core.build(
                        repo.store, scheme, core.read_blocks(fh, block_size),
                        levels, block_digest=repo.blocks.put)
                    repo._add_version(root, 0, repo.store.get(root).rank)
                except BaseException:
                    repo.close()
                    raise
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
            HashScheme(config["hash"])    # refuses an unknown hash
            seed = bytes.fromhex(config["seed"])
            block_size = config["block_size"]
            if (type(block_size) is not int
                    or not 1 <= block_size <= _MAX_BLOCK_SIZE):
                raise ValueError(f"block_size {block_size!r} is not an "
                                 f"integer in [1, {_MAX_BLOCK_SIZE}]")
            if len(seed) != SEED_BYTES:
                raise ValueError(f"seed of {len(seed)} bytes, not "
                                 f"{SEED_BYTES}")
        except (ValueError, KeyError, TypeError, DomainError) as exc:
            raise StructureCorrupt(f"malformed config.json: {exc}") from exc
        repo = cls(path, config)
        if repo.log.last is None:
            repo.close()
            raise StructureCorrupt("versions.log holds no committed version")
        return repo

    def close(self) -> None:
        """Close every record file, even past one whose close fails."""
        with ExitStack() as closing:
            for file in self.files:
                closing.callback(file.close)

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    def _add_version(self, root: int, start: int, length: int) -> None:
        """Commit the next version, of layer-1 root `root` and update
        region [start, start + length): write the record files in commit
        order, the commit record last, the commit point; only then count
        their records and move this object to the new index and version."""
        vindex = VersionIndex(self.store, self.scheme, self.seed,
                              records=self.log, edge=self.vindex.edge)
        rec = vindex.append_version(VersionRecord(
            vindex.count, root, self.store.get(root).digest, start, length))
        commit = Commit(rec, self.store.next_id, self.blocks.count)
        self.log.append(commit)
        for file in self.files:
            file.flush()
        for file in self.files:
            file.mark_committed()
        self.vindex, self.log.last = vindex, commit

    def level_source(self) -> Iterator[int]:
        """The layer-1 level stream of the next commit, fixed by the seed
        and the version it will make (see hashing.version_levels): a
        client holding the seed derives the same stream for its own
        edits, and needs nothing else from the server for it."""
        return version_levels(self.seed, self.vindex.count)

    @property
    def meta_digest(self) -> bytes:
        return self.vindex.meta_digest

    @property
    def latest(self) -> VersionRecord:
        return self.vindex.record(self.vindex.count - 1)

    def record(self, version: int) -> VersionRecord:
        return self.vindex.record(version)

    # -- content ----------------------------------------------------------

    def materialize(self, version: int) -> bytearray:
        """The bytes of one version, read into one buffer of its size."""
        size, leaves = core.data_leaves(self.store, self.record(version).root)
        data = bytearray(size)
        for _full in self.blocks._fill(leaves, data):
            pass
        return data

    def checkout(self, version: int, out_path) -> int:
        """Write one version to out_path through a temporary file beside
        it, `<out_path>.tmp`, so a failed checkout leaves no partial file.
        The temporary file must not exist: one that does is left as it is
        and the checkout refused. Returns the bytes written."""
        root = self.record(version).root
        tmp = f"{out_path}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            raise PathExists(f"{tmp} already exists") from None
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        done = False
        try:
            try:
                size, leaves = core.data_leaves(self.store, root)
                written = self.blocks.copy_leaves(leaves, size, fd)
            finally:
                os.close(fd)
            os.replace(tmp, out_path)
            done = True
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        finally:
            if not done:
                with suppress(FileNotFoundError):
                    os.unlink(tmp)
        return written

    # -- commit ----------------------------------------------------------

    def commit(self, diff_bytes: bytes) -> dict:
        """Apply a diff as one new version; returns a summary."""
        with self.write_lock():
            # Cut what a failed or crashed commit left past the committed
            # ends, unless another writer committed since this store was
            # opened.
            self.log.check_unchanged()
            self.store.forget_uncommitted()
            self.blocks.forget_uncommitted()
            for file in self.files:
                file.discard_uncommitted()
            return self._commit(diff_bytes)

    def _commit(self, diff_bytes: bytes) -> dict:
        diffs = adaptor.parse_diff(diff_bytes)
        old_root = self.latest.root

        def blocks_from(byte: int):
            start, leaves = core.leaves_from(self.store, old_root, byte)
            return start, persist.leaf_blocks(leaves, self.blocks.get)

        ops = adaptor.translate_diffs(diffs, self.store.get(old_root).rank,
                                      blocks_from, self.block_size)
        if not ops:
            raise EmptyCommit("diff produced no block operations")
        # Each new block is put as its op runs, before finish adds the
        # first node record.
        result = adaptor.apply_ops(self.store, self.scheme, old_root, ops,
                                   self.level_source(),
                                   block_digest=self.blocks.put)
        root = result.new_root
        node = self.store.get(root)
        self._add_version(root, *_update_region(ops, node.rank))
        return {"version": self.latest.version,
                "meta": self.meta_digest.hex(),
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
        return audit.prove(self.store, self.vindex, self.blocks.get, ch,
                           adaptor.max_block(self.block_size))

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
        """Sweep every invariant the store promises; returns violations.
        The pack scan gives the node pass its block lengths."""
        problems, lengths = [], {}    # lengths: of every index record
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
        found, ranks, digests, flags = self.store.check(self.scheme, lengths)
        problems += found
        try:
            commits = list(self.log.scan())
        except StructureCorrupt as exc:   # the log lost records since open
            problems.append(str(exc))
            commits = [None] * self.vindex.count
        before = None     # the last record before this one that decoded
        for version, commit in enumerate(commits):
            if isinstance(commit, Commit):
                problems += self._fsck_commit(version, commit, before,
                                              ranks, digests)
                before = commit
            elif commit is not None:     # None: reported above
                problems.append(str(commit))
        records = [c.record for c in commits if isinstance(c, Commit)]
        # One line names every version whose layer-1 root reaches BAD,
        # and one every version whose edge does: the survivor's edge, less
        # the survivor's bare leaf, and the frozen part.
        edges = {}
        for rec in records:
            edges[rec.version] = edges.get(rec.survivor, 0) | (
                0 if rec.frozen is None else flags[rec.frozen])
        for what, reach in (("reach", lambda rec: flags[rec.root]),
                            ("edges reach", lambda rec: edges[rec.version])):
            bad = [rec.version for rec in records if reach(rec) & BAD]
            if bad:
                problems.append(f"versions {_ranges(bad)}: {what} a bad "
                                "node record")
        # Not from the edges: layer-2 leaves' blocks are record digests.
        problems += self._fsck_blocks([rec.root for rec in records], flags,
                                      lengths)
        if len(records) == len(commits):
            problems += self._fsck_layer2(records, digests, flags)
        return problems

    def _fsck_layer2(self, records: list[VersionRecord], digests: list,
                     flags: list) -> list[str]:
        """Replay the layer-2 appends of the version records in memory:
        each record's edge link must be the replay's, its frozen part
        having the replay's digest (unless the part is a bad record,
        reported with the edges that reach it), and the meta digest the
        records derive must be the replay's."""
        problems = []
        replay = VersionIndex(NodeStore(), self.scheme, self.seed)
        for rec in records:
            link = replay.append_version(rec)
            if (rec.survivor != link.survivor
                    or (rec.frozen is None) != (link.frozen is None)
                    or rec.frozen is not None
                    and not flags[rec.frozen] & BAD
                    and digests[rec.frozen]
                    != replay.store.get(link.frozen).digest):
                problems.append(f"version {rec.version}: edge link disagrees "
                                "with a replay of the version log")
        try:
            meta = VersionIndex(self.store, self.scheme, self.seed,
                                records=records).meta_digest
        except StructureCorrupt as exc:
            problems.append(f"edge: {exc}")
        else:
            if meta != replay.meta_digest:
                problems.append("edge links' meta digest does not match a "
                                "replay of the version log")
        return problems

    def _fsck_commit(self, version: int, commit: Commit,
                     before: Commit | None, ranks: list,
                     digests: list) -> list[str]:
        """Check a commit record against the one before it (the store only
        grows) and against the node pass at its root. (Roots and edges
        that reach a bad record are reported for all versions at once,
        and edge links checked against one replay.)"""
        rec = commit.record
        rank = ranks[rec.root]
        problems = []
        if before is not None and (commit.nodes < before.nodes
                                   or commit.blocks < before.blocks):
            problems.append("counts fewer records than version "
                            f"{before.record.version}")
        if digests[rec.root] != rec.root_digest:
            problems.append("logged root digest disagrees with the node store")
        if not (rec.update_start + rec.update_length <= rank or rank == 0):
            problems.append("update region exceeds rank")
        return [f"version {version}: {problem}" for problem in problems]

    def _fsck_blocks(self, roots: list[int], flags: list,
                     lengths: dict) -> list[str]:
        """One line per data leaf under the layer-1 `roots` whose block the
        index lacks or holds at another length, from a walk of the records
        that carry BAD_BLOCK, each got once (as a rule, none)."""
        problems, seen = [], set()
        todo = [root for root in roots if flags[root] & BAD_BLOCK]
        while todo:
            node_id = todo.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            node = self.store.get(node_id)
            if node.kind == KIND_LEAF and node.block not in lengths:
                problems.append(
                    f"leaf {node_id}: block {node.block.hex()} missing")
            elif node.kind == KIND_LEAF and lengths[node.block] != node.length:
                problems.append(f"leaf {node_id}: stored length "
                                f"{node.length} disagrees with block size")
            todo += [link for link in (node.below, node.after)
                     if link is not None and flags[link] & BAD_BLOCK]
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
            targets = []
            if self.store.get(rec.root).rank:
                start, leaves = core.leaves_from(self.store, rec.root,
                                                 rec.update_start)
                for leaf in leaves:
                    if start >= rec.update_start + rec.update_length:
                        break
                    targets.append(leaf.block)
                    start += leaf.length
        elif scope == "blocks":
            targets = self.blocks.all_digests()
        else:
            raise EmptyRegion(f"unknown tamper scope {scope!r}")
        targets = sorted(set(targets))
        # Half rounds up, and a fraction above 0 corrupts at least one.
        count = int(fraction * len(targets) + 0.5)
        if fraction and targets:
            count = max(count, 1)
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


def _ranges(numbers: list[int]) -> str:
    """Ascending distinct numbers as runs: [0, 1, 2, 5] gives "0-2, 5"."""
    runs = [[n for _k, n in run] for _step, run in groupby(
        enumerate(numbers), lambda pair: pair[1] - pair[0])]
    return ", ".join(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0])
                     for run in runs)


def _update_region(ops: list[adaptor.BlockOp], rank: int) -> tuple[int, int]:
    """(start, length) of the bytes a commit's ops wrote, clipped to the
    new version's rank; at least one byte unless the version is empty."""
    if rank == 0:
        return 0, 0
    lo = min(op.index for op in ops)
    hi = max(op.index + len(op.data or b"") for op in ops)
    start = min(lo, rank - 1)
    return start, max(1, min(hi, rank) - start)
