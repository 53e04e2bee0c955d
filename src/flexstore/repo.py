"""Durable repository: block store, node store, version log, and meta.

On-disk layout under the repository root:

    config.json        store format, hash function, block size, seed
    meta               hex of the current layer-2 root digest
    versions.log       one JSON record per version (append-only)
    layer2_roots.log   layer-2 root node id after each append
    nodes/             segmented append-only node records
    blocks/            block content, fanned out by digest prefix

Blocks are content-addressed, so identical content across versions (or
within one file) is stored once. Node records are write-once; commits
append, never rewrite. A lock file serializes writers; read-only
commands do not take the lock.
"""

from __future__ import annotations

import json
import os
import random
import struct
from contextlib import contextmanager
from pathlib import Path

from . import adaptor, audit, core, persist, proofs
from .core import KIND_LEAF, KIND_STUB, Node, NodeStore
from .errors import (DomainError, EmptyCommit, EmptyRegion, IOFailure,
                     PathExists, RepositoryLocked, StructureCorrupt)
from .hashing import SEED_BYTES, HashScheme, LevelSource
from .index2 import VersionIndex, VersionRecord

# Version of the node-record layout, kept in config.json; open refuses
# any other.
STORE_FORMAT = 2
_SEGMENT_LIMIT = 64 * 1024 * 1024
_RECORD_FIXED = struct.Struct(">QBQQQ")


class DurableNodeStore(NodeStore):
    """Node store backed by segmented append-only files."""

    def __init__(self, directory: Path, width: int):
        super().__init__()
        self.directory = directory
        self.width = width
        self._handle = None
        self._segment = 0
        directory.mkdir(parents=True, exist_ok=True)
        for segment in sorted(directory.glob("segment-*.dat")):
            self._load_segment(segment)
            self._segment = max(self._segment,
                                int(segment.stem.split("-")[1]))
        if self._segment == 0:
            self._segment = 1

    def _load_segment(self, path: Path) -> None:
        data = path.read_bytes()
        pos = 0
        try:
            while pos < len(data):
                node, node_id, pos = self._decode(data, pos)
                if node_id != self._next_id:
                    raise StructureCorrupt("node log ids out of sequence")
                self._nodes[node_id] = node
                self._next_id = node_id + 1
        except (struct.error, IndexError) as exc:
            raise StructureCorrupt(f"torn node record in {path.name}") from exc
        # Slices stop silently at the end of the data, so a record cut
        # short decodes to an end past it.
        if pos != len(data):
            raise StructureCorrupt(f"torn node record at the end of "
                                   f"{path.name}")

    def _decode(self, data: bytes, pos: int):
        node_id, kind, level, rank, version = _RECORD_FIXED.unpack_from(
            data, pos)
        pos += _RECORD_FIXED.size
        below, pos = self._decode_opt_u64(data, pos)
        after, pos = self._decode_opt_u64(data, pos)
        length = struct.unpack_from(">Q", data, pos)[0]
        pos += 8
        block = None
        if data[pos]:
            block = data[pos + 1:pos + 1 + self.width]
            pos += 1 + self.width
        else:
            pos += 1
        return (Node(kind, level, rank, below, after, length, block,
                     version, data[pos:pos + self.width]),
                node_id, pos + self.width)

    @staticmethod
    def _decode_opt_u64(data: bytes, pos: int):
        if data[pos]:
            return struct.unpack_from(">Q", data, pos + 1)[0], pos + 9
        return None, pos + 1

    def _encode(self, node_id: int, node: Node) -> bytes:
        out = [_RECORD_FIXED.pack(node_id, node.kind, node.level, node.rank,
                                  node.version)]
        for link in (node.below, node.after):
            out.append(b"\x01" + struct.pack(">Q", link)
                       if link is not None else b"\x00")
        out.append(struct.pack(">Q", node.length))
        out.append(b"\x01" + node.block if node.block is not None
                   else b"\x00")
        out.append(node.digest)
        return b"".join(out)

    def add(self, node: Node) -> int:
        if node.kind == KIND_STUB:
            raise StructureCorrupt("stub nodes are never persisted")
        node_id = super().add(node)
        handle = self._writer()
        handle.write(self._encode(node_id, node))
        return node_id

    def _writer(self):
        if self._handle is None or self._handle.closed:
            path = self.directory / f"segment-{self._segment:06d}.dat"
            if path.exists() and path.stat().st_size > _SEGMENT_LIMIT:
                self._segment += 1
                path = self.directory / f"segment-{self._segment:06d}.dat"
            self._handle = open(path, "ab")
        elif self._handle.tell() > _SEGMENT_LIMIT:
            self._handle.close()
            self._segment += 1
            path = self.directory / f"segment-{self._segment:06d}.dat"
            self._handle = open(path, "ab")
        return self._handle

    def flush(self) -> None:
        if self._handle and not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if self._handle and not self._handle.closed:
            self._handle.close()


class BlockStore:
    """Content-addressed block files, fanned out by digest prefix."""

    def __init__(self, directory: Path, scheme: HashScheme):
        self.directory = directory
        self.scheme = scheme
        directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: bytes) -> Path:
        name = digest.hex()
        return self.directory / name[:2] / name[2:]

    def put(self, data: bytes) -> bytes:
        digest = self.scheme.block_digest(data)
        path = self._path(digest)
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
        return digest

    def get(self, digest: bytes) -> bytes:
        path = self._path(digest)
        try:
            return path.read_bytes()
        except OSError as exc:
            raise StructureCorrupt(
                f"block {digest.hex()} missing from store") from exc

    def has(self, digest: bytes) -> bool:
        return self._path(digest).exists()

    def all_digests(self) -> list[bytes]:
        out = []
        for sub in sorted(self.directory.iterdir()):
            if not sub.is_dir():
                continue
            for f in sorted(sub.iterdir()):
                if f.suffix != ".tmp":
                    out.append(bytes.fromhex(sub.name + f.name))
        return out


class Repository:
    """One versioned, auditable file store rooted at a directory."""

    def __init__(self, path: Path, config: dict, store: DurableNodeStore,
                 blocks: BlockStore, vindex: VersionIndex):
        self.path = path
        self.config = config
        self.scheme = HashScheme(config["hash"])
        self.block_size = config["block_size"]
        self.seed = bytes.fromhex(config["seed"])
        self.store = store
        self.blocks = blocks
        self.vindex = vindex

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def init(cls, path, block_size: int = 2048, seed: bytes | None = None,
             hash_name: str = "sha1",
             input_file: Path | None = None) -> "Repository":
        path = Path(path)
        if path.exists() and any(path.iterdir()):
            raise PathExists(f"{path} already exists and is not empty")
        if seed is None:
            seed = os.urandom(SEED_BYTES)
        try:
            path.mkdir(parents=True, exist_ok=True)
            config = {"format": STORE_FORMAT, "hash": hash_name,
                      "block_size": int(block_size), "seed": seed.hex()}
            (path / "config.json").write_text(
                json.dumps(config, sort_keys=True) + "\n")
            scheme = HashScheme(hash_name)
            store = DurableNodeStore(path / "nodes", scheme.width)
            blocks = BlockStore(path / "blocks", scheme)
            data = Path(input_file).read_bytes() if input_file else b""
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        pieces = core.split_blocks(data, config["block_size"])
        root, src = core.build(store, scheme, pieces, LevelSource(seed),
                               block_digest=blocks.put)
        vindex = VersionIndex(store, scheme, seed)
        rank = store.get(root).rank
        record = VersionRecord(0, root, store.get(root).digest, 0, rank)
        vindex.append_version(record)
        repo = cls(path, config, store, blocks, vindex)
        repo._append_logs(record, vindex.root)
        repo._write_meta()
        repo._save_level_counter(src.counter)
        store.flush()
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
        try:
            raw_versions = (path / "versions.log").read_bytes()
            raw_roots = (path / "layer2_roots.log").read_bytes()
        except OSError as exc:
            raise IOFailure(f"repository logs unreadable: {exc}") from exc
        with _malformed("versions.log"):
            records = [_version_record(json.loads(line))
                       for line in raw_versions.splitlines()]
        with _malformed("layer2_roots.log"):
            roots = [int(line) for line in raw_roots.splitlines()]
        if not records or len(roots) != len(records):
            raise StructureCorrupt("version log and layer-2 log disagree")
        store = DurableNodeStore(path / "nodes", scheme.width)
        # A commit writes its layer-2 root last, so a node log that lost
        # whole trailing records lacks it.
        if roots[-1] not in store:
            raise StructureCorrupt(
                f"node log ends before layer-2 root {roots[-1]}")
        blocks = BlockStore(path / "blocks", scheme)
        vindex = VersionIndex(store, scheme, seed, root=roots[-1],
                              records=records)
        return cls(path, config, store, blocks, vindex)

    def close(self) -> None:
        self.store.close()

    @contextmanager
    def write_lock(self):
        """Hold the writer lock: a file created exclusively, holding the
        writer's pid. A lock whose pid names no live process was left by
        a crashed writer; it is removed and taken once more."""
        lock = self.path / "lock"
        try:
            fd = _create_lock(lock)
        except FileExistsError:
            if not _holder_is_dead(lock):
                raise RepositoryLocked(f"{lock} is held by another writer")
            lock.unlink(missing_ok=True)
            try:
                fd = _create_lock(lock)
            except FileExistsError:
                raise RepositoryLocked(f"{lock} is held by another writer")
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            lock.unlink(missing_ok=True)

    # -- bookkeeping ----------------------------------------------------------

    def _append_logs(self, record: VersionRecord, layer2_root: int) -> None:
        line = json.dumps({
            "version": record.version, "root": record.root,
            "root_digest": record.root_digest.hex(),
            "update_start": record.update_start,
            "update_length": record.update_length}, sort_keys=True)
        with open(self.path / "versions.log", "a") as fh:
            fh.write(line + "\n")
        with open(self.path / "layer2_roots.log", "a") as fh:
            fh.write(f"{layer2_root}\n")

    def _write_meta(self) -> None:
        (self.path / "meta").write_text(self.vindex.meta_digest.hex() + "\n")

    def _save_level_counter(self, counter: int) -> None:
        (self.path / "level_counter").write_text(f"{counter}\n")

    def level_source(self) -> LevelSource:
        """Current position in the construction level stream; a client
        holding the seed replays the same stream for its own edits."""
        with _malformed("level_counter"):
            counter = int((self.path / "level_counter").read_text())
        return LevelSource(self.seed, counter)

    @property
    def meta_digest(self) -> bytes:
        return self.vindex.meta_digest

    @property
    def latest(self) -> VersionRecord:
        return self.vindex.records[-1]

    def record(self, version: int) -> VersionRecord:
        return self.vindex.record(version)

    # -- content ----------------------------------------------------------

    def materialize(self, version: int) -> bytes:
        rec = self.record(version)
        return persist.materialize(self.store, rec.root, self.blocks.get)

    def checkout(self, version: int, out_path) -> int:
        data = self.materialize(version)
        try:
            Path(out_path).write_bytes(data)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        return len(data)

    # -- commit ----------------------------------------------------------

    def commit(self, diff_bytes: bytes) -> dict:
        """Apply a diff as one new version; returns a summary."""
        with self.write_lock():
            return self._commit(diff_bytes)

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
        for op in ops:
            if op.data is not None:
                self.blocks.put(op.data)
        staging = core.StagingStore(self.store)
        root, src = adaptor.apply_ops(staging, self.scheme, old_root, ops,
                                      self.level_source(), version)
        root, created, shared = staging.keep(root)
        node = self.store.get(root)
        start, length = _update_region(ops, node.rank)
        record = VersionRecord(version, root, node.digest, start, length)
        self.vindex.append_version(record)
        self._append_logs(record, self.vindex.root)
        self._write_meta()
        self._save_level_counter(src.counter)
        self.store.flush()
        return {"version": version, "meta": self.meta_digest.hex(),
                "ops": len(ops), "created_nodes": created,
                "shared_nodes": shared, "rank": node.rank}

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
        rec = self.record(version)
        layer2 = self.vindex.version_proof(version)
        rank = self.store.get(rec.root).rank
        blocks = []
        offset = min(start, max(rank - 1, 0))
        end = min(start + length, rank)
        while offset < end:
            path, block_offset, leaf = proofs.build_path(self.store,
                                                         rec.root, offset)
            blocks.append(audit.BlockProof(offset,
                                           self.blocks.get(leaf.block), path))
            offset = block_offset + leaf.length
        return audit.VersionProof(
            (audit.VersionPart(layer2, tuple(blocks)),))

    # -- integrity ----------------------------------------------------------

    def fsck(self) -> list[str]:
        """Sweep every invariant the store promises; returns violations."""
        problems = []
        verified: dict[int, Node] = {}
        recomputed_blocks: dict[bytes, int] = {}
        for rec in self.vindex.records:
            try:
                stored = self.store.get(rec.root)
                if stored.digest != rec.root_digest:
                    problems.append(
                        f"version {rec.version}: logged root digest "
                        "disagrees with the node store")
                core.check_subtree(self.store, self.scheme, rec.root,
                                   verified)
            except StructureCorrupt as exc:
                problems.append(f"version {rec.version}: {exc}")
                continue
            if not (rec.update_start + rec.update_length <= stored.rank
                    or stored.rank == 0):
                problems.append(
                    f"version {rec.version}: update region exceeds rank")
        for node_id, node in verified.items():
            if node.kind != KIND_LEAF:
                continue
            if node.block not in recomputed_blocks:
                try:
                    data = self.blocks.get(node.block)
                except StructureCorrupt:
                    problems.append(
                        f"leaf {node_id}: block {node.block.hex()} missing")
                    continue
                recomputed_blocks[node.block] = len(data)
                if self.scheme.block_digest(data) != node.block:
                    problems.append(
                        f"block {node.block.hex()}: content does not match "
                        "its address")
            if recomputed_blocks.get(node.block) != node.length:
                problems.append(
                    f"leaf {node_id}: stored length {node.length} disagrees "
                    "with block size")
        problems += self._fsck_layer2()
        for digest in self.blocks.all_digests():
            data = self.blocks.get(digest)
            if self.scheme.block_digest(data) != digest:
                problems.append(
                    f"block file {digest.hex()}: content hash mismatch")
        return problems

    def _fsck_layer2(self) -> list[str]:
        problems = []
        replay_store = NodeStore()
        replay = VersionIndex(replay_store, self.scheme, self.seed)
        for rec in self.vindex.records:
            replay.append_version(rec)
        if replay.meta_digest != self.vindex.meta_digest:
            problems.append("layer-2 root does not match a replay of the "
                            "version log")
        meta_file = (self.path / "meta").read_text().strip()
        if meta_file != self.vindex.meta_digest.hex():
            problems.append("meta file disagrees with the layer-2 root")
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
        for digest in chosen:
            path = self.blocks._path(digest)
            original = path.read_bytes()
            garbage = rng.randbytes(len(original))
            while self.scheme.block_digest(garbage) == digest:
                garbage = rng.randbytes(len(original))
            path.write_bytes(garbage)
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


def _version_record(rec: dict) -> VersionRecord:
    return VersionRecord(rec["version"], rec["root"],
                         bytes.fromhex(rec["root_digest"]),
                         rec["update_start"], rec["update_length"])


def _create_lock(lock: Path) -> int:
    return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)


def _holder_is_dead(lock: Path) -> bool:
    """True only if the lock names a pid that no process has."""
    try:
        pid = int(lock.read_text())
        if pid < 1:
            return False
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        return False
    return False


def _update_region(ops: list[adaptor.BlockOp], rank: int) -> tuple[int, int]:
    """(start, length) of the bytes a commit's ops wrote, clipped to the
    new version's rank; at least one byte unless the version is empty."""
    if rank == 0:
        return 0, 0
    lo = min(op.index for op in ops)
    hi = max(op.index + len(op.data or b"") for op in ops)
    start = min(lo, rank - 1)
    return start, max(1, min(hi, rank) - start)
