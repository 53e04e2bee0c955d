"""Canonical byte encodings and the single digest function.

Every authenticated value in the store is produced by one hash function
(SHA-1 by default, SHA-256 selectable); the digest width follows the
function. All integers are fixed-width 8-byte big-endian.

Hashing domains
---------------
Single-byte domain tags keep the encodings unambiguous:

    0x00  internal node
    0x01  leaf node
    0x02  sentinel leaf (zero-length boundary leaf)
    0x03  version record material (layer-2 leaf content)

Canonical bytes fed to the hash, with W the digest width:

  internal:
      0x00 || level_8be || rank_8be || below_digest
           || after_presence(0x00|0x01) || after_digest_or_W_zero_bytes

  leaf (0x01) and sentinel leaf (0x02):
      tag || level_8be || rank_8be
          || after_presence(0x00|0x01) || after_digest_or_W_zero_bytes
          || length_8be || block_digest   (W zero bytes for sentinels)

  version record material:
      0x03 || version_8be || root_digest || update_start_8be
           || update_length_8be
      (the digest of this material serves as the block digest of the
      layer-2 leaf that authenticates the record)

Level streams
-------------
Tower levels are drawn from a pure function of (seed, counter): the draw
hashes the 80-bit seed with the counter and counts leading one-bits, which
yields a geometric distribution with parameter 0.5. One draw consumes
exactly one counter value. The layer-1 towers a commit inserts come from
its version's stream (`version_levels`), and the layer-2 tower of
version v is draw v of the layer-2 stream, so the seed and the version
number fix every level: client and server replay identical streams, and
the store keeps no stream position.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .errors import DomainError

TAG_INTERNAL = 0x00
TAG_LEAF = 0x01
TAG_SENTINEL = 0x02
TAG_VERSION_RECORD = 0x03

SEED_BYTES = 10  # 80-bit seeds
LEVEL_CAP = 64

_HASHES = {"sha1": hashlib.sha1, "sha256": hashlib.sha256}
_U64 = struct.Struct(">Q")


class HashScheme:
    """A chosen hash function plus derived constants.

    Each node kind's canonical bytes come from one precompiled
    struct.Struct pack, exposed as `internal_layout`, `leaf_layout` and
    `record_layout` (fields in the order of the encodings above), and
    `hash_fn` is the hash constructor. `internal_node`, `leaf_node` and
    `version_record` are the checked encoders. A loop that hashes many
    nodes binds `hash_fn` and a layout once and hashes each node in one
    step, hash_fn(layout.pack(...)).digest(), having checked the widths
    of the digests it packs itself. `digest` hashes everything else:
    blocks, through `block_digest`, and version records."""

    __slots__ = ("name", "hash_fn", "width", "zero", "internal_layout",
                 "leaf_layout", "record_layout")

    def __init__(self, name: str = "sha1"):
        if name not in _HASHES:
            raise DomainError(f"unknown hash function {name!r}")
        self.name = name
        self.hash_fn = _HASHES[name]
        width = self.width = self.hash_fn(b"").digest_size
        self.zero = b"\x00" * width
        self.internal_layout = struct.Struct(f">BQQ{width}sB{width}s")
        self.leaf_layout = struct.Struct(f">BQQB{width}sQ{width}s")
        self.record_layout = struct.Struct(f">BQ{width}sQQ")

    def digest(self, data: bytes) -> bytes:
        return self.hash_fn(data).digest()

    def block_digest(self, block: bytes) -> bytes:
        """Content address of a data block."""
        return self.digest(block)

    # A struct "s" field pads or cuts a digest of the wrong width without
    # a word, so each encoder checks the widths itself.

    def internal_node(self, level: int, rank: int, below: bytes,
                      after: bytes | None) -> bytes:
        present = after is not None
        if not present:
            after = self.zero
        if len(below) != self.width or len(after) != self.width:
            raise DomainError("digest width mismatch")
        return self.digest(self.internal_layout.pack(
            TAG_INTERNAL, level, rank, below, present, after))

    def leaf_node(self, level: int, rank: int, after: bytes | None,
                  length: int, block_digest: bytes, sentinel: bool = False) -> bytes:
        present = after is not None
        if not present:
            after = self.zero
        if len(after) != self.width or len(block_digest) != self.width:
            raise DomainError("digest width mismatch")
        return self.digest(self.leaf_layout.pack(
            TAG_SENTINEL if sentinel else TAG_LEAF, level, rank, present,
            after, length, block_digest))

    def version_record(self, version: int, root_digest: bytes,
                       update_start: int, update_length: int) -> bytes:
        if len(root_digest) != self.width:
            raise DomainError("digest width mismatch")
        return self.digest(self.record_layout.pack(
            TAG_VERSION_RECORD, version, root_digest, update_start,
            update_length))


# Domains for the two level streams; layer 2 draws from its own stream
# family so its shape is independent of layer 1's.
LEVELS_LAYER1 = 0
LEVELS_LAYER2 = 1


@dataclass(frozen=True)
class LevelSource:
    """Deterministic level stream position: (seed, counter) with a domain.

    draw() is pure; advancing returns a new source so callers can thread
    stream state explicitly and replay it elsewhere.
    """

    seed: bytes
    counter: int = 0
    domain: int = LEVELS_LAYER1

    def __post_init__(self):
        if len(self.seed) != SEED_BYTES:
            raise DomainError(f"seed must be {SEED_BYTES} bytes")

    def draw(self) -> tuple[int, "LevelSource"]:
        """Return (level, advanced source); level = leading heads before
        the first tails, capped at LEVEL_CAP."""
        return self._level(self.counter), LevelSource(
            self.seed, self.counter + 1, self.domain)

    def draws(self, count: int) -> tuple[list[int], "LevelSource"]:
        """The levels of the next `count` draws, and the source after
        them, without a source made per draw (fsck's layer-2 replay)."""
        return [self._level(counter) for counter in range(
            self.counter, self.counter + count)], LevelSource(
            self.seed, self.counter + count, self.domain)

    def _level(self, counter: int) -> int:
        material = (b"level" + bytes([self.domain]) + self.seed
                    + _U64.pack(counter))
        return min(_leading_ones(hashlib.sha256(material).digest()),
                   LEVEL_CAP)


def version_levels(seed: bytes, version: int) -> LevelSource:
    """The layer-1 level stream of the commit that makes `version`: its
    k-th draw is counter (version << 32) + k, so version 0's stream is
    the counters from 0. A commit that drew 2^32 levels or more would run
    into the next version's stream; that is harmless, as levels choose
    only the shape and both sides derive the same ones."""
    return LevelSource(seed, version << 32)


def _leading_ones(digest: bytes) -> int:
    """Leading one-bits of a 256-bit digest."""
    return 256 - (int.from_bytes(digest, "big")
                  ^ ((1 << 256) - 1)).bit_length()


def challenge_indices(seed: bytes, count: int, start: int, length: int) -> list[int]:
    """Expand a challenge seed into `count` byte indices uniform over
    [start, start+length).

    Uses a keyed-hash PRF over an incrementing counter with rejection
    sampling, so there is no modulo bias and both parties compute the same
    sequence. Duplicates are kept. Draw k hashes b"chal" || seed || k;
    the hash state of the common prefix is made once and copied.
    """
    if length < 1:
        raise DomainError("region length must be >= 1")
    if count < 0:
        raise DomainError("challenge count must be >= 0")
    limit = (1 << 64) - ((1 << 64) % length)
    draw_from = hashlib.sha256(b"chal" + seed).copy
    pack, unpack_from = _U64.pack, _U64.unpack_from
    out = []
    counter = 0
    while len(out) < count:
        draw = draw_from()
        draw.update(pack(counter))
        counter += 1
        value, = unpack_from(draw.digest())
        if value >= limit:
            continue
        out.append(start + value % length)
    return out
