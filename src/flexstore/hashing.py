"""Canonical byte encodings and the single digest function.

Every authenticated value in the store is produced by one hash function
(SHA-1 by default, SHA-256 selectable); the digest width follows the
function. All integers are fixed-width 8-byte big-endian. The encodings
below are defined and computed only here, by HashScheme: every other
module hashes a node through its two node encoders.

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
A tower level is a pure function of (seed, domain, counter): SHA-256 of
b"level" || domain_u8 || seed || counter_8be, its leading one-bits
counted (a geometric distribution with parameter 0.5), capped at
LEVEL_CAP. Two functions return the only streams, as iterators:
`version_levels(seed, v)`, the layer-1 towers the commit of version v
inserts (domain 0, counters (v << 32) + 0, 1, ...), and
`layer2_levels(seed, v)`, the layer-2 towers of versions v, v + 1, ...
(domain 1, counters v, v + 1, ...). So the seed and the version number
fix every level: client and server replay identical streams, and the
store keeps no stream position. A stream is single-use: whoever needs
the same levels twice makes the stream twice from (seed, version).
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterator
from itertools import islice

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
    """A chosen hash function plus derived constants; the only code that
    knows how a node is hashed. The node encoders
    `internal_digest(level, rank, below, after)` and
    `leaf_digest(sentinel, rank, after, length, block)` pack a node's
    fields with one precompiled struct.Struct, in the order of the
    encodings above, and hash them once; `after` is the after child's
    digest or None, and a leaf's level is 0. They do not check digest
    widths, as a struct "s" field pads or cuts a digest of the wrong
    width without a word: a caller whose digests did not all come from
    this scheme checks them first, as `core.make_leaf` and
    `proofs.fold_path` do. `digest` hashes the rest: blocks, through
    `block_digest`, and version records, whose bytes `version_record`
    packs with `record_layout`, checking the width."""

    __slots__ = ("name", "hash_fn", "width", "zero", "record_layout",
                 "internal_digest", "leaf_digest")

    def __init__(self, name: str = "sha1"):
        if name not in _HASHES:
            raise DomainError(f"unknown hash function {name!r}")
        self.name = name
        hash_fn = self.hash_fn = _HASHES[name]
        width = self.width = hash_fn(b"").digest_size
        zero = self.zero = b"\x00" * width
        pack_internal = struct.Struct(f">BQQ{width}sB{width}s").pack
        pack_leaf = struct.Struct(f">BQQB{width}sQ{width}s").pack
        self.record_layout = struct.Struct(f">BQ{width}sQQ")

        def internal_digest(level, rank, below, after):
            return hash_fn(pack_internal(
                TAG_INTERNAL, level, rank, below, after is not None,
                zero if after is None else after)).digest()

        def leaf_digest(sentinel, rank, after, length, block):
            return hash_fn(pack_leaf(
                TAG_SENTINEL if sentinel else TAG_LEAF, 0, rank,
                after is not None, zero if after is None else after, length,
                block)).digest()

        self.internal_digest, self.leaf_digest = internal_digest, leaf_digest

    def digest(self, data: bytes) -> bytes:
        return self.hash_fn(data).digest()

    def block_digest(self, block: bytes) -> bytes:
        """Content address of a data block."""
        return self.digest(block)

    def version_record(self, version: int, root_digest: bytes,
                       update_start: int, update_length: int) -> bytes:
        if len(root_digest) != self.width:
            raise DomainError("digest width mismatch")
        return self.digest(self.record_layout.pack(
            TAG_VERSION_RECORD, version, root_digest, update_start,
            update_length))


# Domains for the two level streams; layer 2 draws from its own stream
# family so its shape is independent of layer 1's.
_LEVELS_LAYER1 = 0
_LEVELS_LAYER2 = 1


def version_levels(seed: bytes, version: int) -> Iterator[int]:
    """The layer-1 levels of the commit that makes `version`: its k-th
    draw is counter (version << 32) + k, so version 0's stream is the
    counters from 0. A commit that drew 2^32 levels or more would run
    into the next version's stream; that is harmless, as levels choose
    only the shape and both sides derive the same ones."""
    return _levels(seed, _LEVELS_LAYER1, version << 32)


def layer2_levels(seed: bytes, version: int) -> Iterator[int]:
    """The layer-2 levels of versions `version`, `version` + 1, ...: the
    tower of version v is counter v."""
    return _levels(seed, _LEVELS_LAYER2, version)


def _levels(seed: bytes, domain: int, first: int) -> Iterator[int]:
    """The endless level stream of `domain` from counter `first`. The
    seed is checked here, as the stream is made, not at its first draw."""
    if len(seed) != SEED_BYTES:
        raise DomainError(f"seed must be {SEED_BYTES} bytes")
    return (min(_leading_ones(digest), LEVEL_CAP) for digest
            in _digests(b"level" + bytes([domain]) + seed, first))


def _digests(prefix: bytes, counter: int = 0) -> Iterator[bytes]:
    """SHA-256 of prefix || counter_8be for counter, counter + 1, ...; the
    hash state of the prefix is made once and copied."""
    draw_from, pack = hashlib.sha256(prefix).copy, _U64.pack
    while True:
        draw = draw_from()
        draw.update(pack(counter))
        counter += 1
        yield draw.digest()


def _leading_ones(digest: bytes) -> int:
    """Leading one-bits of a 256-bit digest."""
    return 256 - (int.from_bytes(digest, "big")
                  ^ ((1 << 256) - 1)).bit_length()


def challenge_indices(seed: bytes, count: int, start: int,
                      length: int) -> Iterator[int]:
    """Expand a challenge seed into `count` byte indices uniform over
    [start, start+length), as an iterator that draws each as it is asked
    for; the arguments are checked as it is made.

    Uses a keyed-hash PRF over an incrementing counter with rejection
    sampling, so there is no modulo bias and both parties compute the same
    sequence. Duplicates are kept. Draw k hashes b"chal" || seed || k.
    """
    if length < 1:
        raise DomainError("region length must be >= 1")
    if count < 0:
        raise DomainError("challenge count must be >= 0")
    limit = (1 << 64) - ((1 << 64) % length)
    values = map(_U64.unpack_from, _digests(b"chal" + seed))   # 1-tuples
    return islice((start + value % length for value, in values
                   if value < limit), count)
