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
exactly one counter value, so client and server replay identical streams.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .errors import DomainError

TAG_INTERNAL = b"\x00"
TAG_LEAF = b"\x01"
TAG_SENTINEL = b"\x02"
TAG_VERSION_RECORD = b"\x03"

SEED_BYTES = 10  # 80-bit seeds
LEVEL_CAP = 64

_HASHES = {"sha1": hashlib.sha1, "sha256": hashlib.sha256}


class HashScheme:
    """A chosen hash function plus derived constants."""

    __slots__ = ("name", "_fn", "width", "zero")

    def __init__(self, name: str = "sha1"):
        if name not in _HASHES:
            raise DomainError(f"unknown hash function {name!r}")
        self.name = name
        self._fn = _HASHES[name]
        self.width = self._fn(b"").digest_size
        self.zero = b"\x00" * self.width

    def digest(self, data: bytes) -> bytes:
        return self._fn(data).digest()

    def block_digest(self, block: bytes) -> bytes:
        """Content address of a data block."""
        return self.digest(block)

    def internal_node(self, level: int, rank: int, below: bytes,
                      after: bytes | None) -> bytes:
        enc = (TAG_INTERNAL + struct.pack(">QQ", level, rank) + below
               + self._opt(after))
        return self.digest(enc)

    def leaf_node(self, level: int, rank: int, after: bytes | None,
                  length: int, block_digest: bytes, sentinel: bool = False) -> bytes:
        tag = TAG_SENTINEL if sentinel else TAG_LEAF
        enc = (tag + struct.pack(">QQ", level, rank) + self._opt(after)
               + struct.pack(">Q", length) + block_digest)
        return self.digest(enc)

    def version_record(self, version: int, root_digest: bytes,
                       update_start: int, update_length: int) -> bytes:
        return self.digest(TAG_VERSION_RECORD + struct.pack(">Q", version)
                           + root_digest
                           + struct.pack(">QQ", update_start, update_length))

    def _opt(self, digest: bytes | None) -> bytes:
        if digest is None:
            return b"\x00" + self.zero
        if len(digest) != self.width:
            raise DomainError("digest width mismatch")
        return b"\x01" + digest


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
        material = (b"level" + bytes([self.domain]) + self.seed
                    + struct.pack(">Q", self.counter))
        digest = hashlib.sha256(material).digest()
        level = _leading_ones(digest)
        return min(level, LEVEL_CAP), LevelSource(self.seed, self.counter + 1,
                                                  self.domain)


def _leading_ones(data: bytes) -> int:
    count = 0
    for byte in data:
        if byte == 0xFF:
            count += 8
            continue
        for bit in range(7, -1, -1):
            if byte >> bit & 1:
                count += 1
            else:
                return count
        return count
    return count


def challenge_indices(seed: bytes, count: int, start: int, length: int) -> list[int]:
    """Expand a challenge seed into `count` byte indices uniform over
    [start, start+length).

    Uses a keyed-hash PRF over an incrementing counter with rejection
    sampling, so there is no modulo bias and both parties compute the same
    sequence. Duplicates are kept.
    """
    if length < 1:
        raise DomainError("region length must be >= 1")
    if count < 0:
        raise DomainError("challenge count must be >= 0")
    limit = (1 << 64) - ((1 << 64) % length)
    out = []
    counter = 0
    while len(out) < count:
        material = b"chal" + seed + struct.pack(">Q", counter)
        counter += 1
        value = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        if value >= limit:
            continue
        out.append(start + value % length)
    return out
