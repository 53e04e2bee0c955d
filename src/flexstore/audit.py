"""Challenge generation, proof assembly, verification, and wire formats.

A challenge is (seed, r, target versions). Both parties expand the seed
into r byte indices inside each targeted version's authenticated update
region (or the whole file when no versions are listed, which targets the
latest version). A proof is one layer-2 pruned subtree proving the
records of every challenged version at once, then one part per distinct
challenged version, ascending: its record, the pruned subtree of its
layer-1 root, and the block of each proven leaf, once. Both subtrees
have the one shape of proofs.build_path and proofs.fold_path.

No indices go on the wire: the verifier folds the layer-2 subtree over
the parts' records against its meta digest, folds each layer-1 subtree
over its blocks and compares the root digest with the record's, expands
the seed itself and demands that every index lands in a proven leaf and
every proven leaf is hit. Leaf offsets follow from authenticated ranks,
so the prover cannot substitute blocks of its own choosing. A client
range proof (prove_range) has the same shape, the leaves of a byte range
being the proven ones, and the same fold gives the client its partial
list.

Both sides draw the indices one at a time and stop once every leaf of
the region is hit: the prover, when it has walked the region's leaves
(at most r of them, and none where hitting them all is too unlikely);
the verifier, once the proven leaves, each hit, lie back to back over
the region, so that no later index can miss them. Stopping changes no
proof and no verdict. A proof with a proven leaf that does not meet
the region, which no index can hit, the verifier refuses before it
draws. Where r is larger, a region of k equal leaves
thus costs k H_k draws on average, about k ln k, and a leaf holding a
share p of the region about 1/p; memory is set by the leaves, not by
r. An old version's update region of one block takes one draw of any
challenge.

File formats (all integers 8-byte big-endian, digests raw, no padding;
parsers reject trailing bytes):

  challenge "FXC1": magic || seed(10) || r || nversions || versions...

  proof "FXP3": magic || layer-2 subtree: nbytes || nodes
    || nparts, then per part, versions ascending:
    version || root digest || update start || update length
    layer-1 subtree: nbytes || nodes
    blocks: nblocks || (length || bytes) per proven leaf, left to right

  Subtree nodes are encoded as the proofs module describes.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

from . import core, index2, proofs
from .core import NodeStore
from .errors import DomainError, EmptyRegion, FormatError, ProofRejected
from .hashing import SEED_BYTES, HashScheme, challenge_indices
from .index2 import VersionIndex, VersionRecord

MAGIC_CHALLENGE = b"FXC1"
MAGIC_PROOF = b"FXP3"
_MAX_COUNT = 1 << 24  # bound for challenge sizes
_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class Challenge:
    """Seeded random block selection over one or more versions.

    An empty versions tuple targets the latest version over its whole
    byte span; otherwise each listed version is challenged inside its
    authenticated update region.
    """

    seed: bytes
    count: int
    versions: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.seed) != SEED_BYTES:
            raise DomainError(f"challenge seed must be {SEED_BYTES} bytes")
        if self.count < 1:
            raise DomainError("challenge block count must be >= 1")
        if self.count > _MAX_COUNT:
            raise DomainError(
                f"challenge block count must be <= {_MAX_COUNT}")


@dataclass(frozen=True)
class VersionPart:
    version: int                # the version's record, as layer 2 holds it
    root_digest: bytes
    update_start: int
    update_length: int
    subtree: bytes              # pruned subtree of the version root, encoded
    blocks: tuple[bytes, ...]   # each proven leaf's block, left to right
                                # (read_proof gives memoryviews)


@dataclass(frozen=True)
class VersionProof:
    layer2: bytes               # pruned layer-2 subtree proving the records
    parts: tuple[VersionPart, ...]   # versions ascending


def expand_challenge(ch: Challenge, region: tuple[int, int]) -> Iterator[int]:
    """Expand a challenge to its byte indices within (start, length),
    each drawn as it is asked for."""
    start, length = region
    if length < 1:
        raise EmptyRegion("cannot challenge a zero-length region")
    return challenge_indices(ch.seed, ch.count, start, length)


def detection_probability(f: float, r: int) -> float:
    """Probability of catching a prover missing fraction f of the data
    when r randomly chosen blocks are challenged."""
    if not 0.0 <= f <= 1.0:
        raise DomainError("fraction must lie in [0, 1]")
    if r < 0:
        raise DomainError("challenge count must be >= 0")
    return 1.0 - (1.0 - f) ** r


def challenge_region(store: NodeStore, vindex: VersionIndex, version: int,
                     whole_file: bool) -> tuple[int, int]:
    rec = vindex.record(version)
    if whole_file:
        return 0, store.get(rec.root).rank
    return rec.update_start, rec.update_length


# ---------------------------------------------------------------------------
# Proving
# ---------------------------------------------------------------------------


def prove(store: NodeStore, vindex: VersionIndex, get_block, ch: Challenge,
          max_leaf: int) -> VersionProof:
    """Assemble the proof of every distinct challenged version. No leaf
    of the store is longer than `max_leaf` bytes; a store that breaks
    that costs more to prove, never another proof."""
    whole_file = not ch.versions
    layer2, records = vindex.version_proof(ch.versions
                                           or (vindex.count - 1,))
    parts = []
    for rec in records:
        region = challenge_region(store, vindex, rec.version, whole_file)
        los = _hit_leaves(store, rec.root, ch, region, max_leaf)
        parts.append(_prove_part(store, get_block, rec, los,
                                 [lo + 1 for lo in los]))
    return VersionProof(layer2, tuple(parts))


def _hit_leaves(store: NodeStore, root: int, ch: Challenge,
                region: tuple[int, int], max_leaf: int) -> list[int]:
    """One byte of each leaf the challenge hits in `region`, ascending.
    Where the region's leaves were walked, the draws stop once every
    leaf is hit and the byte is the leaf's start; else every draw is
    taken and the bytes are the distinct challenged indices. Either way
    build_path proves the same leaves."""
    draws = expand_challenge(ch, region)   # refuses an empty region first
    starts = _leaf_starts(store, root, region, ch.count, max_leaf)
    if starts is None:
        return sorted(set(draws))
    hit = set()
    for index in draws:
        hit.add(bisect_right(starts, index) - 1)
        if len(hit) == len(starts):
            break
    return [starts[leaf] for leaf in sorted(hit)]


# The walk of a region's leaves is skipped, or given up, once more than
# this many of its leaves are expected to stay unhit: all of them are
# then hit with probability under e^-14, about one in a million.
_UNHIT_LIMIT = 14.0


def _leaf_starts(store: NodeStore, root: int, region: tuple[int, int],
                 count: int, max_leaf: int) -> list[int] | None:
    """The byte offset of each leaf of `region`, left to right, or None
    where `count` draws would almost surely not hit them all: the region
    has more leaves than draws, or too many are expected to stay unhit.
    None too where the region runs past the version's end, a damaged
    record that fsck reports.

    A leaf holding a share p of the region stays unhit by `count` draws
    with probability (1 - p)^count. The events "leaf i is hit" are
    negatively associated, so all leaves are hit with probability at
    most the product of 1 - (1 - p)^count over any of them, which is at
    most exp(-u), u the sum of (1 - p)^count over those. Before walking,
    u is bounded below by n (1 - 1/n)^count, n = length / max_leaf
    rounded up being the fewest leaves the region can hold; during the
    walk, u is summed over the leaves walked."""
    start, length = region
    end = start + length
    fewest = -(-length // max_leaf)
    if (fewest > count or end > store.get(root).rank
            or fewest * (1.0 - 1.0 / fewest) ** count > _UNHIT_LIMIT):
        return None
    offset, leaves = core.leaves_from(store, root, start)
    starts = []
    unhit = 0.0
    for leaf in leaves:
        if len(starts) == count or unhit > _UNHIT_LIMIT:
            return None
        share = (min(offset + leaf.length, end) - max(offset, start)) / length
        unhit += (1.0 - share) ** count
        starts.append(offset)
        offset += leaf.length
        if offset >= end:
            break
    return starts


def prove_range(store: NodeStore, vindex: VersionIndex, get_block,
                version: int, start: int, length: int) -> VersionProof:
    """Range proof for the client update: every block of one version
    intersecting [start, start+length), a start past the end meaning the
    last block."""
    layer2, (rec,) = vindex.version_proof((version,))
    rank = store.get(rec.root).rank
    lo = min(start, max(rank - 1, 0))
    hi = min(start + length, rank)
    spans = ([lo], [hi]) if lo < hi else ([], [])
    return VersionProof(layer2, (_prove_part(store, get_block, rec,
                                             *spans),))


def _prove_part(store, get_block, rec: VersionRecord, los,
                his) -> VersionPart:
    subtree, digests = proofs.build_path(store, rec.root, los, his)
    return VersionPart(rec.version, rec.root_digest, rec.update_start,
                       rec.update_length, subtree,
                       tuple(map(get_block, digests)))


# ---------------------------------------------------------------------------
# Verifying
# ---------------------------------------------------------------------------


def check_proof(scheme: HashScheme, meta: bytes,
                proof: VersionProof) -> tuple[int, list[proofs.Subtree]]:
    """Authenticate a proof against a meta digest: the layer-2 subtree
    over the parts' records, then each part's layer-1 subtree over its
    blocks against the root digest of its record. Returns the version
    count and each part's decoded subtree; ProofRejected on a mismatch,
    FormatError on a malformed proof."""
    count = index2.verify_version_proof(scheme, meta, proof.layer2,
                                        proof.parts)
    subs = []
    block_digest = scheme.block_digest
    for part in proof.parts:
        sub = proofs.fold_path(scheme, part.subtree, [
            (len(block), block_digest(block)) for block in part.blocks])
        if sub.digest[sub.root] != part.root_digest:
            raise ProofRejected("layer-1 digest mismatch")
        subs.append(sub)
    return count, subs


def verify(scheme: HashScheme, meta: bytes, ch: Challenge,
           proof: VersionProof) -> tuple[bool, str]:
    """Recompute the meta digest from the proof; accept only if every
    digest closes and the proven leaves are exactly those the verifier's
    own expansion of the seed hits. Total: all failures come back as a
    reason."""
    try:
        return _verify(scheme, meta, ch, proof)
    except ProofRejected as exc:
        return False, str(exc)
    except (FormatError, DomainError) as exc:
        return False, f"malformed proof: {exc}"
    except EmptyRegion:
        return False, "challenged version has an empty region"


def _verify(scheme, meta, ch, proof):
    count, subs = check_proof(scheme, meta, proof)
    whole_file = not ch.versions
    versions = [part.version for part in proof.parts]
    if whole_file and versions != [count - 1]:
        return False, "whole-file challenge must target the latest version"
    if not whole_file and versions != sorted(set(ch.versions)):
        return False, ("proof parts are not the challenged versions, "
                       "each once, ascending")
    for part, sub in zip(proof.parts, subs):
        region = ((0, sub.rank[sub.root]) if whole_file
                  else (part.update_start, part.update_length))
        starts, blocks = sub.starts, part.blocks
        draws = expand_challenge(ch, region)   # refuses an empty region first
        # The leaves lie in order, so only the first can end before the
        # region and only the last start past it: such a leaf no index
        # can hit, whatever the count.
        if starts and (starts[0] + len(blocks[0]) <= region[0]
                       or starts[-1] >= region[0] + region[1]):
            return False, "proof carries a leaf no challenged index can hit"
        hit = [False] * len(starts)
        unhit = len(starts)
        for index in draws:
            leaf = bisect_right(starts, index) - 1
            if leaf < 0 or index >= starts[leaf] + len(blocks[leaf]):
                return False, (f"challenged index {index} lies in no "
                               "proven leaf")
            if not hit[leaf]:
                hit[leaf] = True
                unhit -= 1
                if not unhit and _covers(starts, blocks, region):
                    break   # every later index lands in a proven leaf
        if unhit:
            return False, "proof carries a leaf no challenged index hits"
    return True, "ok"


def _covers(starts: list[int], blocks, region: tuple[int, int]) -> bool:
    """Whether the proven leaves lie back to back from at or before the
    region's start to at or past its end."""
    start, length = region
    last = len(starts) - 1
    return (starts[0] <= start
            and starts[last] + len(blocks[last]) >= start + length
            and all(starts[i] + len(blocks[i]) == starts[i + 1]
                    for i in range(last)))


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


class _Reader:
    """Reads a file's fields in order from one memoryview: `take` and
    `blocks` return slices of it, not copies."""

    def __init__(self, data: bytes):
        self.data = memoryview(bytes(data))   # a copy only if mutable
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise FormatError("truncated file")
        self.pos = end
        return self.data[end - n:end]

    def u64(self) -> int:
        try:
            value, = _U64.unpack_from(self.data, self.pos)
        except struct.error:
            raise FormatError("truncated file") from None
        self.pos += 8
        return value

    def count(self, unit: int) -> int:
        """A repeat count of records at least `unit` bytes each, checked
        against the bytes that remain."""
        value = self.u64()
        if value * unit > len(self.data) - self.pos:
            raise FormatError("repeat count exceeds the bytes that remain")
        return value

    def blocks(self) -> tuple[memoryview, ...]:
        """A count, then that many blocks, each its length and bytes."""
        count = self.count(_MIN_BLOCK)
        data, pos, size = self.data, self.pos, len(self.data)
        unpack_from = _U64.unpack_from
        out = []
        try:
            for _ in range(count):
                length, = unpack_from(data, pos)
                pos += 8
                end = pos + length
                if end > size:
                    raise FormatError("truncated file")
                out.append(data[pos:end])
                pos = end
        except struct.error:
            raise FormatError("truncated file") from None
        self.pos = pos
        return tuple(out)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError("trailing bytes after the last section")


def write_challenge(ch: Challenge) -> bytes:
    out = [MAGIC_CHALLENGE, ch.seed, struct.pack(">QQ", ch.count,
                                                 len(ch.versions))]
    out += [struct.pack(">Q", v) for v in ch.versions]
    return b"".join(out)


def read_challenge(data: bytes) -> Challenge:
    r = _Reader(data)
    if r.take(4) != MAGIC_CHALLENGE:
        raise FormatError("not a challenge file")
    seed = bytes(r.take(SEED_BYTES))
    count = r.u64()
    if count > _MAX_COUNT:
        raise FormatError("implausible challenge block count")
    versions = tuple(r.u64() for _ in range(r.count(8)))
    r.done()
    if count < 1:
        raise FormatError("challenge block count must be >= 1")
    return Challenge(seed, count, versions)


# Smallest encodings, for checking counts: a block, and a part (its
# record, a one-byte subtree, no blocks).
_MIN_BLOCK = 8
_MIN_PART = 8 + 16 + 8 + 1 + 8


def write_proof(proof: VersionProof, scheme: HashScheme) -> bytes:
    out = [MAGIC_PROOF, _U64.pack(len(proof.layer2)), proof.layer2,
           _U64.pack(len(proof.parts))]
    for part in proof.parts:
        out.append(struct.pack(">Q", part.version) + part.root_digest
                   + struct.pack(">QQQ", part.update_start,
                                 part.update_length, len(part.subtree)))
        out.append(part.subtree)
        out.append(_U64.pack(len(part.blocks)))
        for block in part.blocks:
            out.append(_U64.pack(len(block)))
            out.append(block)
    return b"".join(out)


def read_proof(data: bytes, scheme: HashScheme) -> VersionProof:
    """Parse the framing of a proof file. The pruned subtrees stay
    encoded: proofs.fold_path decodes them. Each block is a read-only
    memoryview of `data`, not a copy. Raises FormatError only."""
    w = scheme.width
    r = _Reader(data)
    magic = r.take(4)
    if magic == b"FXP2":
        raise FormatError("an FXP2 proof: that older format is not read")
    if magic != MAGIC_PROOF:
        raise FormatError("not a proof file")
    layer2 = bytes(r.take(r.u64()))
    parts = []
    for _ in range(r.count(_MIN_PART + w)):
        version, root_digest = r.u64(), bytes(r.take(w))
        update_start, update_length = r.u64(), r.u64()
        subtree = bytes(r.take(r.u64()))
        parts.append(VersionPart(version, root_digest, update_start,
                                 update_length, subtree, r.blocks()))
    r.done()
    return VersionProof(layer2, tuple(parts))
