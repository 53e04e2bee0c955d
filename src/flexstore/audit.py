"""Challenge generation, proof assembly, verification, and wire formats.

A challenge is (seed, r, target versions). Both parties expand the seed
into r byte indices inside each targeted version's authenticated update
region (or the whole file when no versions are listed, which targets the
latest version). The proof has two parts per version: a layer-2
membership proof for the version record, and per-index layer-1 path
proofs plus the challenged block contents. Verification recomputes
everything from the meta digest alone; since the update region arrives
layer-2-authenticated and the verifier re-expands the seed itself, the
prover cannot substitute blocks of its own choosing.

File formats (all integers 8-byte big-endian, digests raw, no padding;
parsers reject trailing bytes):

  challenge "FXC1": magic || seed(10) || r || nversions || versions...

  proof "FXC1"-sibling "FXP1": magic || nparts, then per part three
  sections: the layer-2 proof (version, root digest, update region, leaf
  rank, optional chain digest, steps), the per-index layer-1 paths
  (index, leaf rank, optional chain digest, steps), and the challenged
  blocks in index order (length-prefixed bytes).

  step: kind(1) || level || rank || kind-specific material (internal:
  optional sibling digest; chain hop: leaf length plus block digest).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import index2, proofs
from .core import NodeStore
from .errors import DomainError, EmptyRegion, FormatError, NoSuchVersion
from .hashing import SEED_BYTES, HashScheme, challenge_indices
from .index2 import Layer2Proof, VersionIndex
from .proofs import (STEP_AFTER, STEP_BELOW, STEP_CHAIN, STEP_CHAIN_SENTINEL,
                     PathProof, ProofStep)

MAGIC_CHALLENGE = b"FXC1"
MAGIC_PROOF = b"FXP1"
_MAX_COUNT = 1 << 24  # bound for parsed repeat counts and challenge sizes


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
class BlockProof:
    index: int
    block: bytes
    path: PathProof


@dataclass(frozen=True)
class VersionPart:
    layer2: Layer2Proof
    blocks: tuple[BlockProof, ...]


@dataclass(frozen=True)
class VersionProof:
    parts: tuple[VersionPart, ...]


def expand_challenge(ch: Challenge, region: tuple[int, int]) -> list[int]:
    """Expand a challenge to its byte indices within (start, length)."""
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


def prove(store: NodeStore, scheme: HashScheme, vindex: VersionIndex,
          get_block, ch: Challenge) -> VersionProof:
    """Assemble the two-part proof for every challenged version."""
    whole_file = not ch.versions
    targets = ch.versions or (vindex.count - 1,)
    parts = []
    for version in targets:
        if not 0 <= version < vindex.count:
            raise NoSuchVersion(f"version {version} does not exist")
        rec = vindex.record(version)
        layer2 = vindex.version_proof(version)
        region = challenge_region(store, vindex, version, whole_file)
        indices = expand_challenge(ch, region)
        blocks = []
        for index in indices:
            path, _offset, leaf = proofs.build_path(store, rec.root, index)
            blocks.append(BlockProof(index, get_block(leaf.block), path))
        parts.append(VersionPart(layer2, tuple(blocks)))
    return VersionProof(tuple(parts))


def verify(scheme: HashScheme, meta: bytes, ch: Challenge,
           proof: VersionProof) -> tuple[bool, str]:
    """Recompute the meta digest from the proof; accept only if every
    chain closes and the challenged indices match the verifier's own
    expansion of the seed. Total: all failures come back as a reason."""
    try:
        return _verify(scheme, meta, ch, proof)
    except (FormatError, DomainError) as exc:
        return False, f"malformed proof: {exc}"
    except EmptyRegion:
        return False, "challenged version has an empty region"


def _verify(scheme, meta, ch, proof):
    whole_file = not ch.versions
    targets = ch.versions or (None,)
    if len(proof.parts) != len(targets):
        return False, "proof does not cover the challenged versions"
    for target, part in zip(targets, proof.parts):
        ok, reason = index2.verify_version_proof(scheme, meta, part.layer2)
        if not ok:
            return False, reason
        l2 = part.layer2
        if target is not None and l2.version != target:
            return False, (f"proof is for version {l2.version}, "
                           f"challenge targets {target}")
        if whole_file:
            latest = index2.version_count_from_proof(l2) - 1
            if l2.version != latest:
                return False, "whole-file challenge must target the latest version"
        if len(part.blocks) != ch.count:
            return False, "wrong number of challenged blocks"
        root_rank = None
        for bp in part.blocks:
            digest, rank, offset = proofs.fold_path(
                scheme, bp.path, scheme.block_digest(bp.block))
            if digest != l2.root_digest:
                return False, f"layer-1 digest mismatch at index {bp.index}"
            if bp.path.leaf_sentinel:
                return False, "challenged leaf is a sentinel"
            if len(bp.block) != bp.path.leaf_length:
                return False, "block length disagrees with its leaf"
            if root_rank is None:
                root_rank = rank
            elif rank != root_rank:
                return False, "inconsistent root ranks inside one version"
            if not offset <= bp.index < offset + bp.path.leaf_length:
                return False, (f"block at offset {offset} does not contain "
                               f"challenged index {bp.index}")
        region = ((0, root_rank) if whole_file
                  else (l2.update_start, l2.update_length))
        expected = expand_challenge(ch, region)
        got = [bp.index for bp in part.blocks]
        if got != expected:
            return False, "challenged indices differ from the seed expansion"
    return True, "ok"


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise FormatError("truncated file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def count(self) -> int:
        value = self.u64()
        if value > _MAX_COUNT:
            raise FormatError("implausible repeat count")
        return value

    def u8(self) -> int:
        return self.take(1)[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError("trailing bytes after the last section")


def _opt(digest: bytes | None, width: int) -> bytes:
    if digest is None:
        return b"\x00"
    if len(digest) != width:
        raise FormatError("digest width mismatch while writing")
    return b"\x01" + digest


def _read_opt(r: _Reader, width: int) -> bytes | None:
    flag = r.u8()
    if flag == 0:
        return None
    if flag != 1:
        raise FormatError("bad presence byte")
    return r.take(width)


def write_challenge(ch: Challenge) -> bytes:
    out = [MAGIC_CHALLENGE, ch.seed, struct.pack(">QQ", ch.count,
                                                 len(ch.versions))]
    out += [struct.pack(">Q", v) for v in ch.versions]
    return b"".join(out)


def read_challenge(data: bytes) -> Challenge:
    r = _Reader(data)
    if r.take(4) != MAGIC_CHALLENGE:
        raise FormatError("not a challenge file")
    seed = r.take(SEED_BYTES)
    count = r.count()
    nversions = r.count()
    versions = tuple(r.u64() for _ in range(nversions))
    r.done()
    if count < 1:
        raise FormatError("challenge block count must be >= 1")
    return Challenge(seed, count, versions)


def _write_steps(steps, width: int) -> list[bytes]:
    # Chain hops carry no level byte on the wire: their level is 0 by
    # construction, and a serialized-but-unhashed field would be
    # unauthenticated framing.
    out = [struct.pack(">Q", len(steps))]
    for s in steps:
        if s.kind in (STEP_BELOW, STEP_AFTER):
            out.append(bytes([s.kind]) + struct.pack(">QQ", s.level, s.rank))
            out.append(_opt(s.sibling, width))
        elif s.kind in (STEP_CHAIN, STEP_CHAIN_SENTINEL):
            out.append(bytes([s.kind]) + struct.pack(">QQ", s.rank,
                                                     s.leaf_length))
            out.append(s.leaf_block)
        else:
            raise FormatError(f"unknown step kind {s.kind}")
    return out


def _read_steps(r: _Reader, width: int) -> tuple[ProofStep, ...]:
    nsteps = r.count()
    steps = []
    for _ in range(nsteps):
        kind = r.u8()
        if kind in (STEP_BELOW, STEP_AFTER):
            level, rank = r.u64(), r.u64()
            steps.append(ProofStep(kind, level, rank,
                                   sibling=_read_opt(r, width)))
        elif kind in (STEP_CHAIN, STEP_CHAIN_SENTINEL):
            rank, length = r.u64(), r.u64()
            steps.append(ProofStep(kind, 0, rank, leaf_length=length,
                                   leaf_block=r.take(width)))
        else:
            raise FormatError(f"unknown step kind {kind}")
    return tuple(steps)


def _write_path(path: PathProof, width: int) -> list[bytes]:
    out = [struct.pack(">QQ", path.leaf_rank, path.leaf_length),
           bytes([1 if path.leaf_sentinel else 0]),
           _opt(path.leaf_after, width)]
    out += _write_steps(path.steps, width)
    return out


def _read_path(r: _Reader, width: int) -> PathProof:
    leaf_rank, leaf_length = r.u64(), r.u64()
    sentinel_flag = r.u8()
    if sentinel_flag > 1:
        raise FormatError("bad sentinel flag")
    leaf_after = _read_opt(r, width)
    steps = _read_steps(r, width)
    return PathProof(leaf_rank, leaf_after, leaf_length,
                     bool(sentinel_flag), steps)


def write_proof(proof: VersionProof, scheme: HashScheme) -> bytes:
    w = scheme.width
    out = [MAGIC_PROOF, struct.pack(">Q", len(proof.parts))]
    for part in proof.parts:
        l2 = part.layer2
        out.append(struct.pack(">Q", l2.version) + l2.root_digest
                   + struct.pack(">QQ", l2.update_start, l2.update_length))
        out += _write_path(l2.path, w)
        out.append(struct.pack(">Q", len(part.blocks)))
        for bp in part.blocks:
            out.append(struct.pack(">Q", bp.index))
            out += _write_path(bp.path, w)
        for bp in part.blocks:
            out.append(struct.pack(">Q", len(bp.block)) + bp.block)
    return b"".join(out)


def read_proof(data: bytes, scheme: HashScheme) -> VersionProof:
    w = scheme.width
    r = _Reader(data)
    if r.take(4) != MAGIC_PROOF:
        raise FormatError("not a proof file")
    nparts = r.count()
    parts = []
    for _ in range(nparts):
        version = r.u64()
        root_digest = r.take(w)
        update_start, update_length = r.u64(), r.u64()
        l2 = Layer2Proof(version, root_digest, update_start, update_length,
                         _read_path(r, w))
        nblocks = r.count()
        heads = [(r.u64(), _read_path(r, w)) for _ in range(nblocks)]
        blocks = []
        for index, path in heads:
            length = r.count()
            blocks.append(BlockProof(index, r.take(length), path))
        parts.append(VersionPart(l2, tuple(blocks)))
    r.done()
    return VersionProof(tuple(parts))
