"""Challenge generation, proof assembly, verification, and wire formats.

A challenge is (seed, r, target versions). Both parties expand the seed
into r byte indices inside each targeted version's authenticated update
region (or the whole file when no versions are listed, which targets the
latest version). A proof has one part per version: the layer-2
membership proof of the version record, the pruned subtree of the
version's layer-1 root, and the block of each proven leaf, once.

The pruned subtree is the union of the proven leaves' root paths, each
node once, in preorder; a child no path enters is a stub, its digest and
rank. The prover makes one descent, splitting the sorted distinct
indices between each node's children. No indices go on the wire: the
verifier rebuilds the subtree bottom-up, compares its root digest with
the one the layer-2 proof authenticates, expands the seed itself and
demands that every index lands in a proven leaf and every proven leaf
is hit. Leaf offsets follow from authenticated ranks, so the prover
cannot substitute blocks of its own choosing. A client range proof
(prove_range) has the same shape, the leaves of a byte range being the
proven ones, and the same rebuild gives the client its partial list.

rebuild decodes a subtree into one list per node field (a Subtree), not
into node objects: verify reads only the root's digest and rank and the
proven leaves' offsets. Only the client, which edits the subtree, makes
node objects from the lists (adaptor.partial_from_proof).

File formats (all integers 8-byte big-endian, digests raw, no padding;
parsers reject trailing bytes):

  challenge "FXC1": magic || seed(10) || r || nversions || versions...

  proof "FXP2": magic || nparts, then per part
    layer-2 proof: version || root digest || update start || update
      length || leaf rank || leaf length || sentinel flag(1) || optional
      chain digest || nsteps || steps
    pruned subtree: nbytes || nodes in preorder
    blocks: nblocks || (length || bytes) per proven leaf, left to right

  layer-2 step: kind(1) || level || rank || kind-specific material
  (internal: optional sibling digest; chain hop: leaf length plus block
  digest).

  subtree node: tag(1) || fields, then its child slots
    internal  level(1), then its below and after slots
    proven    (leaf; its block is the next one carried), after slot
    hop       (leaf a path passes through) length || block digest,
              after slot
    sentinel  (zero-length boundary leaf), after slot
    stub      digest || rank
    absent    (an empty after slot)
  Ranks of expanded nodes are not sent: each is computed from its
  children, and a proven leaf's offset is the sum of the lengths and
  stub ranks before it in preorder.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from . import index2
from .core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL, KIND_STUB,
                   NodeStore)
from .errors import (DomainError, EmptyRegion, FormatError, NoSuchVersion,
                     ProofRejected)
from .hashing import SEED_BYTES, HashScheme, challenge_indices
from .index2 import Layer2Proof, VersionIndex
from .proofs import (STEP_AFTER, STEP_BELOW, STEP_CHAIN, STEP_CHAIN_SENTINEL,
                     PathProof, ProofStep)

MAGIC_CHALLENGE = b"FXC1"
MAGIC_PROOF = b"FXP2"
_MAX_COUNT = 1 << 24  # bound for challenge sizes
_MAX_RANK = (1 << 64) - 1

# Pruned-subtree node tags.
_ABSENT, _STUB, _INTERNAL, _PROVEN, _HOP, _SENTINEL = range(6)
_KIND_OF_TAG = (None, KIND_STUB, KIND_INTERNAL, KIND_LEAF, KIND_LEAF,
                KIND_SENTINEL)
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
    layer2: Layer2Proof
    subtree: bytes              # pruned subtree of the version root, encoded
    blocks: tuple[bytes, ...]   # each proven leaf's block, left to right


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


# ---------------------------------------------------------------------------
# Proving
# ---------------------------------------------------------------------------


def prove(store: NodeStore, scheme: HashScheme, vindex: VersionIndex,
          get_block, ch: Challenge) -> VersionProof:
    """Assemble the proof part of every challenged version."""
    whole_file = not ch.versions
    targets = ch.versions or (vindex.count - 1,)
    parts = []
    for version in targets:
        if not 0 <= version < vindex.count:
            raise NoSuchVersion(f"version {version} does not exist")
        region = challenge_region(store, vindex, version, whole_file)
        indices = sorted(set(expand_challenge(ch, region)))
        parts.append(_prove_part(store, vindex, get_block, version, indices,
                                 [index + 1 for index in indices]))
    return VersionProof(tuple(parts))


def prove_range(store: NodeStore, vindex: VersionIndex, get_block,
                version: int, start: int, length: int) -> VersionProof:
    """Range proof for the client update: every block of one version
    intersecting [start, start+length), a start past the end meaning the
    last block."""
    rank = store.get(vindex.record(version).root).rank
    lo = min(start, max(rank - 1, 0))
    hi = min(start + length, rank)
    spans = ([lo], [hi]) if lo < hi else ([], [])
    return VersionProof((_prove_part(store, vindex, get_block, version,
                                     *spans),))


def _prove_part(store, vindex, get_block, version, los, his) -> VersionPart:
    subtree, blocks = _prune(store, vindex.record(version).root, los, his,
                             get_block)
    return VersionPart(vindex.version_proof(version), subtree, blocks)


def _prune(store: NodeStore, root: int, los: list[int], his: list[int],
           get_block) -> tuple[bytes, tuple[bytes, ...]]:
    """Encode the pruned subtree proving every leaf that intersects one of
    the sorted disjoint spans [los[i], his[i]).

    One descent: each task is (node id, first span, end span, offset),
    the spans being those that intersect the node's byte range. A child
    with no span is a stub unless its rank is 0 (a sentinel, cheaper
    expanded, and what an insert into an empty list needs); the root is
    always expanded. Tasks are pushed after child first, so nodes come
    out in preorder.
    """
    out = bytearray()
    blocks = []
    todo = [(root, 0, len(los), 0)]
    while todo:
        node_id, first, end, offset = todo.pop()
        if node_id is None:
            out.append(_ABSENT)
            continue
        node = store.get(node_id)
        if first == end and node.rank and node_id != root:
            out.append(_STUB)
            out += node.digest
            out += _U64.pack(node.rank)
            continue
        if node.kind == KIND_INTERNAL:
            out.append(_INTERNAL)
            out.append(node.level)
            split = offset + store.get(node.below).rank
            todo.append((node.after, bisect_right(his, split, first, end),
                         end, split))
            todo.append((node.below, first,
                         bisect_left(los, split, first, end), offset))
            continue
        split = offset + node.length
        if node.kind == KIND_SENTINEL:
            out.append(_SENTINEL)
        elif first < end and los[first] < split:
            out.append(_PROVEN)
            blocks.append(get_block(node.block))
        else:
            out.append(_HOP)
            out += _U64.pack(node.length)
            out += node.block
        todo.append((node.after, bisect_right(his, split, first, end), end,
                     split))
    return bytes(out), tuple(blocks)


# ---------------------------------------------------------------------------
# Rebuilding and verifying
# ---------------------------------------------------------------------------


class Subtree(NamedTuple):
    """A decoded pruned subtree, one list per node field: node i is
    (kind[i], level[i], rank[i], below[i], after[i], length[i], block[i],
    digest[i]), the fields of a core.Node. Children come before their
    parent, so links point to lower ids and the root is the last node.
    A stub is a KIND_STUB node with only its rank and digest; `block` is
    None but for leaves. `starts` holds the byte offset of each proven
    leaf, left to right."""

    kind: list[int]
    level: list[int]
    rank: list[int]
    below: list[int | None]
    after: list[int | None]
    length: list[int]
    block: list[bytes | None]
    digest: list[bytes]
    root: int
    starts: list[int]


def rebuild(scheme: HashScheme, part: VersionPart) -> Subtree:
    """Decode a part's pruned subtree into per-field lists, computing
    every rank and digest from the leaves and stubs up.

    Iterative and linear in the encoded bytes: a forward pass parses the
    preorder into its tags and one list of numbers and one of digests,
    counting open child slots and summing lengths and stub ranks into
    the proven leaves' offsets; a backward pass pops those lists from
    the end, making each node from its children, which come later in
    preorder and so are made first. Raises FormatError and nothing else.
    """
    width, data, carried = scheme.width, part.subtree, part.blocks
    hop, stub = struct.Struct(f">Q{width}s"), struct.Struct(f">{width}sQ")
    tags, numbers, digests, starts = [], [], [], []
    pos = offset = 0
    open_slots = 1
    try:
        while open_slots:
            tag = data[pos]
            pos += 1
            open_slots -= 1
            tags.append(tag)
            if tag == _INTERNAL:
                numbers.append(data[pos])
                pos += 1
                open_slots += 2
                continue
            if tag == _STUB:
                digest, rank = stub.unpack_from(data, pos)
                pos += stub.size
                numbers.append(rank)
                digests.append(digest)
                offset += rank
                continue
            if tag == _ABSENT:
                continue
            if tag == _PROVEN:
                block = carried[len(starts)]
                starts.append(offset)
                length, digest = len(block), scheme.block_digest(block)
            elif tag == _HOP:
                length, digest = hop.unpack_from(data, pos)
                pos += hop.size
            elif tag == _SENTINEL:
                length, digest = 0, scheme.zero
            else:
                raise FormatError(f"unknown subtree node tag {tag}")
            numbers.append(length)
            digests.append(digest)
            offset += length
            open_slots += 1
    except (IndexError, struct.error):
        raise FormatError("pruned subtree cut short, or proving more "
                          "leaves than it carries blocks") from None
    if pos != len(data):
        raise FormatError("trailing bytes after the pruned subtree")
    if len(starts) != len(carried):
        raise FormatError("more blocks than proven leaves")
    if offset > _MAX_RANK:   # the root rank, which bounds every other
        raise FormatError("rank exceeds 64 bits")

    # Node i is the i-th entry from the end that is not an absent slot.
    # Fields the entry's kind leaves at their default are never written.
    kinds = [_KIND_OF_TAG[tag] for tag in reversed(tags) if tag != _ABSENT]
    count = len(kinds)
    levels, lengths = [0] * count, [0] * count
    belows, afters, blocks = [None] * count, [None] * count, [None] * count
    ranks, made = [], []        # made: the digest of each node made
    internal_node, leaf_node = scheme.internal_node, scheme.leaf_node
    stack = []       # ids of the subtrees made, None for absent slots
    node = 0
    for tag in reversed(tags):
        if tag == _ABSENT:
            stack.append(None)
            continue
        if tag == _INTERNAL:
            below, after = stack.pop(), stack.pop()
            if below is None or after is None:
                raise FormatError("internal node missing a child")
            levels[node] = level = numbers.pop()
            belows[node], afters[node] = below, after
            rank = ranks[below] + ranks[after]
            made.append(internal_node(level, rank, made[below], made[after]))
        elif tag == _STUB:
            rank = numbers.pop()
            made.append(digests.pop())
        else:
            after = stack.pop()
            lengths[node] = rank = length = numbers.pop()
            blocks[node] = block = digests.pop()
            if after is None:
                made.append(leaf_node(0, rank, None, length, block,
                                      sentinel=tag == _SENTINEL))
            else:
                afters[node] = after
                rank += ranks[after]
                made.append(leaf_node(0, rank, made[after], length, block,
                                      sentinel=tag == _SENTINEL))
        ranks.append(rank)
        stack.append(node)
        node += 1
    root = stack[0]
    if root is None or kinds[root] == KIND_STUB:
        raise FormatError("pruned subtree has no expanded root")
    return Subtree(kinds, levels, ranks, belows, afters, lengths, blocks, made,
                   root, starts)


def check_part(scheme: HashScheme, meta: bytes, part: VersionPart) -> Subtree:
    """Authenticate one part against a meta digest: the layer-2 proof,
    then the rebuilt subtree's root digest against the root digest the
    layer-2 proof vouches for. Returns what rebuild returns;
    ProofRejected on a mismatch, FormatError on a malformed part."""
    ok, reason = index2.verify_version_proof(scheme, meta, part.layer2)
    if not ok:
        raise ProofRejected(reason)
    sub = rebuild(scheme, part)
    if sub.digest[sub.root] != part.layer2.root_digest:
        raise ProofRejected("layer-1 digest mismatch")
    return sub


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
    whole_file = not ch.versions
    targets = ch.versions or (None,)
    if len(proof.parts) != len(targets):
        return False, "proof does not cover the challenged versions"
    for target, part in zip(targets, proof.parts):
        sub = check_part(scheme, meta, part)
        l2 = part.layer2
        if target is not None and l2.version != target:
            return False, (f"proof is for version {l2.version}, "
                           f"challenge targets {target}")
        if whole_file:
            latest = index2.version_count_from_proof(l2) - 1
            if l2.version != latest:
                return False, "whole-file challenge must target the latest version"
        region = ((0, sub.rank[sub.root]) if whole_file
                  else (l2.update_start, l2.update_length))
        starts = sub.starts
        hit = [False] * len(starts)
        for index in expand_challenge(ch, region):
            leaf = bisect_right(starts, index) - 1
            if leaf < 0 or index >= starts[leaf] + len(part.blocks[leaf]):
                return False, (f"challenged index {index} lies in no "
                               "proven leaf")
            hit[leaf] = True
        if not all(hit):
            return False, "proof carries a leaf no challenged index hits"
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
        return _U64.unpack(self.take(8))[0]

    def count(self, unit: int) -> int:
        """A repeat count of records at least `unit` bytes each, checked
        against the bytes that remain."""
        value = self.u64()
        if value * unit > len(self.data) - self.pos:
            raise FormatError("repeat count exceeds the bytes that remain")
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
    count = r.u64()
    if count > _MAX_COUNT:
        raise FormatError("implausible challenge block count")
    versions = tuple(r.u64() for _ in range(r.count(8)))
    r.done()
    if count < 1:
        raise FormatError("challenge block count must be >= 1")
    return Challenge(seed, count, versions)


# Smallest encodings, for checking counts: a layer-2 step, a block, and
# a part (layer-2 proof with no steps, a one-byte subtree, no blocks).
_MIN_STEP = 18
_MIN_BLOCK = 8


def _min_part(width: int) -> int:
    return 8 + width + 16 + 8 + 8 + 1 + 1 + 8 + 8 + 1 + 8


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
    nsteps = r.count(_MIN_STEP)
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
        out.append(struct.pack(">Q", len(part.subtree)))
        out.append(part.subtree)
        out.append(struct.pack(">Q", len(part.blocks)))
        for block in part.blocks:
            out.append(struct.pack(">Q", len(block)))
            out.append(block)
    return b"".join(out)


def read_proof(data: bytes, scheme: HashScheme) -> VersionProof:
    """Parse the framing of a proof file. The pruned subtrees stay
    encoded: rebuild decodes them. Raises FormatError only."""
    w = scheme.width
    r = _Reader(data)
    if r.take(4) != MAGIC_PROOF:
        raise FormatError("not a proof file")
    nparts = r.count(_min_part(w))
    parts = []
    for _ in range(nparts):
        version = r.u64()
        root_digest = r.take(w)
        update_start, update_length = r.u64(), r.u64()
        l2 = Layer2Proof(version, root_digest, update_start, update_length,
                         _read_path(r, w))
        subtree = r.take(r.u64())
        blocks = tuple(r.take(r.u64())
                       for _ in range(r.count(_MIN_BLOCK)))
        parts.append(VersionPart(l2, subtree, blocks))
    r.done()
    return VersionProof(tuple(parts))
