"""Path proofs: replayable material to recompute a root digest.

The layer-2 membership proof of a version record is a path proof;
layer-1 proofs are pruned subtrees (see audit). A proof for one leaf
lists, bottom-up, the nodes on its root path. Each step carries the
node's level and rank, which side the path came up through, and
whatever else its digest needs: the opposite child's digest for
internal nodes, or (length, block digest) for leaf-chain hops.
Folding the steps over the proven leaf reproduces the root digest; the
rank arithmetic along the way also recovers the byte offset at which the
leaf starts, so a verifier learns the leaf's position from authenticated
values alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import AFTER, BELOW, KIND_SENTINEL, NodeStore
from .errors import FormatError
from .hashing import HashScheme

STEP_BELOW = 0        # internal node, path came up through below
STEP_AFTER = 1        # internal node, path came up through after
STEP_CHAIN = 2        # leaf node, path came up through its chain link
STEP_CHAIN_SENTINEL = 3


@dataclass(frozen=True)
class ProofStep:
    kind: int
    level: int
    rank: int
    sibling: bytes | None = None    # internal steps: the other child
    leaf_length: int = 0            # chain steps: the hop leaf's material
    leaf_block: bytes | None = None


@dataclass(frozen=True)
class PathProof:
    leaf_rank: int
    leaf_after: bytes | None
    leaf_length: int
    leaf_sentinel: bool
    steps: tuple[ProofStep, ...]


def build_path(store: NodeStore, root: int, index: int):
    """Collect the proof path for the leaf containing byte `index`.

    Returns (PathProof, leaf byte offset, leaf node). The proven leaf's
    block digest is not embedded; callers pair the proof with block
    content (layer 1) or record material (layer 2).
    """
    path = core.search(store, root, index)
    leaf = store.get(path.leaf)
    after = store.get(leaf.after) if leaf.after is not None else None
    steps = []
    for node_id, direction in reversed(path.entries):
        node = store.get(node_id)
        if node.is_leaf:
            kind = (STEP_CHAIN_SENTINEL if node.kind == KIND_SENTINEL
                    else STEP_CHAIN)
            steps.append(ProofStep(kind, 0, node.rank,
                                   leaf_length=node.length,
                                   leaf_block=node.block))
            continue
        if direction == BELOW:
            sibling = (store.get(node.after).digest
                       if node.after is not None else None)
            steps.append(ProofStep(STEP_BELOW, node.level, node.rank,
                                   sibling=sibling))
        else:
            sibling = store.get(node.below).digest
            steps.append(ProofStep(STEP_AFTER, node.level, node.rank,
                                   sibling=sibling))
    proof = PathProof(leaf.rank, after.digest if after else None,
                      leaf.length, leaf.kind == KIND_SENTINEL, tuple(steps))
    return proof, path.offset, leaf


def fold_path(scheme: HashScheme, proof: PathProof,
              block_digest: bytes) -> tuple[bytes, int, int]:
    """Fold a path proof upward from its leaf.

    Returns (root digest, root rank, leaf start offset). Raises
    FormatError on structurally impossible steps; digest comparison is
    the caller's job.
    """
    digest = scheme.leaf_node(0, proof.leaf_rank, proof.leaf_after,
                              proof.leaf_length, block_digest,
                              sentinel=proof.leaf_sentinel)
    rank = proof.leaf_rank
    offset = 0
    for step in proof.steps:
        if step.rank < rank:
            raise FormatError("rank shrank while folding upward")
        if step.kind == STEP_BELOW:
            digest = scheme.internal_node(step.level, step.rank, digest,
                                          step.sibling)
        elif step.kind == STEP_AFTER:
            if step.sibling is None:
                raise FormatError("after step missing its below sibling")
            offset += step.rank - rank
            digest = scheme.internal_node(step.level, step.rank,
                                          step.sibling, digest)
        elif step.kind in (STEP_CHAIN, STEP_CHAIN_SENTINEL):
            if step.leaf_block is None:
                raise FormatError("chain step missing leaf material")
            offset += step.rank - rank
            digest = scheme.leaf_node(
                0, step.rank, digest, step.leaf_length, step.leaf_block,
                sentinel=step.kind == STEP_CHAIN_SENTINEL)
        else:
            raise FormatError(f"unknown step kind {step.kind}")
        rank = step.rank
    return digest, rank, offset
