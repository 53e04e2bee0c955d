"""Versioned, auditable block store over a persistent authenticated
skip list, with a provable-data-possession challenge/proof protocol."""

from .adaptor import (BlockOp, DiffEntry, PartialFlexList, apply_ops_partial,
                      diff_to_ops, parse_diff, partial_from_proof)
from .audit import (Challenge, VersionProof, detection_probability,
                    expand_challenge, prove, verify)
from .core import (NodeStore, SearchPath, build, build_with_levels, search,
                   split_blocks)
from .errors import FlexStoreError
from .hashing import HashScheme
from .index2 import VersionIndex, VersionRecord
from .persist import CommitResult
from .repo import Repository

__version__ = "0.1.0"

__all__ = [
    "BlockOp", "Challenge", "CommitResult", "DiffEntry", "FlexStoreError",
    "HashScheme", "NodeStore", "PartialFlexList",
    "Repository", "SearchPath", "VersionIndex",
    "VersionProof", "VersionRecord", "apply_ops_partial", "build",
    "build_with_levels", "detection_probability", "diff_to_ops",
    "expand_challenge", "parse_diff", "partial_from_proof", "prove",
    "search", "split_blocks", "verify",
]
