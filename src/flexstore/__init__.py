"""Versioned, auditable block store over a persistent authenticated
skip list, with a provable-data-possession challenge/proof protocol.
The root exports what a server or a client calls; the layers are
importable as modules."""

from .adaptor import apply_ops_partial, parse_diff, partial_from_proof
from .audit import Challenge, VersionProof
from .errors import FlexStoreError
from .hashing import HashScheme
from .repo import Repository

__version__ = "0.1.0"

__all__ = [
    "Challenge", "FlexStoreError", "HashScheme", "Repository",
    "VersionProof", "apply_ops_partial", "parse_diff", "partial_from_proof",
]
