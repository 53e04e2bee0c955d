"""Exception types shared across the package.

Every error a caller is expected to handle has its own class; the CLI maps
them onto exit codes (see cli.py).
"""


class FlexStoreError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(FlexStoreError):
    """A byte index falls outside the addressable span of the structure."""


class StructureCorrupt(FlexStoreError):
    """A node or block reference does not resolve, or stored values are
    inconsistent with what recomputation yields."""


class NotBlockAligned(FlexStoreError):
    """An operation that requires a block-start index got a misaligned one."""


class BlockTooSmall(FlexStoreError):
    """Blocks must be at least one byte long."""


class VersionOutOfOrder(FlexStoreError):
    """A version record was appended with the wrong sequence number."""


class NoSuchVersion(FlexStoreError):
    """The requested version number does not exist."""


class EmptyRegion(FlexStoreError):
    """A challenge was aimed at a zero-length byte region."""


class ProofRejected(FlexStoreError):
    """A proof failed verification where acceptance was a precondition."""


class PathNotCovered(FlexStoreError):
    """A partial structure lacks the nodes needed for the requested edit."""


class DiffOutOfRange(FlexStoreError):
    """A diff entry addresses bytes beyond the current file length."""


class OverlappingDiffs(FlexStoreError):
    """Diff entries overlap or are not sorted by index."""


class EmptyCommit(FlexStoreError):
    """A commit carried no operations; no-op commits are rejected."""


class PathExists(FlexStoreError):
    """Repository initialisation refused to clobber an existing path."""


class IOFailure(FlexStoreError):
    """An underlying filesystem operation failed."""


class FormatError(FlexStoreError):
    """A serialized challenge/proof/diff file is malformed."""


class DomainError(FlexStoreError):
    """A numeric argument fell outside its mathematical domain."""


class RepositoryLocked(IOFailure):
    """Another writer holds the repository lock, or committed after this
    repository was opened."""
