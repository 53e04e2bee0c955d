"""What the tests share beyond the package: the diff writer, the
detection formula of the audit, and damage done to a store's block pack
behind its back, as a failing disk or a dishonest server would do it.
The store itself never rewrites a committed byte."""

import struct

from flexstore.adaptor import DELETE, INSERT, DiffEntry
from flexstore.errors import DomainError


def format_diff(entries: list[DiffEntry]) -> bytes:
    out = []
    for e in entries:
        if e.kind == INSERT:
            out.append(b"I %d %d\n" % (e.at, len(e.data)) + e.data + b"\n")
        elif e.kind == DELETE:
            out.append(b"D %d %d\n" % (e.at, e.delete_len))
        else:
            out.append(b"R %d %d %d\n" % (e.at, e.delete_len, len(e.data))
                       + e.data + b"\n")
    return b"".join(out)


def detection_probability(f: float, r: int) -> float:
    """Probability of catching a prover missing fraction f of the data
    when r randomly chosen blocks are challenged."""
    if not 0.0 <= f <= 1.0:
        raise DomainError("fraction must lie in [0, 1]")
    if r < 0:
        raise DomainError("challenge count must be >= 0")
    return 1.0 - (1.0 - f) ** r


def pack_records(repo):
    """The block index as (digest, offset, length) records, read from the
    file."""
    raw = (repo.path / "blocks" / "index").read_bytes()
    return list(struct.iter_unpack(f">{repo.scheme.width}sQI", raw))


def pack_place(repo, digest):
    """(offset, length) of a block in the pack."""
    return next((offset, length) for d, offset, length in pack_records(repo)
                if d == digest)


def corrupt_block(repo, digest, rng):
    """Overwrite a stored block in the pack with random bytes of its
    length, drawn from `rng` until their digest differs from the
    block's."""
    offset, length = pack_place(repo, digest)
    garbage = rng.randbytes(length)
    while repo.scheme.block_digest(garbage) == digest:
        garbage = rng.randbytes(length)
    with open(repo.path / "blocks" / "pack", "r+b") as pack:
        pack.seek(offset)
        pack.write(garbage)
