"""Whole-history digests pinned across store formats.

A seeded history of mixed single-entry commits on a small file with small
blocks, so the layer-2 append pops often, is built for each hash. Its
meta digests, its layer-1 root digests and the FXP3 bytes of a fixed
whole-file and a fixed old-version challenge must equal the values in
data/history_vectors.json, from the writer and after a fresh open. A
change of the on-disk format changes none of them; a change of the
shape, the hashing or the proof wire format changes some.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from flexstore import audit
from flexstore.adaptor import DELETE, INSERT, REPLACE, DiffEntry, format_diff
from flexstore.index2 import VersionIndex
from flexstore.repo import Repository

VECTORS = Path(__file__).parent / "data" / "history_vectors.json"
SEED = bytes.fromhex("5eed0f1e57a7e5000029")
COMMITS = 300
CHALLENGES = {"whole_file": (bytes(10), 16, ()),
              "old_version": (b"\x01" * 10, 16, (37,))}


def build_history(path: Path, hash_name: str) -> tuple[Repository, list]:
    """The history: a 1 KiB file in blocks of 16 bytes, then COMMITS
    commits of one insert, replace or delete of up to 40 bytes each.
    Returns the writer and the meta digest after each version."""
    rng = random.Random(29)
    src = path.with_suffix(".bin")
    src.write_bytes(rng.randbytes(1024))
    repo = Repository.init(path, block_size=16, seed=SEED,
                           hash_name=hash_name, input_file=src)
    metas, size = [repo.meta_digest], 1024
    for _ in range(COMMITS):
        kind = rng.choice((INSERT, REPLACE, DELETE) if size > 512
                          else (INSERT, REPLACE))
        at = rng.randrange(size)
        span = 0 if kind == INSERT else rng.randint(1, min(40, size - at))
        data = b"" if kind == DELETE else rng.randbytes(rng.randint(1, 40))
        repo.commit(format_diff([DiffEntry(kind, at, data, span)]))
        metas.append(repo.meta_digest)
        size += len(data) - span
    return repo, metas


def history_values(repo: Repository, metas: list) -> dict:
    """SHA-256 over the meta digests and over every version's layer-1
    root digest, in version order, and the FXP3 bytes of each challenge
    in CHALLENGES, as hex."""
    roots = hashlib.sha256()
    for version in range(repo.latest.version + 1):
        roots.update(repo.record(version).root_digest)
    proofs = {name: audit.write_proof(repo.prove(repo.make_challenge(*ch)),
                                      repo.scheme).hex()
              for name, ch in CHALLENGES.items()}
    return {"meta_digests_sha256":
            hashlib.sha256(b"".join(metas)).hexdigest(),
            "root_digests_sha256": roots.hexdigest(), "proofs": proofs}


@pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
def test_history_matches_pinned_vectors(tmp_path, hash_name):
    expected = json.loads(VECTORS.read_text())[hash_name]
    repo, metas = build_history(tmp_path / "repo", hash_name)
    try:
        assert history_values(repo, metas) == expected
    finally:
        repo.close()
    with Repository.open(tmp_path / "repo") as fresh:
        assert fresh.meta_digest == metas[-1]
        assert history_values(fresh, metas) == expected


@pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
def test_records_up_to_each_version_derive_its_meta(tmp_path, hash_name):
    """Every version stays an anchor: after a fresh open, an index over
    the first k + 1 commit records derives version k's meta digest, for
    every k of the history."""
    repo, metas = build_history(tmp_path / "repo", hash_name)
    repo.close()
    with Repository.open(tmp_path / "repo") as fresh:
        records = [fresh.record(v) for v in range(len(metas))]
        for k, meta in enumerate(metas):
            past = VersionIndex(fresh.store, fresh.scheme, fresh.seed,
                                records=records[:k + 1])
            assert past.meta_digest == meta, k
