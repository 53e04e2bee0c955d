"""The README names the formats the code writes, so a format bump that
leaves the docs behind fails here."""

import re
from pathlib import Path

import pytest

from flexstore import audit
from flexstore.repo import STORE_FORMAT, Repository

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_current_proof_format():
    assert f"A proof (`{audit.MAGIC_PROOF.decode()}`)" in README
    assert f"A challenge (`{audit.MAGIC_CHALLENGE.decode()}`)" in README


def test_readme_names_current_store_format():
    assert f"store format {STORE_FORMAT}," in README
    assert f'`"format": {STORE_FORMAT}`' in README


@pytest.mark.parametrize("hash_name, column", [("sha1", 0), ("sha256", 1)])
def test_readme_gives_record_sizes_of_the_layouts(tmp_path, hash_name,
                                                  column):
    """The commit, node and block index record sizes the README gives are
    those of the layouts a store of each hash function writes."""
    with Repository.init(tmp_path / "repo", block_size=64,
                         hash_name=hash_name) as repo:
        sizes = {"commit record": repo.log.layout.size,
                 "node record": repo.store.layout.size,
                 "block index record": repo.blocks._index.layout.size}
    text = " ".join(README.split())
    for record, size in sizes.items():
        stated = re.search(rf"A {record} \((\d+) bytes with SHA-1, "
                           rf"(\d+) with SHA-256\)", text)
        assert stated, record
        assert int(stated.group(1 + column)) == size, record
