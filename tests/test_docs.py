"""The README names the formats the code writes and the commands the
CLI takes, so a format bump or a command that leaves the docs behind
fails here."""

import argparse
import re
from pathlib import Path

import pytest

from flexstore import audit, cli
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


def test_readme_shows_every_command_and_no_other():
    """The example block under "Command line" runs each subcommand of
    the CLI's parser, and names none it lacks."""
    section = README.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert all(line.startswith("flexstore --repo r ")
               for line in block.splitlines())
    shown = [line.split()[3] for line in block.splitlines()]
    commands, = (action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert sorted(shown) == sorted(commands)
