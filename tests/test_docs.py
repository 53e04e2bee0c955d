"""The README names the formats the code writes, so a format bump that
leaves the docs behind fails here."""

from pathlib import Path

from flexstore import audit
from flexstore.repo import STORE_FORMAT

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_current_proof_format():
    assert f"A proof (`{audit.MAGIC_PROOF.decode()}`)" in README
    assert f"A challenge (`{audit.MAGIC_CHALLENGE.decode()}`)" in README


def test_readme_names_current_store_format():
    assert f"store format {STORE_FORMAT}," in README
    assert f'`"format": {STORE_FORMAT}`' in README
