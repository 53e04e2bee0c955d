"""Checks that every test runs under."""

import os

import pytest

_FDS = "/proc/self/fd"


def _target(fd: str) -> str:
    try:
        return os.readlink(os.path.join(_FDS, fd))
    except OSError:
        return "?"


@pytest.fixture(autouse=True)
def no_descriptor_left_open():
    """Fail a test that leaves a descriptor open. `-X dev` with
    ResourceWarning as an error sees only file objects, not the raw
    descriptors that os.open returns. Where /proc/self/fd does not
    exist, nothing is checked."""
    if not os.path.isdir(_FDS):
        yield
        return
    before = set(os.listdir(_FDS))
    yield
    leaked = sorted(set(os.listdir(_FDS)) - before, key=int)
    assert not leaked, "descriptors left open: " + ", ".join(
        f"{fd} -> {_target(fd)}" for fd in leaked)
