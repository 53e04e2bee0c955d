"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist where it looks for it."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import read-only
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for @dataclass
    spec.loader.exec_module(tracer)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _name, _kind in tracer.TARGETS
               if attr not in owner.__dict__]
    assert tracer.TARGETS and missing == []
