"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist where it looks for it. BENCHMARK.json declares
the metrics the benchmark reports; they must be the ones it computes."""

import gc
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"


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


@pytest.fixture
def perfbench(monkeypatch):
    """Import perfbench's modules by the names bench.py imports them by,
    writing no bytecode, and forget them afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_declared_metrics_are_the_ones_bench_reports(perfbench, tmp_path):
    bench = perfbench("bench")
    workloads = perfbench("workloads")
    declared = json.loads(BENCHMARK.read_text())
    names = {kind: [m["name"] for m in declared[kind]]
             for kind in ("end_to_end", "per_layer")}
    for kind, listed in names.items():
        assert len(set(listed)) == len(listed), kind
    per_layer = {name for name, _op, _source, _key in bench.LAYER_METRICS}
    per_layer |= {f"trace.{op}.overhead_pct" for op in bench.OPS + ("fsck",)}
    assert set(names["per_layer"]) == per_layer
    # An untraced run with a sample of everything reports every metric.
    run = bench.Bench(next(iter(workloads.WORKLOADS.values())), 1, 0.0,
                      False, tmp_path)
    for op in bench.OPS + ("fsck",):
        run.samples[op].append(0.001)
    run.setup_seconds.append(1.0)
    run.proof_sizes.append(1000)
    run.store_growth = 1000
    assert set(names["end_to_end"]) == set(run.end_to_end())


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_runs_pass(perfbench, tmp_path, traced):
    """Every call the benchmark makes into the program still works: two
    tiny workloads, one auditing the latest version whole and one an old
    version's update region, run with no failed operation and no output
    that disagrees with the benchmark's own reference."""
    bench = perfbench("bench")
    workloads = perfbench("workloads")
    tiny = (workloads.Workload("tiny-clustered", 64 << 10, 0, 2,
                               workloads.clustered_edit, True, 3),
            workloads.Workload("tiny-bulk", 64 << 10, 3, 1,
                               workloads.bulk_edit, False, 3))
    try:
        for workload in tiny:
            work = tmp_path / workload.name
            work.mkdir()
            run = bench.Bench(workload, 1, 0.0, traced, work)
            run.run()
            assert run.failed == 0, run.failures
            assert run.mismatches == []
            if traced:
                assert run.per_layer()
    finally:
        gc.unfreeze()   # each operation freezes what exists before it
