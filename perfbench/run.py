#!/usr/bin/env python3
"""Closed-loop benchmark of flexstore's commit, checkout, audit and client
update paths, driven in-process through the library's public API.

Run from the repository root:

    python3 perfbench/run.py --workload small-edits-16m --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones and the tracing overhead. A human-readable summary goes to standard
error, and the full result (and, when traced, every span) is written
under perfbench/out/. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_program():
    """Import flexstore from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flexstore
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import flexstore from {src}: "
                         f"{exc}")
    if not Path(flexstore.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: flexstore was imported from "
                         f"{flexstore.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import hostspeed
    from bench import Bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work)
    try:
        bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    correct = not bench.mismatches
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if bench.tracer:
        bench.tracer.write(OUT / f"{args.workload}-spans.csv")
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "machine": platform.platform(),
        "cpus": os.cpu_count(), "rounds": bench.rounds,
        "reference_seconds": hostspeed.REFERENCE_SECONDS,
        "setup_seconds": bench.setup_seconds,
        "setup_seconds_measured": bench.setup_raw,
        "samples_ms": {op: [s * 1000 for s in v]
                       for op, v in bench.samples.items()},
        "samples_ms_measured": {op: [s * 1000 for s in v]
                                for op, v in bench.raw.items()},
        "traced_ms": {op: [s * 1000 for s in v]
                      for op, v in bench.traced.items()},
        "failures": bench.failures, "mismatches": bench.mismatches,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for line in bench.summary_lines() + bench.failures + bench.mismatches:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
