"""Spans and counters recorded around the library's layer boundaries.

The tracer patches the public functions and methods of each layer while
a traced operation runs and restores them afterwards, so untraced
operations run the original code. Every patched call records a span
(name, start, end, parent span, round id) in column arrays kept in
memory; `write` dumps them when the run ends. The two hottest leaf
calls, `HashScheme.digest` and `DurableNodeStore.add`, are counted but
not spanned: a span per hash would cost more than the hash.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from flexstore import adaptor, audit, core, hashing, index2, persist, proofs
from flexstore import repo as repo_mod

SPAN, COUNT = "span", "count"

# (owner, attribute, span name, kind); the span name is layer.operation
TARGETS = (
    (repo_mod.Repository, "open", "repo.open", SPAN),
    (repo_mod.Repository, "commit", "repo.commit", SPAN),
    (repo_mod.Repository, "checkout", "repo.checkout", SPAN),
    (repo_mod.Repository, "prove", "repo.prove", SPAN),
    (repo_mod.Repository, "fsck", "repo.fsck", SPAN),
    (repo_mod.DurableNodeStore, "__init__", "repo.node_load", SPAN),
    (repo_mod.DurableNodeStore, "add", "repo.node_add", COUNT),
    (repo_mod.BlockStore, "get", "repo.block_get", SPAN),
    (repo_mod.BlockStore, "put", "repo.block_put", SPAN),
    (hashing.HashScheme, "digest", "hashing.digest", COUNT),
    (core, "block_layout", "core.block_layout", SPAN),
    (core, "check_subtree", "core.check_subtree", SPAN),
    (persist, "materialize", "persist.materialize", SPAN),
    (persist, "pmodify", "persist.edit", SPAN),
    (persist, "pinsert", "persist.edit", SPAN),
    (persist, "premove", "persist.edit", SPAN),
    (index2.VersionIndex, "append_version", "index2.append_version", SPAN),
    (index2.VersionIndex, "version_proof", "index2.version_proof", SPAN),
    (index2, "verify_version_proof", "index2.verify_version_proof", SPAN),
    (proofs, "build_path", "proofs.build_path", SPAN),
    (proofs, "fold_path", "proofs.fold_path", SPAN),
    (audit, "prove", "audit.prove", SPAN),
    (audit, "verify", "audit.verify", SPAN),
    (audit, "expand_challenge", "audit.expand_challenge", SPAN),
    (audit, "write_proof", "audit.write_proof", SPAN),
    (audit, "read_proof", "audit.read_proof", SPAN),
    (adaptor, "parse_diff", "adaptor.parse_diff", SPAN),
    (adaptor, "diff_to_ops", "adaptor.diff_to_ops", SPAN),
    (adaptor, "partial_from_proof", "adaptor.partial_from_proof", SPAN),
    (adaptor, "apply_ops_partial", "adaptor.apply_ops_partial", SPAN),
)


@dataclass
class OpTrace:
    """What one traced operation did, per span or counter name."""

    seconds: float                 # the operation's own root span
    total: dict[str, float]        # summed span durations, seconds
    self_time: dict[str, float]    # summed self times, seconds
    calls: Counter                 # spans and counted calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.round_id = -1
        self.counts: Counter = Counter()
        self.t0 = time.perf_counter()
        self._wrappers = [(owner, attr, owner.__dict__[attr],
                           self._wrap(owner, attr, name, kind))
                          for owner, attr, name, kind in TARGETS]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, owner, attr, name, kind):
        fn = getattr(owner, attr)
        if kind == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            wrapper = self._span(self._id(name), fn)
        if isinstance(owner.__dict__[attr], classmethod):
            # fn is already bound to the class
            return staticmethod(wrapper)
        return wrapper

    def _span(self, name_id: int, fn):
        names, parents, rounds = self.name, self.parent, self.round
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return spanned

    @contextmanager
    def op(self, op_name: str, traces: dict):
        """Trace the body of the with-block as one operation: patch the
        layers, open a root span named after the operation, and append
        its OpTrace to traces[op_name]."""
        for owner, attr, _orig, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self.counts.clear()
        first = len(self.start)
        self.name.append(self._id("op." + op_name))
        self.parent.append(-1)
        self.round.append(self.round_id)
        self.end.append(0.0)
        self.stack.append(first)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[first] = time.perf_counter()
            self.stack.pop()
            for owner, attr, orig, _wrapper in self._wrappers:
                setattr(owner, attr, orig)
        traces.setdefault(op_name, []).append(self._summarize(first))

    def _summarize(self, first: int) -> OpTrace:
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter(self.counts)
        covered: dict[int, float] = defaultdict(float)
        for i in range(first, len(self.start)):
            if self.parent[i] >= first:
                covered[self.parent[i]] += self.end[i] - self.start[i]
        for i in range(first, len(self.start)):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            total[name] += duration
            self_time[name] += duration - covered[i]
            calls[name] += 1
        return OpTrace(self.end[first] - self.start[first], dict(total),
                       dict(self_time), calls)

    def write(self, path: Path) -> None:
        """Dump every span as CSV, times in microseconds from tracer start."""
        lines = ["span,name,parent,round,start_us,end_us"]
        t0 = self.t0
        for i in range(len(self.start)):
            lines.append(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.round[i]},{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f}")
        path.write_text("\n".join(lines) + "\n")
