"""The benchmark's rounds, checks and metrics; run.py is the entry point.

One process, one thread, one closed loop: each round makes a client
update, a commit, a checkout, a prove, a verify and an open, in that
order, and every third round an fsck, so that all operation types see
the same host state. The library is driven through the calls the CLI
command handlers make.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

from flexstore import FlexStoreError, Repository, adaptor, audit, core
from flexstore.errors import FormatError

import hostspeed
from tracer import Tracer
from workloads import (BLOCK_SIZE, CHALLENGE_COUNT, HASH_NAME, apply_diff,
                       encode_diff, rng_for, sha256, store_seed)

FSCK_EVERY = 3      # rounds per fsck of the set-up store
SPEED_EVERY = 100   # set-up commits per reading of the host's speed
READING_FRESH = 0.25  # seconds a reading after one operation may serve
                      # as the reading before the next

OPS = ("client_update", "commit", "checkout", "prove", "verify", "open")

# (metric, operation, source, span or counter name). "ms" sums the
# durations of the named spans in one operation, "self_ms" sums their
# self times, "calls" counts spans, counted calls or values the
# benchmark measures outside the spans.
LAYER_METRICS = (
    ("commit.core.block_layout_ms", "commit", "ms", "core.block_layout"),
    ("commit.persist.materialize_ms", "commit", "ms", "persist.materialize"),
    ("commit.adaptor.parse_diff_ms", "commit", "ms", "adaptor.parse_diff"),
    ("commit.adaptor.diff_to_ops_ms", "commit", "ms", "adaptor.diff_to_ops"),
    ("commit.persist.edit_ms", "commit", "ms", "persist.edit"),
    ("commit.persist.edit_calls", "commit", "calls", "persist.edit"),
    ("commit.hashing.digest_calls", "commit", "calls", "hashing.digest"),
    ("commit.repo.nodes_appended", "commit", "calls", "repo.node_add"),
    ("commit.repo.nodes_orphaned", "commit", "calls", "nodes_orphaned"),
    ("commit.repo.node_log_bytes", "commit", "calls", "node_log_bytes"),
    ("commit.repo.block_bytes", "commit", "calls", "block_bytes"),
    ("commit.repo.block_puts", "commit", "calls", "repo.block_put"),
    ("commit.repo.block_put_ms", "commit", "ms", "repo.block_put"),
    ("commit.index2.append_version_ms", "commit", "ms",
     "index2.append_version"),
    ("commit.repo.self_ms", "commit", "self_ms", "repo.commit"),
    ("checkout.persist.materialize_ms", "checkout", "ms",
     "persist.materialize"),
    ("checkout.repo.block_gets", "checkout", "calls", "repo.block_get"),
    ("checkout.repo.block_get_ms", "checkout", "ms", "repo.block_get"),
    ("checkout.repo.self_ms", "checkout", "self_ms", "repo.checkout"),
    ("open.repo.node_load_ms", "open", "ms", "repo.node_load"),
    ("open.repo.nodes_loaded", "open", "calls", "nodes_loaded"),
    ("open.repo.self_ms", "open", "self_ms", "repo.open"),
    ("prove.index2.version_proof_ms", "prove", "ms", "index2.version_proof"),
    ("prove.audit.expand_challenge_ms", "prove", "ms",
     "audit.expand_challenge"),
    ("prove.proofs.build_path_ms", "prove", "ms", "proofs.build_path"),
    ("prove.proofs.build_path_calls", "prove", "calls", "proofs.build_path"),
    ("prove.proofs.distinct_leaves", "prove", "calls", "distinct_leaves"),
    ("prove.repo.block_gets", "prove", "calls", "repo.block_get"),
    ("prove.audit.write_proof_ms", "prove", "ms", "audit.write_proof"),
    ("verify.audit.read_proof_ms", "verify", "ms", "audit.read_proof"),
    ("verify.index2.verify_version_proof_ms", "verify", "ms",
     "index2.verify_version_proof"),
    ("verify.proofs.fold_path_ms", "verify", "ms", "proofs.fold_path"),
    ("verify.proofs.fold_path_calls", "verify", "calls", "proofs.fold_path"),
    ("verify.hashing.digest_calls", "verify", "calls", "hashing.digest"),
    ("client_update.audit.read_proof_ms", "client_update", "ms",
     "audit.read_proof"),
    ("client_update.adaptor.partial_from_proof_ms", "client_update", "ms",
     "adaptor.partial_from_proof"),
    ("client_update.adaptor.apply_ops_partial_ms", "client_update", "ms",
     "adaptor.apply_ops_partial"),
    ("client_update.range_proof_blocks", "client_update", "calls",
     "range_proof_blocks"),
    ("fsck.core.check_subtree_ms", "fsck", "ms", "core.check_subtree"),
    ("fsck.hashing.digest_calls", "fsck", "calls", "hashing.digest"),
    ("fsck.repo.block_gets", "fsck", "calls", "repo.block_get"),
)


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


def new_nodes_reachable(store, roots, first_id: int) -> int:
    """How many nodes with id >= first_id the given roots reach."""
    seen = set()
    todo = [r for r in roots if r >= first_id]
    while todo:
        node_id = todo.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        node = store.get(node_id)
        todo.extend(c for c in (node.below, node.after)
                    if c is not None and c >= first_id)
    return len(seen)


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []    # operations that raised
        self.mismatches: list[str] = []  # outputs that disagree with a reference
        # Times at reference speed (see hostspeed.py), and as measured.
        self.samples = defaultdict(list)         # op -> untraced seconds
        self.traced = defaultdict(list)          # op -> traced seconds
        self.raw = defaultdict(list)             # op -> untraced seconds
        self.traces: dict[str, list] = {}        # op -> [OpTrace]
        self.trace_scale = defaultdict(list)     # op -> factor per OpTrace
        self.setup_seconds: list[float] = []
        self.setup_raw: list[float] = []
        self.proof_sizes: list[int] = []
        self.store_growth = None
        self.rounds = 0
        self.reading = (float("-inf"), 0.0)      # (when, reference seconds)

    # -- helpers ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def op(self, name: str, traced: bool, fn):
        """Run one operation; time it, or trace it, and read the host's
        speed just before and just after. An operation that raises counts
        as failed and returns None."""
        self.attempted += 1
        when, before = self.reading
        if time.perf_counter() - when > READING_FRESH:
            before = hostspeed.sample()
        # Each operation starts with the collector's generations empty and
        # what exists before it frozen, so its collections scan only what
        # it allocates, as in a command-line process, whatever the rounds
        # before it left behind.
        gc.collect()
        gc.freeze()
        try:
            if traced:
                with self.tracer.op(name, self.traces):
                    result = fn()
                seconds = self.traces[name][-1].seconds
            else:
                start = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - start
        except FlexStoreError as exc:
            self.failed += 1
            self.failures.append(f"{name}: {exc!r}")
            return None
        after = hostspeed.sample()
        self.reading = (time.perf_counter(), after)
        scale = 2 * hostspeed.REFERENCE_SECONDS / (before + after)
        if traced:
            self.traced[name].append(seconds * scale)
            self.trace_scale[name].append(scale)
        else:
            self.samples[name].append(seconds * scale)
            self.raw[name].append(seconds)
        return result

    def last_trace(self, name: str):
        return self.traces[name][-1]

    # -- set-up ---------------------------------------------------------------

    def prepare_inputs(self):
        rng = rng_for(self.wl.name, self.seed, "data")
        self.store_seed = store_seed(self.wl.name)
        data = rng.randbytes(self.wl.size)
        self.input_file = self.work / "input.bin"
        self.input_file.write_bytes(data)
        self.refs = [sha256(data)]
        self.history = []
        hist = rng_for(self.wl.name, self.seed, "history")
        for _ in range(self.wl.history):
            entries = self.wl.edit(hist, len(data))
            self.history.append(encode_diff(entries))
            data = apply_diff(data, entries)
            self.refs.append(sha256(data))
        self.current = data

    def set_up(self):
        setups = min(2, self.wl.setups) if self.trace else self.wl.setups
        for i in range(setups):
            path = self.work / f"store-{i}"
            # The host's speed over a set-up: the median of readings
            # before, after and every SPEED_EVERY set-up commits, untimed.
            speeds = [hostspeed.median_sample(3)]
            elapsed = 0.0
            start = time.perf_counter()
            repo = Repository.init(path, block_size=BLOCK_SIZE,
                                   seed=self.store_seed, hash_name=HASH_NAME,
                                   input_file=self.input_file)
            for n, diff in enumerate(self.history, 1):
                repo.commit(diff)
                if n % SPEED_EVERY == 0:
                    elapsed += time.perf_counter() - start
                    speeds.append(hostspeed.sample())
                    start = time.perf_counter()
            elapsed += time.perf_counter() - start
            speeds.append(hostspeed.median_sample(3))
            self.setup_raw.append(elapsed)
            self.setup_seconds.append(elapsed * hostspeed.REFERENCE_SECONDS
                                      / statistics.median(speeds))
            if i + 1 < setups:
                repo.close()
        # The first store stays as set up, so every timed open loads the
        # same state however many rounds the run makes; the last one takes
        # the commits. The ones between go only now, so no deletion
        # overlaps a set-up. With one set-up, an untimed copy of it takes
        # the commits.
        self.frozen = self.work / "store-0"
        self.frozen_meta = repo.meta_digest
        if setups == 1:
            repo.close()
            path = self.work / "store-live"
            shutil.copytree(self.frozen, path)
            repo = Repository.open(path)
        self.frozen_repo = Repository.open(self.frozen)
        for i in range(1, setups - 1):
            shutil.rmtree(self.work / f"store-{i}")
        self.path = path
        self.repo = repo
        self.check(repo.latest.version == self.wl.history,
                   "set-up made the wrong number of versions")
        self.check(sha256(repo.materialize(repo.latest.version))
                   == self.refs[-1], "set-up content differs from reference")

    # -- one round ------------------------------------------------------------

    def run_round(self, i: int, traced: bool) -> None:
        repo, scheme = self.repo, self.repo.scheme
        rng = rng_for(self.wl.name, self.seed, f"round/{i}")
        entries = self.wl.edit(rng, len(self.current))
        diff = encode_diff(entries)
        latest = repo.latest

        # Client side, untimed: the client knows its file and the block
        # layout, asks the server for a range proof of the blocks its
        # edit touches, and replays the shared level stream.
        current = self.current
        diffs = adaptor.parse_diff(diff)
        layout = core.block_layout(repo.store, latest.root)
        block_ops = adaptor.diff_to_ops(diffs, layout, BLOCK_SIZE,
                                        lambda s, n: current[s:s + n])
        start, length = adaptor.required_range(diffs, layout)
        range_proof = audit.write_proof(
            repo.prove_blocks(latest.version, start, length), scheme)
        src = repo.level_source()
        meta = repo.meta_digest

        def client_update():
            proof = audit.read_proof(range_proof, scheme)
            partial = adaptor.partial_from_proof(scheme, proof, meta)
            digest, _src = adaptor.apply_ops_partial(partial, block_ops, src)
            return digest, len(proof.parts[0].blocks)

        client = self.op("client_update", traced, client_update)
        if traced and client:
            self.last_trace("client_update").calls["range_proof_blocks"] = (
                client[1])

        # Commit.
        first_id = repo.store.next_id
        if traced:
            nodes_before = tree_bytes(self.path / "nodes")
            blocks_before = tree_bytes(self.path / "blocks")
        summary = self.op("commit", traced, lambda: repo.commit(diff))
        if summary is not None:
            self.current = apply_diff(self.current, entries)
            self.refs.append(sha256(self.current))
            self.check(summary["version"] == len(self.refs) - 1,
                       f"round {i}: commit made version {summary['version']}")
            self.check(client is not None
                       and client[0] == repo.latest.root_digest,
                       f"round {i}: client root digest differs from server")
            if traced:
                calls = self.last_trace("commit").calls
                appended = repo.store.next_id - first_id
                calls["nodes_orphaned"] = appended - new_nodes_reachable(
                    repo.store, (repo.latest.root, repo.vindex.root),
                    first_id)
                calls["node_log_bytes"] = (tree_bytes(self.path / "nodes")
                                           - nodes_before)
                calls["block_bytes"] = (tree_bytes(self.path / "blocks")
                                        - blocks_before)

        # Checkout of a uniformly random existing version.
        version = rng.randint(0, repo.latest.version)
        out = self.work / "checkout.bin"
        if self.op("checkout", traced,
                   lambda: repo.checkout(version, out)) is not None:
            self.check(sha256(out.read_bytes()) == self.refs[version],
                       f"round {i}: checkout of version {version} differs "
                       "from reference")
            # A new file each time: rewriting a truncated file makes ext4
            # flush it on close, a disk write no user of checkout sees.
            out.unlink()

        # Audit: the server proves, the client verifies.
        if self.wl.audit_latest:
            targets = ()
        else:
            targets = (rng.randint(1, repo.latest.version - 1),)
        challenge = repo.make_challenge(rng.randbytes(10), CHALLENGE_COUNT,
                                        targets)
        proof = self.op("prove", traced, lambda: audit.write_proof(
            repo.prove(challenge), scheme))
        if proof is not None:
            self.proof_sizes.append(len(proof))
            if traced:
                target = targets[0] if targets else repo.latest.version
                root = repo.record(target).root
                region = audit.challenge_region(repo.store, repo.vindex,
                                                target, not targets)
                leaves = {core.search(repo.store, root, index).leaf
                          for index in audit.expand_challenge(challenge,
                                                              region)}
                self.last_trace("prove").calls["distinct_leaves"] = (
                    len(leaves))
            meta = repo.meta_digest
            verdict = self.op("verify", traced, lambda: audit.verify(
                scheme, meta, challenge, audit.read_proof(proof, scheme)))
            self.check(verdict is not None and verdict[0],
                       f"round {i}: honest proof rejected: {verdict}")
            if i == 0:
                self.check_flipped_proof(rng, challenge, proof)

        # Open, as every CLI command does first.
        opened = self.op("open", traced,
                         lambda: Repository.open(self.frozen))
        if opened is not None:
            if traced:
                self.last_trace("open").calls["nodes_loaded"] = len(
                    opened.store)
            self.check(opened.meta_digest == self.frozen_meta,
                       f"round {i}: reopened store has another meta digest")
            opened.close()

        # Fsck, spread over the run like the other operations, of the
        # store as set up: its work does not depend on how many rounds
        # the run has made.
        if i % FSCK_EVERY == FSCK_EVERY - 1:
            problems = self.op("fsck", traced, self.frozen_repo.fsck)
            self.check(problems == [], f"round {i}: fsck found {problems}")

    def check_flipped_proof(self, rng, challenge, proof: bytes) -> None:
        scheme = self.repo.scheme
        flipped = bytearray(proof)
        flipped[rng.randrange(len(flipped))] ^= rng.randint(1, 255)
        self.attempted += 1
        try:
            ok, _reason = audit.verify(scheme, self.repo.meta_digest,
                                       challenge,
                                       audit.read_proof(bytes(flipped),
                                                        scheme))
        except FormatError:
            ok = False
        self.check(not ok, "a proof with one flipped byte was accepted")

    # -- the run --------------------------------------------------------------

    def run(self) -> None:
        self.prepare_inputs()
        self.set_up()
        window = self.wl.count_rounds * (2 if self.trace else 1)
        before = tree_bytes(self.path)
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < window or time.perf_counter() < deadline:
            # In a traced run every other round is traced, so traced and
            # untraced operations see the same host state.
            if self.tracer:
                self.tracer.round_id = i
            self.run_round(i, self.trace and i % 2 == 1)
            i += 1
            if i == window:
                # A store state fixed by the seed: counts repeat exactly.
                self.store_growth = tree_bytes(self.path) - before
        self.rounds = i
        problems = self.repo.fsck()
        self.check(problems == [], f"final fsck found problems: {problems}")
        self.repo.close()
        self.frozen_repo.close()

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> dict:
        k = self.wl.count_rounds
        ms = {op: statistics.median(self.samples[op]) * 1000 for op in OPS
              if self.samples[op]}
        metrics = {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "open_ms": (ms.get("open"), "ms"),
            "commit_ms.p50": (ms.get("commit"), "ms"),
            "checkout_ms.p50": (ms.get("checkout"), "ms"),
            "prove_ms.p50": (ms.get("prove"), "ms"),
            "verify_ms.p50": (ms.get("verify"), "ms"),
            "client_update_ms.p50": (ms.get("client_update"), "ms"),
            "fsck_s": (statistics.median(self.samples["fsck"])
                       if self.samples["fsck"] else None, "s"),
            "proof_bytes.p50": (statistics.median(self.proof_sizes[:k])
                                if self.proof_sizes else None, "bytes"),
            "store_bytes_per_commit": (
                self.store_growth / k if self.store_growth is not None
                else None, "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
                if value is not None}

    def per_layer(self) -> dict:
        """Per-operation medians: times over every traced operation, counts
        over the first count_rounds traced operations (fixed by the seed)."""
        k = self.wl.count_rounds
        metrics = {}
        for name, op, source, key in LAYER_METRICS:
            traces = self.traces.get(op)
            if not traces:
                continue
            if source == "calls":
                value, unit = statistics.median(
                    t.calls.get(key, 0) for t in traces[:k]), "count"
                if key.endswith("_bytes"):
                    unit = "bytes"
            else:
                field = "self_time" if source == "self_ms" else "total"
                value, unit = statistics.median(
                    getattr(t, field).get(key, 0.0) * scale for t, scale
                    in zip(traces, self.trace_scale[op])) * 1000, "ms"
            metrics[name] = {"value": value, "unit": unit}
        for op in OPS + ("fsck",):
            if self.traced[op] and self.samples[op]:
                overhead = (statistics.median(self.traced[op])
                            / statistics.median(self.samples[op]) - 1) * 100
                metrics[f"trace.{op}.overhead_pct"] = {"value": overhead,
                                                      "unit": "%"}
        return metrics

    def summary_lines(self) -> list[str]:
        lines = [f"{self.wl.name} seed {self.seed}: {self.rounds} rounds, "
                 f"set-up {[round(s, 3) for s in self.setup_seconds]} s "
                 f"at reference speed, "
                 f"{[round(s, 3) for s in self.setup_raw]} s measured"]
        for label, table in (("untraced", self.samples),
                             ("measured", self.raw),
                             ("traced", self.traced)):
            for op in OPS + ("fsck",):
                values = table.get(op)
                if not values:
                    continue
                line = (f"  {label:8} {op:14} n={len(values):4} "
                        f"p50={statistics.median(values) * 1000:9.2f} ms")
                if len(values) >= 100:
                    line += f"  p90={p90(values) * 1000:9.2f} ms"
                lines.append(line)
        return lines
