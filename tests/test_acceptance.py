"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured value against the pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import struct
import time

import pytest

from flexstore import adaptor, audit, persist
from flexstore.adaptor import (BlockOp, DiffEntry, apply_ops_partial,
                               diff_to_ops, format_diff, partial_from_proof)
from flexstore.audit import (Challenge, detection_probability, read_proof,
                             verify, write_proof)
from flexstore.core import (NodeStore, block_layout, build_with_levels,
                            check_subtree, search, split_blocks)
from flexstore.errors import FormatError, ProofRejected
from flexstore.hashing import HashScheme, LevelSource
from flexstore.index2 import VersionIndex, VersionRecord
from flexstore.repo import Repository

SCHEME = HashScheme()
SEED = bytes.fromhex("00112233445566778899")


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def rebuild_digest(seq):
    store = NodeStore()
    pairs = [(len(b), SCHEME.block_digest(b)) for b, _ in seq]
    root = build_with_levels(store, SCHEME, pairs, [l for _, l in seq])
    return store.get(root).digest


def rand_block(rng, limit=12):
    return bytes(rng.randrange(256) for _ in range(rng.randint(1, limit)))


@pytest.fixture(scope="module")
def delta_repo(tmp_path_factory):
    """Repository whose latest version changed exactly 100 uniform blocks."""
    tmp = tmp_path_factory.mktemp("accept1")
    rng = random.Random(1)
    src = tmp / "input.bin"
    src.write_bytes(rng.randbytes(200 * 64))
    repo = Repository.init(tmp / "repo", block_size=64,
                           seed=bytes.fromhex("aabbccddeeff00112233"),
                           input_file=src)
    diff = format_diff([DiffEntry("replace", 0, rng.randbytes(6400), 6400)])
    summary = repo.commit(diff)
    assert summary["version"] == 1
    rec = repo.latest
    assert (rec.update_start, rec.update_length) == (0, 6400)
    yield repo
    repo.close()


def test_criterion_1_detection_rate(delta_repo):
    repo = delta_repo
    report_detail = []
    tamper = repo.tamper(0.10, scope="version-delta", version=1, rng_seed=7)
    assert tamper["targets"] == 100 and tamper["corrupted"] == 10
    start = time.time()
    ok_all = True
    for count, target, tol in ((20, 0.878, 0.03), (43, 0.989, 0.01)):
        rejected = 0
        trials = 1000
        for t in range(trials):
            seed = struct.pack(">HQ", count, t).ljust(10, b"\x00")
            ch = Challenge(seed, count, (1,))
            proof = repo.prove(ch)
            accepted, _ = repo.verify(ch, proof)
            rejected += not accepted
        rate = rejected / trials
        ok = abs(rate - target) <= tol
        ok_all &= ok
        report_detail.append(f"r={count}: rate {rate:.3f} vs {target}+-{tol}")
    elapsed = time.time() - start
    ok_all &= elapsed < 60
    report(1, ok_all,
           "; ".join(report_detail) + f"; runtime {elapsed:.1f}s < 60s")


def test_criterion_2_formula():
    value = detection_probability(0.01, 460)
    report(2, 0.985 <= value <= 0.995,
           f"detection_probability(0.01, 460) = {value:.4f} in [0.985, 0.995]")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(3)
    start = time.time()
    mismatches = 0
    sequences = 1000
    for _ in range(sequences):
        n = rng.randint(0, 64)
        seq = [(rand_block(rng), rng.choice([0, 0, 0, 1, 1, 2, 3, 4]))
               for _ in range(n)]
        store = NodeStore()
        pairs = [(len(b), SCHEME.block_digest(b)) for b, _ in seq]
        root = build_with_levels(store, SCHEME, pairs,
                                 [l for _, l in seq])
        src = LevelSource(SEED, rng.randrange(10000))
        for step in range(rng.randint(1, 6)):
            total = sum(len(b) for b, _ in seq)
            kind = rng.choice(["mod", "ins", "rem"]) if seq else "ins"
            if kind == "ins":
                pos = rng.randint(0, len(seq))
                data = rand_block(rng)
                byte = sum(len(b) for b, _ in seq[:pos])
                level, peek = src.draw()
                result, src = persist.pinsert(store, SCHEME, root, byte,
                                              data, src)
                seq = seq[:pos] + [(data, level)] + seq[pos:]
            elif kind == "mod":
                pos = rng.randrange(len(seq))
                data = rand_block(rng)
                byte = sum(len(b) for b, _ in seq[:pos])
                result = persist.pmodify(store, SCHEME, root, byte, data)
                seq = seq[:pos] + [(data, seq[pos][1])] + seq[pos + 1:]
            else:
                pos = rng.randrange(len(seq))
                byte = sum(len(b) for b, _ in seq[:pos])
                result = persist.premove(store, SCHEME, root, byte)
                seq = seq[:pos] + seq[pos + 1:]
            root = result.new_root
            if store.get(root).digest != rebuild_digest(seq):
                mismatches += 1
                break
    elapsed = time.time() - start
    report(3, mismatches == 0 and elapsed < 120,
           f"{sequences} random sequences, {mismatches} mismatches; "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_4_persistence(tmp_path):
    rng = random.Random(4)
    src = tmp_path / "input.bin"
    src.write_bytes(rng.randbytes(256 * 1024))
    repo = Repository.init(tmp_path / "repo", block_size=2048,
                           seed=bytes.fromhex("99887766554433221100"),
                           input_file=src)
    try:
        current = repo.materialize(0)
        snapshots = [current]
        digests = [repo.latest.root_digest]
        commits = 0
        while commits < 200:
            entries = []
            pos = 0
            for _ in range(rng.randint(1, 3)):
                if pos >= len(current):
                    break
                at = rng.randint(pos, len(current))
                kind = rng.choice(["insert", "delete", "replace"])
                if kind == "insert":
                    entries.append(DiffEntry("insert", at,
                                             rng.randbytes(rng.randint(1, 4000))))
                    pos = at
                else:
                    span = rng.randint(1, 4000)
                    if at + span > len(current):
                        continue
                    data = (b"" if kind == "delete"
                            else rng.randbytes(rng.randint(1, 4000)))
                    entries.append(DiffEntry(kind, at, data, span))
                    pos = at + span
            if not entries:
                continue
            repo.commit(format_diff(entries))
            commits += 1
            out = []
            p = 0
            for e in entries:
                out.append(current[p:e.at])
                out.append(e.data)
                p = e.at + e.span
            out.append(current[p:])
            current = b"".join(out)
            snapshots.append(current)
            digests.append(repo.latest.root_digest)
        violations = 0
        verified = {}
        for v, snap in enumerate(snapshots):
            if repo.materialize(v) != snap:
                violations += 1
            rec = repo.record(v)
            if rec.root_digest != digests[v]:
                violations += 1
            try:
                check_subtree(repo.store, SCHEME, rec.root, verified)
            except Exception:
                violations += 1
        violations += len(repo.fsck())
        report(4, violations == 0,
               f"200 commits on 256KB: {violations} violations across "
               f"{len(snapshots)} versions (materialize, digest sweep, fsck)")
    finally:
        repo.close()


def test_criterion_5_insert_remove_inversion():
    rng = random.Random(5)
    mismatches = 0
    trials = 500
    for _ in range(trials):
        n = rng.randint(0, 32)
        seq = [(rand_block(rng), rng.choice([0, 0, 1, 1, 2, 3]))
               for _ in range(n)]
        store = NodeStore()
        pairs = [(len(b), SCHEME.block_digest(b)) for b, _ in seq]
        root = build_with_levels(store, SCHEME, pairs, [l for _, l in seq])
        before = store.get(root).digest
        total = sum(len(b) for b, _ in seq)
        idx = rng.randint(0, total)
        acc = 0
        for b, _ in seq:
            if idx < acc + len(b):
                idx = acc
                break
            acc += len(b)
        result, _ = persist.pinsert(store, SCHEME, root, idx,
                                    rand_block(rng),
                                    LevelSource(SEED, rng.randrange(9999)))
        result2 = persist.premove(store, SCHEME, result.new_root, idx)
        if store.get(result2.new_root).digest != before:
            mismatches += 1
    report(5, mismatches == 0,
           f"{trials} insert-then-remove pairs, {mismatches} digest "
           "mismatches")


def test_criterion_6_balance():
    b = 4096
    src = LevelSource(SEED)
    levels = []
    for _ in range(b):
        level, src = src.draw()
        levels.append(level)
    ok = True
    details = []
    for k in range(1, 7):
        frac = sum(1 for l in levels if l >= k) / b
        bound = abs(frac - 2 ** -k)
        ok &= bound <= 0.015
        details.append(f"k={k}: {frac:.4f}")
    store = NodeStore()
    pairs = [(4, SCHEME.block_digest(i.to_bytes(4, "big"))) for i in range(b)]
    root = build_with_levels(store, SCHEME, pairs, levels)
    lengths = []
    for i in range(b):
        lengths.append(len(search(store, root, i * 4).entries))
    mean = sum(lengths) / len(lengths)
    limit = 2.5 * math.log2(b)
    ok &= mean <= limit
    report(6, ok, "tower level fractions within 2^-k +- 0.015 "
           f"({', '.join(details)}); mean path {mean:.1f} <= {limit:.1f}")


def test_criterion_7_sharing():
    rng = random.Random(7)
    b = 4096
    src = LevelSource(bytes.fromhex("0102030405060708090a"))
    levels = []
    for _ in range(b):
        level, src = src.draw()
        levels.append(level)
    store = NodeStore()
    pairs = [(8, SCHEME.block_digest(i.to_bytes(8, "big"))) for i in range(b)]
    root = build_with_levels(store, SCHEME, pairs, levels)
    created = []
    for trial in range(1000):
        idx = rng.randrange(b) * 8
        result = persist.pmodify(store, SCHEME, root, idx,
                                 rng.randbytes(8))
        created.append(result.created_nodes)
        root = result.new_root
    created.sort()
    p99 = created[989]
    bound = 3 * math.log2(b)
    naive = 2 * b
    ok = p99 <= bound and created[-1] < naive
    report(7, ok,
           f"single-block modify on b={b}: created p99={p99} <= {bound:.0f}, "
           f"max={created[-1]} << naive {naive}")


def test_criterion_8_proof_bit_flips(tmp_path):
    rng = random.Random(8)
    src = tmp_path / "f.bin"
    src.write_bytes(rng.randbytes(16 * 32))
    repo = Repository.init(tmp_path / "repo", block_size=32,
                           seed=bytes.fromhex("1122334455667788990a"),
                           input_file=src)
    try:
        ch = repo.make_challenge(bytes.fromhex("c0c1c2c3c4c5c6c7c8c9"), 4, ())
        data = write_proof(repo.prove(ch), repo.scheme)
        meta = repo.meta_digest
        scheme = repo.scheme
    finally:
        repo.close()
    accepted = 0
    flips = 0
    for pos in range(len(data)):
        for bit in range(8):
            flips += 1
            mutated = bytearray(data)
            mutated[pos] ^= 1 << bit
            try:
                proof = read_proof(bytes(mutated), scheme)
            except FormatError:
                continue
            ok, _ = verify(scheme, meta, ch, proof)
            accepted += ok
    report(8, accepted == 0,
           f"{flips} single-bit flips over a {len(data)}-byte proof, "
           f"{accepted} wrongly accepted")


def test_criterion_8_range_proof_bit_flips(tmp_path):
    rng = random.Random(18)
    src = tmp_path / "f.bin"
    src.write_bytes(rng.randbytes(16 * 32))
    repo = Repository.init(tmp_path / "repo", block_size=32,
                           seed=bytes.fromhex("1122334455667788990a"),
                           input_file=src)
    try:
        data = write_proof(repo.prove_blocks(0, 96, 64), repo.scheme)
        meta = repo.meta_digest
        scheme = repo.scheme
    finally:
        repo.close()
    accepted = 0
    flips = 0
    for pos in range(len(data)):
        for bit in range(8):
            flips += 1
            mutated = bytearray(data)
            mutated[pos] ^= 1 << bit
            try:
                partial_from_proof(scheme, read_proof(bytes(mutated), scheme),
                                   meta)
            except (FormatError, ProofRejected):
                continue
            accepted += 1
    report(8, accepted == 0,
           f"{flips} single-bit flips over a {len(data)}-byte range proof, "
           f"{accepted} wrongly accepted")


def test_criterion_9_adaptor_soundness():
    rng = random.Random(9)
    trials = 1000
    block_size = 64
    byte_failures = digest_failures = 0
    for trial in range(trials):
        data = rng.randbytes(rng.randint(0, 4096))
        entries = _random_entries(rng, len(data))
        store = NodeStore()
        blocks = {}
        pieces = split_blocks(data, block_size)
        for p in pieces:
            blocks[SCHEME.block_digest(p)] = p
        src = LevelSource(SEED, trial)
        root, src = _build(store, pieces, src)
        vindex = VersionIndex(store, SCHEME, SEED)
        vindex.append_version(VersionRecord(
            0, root, store.get(root).digest, 0, store.get(root).rank))
        layout = block_layout(store, root)
        ops = diff_to_ops(entries, layout, block_size,
                          lambda s, n: data[s:s + n])
        if not ops:
            continue
        # byte-level oracle vs block-level application
        want = _apply_diffs(data, entries)
        got = _apply_ops_blocklist(pieces, ops)
        if want != got:
            byte_failures += 1
            continue
        # client partial apply vs server commit
        start, length = adaptor.required_range(entries, layout)
        proof = _range_proof(store, blocks, vindex, start, max(length, 1))
        partial = partial_from_proof(SCHEME, proof, vindex.meta_digest)
        client_digest, _ = apply_ops_partial(partial, ops, src)
        server_digest = _server_commit(store, blocks, root, ops, src)
        if client_digest != server_digest:
            digest_failures += 1
    report(9, byte_failures == 0 and digest_failures == 0,
           f"{trials} random diffs: {byte_failures} byte-vs-block "
           f"mismatches, {digest_failures} client/server digest mismatches")


def _random_entries(rng, total):
    entries = []
    pos = 0
    for _ in range(rng.randint(1, 5)):
        if pos > total:
            break
        at = rng.randint(pos, total)
        kind = rng.choice(["insert", "delete", "replace"])
        if kind == "insert":
            entries.append(DiffEntry("insert", at,
                                     rng.randbytes(rng.randint(1, 200))))
            pos = at
        else:
            span = rng.randint(1, 200)
            if at + span > total:
                continue
            data = b"" if kind == "delete" else rng.randbytes(
                rng.randint(1, 200))
            entries.append(DiffEntry(kind, at, data, span))
            pos = at + span
    return entries


def _build(store, pieces, src):
    levels = []
    for _ in pieces:
        level, src = src.draw()
        levels.append(level)
    pairs = [(len(p), SCHEME.block_digest(p)) for p in pieces]
    return build_with_levels(store, SCHEME, pairs, levels), src


def _apply_diffs(data, entries):
    out, pos = [], 0
    for e in entries:
        out.append(data[pos:e.at])
        out.append(e.data)
        pos = e.at + e.span
    out.append(data[pos:])
    return b"".join(out)


def _apply_ops_blocklist(pieces, ops):
    blocks = list(pieces)
    for op in ops:
        starts = [0]
        for b in blocks:
            starts.append(starts[-1] + len(b))
        pos = starts.index(op.index)
        if op.kind == "insert":
            blocks.insert(pos, op.data)
        elif op.kind == "modify":
            blocks[pos] = op.data
        else:
            del blocks[pos]
    return b"".join(blocks)


def _range_proof(store, blocks, vindex, start, length):
    return audit.prove_range(store, vindex, blocks.get,
                             vindex.count - 1, start, length)


def _server_commit(store, blocks, root, ops, src):
    """The server side of a batch, applied as chained one-op edits
    (pmodify, pinsert, premove): the reference that the client's
    one-engine apply_ops_partial is compared with."""
    for op in ops:
        if op.kind == "modify":
            blocks[SCHEME.block_digest(op.data)] = op.data
            result = persist.pmodify(store, SCHEME, root, op.index, op.data)
        elif op.kind == "insert":
            blocks[SCHEME.block_digest(op.data)] = op.data
            result, src = persist.pinsert(store, SCHEME, root, op.index,
                                          op.data, src)
        else:
            result = persist.premove(store, SCHEME, root, op.index)
        root = result.new_root
    return store.get(root).digest
