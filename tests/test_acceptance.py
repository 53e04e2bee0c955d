"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured value against the pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import math
import os
import random
import struct
import time
from itertools import islice

import pytest

from flexstore import adaptor, audit, cli, core, persist
from flexstore.adaptor import (BlockOp, DiffEntry, apply_ops_partial,
                               diff_to_ops, partial_from_proof)
from flexstore.audit import Challenge, read_proof, verify, write_proof
from flexstore.core import (NodeStore, block_layout, build_with_levels,
                            check_subtree, read_blocks, search)
from flexstore.errors import FlexStoreError, FormatError, ProofRejected
from flexstore.hashing import HashScheme, version_levels
from flexstore.index2 import VersionIndex, VersionRecord
from flexstore.repo import Repository
from helpers import corrupt_block, detection_probability, format_diff

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
    # 10 of the 100 blocks of version 1's update region are damaged.
    rec = repo.record(1)
    leaves = list(islice(core.leaves_from(repo.store, rec.root, 0)[1], 100))
    assert sum(leaf.length for leaf in leaves) == rec.update_length
    targets = sorted({leaf.block for leaf in leaves})
    assert len(targets) == 100
    rng = random.Random(7)
    for digest in rng.sample(targets, 10):
        corrupt_block(repo, digest, rng)
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
        version = rng.randrange(10000)
        # The same stream twice: one for the inserts, one to read ahead.
        levels = version_levels(SEED, version)
        oracle = version_levels(SEED, version)
        for step in range(rng.randint(1, 6)):
            total = sum(len(b) for b, _ in seq)
            kind = rng.choice(["mod", "ins", "rem"]) if seq else "ins"
            if kind == "ins":
                pos = rng.randint(0, len(seq))
                data = rand_block(rng)
                byte = sum(len(b) for b, _ in seq[:pos])
                level = next(oracle)
                result = persist.pinsert(store, SCHEME, root, byte, data,
                                         levels)
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
        result = persist.pinsert(store, SCHEME, root, idx, rand_block(rng),
                                 version_levels(SEED, rng.randrange(9999)))
        result2 = persist.premove(store, SCHEME, result.new_root, idx)
        if store.get(result2.new_root).digest != before:
            mismatches += 1
    report(5, mismatches == 0,
           f"{trials} insert-then-remove pairs, {mismatches} digest "
           "mismatches")


def test_criterion_6_balance():
    b = 4096
    levels = list(islice(version_levels(SEED, 0), b))
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
    levels = list(islice(version_levels(
        bytes.fromhex("0102030405060708090a"), 0), b))
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
        # A whole-file audit of version 0, then, after a few commits, an
        # audit of two listed versions: its shared layer-2 subtree and
        # both parts' records are swept as well.
        seed = bytes.fromhex("c0c1c2c3c4c5c6c7c8c9")
        ch = repo.make_challenge(seed, 4, ())
        audits = [(ch, write_proof(repo.prove(ch), repo.scheme),
                   repo.meta_digest)]
        for at in (40, 200, 420):
            repo.commit(format_diff([DiffEntry("replace", at,
                                               rng.randbytes(8), 8)]))
        ch = repo.make_challenge(seed, 4, (1, 3))
        audits.append((ch, write_proof(repo.prove(ch), repo.scheme),
                       repo.meta_digest))
        scheme = repo.scheme
    finally:
        repo.close()
    assert len(read_proof(audits[1][1], scheme).parts) == 2
    for ch, data, meta in audits:
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
               f"{flips} single-bit flips over a {len(data)}-byte proof of "
               f"{list(ch.versions) or 'the latest version'}, "
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


def test_criterion_8_commit_log_bit_flips(tmp_path, capsys):
    """Every single-bit flip of versions.log, in a store of three versions
    two of which insert blocks, is refused at open, reported by fsck, or
    changes nothing that `log`, `materialize` of every version, `prove`
    plus `verify` and the meta digest of one more inserting commit show.
    No flip ends in a traceback."""
    rng = random.Random(28)
    src = tmp_path / "f.bin"
    src.write_bytes(rng.randbytes(12 * 256))
    path = tmp_path / "repo"
    files = ("versions.log", "nodes/log", "blocks/pack", "blocks/index")
    more = format_diff([DiffEntry("insert", 2000, rng.randbytes(700))])
    with Repository.init(path, block_size=256, seed=SEED,
                         input_file=src) as repo:
        repo.commit(format_diff([DiffEntry("insert", 1000,
                                           rng.randbytes(600))]))
        repo.commit(format_diff([DiffEntry("replace", 300,
                                           rng.randbytes(8), 8)]))
        ch = repo.make_challenge(bytes.fromhex("c0c1c2c3c4c5c6c7c8c9"), 6,
                                 (0, 1, 2))
        meta, scheme = repo.meta_digest, repo.scheme
    pristine = {name: (path / name).read_bytes() for name in files}

    def shown():
        """What `log`, materialize, prove plus verify and one more
        commit show of the store; the store is restored after."""
        assert cli.main(["--repo", str(path), "log"]) == cli.EXIT_OK
        with Repository.open(path) as repo:
            versions = [bytes(repo.materialize(v)) for v in range(3)]
            proof = write_proof(repo.prove(ch), scheme)
            accepted, _ = verify(scheme, meta, ch, read_proof(proof, scheme))
            next_meta = repo.commit(more)["meta"]
        for name, data in pristine.items():
            (path / name).write_bytes(data)
        return capsys.readouterr().out, versions, proof, accepted, next_meta

    want = shown()
    assert want[3]
    log = path / "versions.log"
    raw = pristine["versions.log"]
    flips, refused, reported, silent = 0, 0, 0, []
    for pos in range(len(raw)):
        for bit in range(8):
            flips += 1
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << bit
            log.write_bytes(mutated)
            try:
                repo = Repository.open(path)
            except FlexStoreError:
                refused += 1
                continue
            with repo:
                problems = repo.fsck()
            if problems:
                reported += 1
            elif shown() != want:
                silent.append((pos, bit))
    log.write_bytes(raw)
    report(8, not silent,
           f"{flips} single-bit flips over a {len(raw)}-byte versions.log: "
           f"{refused} refused at open, {reported} reported by fsck, "
           f"{len(silent)} silent but changing what the store shows "
           f"(first at byte, bit: {silent[:3]})")


class _FlippedStore:
    """A three-block store after `commits` replacing commits, one by
    default, whose layer-2 appends wrote frozen parts that its edge links
    name (the second version's link names one), for sweeps of single-bit
    flips of one of its files at a time."""

    FILES = ("versions.log", "nodes/log", "blocks/pack", "blocks/index")

    def __init__(self, tmp_path, capsys, commits=1):
        rng = random.Random(38)
        src = tmp_path / "f.bin"
        src.write_bytes(rng.randbytes(3 * 64))
        self.path, self.capsys = tmp_path / "repo", capsys
        self.more = format_diff([DiffEntry("insert", 100, rng.randbytes(90))])
        with Repository.init(self.path, block_size=64, seed=SEED,
                             input_file=src) as repo:
            for _ in range(commits):
                repo.commit(format_diff([DiffEntry("replace", 70,
                                                   rng.randbytes(8), 8)]))
            self.ch = repo.make_challenge(
                bytes.fromhex("c0c1c2c3c4c5c6c7c8c9"), 4, (0, 1))
            self.meta, self.scheme = repo.meta_digest, repo.scheme
            self.record_size = repo.store.layout.size
            self.versions = commits + 1
            assert repo.record(1).frozen is not None
        self.pristine = {name: (self.path / name).read_bytes()
                         for name in self.FILES}
        self.want = self.shown()
        assert self.want[3]

    def shown(self):
        """What `log`, materialize, prove plus verify and one more
        commit show of the store; the store is restored after."""
        assert cli.main(["--repo", str(self.path), "log"]) == cli.EXIT_OK
        with Repository.open(self.path) as repo:
            versions = [bytes(repo.materialize(v))
                        for v in range(self.versions)]
            proof = write_proof(repo.prove(self.ch), self.scheme)
            accepted, _ = verify(self.scheme, self.meta, self.ch,
                                 read_proof(proof, self.scheme))
            next_meta = repo.commit(self.more)["meta"]
        for name, data in self.pristine.items():
            (self.path / name).write_bytes(data)
        return (self.capsys.readouterr().out, versions, proof, accepted,
                next_meta)

    def sweep(self, name, flips):
        """Apply each (byte, bit) flip of file `name` on its own. Returns
        the counts refused at open and reported by fsck, the flips
        neither refused nor reported, and those of them that change what
        the store shows. No flip may end in a traceback."""
        raw = self.pristine[name]
        refused, reported, clean, silent = 0, 0, [], []
        fd = os.open(self.path / name, os.O_WRONLY)
        try:
            for pos, bit in flips:
                os.pwrite(fd, bytes([raw[pos] ^ 1 << bit]), pos)
                try:
                    repo = Repository.open(self.path)
                except FlexStoreError:
                    refused += 1
                else:
                    with repo:
                        problems = repo.fsck()
                    if problems:
                        reported += 1
                    else:
                        clean.append((pos, bit))
                        if self.shown() != self.want:
                            silent.append((pos, bit))
                os.pwrite(fd, raw[pos:pos + 1], pos)
        finally:
            os.close(fd)
        return refused, reported, clean, silent


def test_criterion_8_node_log_bit_flips(tmp_path, capsys):
    """Every bit of each node record's integer fields, and one bit per
    byte of its block and node digests, flipped on its own: each flip is
    refused at open or reported by fsck. The one exemption is a link
    moved between two byte-identical records (the store's zero-rank
    sentinels), which changes no digest and nothing shown."""
    store = _FlippedStore(tmp_path, capsys)
    raw, size = store.pristine["nodes/log"], store.record_size
    ints = size - 2 * store.scheme.width   # kind, level, rank, links, length
    flips = [(record * size + at, bit)
             for record in range(len(raw) // size)
             for at in range(size)
             for bit in (range(8) if at < ints else (at % 8,))]
    refused, reported, clean, silent = store.sweep("nodes/log", flips)
    exempt = []
    for pos, bit in clean:
        record, at = divmod(pos, size)
        # The links follow kind u8, level u8 and rank u64: bytes 10-25.
        for name, start in (("below", 10), ("after", 18)):
            if start <= at < start + 8:
                first = record * size + start
                old = int.from_bytes(raw[first:first + 8], "big")
                new = old ^ 1 << bit + 8 * (start + 7 - at)
                if (max(old, new) < len(raw) // size
                        and raw[old * size:(old + 1) * size]
                        == raw[new * size:(new + 1) * size]):
                    exempt.append((record, name, old, new))
    report(8, len(exempt) == len(clean) and not silent,
           f"{len(flips)} single-bit flips over a {len(raw)}-byte node log: "
           f"{refused} refused at open, {reported} reported by fsck, "
           f"{len(clean)} clean, of which {len(exempt)} move a link between "
           f"byte-identical records ({exempt}) and {len(silent)} change "
           "what the store shows")


def test_criterion_8_commit_link_bit_flips(tmp_path, capsys):
    """Every bit of the edge link, `survivor` and `frozen`, of each commit
    record of a 13-version store, flipped on its own: each flip is
    refused at open or reported by fsck. The one exemption is `frozen`
    moved between two byte-identical node records (the store's
    zero-rank sentinels), which changes no digest and nothing shown."""
    store = _FlippedStore(tmp_path, capsys, commits=12)
    raw = store.pristine["versions.log"]
    nodes, node_size = store.pristine["nodes/log"], store.record_size
    size = len(raw) // store.versions
    links = size - store.scheme.width - 16    # the record digest follows
    flips = [(record * size + at, bit)
             for record in range(store.versions)
             for at in range(links, links + 16) for bit in range(8)]
    refused, reported, clean, silent = store.sweep("versions.log", flips)
    exempt = []
    for pos, bit in clean:
        record, at = divmod(pos, size)
        if at >= links + 8:    # in `frozen`
            first = record * size + links + 8
            old = int.from_bytes(raw[first:first + 8], "big")
            new = old ^ 1 << bit + 8 * (links + 15 - at)
            if (max(old, new) < len(nodes) // node_size
                    and nodes[old * node_size:(old + 1) * node_size]
                    == nodes[new * node_size:(new + 1) * node_size]):
                exempt.append((record, old, new))
    report(8, len(exempt) == len(clean) and not silent,
           f"{len(flips)} single-bit flips of the edge links of a "
           f"{len(raw)}-byte versions.log: {refused} refused at open, "
           f"{reported} reported by fsck, {len(clean)} clean, of which "
           f"{len(exempt)} move `frozen` between byte-identical records "
           f"({exempt}) and {len(silent)} change what the store shows")


def test_criterion_8_block_index_bit_flips(tmp_path, capsys):
    """Every bit of blocks/index, flipped on its own, is refused at open,
    reported by fsck, or changes nothing shown."""
    store = _FlippedStore(tmp_path, capsys)
    raw = store.pristine["blocks/index"]
    flips = [(pos, bit) for pos in range(len(raw)) for bit in range(8)]
    refused, reported, clean, silent = store.sweep("blocks/index", flips)
    report(8, not silent,
           f"{len(flips)} single-bit flips over a {len(raw)}-byte block "
           f"index: {refused} refused at open, {reported} reported by "
           f"fsck, {len(clean)} clean, of which {len(silent)} change what "
           "the store shows")


def test_criterion_8_pack_bit_flips(tmp_path, capsys):
    """One bit of each block in the pack, flipped on its own, is reported
    by fsck."""
    store = _FlippedStore(tmp_path, capsys)
    index = store.pristine["blocks/index"]
    width = store.scheme.width
    offsets = [struct.unpack_from(">Q", index, at + width)[0]
               for at in range(0, len(index), width + 12)]
    flips = [(offset + k, k % 8) for k, offset in enumerate(offsets)]
    refused, reported, clean, _silent = store.sweep("blocks/pack", flips)
    report(8, reported == len(flips),
           f"{len(flips)} single-bit flips, one per block of the pack: "
           f"{refused} refused at open, {reported} reported by fsck, "
           f"{len(clean)} clean")


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
        pieces = list(read_blocks(io.BytesIO(data), block_size))
        for p in pieces:
            blocks[SCHEME.block_digest(p)] = p
        root = _build(store, pieces, version_levels(SEED, trial))
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
        client_digest, _ = apply_ops_partial(
            partial, ops, version_levels(SEED, trial + 1))
        server_digest = _server_commit(store, blocks, root, ops,
                                       version_levels(SEED, trial + 1))
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


def _build(store, pieces, levels):
    pairs = [(len(p), SCHEME.block_digest(p)) for p in pieces]
    return build_with_levels(store, SCHEME, pairs,
                             list(islice(levels, len(pieces))))


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


def _server_commit(store, blocks, root, ops, levels):
    """The server side of a batch, applied as chained one-op edits
    (pmodify, pinsert, premove): the reference that the client's
    one-engine apply_ops_partial is compared with."""
    for op in ops:
        if op.kind == "modify":
            blocks[SCHEME.block_digest(op.data)] = op.data
            result = persist.pmodify(store, SCHEME, root, op.index, op.data)
        elif op.kind == "insert":
            blocks[SCHEME.block_digest(op.data)] = op.data
            result = persist.pinsert(store, SCHEME, root, op.index,
                                     op.data, levels)
        else:
            result = persist.premove(store, SCHEME, root, op.index)
        root = result.new_root
    return store.get(root).digest
