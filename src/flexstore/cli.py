"""Command-line surface for the repository.

Exit codes: 0 success or proof accepted; 1 proof rejected or integrity
violation (`verify` of a malformed challenge or proof too); 2 usage or
domain error, a malformed diff or challenge too; 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import audit
from .errors import (BlockTooSmall, DiffOutOfRange, DomainError, EmptyCommit,
                     EmptyRegion, FlexStoreError, FormatError, IOFailure,
                     IndexOutOfRange, NoSuchVersion, NotBlockAligned,
                     OverlappingDiffs, PathExists, StructureCorrupt,
                     VersionOutOfOrder)
from .hashing import SEED_BYTES
from .repo import Repository

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3

_USAGE_ERRORS = (DomainError, NoSuchVersion, DiffOutOfRange,
                 OverlappingDiffs, EmptyCommit, NotBlockAligned,
                 BlockTooSmall, IndexOutOfRange, VersionOutOfOrder,
                 EmptyRegion, FormatError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PathExists, IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FlexStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexstore",
        description="Versioned, auditable block store over an "
                    "authenticated skip list.")
    parser.add_argument("--repo", default=".",
                        help="repository directory (default: .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a repository")
    p.add_argument("--file", help="initial file contents for version 0")
    p.add_argument("--block-size", type=int, default=2048)
    p.add_argument("--seed", help="20 hex digits; random if omitted")
    p.add_argument("--hash", default="sha1", choices=("sha1", "sha256"))
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("commit", help="apply a diff as a new version")
    p.add_argument("--diff", required=True)
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("log", help="list versions")
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("checkout", help="write one version to a file")
    p.add_argument("--version", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_checkout)

    p = sub.add_parser("challenge", help="emit a challenge file")
    p.add_argument("--seed", help="20 hex digits; random if omitted")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--versions", default="",
                   help="comma-separated version numbers; empty challenges "
                        "the latest version over its whole span")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_challenge)

    p = sub.add_parser("prove", help="answer a challenge with a proof file")
    p.add_argument("--challenge", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="check a proof against the meta digest")
    p.add_argument("--challenge", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fsck", help="sweep every store invariant")
    p.set_defaults(func=cmd_fsck)
    return parser


def _parse_seed(text: str | None) -> bytes:
    if text is None:
        return os.urandom(SEED_BYTES)
    try:
        seed = bytes.fromhex(text)
    except ValueError as exc:
        raise DomainError(f"seed must be hex: {exc}") from exc
    if len(seed) != SEED_BYTES:
        raise DomainError(f"seed must be {SEED_BYTES * 2} hex digits")
    return seed


def _read_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _write_file(path, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def cmd_init(args) -> int:
    with Repository.init(args.repo, block_size=args.block_size,
                         seed=_parse_seed(args.seed), hash_name=args.hash,
                         input_file=args.file) as repo:
        rec = repo.latest
        print(f"initialized {args.repo}")
        print(f"version 0 rank {repo.store.get(rec.root).rank}")
        print(f"meta {repo.meta_digest.hex()}")
    return EXIT_OK


def cmd_commit(args) -> int:
    with Repository.open(args.repo) as repo:
        summary = repo.commit(_read_file(args.diff))
        # Printed before the store closes: a close that fails exits 3
        # with the committed version named.
        print(f"version {summary['version']} rank {summary['rank']}")
        print(f"ops {summary['ops']} created {summary['created_nodes']} "
              f"shared {summary['shared_nodes']}")
        print(f"meta {summary['meta']}")
    return EXIT_OK


def cmd_log(args) -> int:
    with Repository.open(args.repo) as repo:
        for commit in repo.log.scan():
            if isinstance(commit, StructureCorrupt):
                raise commit
            rec = commit.record
            rank = repo.store.get(rec.root).rank
            print(f"version {rec.version} rank {rank} "
                  f"root {rec.root_digest.hex()} "
                  f"region {rec.update_start}+{rec.update_length}")
        print(f"meta {repo.meta_digest.hex()}")
    return EXIT_OK


def cmd_checkout(args) -> int:
    with Repository.open(args.repo) as repo:
        written = repo.checkout(args.version, args.out)
    print(f"wrote {written} bytes to {args.out}")
    return EXIT_OK


def cmd_challenge(args) -> int:
    try:
        versions = tuple(int(v) for v in args.versions.split(",") if v)
    except ValueError as exc:
        raise DomainError(f"--versions must list version numbers: "
                          f"{args.versions!r}") from exc
    with Repository.open(args.repo) as repo:
        ch = repo.make_challenge(_parse_seed(args.seed), args.count, versions)
    _write_file(args.out, audit.write_challenge(ch))
    targets = ",".join(map(str, ch.versions)) or "latest"
    print(f"challenge seed {ch.seed.hex()} count {ch.count} "
          f"versions {targets}")
    return EXIT_OK


def cmd_prove(args) -> int:
    with Repository.open(args.repo) as repo:
        ch = audit.read_challenge(_read_file(args.challenge))
        proof = repo.prove(ch)
        data = audit.write_proof(proof, repo.scheme)
    _write_file(args.out, data)
    print(f"proof {len(data)} bytes to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with Repository.open(args.repo) as repo:
        scheme, meta = repo.scheme, repo.meta_digest
    try:
        ch = audit.read_challenge(_read_file(args.challenge))
        proof = audit.read_proof(_read_file(args.proof), scheme)
    except FormatError as exc:
        print(f"reject: malformed input: {exc}")
        return EXIT_REJECT
    ok, reason = audit.verify(scheme, meta, ch, proof)
    if ok:
        print("accept")
        return EXIT_OK
    print(f"reject: {reason}")
    return EXIT_REJECT


def cmd_fsck(args) -> int:
    with Repository.open(args.repo) as repo:
        problems = repo.fsck()
    if problems:
        for p in problems:
            print(p)
        print(f"fsck: {len(problems)} problem(s)")
        return EXIT_REJECT
    print("fsck: clean")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
