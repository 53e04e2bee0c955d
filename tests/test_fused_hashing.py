"""Every digest that a loop making or checking many nodes gives or
accepts (make_leaf and make_internal, check_subtree, fold_path) must be
the digest of the node's canonical bytes, spelled out here field by
field as hashing.py's docstring defines them, not through HashScheme's
encoders: so the tests show that each call site passes its encoder the
right rank, sentinel flag and after digest. The checked encoders give
the same digests (test_core's TestPackedEncoder). Run for both hash
functions on random stores."""

import hashlib
import random
import struct

import pytest

from flexstore import persist, proofs
from flexstore.core import (KIND_INTERNAL, KIND_LEAF, KIND_SENTINEL,
                            KIND_STUB, Node, NodeStore, build, check_subtree,
                            search)
from flexstore.errors import StructureCorrupt
from flexstore.hashing import HashScheme, version_levels

SEED = bytes.fromhex("00010203040506070809")
SCHEMES = ["sha1", "sha256"]


def concatenated_digest(scheme, kind, level, rank, length, block, below,
                        after):
    """A node's digest over its canonical bytes, concatenated field by
    field; `below` and `after` are the children's digests or None."""
    head = struct.pack(">QQ", level, rank)
    flag = b"\x00" + scheme.zero if after is None else b"\x01" + after
    if kind == KIND_INTERNAL:
        data = b"\x00" + head + below + flag
    else:
        tag = b"\x02" if kind == KIND_SENTINEL else b"\x01"
        data = tag + head + flag + struct.pack(">Q", length) + block
    return hashlib.new(scheme.name, data).digest()


def random_store(scheme, rng):
    """A store of several versions: one build, then random modifies,
    inserts and removes through the edit engine. Returns it and the
    versions' roots."""
    store = NodeStore()
    levels = version_levels(SEED, 0)
    blocks = [rng.randbytes(rng.randint(1, 12))
              for _ in range(rng.randint(1, 40))]
    root = build(store, scheme, blocks, levels)
    roots = [root]
    for _ in range(12):
        rank = store.get(root).rank
        op = rng.choice(("modify", "insert", "remove") if rank else
                        ("insert",))
        data = rng.randbytes(rng.randint(1, 12))
        if op == "insert":
            result = persist.pinsert(store, scheme, root,
                                     rng.randrange(rank + 1), data, levels)
        elif op == "modify":
            result = persist.pmodify(store, scheme, root,
                                     rng.randrange(rank), data)
        else:
            start = search(store, root, rng.randrange(rank)).offset
            result = persist.premove(store, scheme, root, start)
        root = result.new_root
        roots.append(root)
    return store, roots


def digest_of(store, node_id):
    return None if node_id is None else store.get(node_id).digest


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("seed", range(4))
def test_made_nodes_match_checked_encoders(name, seed):
    """make_leaf and make_internal, through build and EditEngine.finish."""
    scheme = HashScheme(name)
    store, _roots = random_store(scheme, random.Random(seed))
    for node_id in store.ids():
        node = store.get(node_id)
        assert node.digest == concatenated_digest(
            scheme, node.kind, node.level, node.rank, node.length,
            node.block, digest_of(store, node.below),
            digest_of(store, node.after)), node_id


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("seed", range(4))
def test_check_subtree_accepts_checked_digests(name, seed):
    """A store whose every digest comes from the concatenated fields passes
    check_subtree; the same store with one digest changed does not."""
    scheme = HashScheme(name)
    made, roots = random_store(scheme, random.Random(seed))
    store = NodeStore()
    for node_id in sorted(made.ids()):
        node = made.get(node_id)
        digest = concatenated_digest(
            scheme, node.kind, node.level, node.rank, node.length,
            node.block, digest_of(store, node.below),
            digest_of(store, node.after))
        assert store.add(Node(node.kind, node.level, node.rank, node.below,
                              node.after, node.length, node.block,
                              digest)) == node_id
    verified = {}
    for root in roots:
        check_subtree(store, scheme, root, verified)
    assert set(roots) <= set(verified)
    victim = store.get(roots[-1])
    victim.digest = bytes(scheme.width)
    with pytest.raises(StructureCorrupt, match="digest mismatch"):
        check_subtree(store, scheme, roots[-1])


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("seed", range(4))
def test_folded_digests_match_checked_encoders(name, seed):
    """Every node fold_path makes, for random span sets over each
    version."""
    scheme = HashScheme(name)
    rng = random.Random(seed)
    store, roots = random_store(scheme, rng)
    lengths = {node.block: node.length for node in map(store.get, store.ids())
               if node.kind == KIND_LEAF}
    for root in roots:
        rank = store.get(root).rank
        cuts = sorted(rng.sample(range(rank + 1), min(rank + 1, 6)))
        los, his = cuts[0::2], cuts[1::2]
        los = los[:len(his)]
        data, digests = proofs.build_path(store, root, los, his)
        leaves = [(lengths[digest], digest) for digest in digests]
        sub = proofs.fold_path(scheme, data, leaves)
        assert sub.digest[sub.root] == store.get(root).digest
        for i, kind in enumerate(sub.kind):
            if kind == KIND_STUB:
                continue
            below, after = sub.below[i], sub.after[i]
            assert sub.digest[i] == concatenated_digest(
                scheme, kind, sub.level[i], sub.rank[i], sub.length[i],
                sub.block[i], None if below is None else sub.digest[below],
                None if after is None else sub.digest[after]), i
