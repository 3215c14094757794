"""Snapshot files pinned byte for byte across a store's write path.

``TestSuccinctGoldenBytes`` pins the codec on hand-made tables; this
pins what the store actually writes.  An insect-like collection (144
taxa, so three-word keys; a few shared deep splits and a long tail of
rare ones) is built into a 4-shard store, grown with ``add_trees`` and
compacted; every ``.snap`` file of both generations must keep its
SHA-256.  A weighted 100-taxon store pins the branch-length section the
same way.  A change to the snapshot encoder that alters any byte on
disk fails here, file by file.

The trees come from the standard library's seeded ``random``, not the
simulators, whose NumPy streams may differ between NumPy releases.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.newick import trees_from_string
from repro.store import build_store


def gene_trees(n_trees: int, n_taxa: int, seed: int, *,
               lengths: bool = False):
    """Rooted binary trees over one shuffled taxon order.

    Each tree swaps a few neighbouring taxa (discordance), then splits
    its order at the middle, or at a random point one time in ten.
    """
    rng = random.Random(seed)
    base = [f"t{i}" for i in range(n_taxa)]
    rng.shuffle(base)

    def build(labels):
        edge = f":{rng.uniform(0.01, 2.0):.3f}" if lengths else ""
        if len(labels) == 1:
            return labels[0] + edge
        cut = (rng.randint(1, len(labels) - 1) if rng.random() < 0.1
               else len(labels) // 2)
        return f"({build(labels[:cut])},{build(labels[cut:])}){edge}"

    records = []
    for _ in range(n_trees):
        order = base[:]
        for _ in range(6):
            i = rng.randrange(n_taxa - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        records.append(build(order) + ";")
    return trees_from_string("\n".join(records))


def _snap_digests(path) -> dict[str, str]:
    return {snap.name: hashlib.sha256(snap.read_bytes()).hexdigest()
            for snap in sorted(path.glob("*.snap"))}


def _build_add_compact(path, trees, *, n_build, n_shards, weighted=False):
    store = build_store(path, trees[:n_build], n_shards=n_shards,
                        weighted=weighted)
    built = _snap_digests(path)
    store.add_trees(trees[n_build:])
    store.compact()
    return built, _snap_digests(path)


class TestGoldenStore:
    INSECT = {
        "shard-000001-000.snap":
            "e4430eb0611b3ca0f4c83afa22f94a33914f3f544ad40a7b20745586fb335e95",
        "shard-000001-001.snap":
            "d72d4cfd9e0e8343d64e7af402b89c3c48857cbf2c837621bd2d7852017fb746",
        "shard-000001-002.snap":
            "6eefe7eea5070403f3b9b4fe5a05dd9634af33fa48b84366c4c454e9455887cd",
        "shard-000001-003.snap":
            "ceb8c71c87d3ba4802edab8fee4c4829b245782fd0ebc3de530b4068b1e0fd51",
        "shard-000002-000.snap":
            "0324fd3e9014d17790e2c22e1003b81786a0de85278a82d220525679910f69ae",
        "shard-000002-001.snap":
            "799ad3aedbcc19ae02e39d9a8b95156414b620b2f2d314fb0b41ed2367b45144",
        "shard-000002-002.snap":
            "465105d53a49f87ec1904ccf0188b6ccf0d622badf435fcb2c31c44549ea8548",
        "shard-000002-003.snap":
            "cc4dd401c055fd60f16f4e72f26912ecb907d9f7d8945f3d73e46a7e2b43c83e",
    }

    WEIGHTED = {
        "shard-000001-000.snap":
            "fdf21d3a40ce4e88d251113fd7dad85385c01c02ee56d296b40c31fd3337f8cb",
        "shard-000001-001.snap":
            "b2c4c6ff312174ea8498564d699f56db552c3077046f796c3b4b19fa960ad5fc",
        "shard-000002-000.snap":
            "359a8de74ca0d73eb9599fdf02cf1a491ca5a3374aff1e570ecb0232ee2110b7",
        "shard-000002-001.snap":
            "ee4cbe56740a814d033016ea4a27105eb4e1ca0230cfa741cd06f2d3c4698062",
    }

    @pytest.mark.parametrize("name,n_taxa,n_build,n_shards,weighted", [
        ("INSECT", 144, 120, 4, False),
        ("WEIGHTED", 100, 30, 2, True),
    ], ids=["insect-144", "weighted-100"])
    def test_snapshot_files_are_pinned(self, tmp_path, name, n_taxa,
                                       n_build, n_shards, weighted):
        trees = gene_trees(n_build + n_build // 3, n_taxa, seed=n_taxa,
                           lengths=weighted)
        built, compacted = _build_add_compact(
            tmp_path / "s", trees, n_build=n_build, n_shards=n_shards,
            weighted=weighted)
        assert {**built, **compacted} == getattr(self, name)
