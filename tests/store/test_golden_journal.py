"""Journal files pinned byte for byte across a store's write path.

``test_golden_store.py`` pins the snapshots; this pins the journal.  A
store is grown from empty with ``add_trees`` (an ``extend-ns`` record
for the first labels, then one ``add`` record per tree), grown again
with trees over more taxa (a second ``extend-ns``, and keys one word
wider: 60 → 70 taxa crosses the 64-bit edge), then shrunk with
``remove_trees``.  The journal file must keep its SHA-256, for an
unweighted store and a weighted one (whose records also carry branch
lengths).  A change to how records are encoded that alters any byte on
disk fails here.

The trees come from the standard library's seeded ``random``, not the
simulators, whose NumPy streams may differ between NumPy releases.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import trees_from_string
from repro.store import BFHStore


def gene_tree_text(n_trees: int, n_taxa: int, seed: int) -> str:
    """Rooted binary trees with branch lengths over one shuffled taxon
    order; each tree swaps a few neighbouring taxa, then splits its
    order at the middle, or at a random point one time in ten."""
    rng = random.Random(seed)
    base = [f"t{i}" for i in range(n_taxa)]
    rng.shuffle(base)

    def build(labels):
        edge = f":{rng.uniform(0.01, 2.0):.3f}"
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
    return "\n".join(records)


def grow_and_shrink(path, *, weighted: bool):
    """Returns the store and the trees it holds at the end."""
    store = BFHStore.create(path, weighted=weighted)
    first = trees_from_string(gene_tree_text(30, 60, seed=60),
                              store.namespace())
    store.add_trees(first[:20])
    store.add_trees(first[20:])
    wider = trees_from_string(gene_tree_text(10, 70, seed=70),
                              store.namespace())
    store.add_trees(wider)
    store.remove_trees(first[5:10])
    store.remove_trees(wider[:2])
    return store, first[:5] + first[10:] + wider[2:]


class TestGoldenJournal:
    DIGESTS = {
        False: "4f5a1ad141724fe688ec8d315c618d8faab111baa6cf1b2908f7929f2f098471",
        True: "be6530b990ea507bddefda37e7f667e06ed4f5431eb194fe57674a1c371548a9",
    }

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    def test_journal_file_is_pinned(self, tmp_path, weighted):
        store, current = grow_and_shrink(tmp_path / "s", weighted=weighted)
        journal = tmp_path / "s" / "journal-000000.log"
        digest = hashlib.sha256(journal.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[weighted]
        assert store.journal_records == 2 + 40 + 7
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.labels == store.labels and len(store.labels) == 70
        assert reopened.average_rf(current) == bfhrf_average_rf(current,
                                                                current)
