"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.newick import trees_from_string
from repro.simulation import gene_tree_msc, yule_tree
from repro.trees import TaxonNamespace, Tree


# ---------------------------------------------------------------------------
# Deterministic tree construction helpers.
# ---------------------------------------------------------------------------

def make_random_tree(n_taxa: int, seed: int, namespace: TaxonNamespace | None = None,
                     with_lengths: bool = True) -> Tree:
    """A random binary tree over ``n_taxa`` labelled taxa (Yule shape)."""
    tree = yule_tree(n_taxa, namespace=namespace, rng=seed)
    if not with_lengths:
        for node in tree.preorder():
            node.length = None
    return tree


def make_collection(n_taxa: int, n_trees: int, seed: int,
                    namespace: TaxonNamespace | None = None,
                    pop_scale: float = 1.0) -> list[Tree]:
    """A coalescent gene-tree collection over one shared namespace."""
    rng = np.random.default_rng(seed)
    species = yule_tree(n_taxa, namespace=namespace, rng=rng)
    return [gene_tree_msc(species, pop_scale=pop_scale, rng=rng)
            for _ in range(n_trees)]


def length_runs(table) -> dict[int, list[float]]:
    """A weighted table's branch-length column as ``{mask: lengths}``,
    each row's run in column order."""
    lengths = table.lengths.tolist()
    ends = np.cumsum(table.counts).tolist()
    return {mask: lengths[end - count:end] for mask, end, count
            in zip(table.masks(), ends, table.counts.tolist())}


def make_caterpillars(n_taxa: int, n_trees: int, seed: int) -> list[Tree]:
    """Caterpillar trees (depth ``n_taxa - 1``) with shuffled leaf orders and
    branch lengths, over one namespace — deeper than any recursive walk of
    the nodes, pickle's included, can go."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_trees):
        order = rng.permutation(n_taxa)
        text = f"T{order[0]}"
        for i in order[1:]:
            text = f"({text}:{rng.random()!r},T{i}:{rng.random()!r})"
        records.append(text + ";")
    return trees_from_string("\n".join(records))


# ---------------------------------------------------------------------------
# Fixtures.
# ---------------------------------------------------------------------------

@pytest.fixture
def quartet_namespace() -> TaxonNamespace:
    return TaxonNamespace(["A", "B", "C", "D"])


@pytest.fixture
def paper_trees() -> list[Tree]:
    """The two trees of the paper's §II-B/§II-C worked example (RF = 2)."""
    return trees_from_string("((A,B),(C,D));\n((D,B),(C,A));")


@pytest.fixture
def small_collection() -> list[Tree]:
    """Five 8-taxon binary trees with known mixed agreement."""
    return make_collection(8, 5, seed=81)


@pytest.fixture
def medium_collection() -> list[Tree]:
    """Thirty 16-taxon gene trees over one namespace."""
    return make_collection(16, 30, seed=1612)


# ---------------------------------------------------------------------------
# Hypothesis strategies: property tests draw (n_taxa, seed) pairs and build
# deterministic random trees — full topology coverage with replayable
# shrinking, without pickling tree objects through hypothesis.
# ---------------------------------------------------------------------------

tree_shapes = st.tuples(st.integers(min_value=4, max_value=24),
                        st.integers(min_value=0, max_value=10_000))

collection_shapes = st.tuples(
    st.integers(min_value=4, max_value=16),   # taxa
    st.integers(min_value=1, max_value=12),   # trees
    st.integers(min_value=0, max_value=10_000),  # seed
)
