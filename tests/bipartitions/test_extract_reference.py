"""The level-order split extractors against the ``id()``-keyed postorder
they replaced, kept here as the oracle.

Both extractors must return exactly the reference result: the same set
of masks, and for the weighted view the same lengths bit for bit (the
summation order of a unary chain's lengths is part of that).
"""

from __future__ import annotations

import random

import pytest

from repro.bipartitions.encoding import is_trivial, normalize_mask
from repro.bipartitions.extract import bipartition_masks, \
    bipartitions_with_lengths
from repro.newick import parse_newick
from repro.trees import TaxonNamespace
from repro.trees.node import Node
from repro.trees.tree import Tree
from repro.util.errors import TreeStructureError

from tests.conftest import make_random_tree


def reference_masks(tree: Tree, *, include_trivial: bool = False) -> set[int]:
    """The previous ``bipartition_masks``: masks keyed by ``id(node)``."""
    root = tree.root
    stack = [root]
    order: list = []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    masks: dict[int, int] = {}
    leaf_mask = 0
    raw: list[int] = []
    for node in reversed(order):
        if not node.children:
            if node.taxon is None:
                raise TreeStructureError("leaf without a taxon")
            m = 1 << node.taxon.index
            leaf_mask |= m
        else:
            m = 0
            for child in node.children:
                m |= masks.pop(id(child))
        masks[id(node)] = m
        if node is not root:
            raw.append(m)
    anchor = leaf_mask & -leaf_mask
    n_total = leaf_mask.bit_count()
    result: set[int] = set()
    for m in raw:
        if include_trivial:
            if m == 0 or m == leaf_mask:
                continue
        elif not 2 <= m.bit_count() <= n_total - 2:
            continue
        result.add(m if m & anchor else m ^ leaf_mask)
    return result


def reference_with_lengths(tree: Tree, *, include_trivial: bool = False,
                           default_length: float = 0.0) -> dict[int, float]:
    """The previous ``bipartitions_with_lengths``."""
    masks: dict[int, int] = {}
    raw: dict[int, float] = {}
    leaf_mask = 0
    root = tree.root
    for node in tree.postorder():
        if node.is_leaf:
            m = node.taxon.bit
            leaf_mask |= m
        else:
            m = 0
            for child in node.children:
                m |= masks.pop(id(child))
        masks[id(node)] = m
        if node is not root:
            raw[m] = raw.get(m, 0.0) + (node.length if node.length is not None
                                        else default_length)
    result: dict[int, float] = {}
    for m, length in raw.items():
        if m == leaf_mask or m == 0:
            continue
        if not include_trivial and is_trivial(m, leaf_mask):
            continue
        norm = normalize_mask(m, leaf_mask)
        result[norm] = result.get(norm, 0.0) + length
    return result


# Taxon indices on both sides of every 64-bit word boundary.
EDGE_INDICES = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129)
WIDE = TaxonNamespace([f"t{i}" for i in range(130)])


def random_shape(rng: random.Random, indices: list[int],
                 namespace: TaxonNamespace) -> Tree:
    """A random tree over ``indices`` with polytomies, unary chains and
    missing or present branch lengths."""

    def length():
        return None if rng.random() < 0.2 else rng.choice(
            [0.1, 0.2, 0.3, 1e-9, 1e9, rng.random()])

    def wrap(node: Node) -> Node:
        # Sometimes bury the node under a chain of unary parents.
        while rng.random() < 0.15:
            parent = Node(length=length())
            parent.add_child(node)
            node = parent
        return node

    nodes = [wrap(Node(taxon=namespace[i], length=length())) for i in indices]
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice([2, 2, 2, 3, 4]))
        group = [nodes.pop(rng.randrange(len(nodes))) for _ in range(k)]
        parent = Node(length=length())
        for child in group:
            parent.add_child(child)
        nodes.append(wrap(parent))
    return Tree(nodes[0], namespace)


def assert_matches(tree: Tree) -> None:
    for include_trivial in (False, True):
        assert bipartition_masks(tree, include_trivial=include_trivial) == \
            reference_masks(tree, include_trivial=include_trivial)
        got = bipartitions_with_lengths(tree, include_trivial=include_trivial,
                                        default_length=0.5)
        want = reference_with_lengths(tree, include_trivial=include_trivial,
                                      default_length=0.5)
        # The same splits, each length the same float bit for bit.
        assert got == want
        assert [got[m].hex() for m in want] == [want[m].hex() for m in want]


@pytest.mark.parametrize("text", [
    "A;",
    "(A);",
    "(A,B);",
    "((A,B));",
    "(A,B,C);",
    "((A,B),C);",
    "((A,B),(C,D));",
    "((A:1,B:2):3,(C:4,D:5):6);",
    "(A,(B,(C,(D,E))));",
    "(A,B,C,D,E,F);",
    "((A,B,C),(D,E,F),(G,H));",
    "(((A,B)),C);",
    "((((A:1):2):3,B:4):5,(C,D):6);",
    "(((((A,B):1):2):3):4,C,D);",
    "((A,B):1,(C,D):2):3;",
])
def test_fixed_shapes_match_reference(text):
    assert_matches(parse_newick(text))


@pytest.mark.parametrize("n_taxa", [3, 4, 5, 63, 64, 65, 127, 128, 129, 130])
def test_binary_trees_match_reference(n_taxa):
    for seed in range(3):
        tree = make_random_tree(n_taxa, seed)
        assert_matches(tree)
        assert len(bipartition_masks(tree)) == n_taxa - 3


@pytest.mark.parametrize("seed", range(40))
def test_random_shapes_match_reference(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 4, 5, 8, 20, 70, 130])
    indices = rng.sample(range(130), n)
    if n >= len(EDGE_INDICES):
        # Every word-boundary taxon, each leaf still a distinct taxon.
        rest = [i for i in indices if i not in EDGE_INDICES]
        indices = [*EDGE_INDICES, *rest][:n]
    assert_matches(random_shape(rng, indices, WIDE))


@pytest.mark.parametrize("index", [63, 64, 127, 128, 129])
def test_taxa_at_word_boundaries(index):
    """The one-leaf taxon at a word boundary, on either side of the
    anchor, in a bifurcating-root tree and a trifurcation."""
    rng = random.Random(index)
    for others in ([0, 1, 2], [130 - 3, 130 - 2, 1], [index - 1, 2, 5]):
        indices = [index] + [i for i in others if i != index]
        for shape in range(4):
            tree = random_shape(rng, indices, WIDE)
            assert_matches(tree)
            assert bipartition_masks(tree, include_trivial=True) >= {
                (1 << index) if index == min(indices)
                else tree.leaf_mask() ^ (1 << index)}


def test_one_and_two_leaf_trees():
    for text in ("A;", "(A);", "((A));", "(A,B);", "((A,B));", "((A),(B));"):
        tree = parse_newick(text)
        assert bipartition_masks(tree) == set()
        assert_matches(tree)


def test_bifurcating_root_dedups_its_split():
    tree = parse_newick("((A:1,B:2):3,(C:4,D:5):6);")
    assert bipartition_masks(tree) == {0b0011}
    assert bipartitions_with_lengths(tree) == {0b0011: 9.0}


def test_leaf_without_taxon_is_rejected():
    ns = TaxonNamespace(["A", "B"])
    root = Node()
    root.add_child(Node(taxon=ns[0]))
    root.add_child(Node())
    tree = Tree(root, ns)
    for include_trivial in (False, True):
        with pytest.raises(TreeStructureError):
            reference_masks(tree, include_trivial=include_trivial)
        with pytest.raises(TreeStructureError):
            bipartition_masks(tree, include_trivial=include_trivial)
        # The reference weighted view failed on the missing taxon with an
        # AttributeError; both views now raise the same typed error.
        with pytest.raises(AttributeError):
            reference_with_lengths(tree, include_trivial=include_trivial)
        with pytest.raises(TreeStructureError):
            bipartitions_with_lengths(tree, include_trivial=include_trivial)
