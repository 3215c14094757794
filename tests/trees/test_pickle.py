"""Pickling of trees: the form in which spawn workers receive them.

``Tree.__reduce__`` flattens a tree into breadth-first lists, so pickling
depth never touches the recursion limit; the round trip must keep the
structure, every length bit for bit, every label, and one namespace
shared by every tree of a list.
"""

import pickle

from repro.bipartitions.extract import bipartition_masks, \
    bipartitions_with_lengths
from repro.newick import trees_from_string
from repro.trees import Node, TaxonNamespace, Tree

from tests.conftest import make_caterpillars, make_collection


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _flat(tree):
    """Preorder (parent position, taxon label, length, label) per node."""
    position = {}
    out = []
    for node in tree.preorder():
        position[id(node)] = len(out)
        out.append((position.get(id(node.parent), -1),
                    None if node.taxon is None else node.taxon.label,
                    node.length, node.label))
    return out


class TestTreePickle:
    def test_round_trip_is_exact(self):
        ns = TaxonNamespace(["A", "B", "C", "D"])
        root = Node(label="root")
        unary = root.add_child(Node(length=0.1, label="only-child"))
        unary.add_child(Node(ns["A"], length=None))
        inner = root.add_child(Node(length=None, label="0.95"))
        inner.add_child(Node(ns["B"], length=2.5e-300))
        inner.add_child(Node(ns["C"], length=0.0))
        root.add_child(Node(ns["D"], length=1 / 3))
        tree = Tree(root, ns)

        back = _round_trip(tree)
        assert _flat(back) == _flat(tree)
        assert [type(n.length) for n in back.preorder()] \
            == [type(n.length) for n in tree.preorder()]
        for node in back.preorder():
            assert all(child.parent is node for child in node.children)
        assert back.root.parent is None

    def test_list_shares_one_namespace_after_loads(self):
        trees = make_collection(n_taxa=12, n_trees=5, seed=31)
        back = _round_trip(trees)
        namespace = back[0].taxon_namespace
        assert all(t.taxon_namespace is namespace for t in back)
        assert namespace.labels == trees[0].taxon_namespace.labels
        for tree in back:
            for leaf in tree.leaves():
                assert namespace[leaf.taxon.label] is leaf.taxon

    def test_masks_are_bitwise_identical(self):
        trees = make_collection(n_taxa=12, n_trees=8, seed=404)
        assert [bipartition_masks(t) for t in _round_trip(trees)] \
            == [bipartition_masks(t) for t in trees]

    def test_weighted_lengths_round_trip_exactly(self):
        trees = make_collection(n_taxa=12, n_trees=8, seed=404)
        want = [{mask: length.hex() for mask, length
                 in bipartitions_with_lengths(t).items()} for t in trees]
        got = [{mask: length.hex() for mask, length
                in bipartitions_with_lengths(t).items()}
               for t in _round_trip(trees)]
        assert got == want

    def test_hostile_labels_survive(self):
        text = ("(('sp one','sp_two'),('it''s',d_4));\n"
                "(('sp one','it''s'),('sp_two',d_4));")
        trees = trees_from_string(text)
        back = _round_trip(trees)
        assert back[0].taxon_namespace.labels \
            == ["sp one", "sp_two", "it's", "d_4"]
        assert [bipartition_masks(t) for t in back] \
            == [bipartition_masks(t) for t in trees]

    def test_deep_caterpillar_pickles_flat(self):
        trees = make_caterpillars(600, 2, seed=3)
        back = _round_trip(trees)
        assert [_flat(t) for t in back] == [_flat(t) for t in trees]
