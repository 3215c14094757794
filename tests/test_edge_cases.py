"""Cross-module edge cases not covered by the per-module suites."""

import math

import pytest

from repro.bipartitions import (
    bipartition_masks,
    expected_bipartition_count,
    tree_from_bipartitions,
)
from repro.core import bfhrf_average_rf, build_bfh, robinson_foulds
from repro.core.shmrf import shm_average_rf
from repro.newick import parse_newick, trees_from_string, write_newick
from repro.trees import TaxonNamespace, reroot_at_leaf, suppress_unifurcations
from repro.util.errors import (
    BipartitionError,
    CollectionError,
    NewickParseError,
    ReproError,
)


class TestErrorHierarchy:
    def test_all_library_errors_catchable_as_repro_error(self):
        for exc_type in (NewickParseError, CollectionError, BipartitionError):
            assert issubclass(exc_type, ReproError)

    def test_parse_error_position_attributes(self):
        err = NewickParseError("boom", position=7, line=3)
        assert err.position == 7
        assert err.line == 3
        assert "line 3" in str(err) and "position 7" in str(err)

    def test_parse_error_without_location(self):
        err = NewickParseError("boom")
        assert "(" not in str(err)


class TestMinimalTrees:
    def test_three_taxon_tree_has_no_internal_splits(self):
        t = parse_newick("(A,B,C);")
        assert bipartition_masks(t) == set()
        assert expected_bipartition_count(3) == 0

    def test_rf_between_three_taxon_trees_zero(self):
        ns = TaxonNamespace()
        t1 = parse_newick("(A,B,C);", ns)
        t2 = parse_newick("((A,B),C);", ns)  # rooted shape, same unrooted tree
        assert robinson_foulds(t1, t2) == 0

    def test_two_taxon_tree(self):
        t = parse_newick("(A,B);")
        assert t.n_leaves == 2
        assert bipartition_masks(t) == set()

    def test_avg_rf_with_three_taxon_collection(self):
        trees = trees_from_string("(A,B,C);\n(C,A,B);")
        assert bfhrf_average_rf(trees) == [0.0, 0.0]


class TestDegenerateShapes:
    def test_chain_of_unifurcations(self):
        ns = TaxonNamespace(["A", "B", "C", "D"])
        t = parse_newick("((((A,B),(C,D))));", ns)  # double-wrapped root
        suppress_unifurcations(t)
        assert bipartition_masks(t) == {0b0011}

    def test_reroot_at_every_leaf_stable(self):
        base = parse_newick("(((A,B),(C,D)),(E,F));")
        expected = bipartition_masks(base)
        for label in "ABCDEF":
            t = base.copy()
            reroot_at_leaf(t, label)
            suppress_unifurcations(t)
            assert bipartition_masks(t) == expected

    def test_deeply_nested_newick_masks(self):
        n = 500
        text = "(" * (n - 1) + "t0"
        for i in range(1, n):
            text += f",t{i})"
        text += ";"
        t = parse_newick(text)
        masks = bipartition_masks(t)
        assert len(masks) == n - 3


class TestNamespaceSuperset:
    def test_trees_over_subnamespace_still_compare(self):
        """Namespace larger than the trees' taxa: masks stay comparable."""
        ns = TaxonNamespace([f"t{i}" for i in range(20)])
        t1 = parse_newick("((t3,t7),(t11,t19));", ns)
        t2 = parse_newick("((t3,t11),(t7,t19));", ns)
        assert robinson_foulds(t1, t2) == 2

    def test_bfh_with_high_bit_taxa(self):
        ns = TaxonNamespace([f"t{i}" for i in range(70)])  # beyond 64 bits
        trees = [parse_newick("((t60,t61),(t68,t69));", ns),
                 parse_newick("((t60,t68),(t61,t69));", ns)]
        assert bfhrf_average_rf(trees) == [1.0, 1.0]
        # The table is sized by the namespace (70 taxa, two words), not by
        # the widest stored split.
        assert shm_average_rf(trees) == [1.0, 1.0]
        query = [parse_newick("((t60,t61),(t68,t0));", ns)]
        assert shm_average_rf(query, trees) == bfhrf_average_rf(query, trees)


class TestBuilderDegenerate:
    def test_rebuild_with_all_trivial_splits_gives_star(self):
        ns = TaxonNamespace(["A", "B", "C", "D", "E"])
        trivial = {0b00001, 0b00010, 0b11110}
        t = tree_from_bipartitions(trivial, ns)
        assert bipartition_masks(t) == set()
        assert t.n_leaves == 5

    def test_rebuild_full_caterpillar(self):
        original = parse_newick("((((((A,B),C),D),E),F),G);")
        masks = bipartition_masks(original)
        rebuilt = tree_from_bipartitions(masks, original.taxon_namespace)
        assert bipartition_masks(rebuilt) == masks


class TestWriterPrecision:
    def test_precision_none_roundtrips_floats_exactly(self):
        values = [1 / 3, 1e-17, 12345.678901234567]
        ns = TaxonNamespace(["A", "B", "C", "D"])
        text = (f"((A:{values[0]!r},B:{values[1]!r}):{values[2]!r},(C:1,D:1):1);")
        t = parse_newick(text, ns)
        again = parse_newick(write_newick(t), TaxonNamespace(ns.labels))
        lengths = sorted(n.length for n in again.preorder() if n.length is not None)
        for v in values:
            assert any(math.isclose(v, l, rel_tol=0, abs_tol=0) for l in lengths)

    def test_zero_length_branches_kept(self):
        t = parse_newick("((A:0,B:0):0,(C:0,D:0):0);")
        assert write_newick(t).count(":0") >= 5


class TestHashEdge:
    def test_build_from_single_tree(self):
        trees = trees_from_string("((A,B),(C,D));")
        bfh = build_bfh(trees)
        assert bfh.n_trees == 1
        assert bfh.average_rf_of_tree(trees[0]) == 0.0

    def test_raw_masks_assume_fixed_taxa(self):
        """Raw masks carry no leaf-set: {A,B}|{C,D} over 4 taxa is
        bit-identical to {A,B}|rest over 6.  This is exactly the paper's
        §II-A fixed-taxa assumption; mixed-coverage comparisons must go
        through the variable-taxa restriction transform (§VII-E), and the
        rich `Bipartition` object carries the leaf set for identity."""
        from repro.bipartitions import Bipartition

        ns = TaxonNamespace(["A", "B", "C", "D", "E", "F"])
        reference = [parse_newick("((A,B),(C,D));", ns)]
        query = parse_newick("(((A,B),(C,D)),(E,F));", ns)
        bfh = build_bfh(reference)
        # Raw-mask view: the 4-taxon AB|CD collides bitwise with the
        # 6-taxon AB split, so one "match" appears: (1-1) + (3-1) = 2.
        assert bfh.average_rf(bipartition_masks(query)) == 2.0
        # The object layer distinguishes them (different leaf sets).
        small = Bipartition(0b000011, 0b001111, ns)
        large = Bipartition(0b000011, 0b111111, ns)
        assert small != large
        assert small.mask == large.mask  # same bits, different identity
