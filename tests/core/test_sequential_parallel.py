"""Unit tests for repro.core.sequential (DS) and repro.core.parallel (DSMP)."""

import pytest

from repro.bipartitions import bipartition_masks
from repro.core.parallel import dsmp_average_rf, trees_as_newick
from repro.core.sequential import (
    average_rf_against_sets,
    reference_mask_sets,
    sequential_average_rf,
)
from repro.core.variants import size_filter_transform
from repro.newick import trees_from_string
from repro.runtime import resolve_workers
from repro.util.errors import CollectionError

from tests.conftest import make_collection


class TestReferenceMaskSets:
    def test_one_set_per_tree(self, medium_collection):
        sets = reference_mask_sets(medium_collection)
        assert len(sets) == len(medium_collection)
        for tree, masks in zip(medium_collection, sets):
            assert masks == frozenset(bipartition_masks(tree))

    def test_empty_raises(self):
        with pytest.raises(CollectionError):
            reference_mask_sets([])

    def test_transform_applied(self, medium_collection):
        transform = size_filter_transform(min_size=3)
        sets = reference_mask_sets(medium_collection, transform=transform)
        full = medium_collection[0].leaf_mask()
        from repro.bipartitions import side_sizes

        for masks in sets:
            assert all(min(side_sizes(m, full)) >= 3 for m in masks)


class TestSequential:
    def test_streaming_query(self, medium_collection):
        """Query may be a lazy iterator (the paper's dynamic loading)."""
        lazy = iter(medium_collection)
        values = sequential_average_rf(lazy, medium_collection)
        assert len(values) == len(medium_collection)

    def test_empty_reference(self, medium_collection):
        with pytest.raises(CollectionError):
            sequential_average_rf(medium_collection, [])

    def test_empty_query_ok(self, medium_collection):
        assert sequential_average_rf([], medium_collection) == []

    def test_average_against_sets_validates(self):
        with pytest.raises(CollectionError):
            average_rf_against_sets(set(), [])


class TestDSMP:
    def test_matches_sequential(self, medium_collection):
        expected = sequential_average_rf(medium_collection, medium_collection)
        for workers in (1, 2, 3):
            got = dsmp_average_rf(medium_collection, medium_collection,
                                  n_workers=workers)
            assert got == pytest.approx(expected)

    def test_chunk_size_override(self, medium_collection):
        expected = sequential_average_rf(medium_collection, medium_collection)
        got = dsmp_average_rf(medium_collection, medium_collection,
                              n_workers=2, chunk_size=1)
        assert got == pytest.approx(expected)

    def test_disparate_collections(self):
        trees = make_collection(10, 12, seed=55)
        query, reference = trees[:4], trees[4:]
        expected = sequential_average_rf(query, reference)
        got = dsmp_average_rf(query, reference, n_workers=2)
        assert got == pytest.approx(expected)

    def test_transform_crosses_process_boundary(self, medium_collection):
        transform = size_filter_transform(min_size=3)
        expected = sequential_average_rf(medium_collection, medium_collection,
                                         transform=transform)
        got = dsmp_average_rf(medium_collection, medium_collection,
                              n_workers=2, transform=transform)
        assert got == pytest.approx(expected)

    def test_empty_reference_raises(self, medium_collection):
        with pytest.raises(CollectionError):
            dsmp_average_rf(medium_collection, [], n_workers=2)

    def test_order_preserved(self):
        trees = trees_from_string(
            "((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));\n((A,B),(C,D));")
        values = dsmp_average_rf(trees, trees[:1], n_workers=2, chunk_size=1)
        assert values == [0.0, 2.0, 2.0, 0.0]


class TestHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_trees_as_newick_strips_lengths(self, medium_collection):
        texts = trees_as_newick(medium_collection[:2])
        assert all(";" in t and ":" not in t for t in texts)
