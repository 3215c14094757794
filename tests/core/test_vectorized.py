"""Unit + property tests for repro.core.vectorized (GPU-style batch backend)
and the ``shm`` method that drives it."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable, masks_to_words
from repro.core.variants import size_filter_transform
from repro.newick import parse_newick, trees_from_string
from repro.util.errors import CollectionError

from tests.conftest import collection_shapes, make_collection


def _probe(trees):
    """The vectorized probe over a reference table of ``trees``, packed
    at the width of their namespace."""
    table = BipartitionTable.from_bfh(build_bfh(trees),
                                      len(trees[0].taxon_namespace))
    return table.vectorized()


class TestWordPacking:
    def test_single_word(self):
        words = masks_to_words([0b1011, 0], 1)
        assert words.tolist() == [[0b1011], [0]]

    def test_multi_word_big_endian(self):
        mask = (1 << 100) | 1
        words = masks_to_words([mask], 2)
        assert words[0, 0] == 1 << 36   # high word
        assert words[0, 1] == 1         # low word

    def test_packing_injective(self):
        masks = [5, 1 << 70, (1 << 70) | 3, 2, 256, 1]
        words = masks_to_words(masks, 2)
        void = words.view(np.dtype((np.void, 16))).ravel()
        assert len(set(void.tolist())) == len(masks)

    def test_probe_finds_every_stored_key(self, medium_collection):
        bfh = build_bfh(medium_collection)
        vbfh = BipartitionTable.from_bfh(bfh, 16).vectorized()
        masks = sorted(bfh.counts)
        words = masks_to_words(masks, vbfh.table.n_words)
        freqs = vbfh.lookup_frequencies(words)
        assert freqs.tolist() == [bfh.counts[m] for m in masks]


class TestEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(collection_shapes)
    def test_matches_dict_backend(self, shape):
        n, r, seed = shape
        trees = make_collection(n, r, seed=seed)
        expected = bfhrf_average_rf(trees)
        got = shm_average_rf(trees)
        assert got == pytest.approx(expected)

    def test_large_n_multiword(self):
        trees = make_collection(130, 8, seed=9)  # 3 words of 64 bits
        assert shm_average_rf(trees) == pytest.approx(
            bfhrf_average_rf(trees))

    def test_disparate_collections(self):
        trees = make_collection(12, 14, seed=10)
        q, r = trees[:5], trees[5:]
        want = bfhrf_average_rf(q, r)
        assert shm_average_rf(q, r) == pytest.approx(want)
        assert shm_average_rf(q, r, n_workers=2, executor="thread") == want

    def test_transform_supported(self, medium_collection):
        transform = size_filter_transform(min_size=3)
        want = bfhrf_average_rf(medium_collection, transform=transform)
        assert shm_average_rf(medium_collection, transform=transform) == \
            pytest.approx(want)
        assert shm_average_rf(medium_collection, transform=transform,
                              n_workers=2, executor="thread") == want

    def test_from_bfh_conversion(self, medium_collection):
        bfh = build_bfh(medium_collection)
        vbfh = BipartitionTable.from_bfh(bfh, 16).vectorized()
        assert len(vbfh.table) == len(bfh)
        got = vbfh.average_rf_batch(medium_collection)
        assert got.tolist() == pytest.approx(bfhrf_average_rf(medium_collection))


class TestProbeEdgeCases:
    def test_unseen_splits_score_zero_frequency(self):
        trees = trees_from_string("((A,B),(C,D));\n((A,B),(C,D));")
        vbfh = _probe(trees)
        ns = trees[0].taxon_namespace
        novel = trees_from_string("((A,D),(B,C));", ns)
        assert vbfh.average_rf_batch(novel).tolist() == [2.0]

    def test_query_mask_wider_than_reference_keys(self):
        """A query split using a high taxon bit absent from every
        reference key must not alias into a false hit."""
        ns_text = "((A,B),(C,D),E);"   # E gets bit 4 but no internal split uses it
        base = trees_from_string(ns_text)
        ns = base[0].taxon_namespace
        reference = trees_from_string("((A,B),(C,D),E);\n((A,B),(C,D),E);", ns)
        vbfh = _probe(reference)
        query = trees_from_string("((A,B),(C,E),D);", ns)
        expected = bfhrf_average_rf(query, reference)
        assert vbfh.average_rf_batch(query).tolist() == pytest.approx(expected)

    def test_empty_batch(self, medium_collection):
        vbfh = _probe(medium_collection)
        assert vbfh.average_rf_batch([]).shape == (0,)

    def test_star_query_tree(self, quartet_namespace):
        """A star tree has no internal splits: avgRF = mean split count."""
        reference = trees_from_string("((A,B),(C,D));\n((A,B),(C,D));")
        vbfh = _probe(reference)
        star = parse_newick("(A,B,C,D);", reference[0].taxon_namespace)
        # Left term: every reference split unmatched (1 per tree);
        # right term: zero query splits. avg = 2/2 = 1.
        assert vbfh.average_rf_batch([star]).tolist() == [1.0]

    def test_mixed_batch_with_star(self):
        reference = trees_from_string("((A,B),(C,D));\n((A,C),(B,D));")
        ns = reference[0].taxon_namespace
        batch = [parse_newick("(A,B,C,D);", ns),
                 parse_newick("((A,B),(C,D));", ns),
                 parse_newick("(A,B,C,D);", ns)]
        got = _probe(reference).average_rf_batch(batch)
        expected = [1.0, 1.0, 1.0]
        assert got.tolist() == pytest.approx(expected)

    def test_empty_reference(self):
        with pytest.raises(CollectionError):
            shm_average_rf([])
        empty = BipartitionTable.from_counts({}, n_taxa=4, n_trees=0)
        with pytest.raises(CollectionError):
            empty.vectorized().average_rf_batch([])

    def test_splitless_reference(self):
        """Regression (selfcheck-found): a reference of star trees stores
        zero keys, and the probe's index clamp hit -1 on the empty array."""
        reference = trees_from_string("(A,B,C,D);")
        ns = reference[0].taxon_namespace
        query = trees_from_string("((A,B),(C,D));\n(A,B,C,D);", ns)
        got = _probe(reference).average_rf_batch(query)
        assert got.tolist() == bfhrf_average_rf(query, reference)
        assert got.tolist() == [1.0, 0.0]

    def test_star_last_in_batch(self):
        """Regression (selfcheck-found): a splitless tree as the *last*
        batch entry used to corrupt the previous tree's average — the
        clamped ``reduceat`` index stole that segment's final term."""
        trees = trees_from_string(
            "((A,B),(C,D),(E,F));\n((A,C),(B,D),(E,F));\n(A,B,C,D,E,F);")
        got = _probe(trees).average_rf_batch(trees)
        assert got.tolist() == bfhrf_average_rf(trees)
        assert got.tolist() == [7 / 3, 7 / 3, 2.0]
