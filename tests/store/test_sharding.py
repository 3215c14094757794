"""Key-range sharding: boundaries, routing, and the parallel build."""

from __future__ import annotations

import pytest

from repro.core.bfhrf import build_bfh
from repro.core.table import masks_to_words, words_to_masks
from repro.runtime import fork_available
from repro.store.shards import (
    parallel_build_tables,
    partition_rows,
    shard_boundaries,
    shard_of,
)


def rows_of(keys: list[int]):
    """Sorted distinct masks as the numeric-order word rows compaction cuts."""
    return masks_to_words(keys, 2)

from tests.conftest import make_collection


class TestBoundaries:
    def test_single_shard_has_no_boundaries(self):
        assert shard_boundaries([1, 2, 3], 1) == []
        assert shard_boundaries([], 4) == []

    def test_boundaries_balance_entry_counts(self):
        keys = list(range(0, 1000, 7))
        bounds, parts = partition_rows(rows_of(keys), 4)
        assert bounds == shard_boundaries(keys, 4)
        assert len(bounds) == 3
        sizes = [part.stop - part.start for part in parts]
        assert sum(sizes) == len(keys)
        assert max(sizes) - min(sizes) <= len(keys) // 4 + 1

    def test_row_partition_matches_key_boundaries(self):
        """Wide keys, more shards than keys, and no keys at all: the row
        slices tile the rows and agree with ``shard_boundaries``."""
        wide = [1, 5, 1 << 64, (1 << 64) + 3, (1 << 100) | 7, 1 << 127]
        for keys in (wide, wide[:2], [], list(range(9))):
            for n_shards in (1, 2, 3, 4, 7):
                bounds, parts = partition_rows(rows_of(keys), n_shards)
                assert bounds == shard_boundaries(keys, n_shards)
                assert len(parts) == len(bounds) + 1
                assert parts[0].start == 0 and parts[-1].stop == len(keys)
                assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
                assert sum((words_to_masks(rows_of(keys)[part])
                            for part in parts), []) == keys

    def test_duplicate_heavy_key_space_collapses_boundaries(self):
        keys = [5] * 10 + [9]
        bounds = shard_boundaries(sorted(keys), 4)
        assert bounds == sorted(set(bounds))  # strictly increasing

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_boundaries([1], 0)


class TestRouting:
    def test_every_key_routes_to_exactly_one_shard(self):
        keys = list(range(50))
        rows = rows_of(keys)
        bounds, parts = partition_rows(rows, 3)
        assert sum(p.stop - p.start for p in parts) == 50
        for i, part in enumerate(parts):
            for key in words_to_masks(rows[part]):
                assert shard_of(key, bounds) == i

    def test_future_keys_route_into_open_ends(self):
        bounds = shard_boundaries(list(range(10, 20)), 2)
        assert shard_of(0, bounds) == 0          # below every stored key
        assert shard_of(10**9, bounds) == 1      # above every stored key


class TestParallelBuild:
    def test_serial_matches_build_bfh(self):
        trees = make_collection(12, 9, seed=31)
        counts, weights, n, total = parallel_build_tables(
            trees, include_trivial=False, weighted=False, n_workers=1)
        fresh = build_bfh(trees)
        assert counts == fresh.counts
        assert (n, total) == (fresh.n_trees, fresh.total)
        assert weights is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_build_is_bitwise_identical(self):
        trees = make_collection(14, 17, seed=5)
        serial = parallel_build_tables(trees, include_trivial=False,
                                       weighted=False, n_workers=1)
        forked = parallel_build_tables(trees, include_trivial=False,
                                       weighted=False, n_workers=3)
        assert forked == serial

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_weighted_multisets_match(self):
        trees = make_collection(10, 11, seed=13)
        s_counts, s_weights, s_n, s_total = parallel_build_tables(
            trees, include_trivial=False, weighted=True, n_workers=1)
        f_counts, f_weights, f_n, f_total = parallel_build_tables(
            trees, include_trivial=False, weighted=True, n_workers=3)
        assert f_counts == s_counts
        assert (f_n, f_total) == (s_n, s_total)
        assert {m: sorted(v) for m, v in f_weights.items()} == \
               {m: sorted(v) for m, v in s_weights.items()}

    def test_weight_multiset_sizes_match_frequencies(self):
        trees = make_collection(8, 6, seed=3)
        counts, weights, _n, _total = parallel_build_tables(
            trees, include_trivial=False, weighted=True, n_workers=1)
        assert {m: len(v) for m, v in weights.items()} == counts
