"""Key-range sharding: boundaries, routing, and the bulk build."""

from __future__ import annotations

import pytest

from repro.core.bfhrf import build_bfh
from repro.core.table import masks_to_words, words_to_masks
from repro.store import build_store
from repro.store.shards import partition_rows, shard_boundaries, shard_of


def rows_of(keys: list[int]):
    """Sorted distinct masks as the numeric-order word rows compaction cuts."""
    return masks_to_words(keys, 2)

from tests.conftest import length_runs, make_collection


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
    def test_serial_matches_build_bfh(self, tmp_path):
        trees = make_collection(12, 9, seed=31)
        table = build_store(tmp_path / "s", trees).table()
        fresh = build_bfh(trees)
        assert table.to_bfh().counts == fresh.counts
        assert (table.n_trees, table.total) == (fresh.n_trees, fresh.total)
        assert table.lengths is None

    def test_weight_multiset_sizes_match_frequencies(self, tmp_path):
        trees = make_collection(8, 6, seed=3)
        table = build_store(tmp_path / "s", trees, weighted=True).table()
        assert {m: len(v) for m, v in length_runs(table).items()} == \
            table.to_bfh().counts
