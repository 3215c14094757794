"""Key-range sharding of the BFH store.

A store's compacted state is split into ``n_shards`` snapshot files,
each covering one contiguous range of the sorted packed-key space.
Boundaries are chosen at compaction time so shards are equal-sized
*by entry count* (balanced ranges, not balanced hash buckets — keys
stay sorted on disk, so a shard can be scanned or bisected without
touching its siblings).  Routing a key to its shard is a bisect over
the boundary list; keys that arrive after compaction live in the
journal overlay until the next compaction rebalances.

Compaction cuts one table of the store's state, in numeric key order,
into shard row ranges (:func:`partition_rows`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.core.table import words_to_masks

__all__ = ["shard_boundaries", "shard_of", "partition_rows"]


def _cuts(n_keys: int, n_shards: int) -> list[int]:
    """Where shards ``1 .. n_shards - 1`` start in ``n_keys`` sorted keys
    (near-equal contiguous ranges; shards left empty share a cut)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return sorted({i * n_keys // n_shards for i in range(1, n_shards)}) \
        if n_keys else []


def shard_boundaries(sorted_keys: Sequence[int], n_shards: int) -> list[int]:
    """``n_shards - 1`` split keys carving the sorted key list into
    near-equal contiguous ranges.  Shard ``i`` owns keys in
    ``[boundary[i-1], boundary[i])`` with open outer ends, so every
    possible future key routes somewhere."""
    bounds: list[int] = []
    for cut in _cuts(len(sorted_keys), n_shards):
        key = sorted_keys[cut]
        if not bounds or key > bounds[-1]:
            bounds.append(key)
    return bounds


def shard_of(key: int, boundaries: Sequence[int]) -> int:
    """Index of the shard whose key range contains ``key``."""
    return bisect_right(boundaries, key)


def partition_rows(keys: np.ndarray, n_shards: int
                   ) -> tuple[list[int], list[slice]]:
    """Cut a table's distinct keys, as numeric-order word rows
    (:meth:`~repro.core.table.BipartitionTable.numeric_rows`), into
    shards: ``(boundaries, row slices)``, one slice per shard, with the
    boundaries :func:`shard_boundaries` gives for the same keys."""
    cuts = _cuts(len(keys), n_shards)
    edges = [0, *cuts, len(keys)]
    return (words_to_masks(keys[cuts]),
            [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
