"""Key-range sharding of the BFH store.

A store's compacted state is split into ``n_shards`` snapshot files,
each covering one contiguous range of the sorted packed-key space.
Boundaries are chosen at compaction time so shards are equal-sized
*by entry count* (balanced ranges, not balanced hash buckets — keys
stay sorted on disk, so a shard can be scanned or bisected without
touching its siblings).  Routing a key to its shard is a bisect over
the boundary list; keys that arrive after compaction live in the
journal overlay until the next compaction rebalances.

Builds fan out over the :mod:`repro.runtime` executor exactly like
parallel :func:`~repro.core.bfhrf.build_bfh`: workers count tree
ranges and the parent folds the partial tables together with the
associative BFH merge.  Compaction then cuts one table of the state,
in numeric key order, into shard row ranges (:func:`partition_rows`).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.bipartitions.extract import bipartition_masks, bipartitions_with_lengths
from repro.core.table import words_to_masks
from repro.hashing.bfh import BipartitionFrequencyHash
from repro.observability.metrics import histogram as _histogram
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.runtime.executor import Executor, get_executor, get_payload, \
    resolve_workers
from repro.trees.tree import Tree

__all__ = ["shard_boundaries", "shard_of", "partition_rows",
           "parallel_build_tables"]


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


# ---------------------------------------------------------------------------
# Parallel build (executor fan-out over tree ranges, associative merge).
# ---------------------------------------------------------------------------

def _count_slice(trees: Sequence[Tree], lo: int, hi: int, *,
                 include_trivial: bool, weighted: bool
                 ) -> tuple[dict[int, int], dict[int, list[float]] | None,
                            int, int]:
    """Count one tree slice: partial ``(counts, weights, n_trees, total)``.

    Each tree's split set streams into the counter and is dropped, so
    memory holds one tree's splits at a time, never the slice's.
    """
    counts: Counter[int] = Counter()
    weights: dict[int, list[float]] | None = {} if weighted else None
    total = 0
    n = 0
    for tree in trees[lo:hi]:
        if weighted:
            lengths = bipartitions_with_lengths(
                tree, include_trivial=include_trivial)
            counts.update(lengths.keys())
            for mask, length in lengths.items():
                weights.setdefault(mask, []).append(length)
            total += len(lengths)
        else:
            masks = bipartition_masks(tree, include_trivial=include_trivial)
            counts.update(masks)
            total += len(masks)
        n += 1
    # A plain dict: the store updates it key by key, and the interpreter
    # only specializes item stores on exact dicts.
    return dict(counts), weights, n, total


def _count_range(bounds: tuple[int, int]):
    """Worker task wrapper around :func:`_count_slice` (shared payload in).

    When observability is on each range records its own span and a
    ``store.shard_build_seconds`` sample; under the process executors
    these ride home in the worker snapshot and are grafted back under
    the dispatching span.
    """
    trees, include_trivial, weighted = get_payload()
    lo, hi = bounds
    if not _obs_enabled():
        return _count_slice(trees, lo, hi, include_trivial=include_trivial,
                            weighted=weighted)
    with trace("store.count", lo=lo, hi=hi):
        t0 = time.perf_counter()
        result = _count_slice(trees, lo, hi,
                              include_trivial=include_trivial,
                              weighted=weighted)
        _histogram("store.shard_build_seconds").observe(
            time.perf_counter() - t0)
    return result


def parallel_build_tables(trees: Sequence[Tree], *, include_trivial: bool,
                          weighted: bool, n_workers: int,
                          executor: str | Executor | None = None
                          ) -> tuple[dict[int, int],
                                     dict[int, list[float]] | None, int, int]:
    """Count a whole collection: ``(counts, weights, n_trees, total)``.

    With one worker the count streams serially; otherwise tree ranges
    fan out over the resolved executor backend and the partial tables
    reduce through :meth:`BipartitionFrequencyHash.merge` (the weighted
    multisets concatenate — multiset union is associative too).
    """
    workers = resolve_workers(n_workers)
    if workers <= 1 or len(trees) < 2:
        return _count_slice(trees, 0, len(trees),
                            include_trivial=include_trivial, weighted=weighted)
    partials = get_executor(executor).submit_ranges(
        _count_range, len(trees), (trees, include_trivial, weighted),
        n_workers=workers)
    merged = BipartitionFrequencyHash(include_trivial=include_trivial)
    weights: dict[int, list[float]] | None = {} if weighted else None
    for counts, part_weights, n, total in partials:
        merged.merge(BipartitionFrequencyHash.from_counts(
            counts, n, total=total, include_trivial=include_trivial))
        if weighted:
            for mask, lengths in part_weights.items():
                weights.setdefault(mask, []).extend(lengths)
    return merged.counts, weights, merged.n_trees, merged.total
