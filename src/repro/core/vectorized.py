"""Vectorized batch BFHRF — the CPU stand-in for the paper's GPU plan.

§IX: "we will explore a GPU implementation ... the massive number of
computations are independent, sequential, and non conditional with the
only roadblock being the collection of results."  The data-parallel
formulation that statement implies is exactly expressible in NumPy:

* the frequency hash becomes two aligned arrays — lexicographically
  sorted split keys (fixed-width ``uint64`` words) and their
  frequencies;
* a *probe* is a batched binary search (``np.searchsorted`` on a
  ``void`` view) followed by a vectorized equality check — collision-free
  like the dict, but branch-free and batchable;
* Algorithm 2's per-tree sums collapse into prefix-sum differences over
  the concatenated batch — the "collection of results" step.  (Not
  ``np.add.reduceat``: it mis-sums zero-length segments, which star
  trees produce.)

On CPython this trades dict-probe speed for amortized batch throughput;
the ``bench_ablation_backends`` benchmark quantifies the trade, and a
real GPU port would swap ``np`` for ``cupy`` unchanged — which is the
point of writing it this way.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.bipartitions.extract import bipartition_masks
from repro.bipartitions.scan import ScannedTrees, SplitBlock
from repro.core.table import BipartitionTable, masks_to_words
from repro.hashing.bfh import MaskTransform
from repro.observability.metrics import histogram as _histogram
from repro.observability.state import enabled as _obs_enabled
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["VectorizedBFH"]


class VectorizedBFH:
    """Batched probes over one :class:`~repro.core.table.BipartitionTable`.

    A stateless view: every key, count and metadata field is read from
    ``table`` in place, so probing copies nothing.  Get one with
    :meth:`BipartitionTable.vectorized`; score whole query batches with
    :meth:`average_rf_batch`.

    Examples
    --------
    >>> from repro.core.bfhrf import build_bfh
    >>> from repro.newick import trees_from_string
    >>> trees = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> table = BipartitionTable.from_bfh(build_bfh(trees), 4)
    >>> table.vectorized().average_rf_batch(trees).tolist()
    [1.0, 1.0]
    """

    __slots__ = ("table", "transform", "_void_keys")

    def __init__(self, table: BipartitionTable, *,
                 transform: MaskTransform | None = None):
        """Probe ``table`` as it is: its rows are already in probe order.

        Void scalars compare as raw bytes (little-endian within each
        ``uint64``), not numerically; exact probes only need the keys
        and the query to share one total order, and the table keeps its
        rows in that order.
        """
        self.table = table
        self.transform = transform
        self._void_keys = table.keys.view(
            np.dtype((np.void, 8 * table.n_words))).ravel()

    # -- probes ------------------------------------------------------------------

    def lookup_frequencies(self, words: np.ndarray) -> np.ndarray:
        """Frequencies for an (m, n_words) query block (0 where absent).

        One batched binary search + one vectorized row-equality check —
        the branch-free, collision-free probe.
        """
        if not _obs_enabled():
            return self._lookup(words)
        t0 = time.perf_counter()
        freqs = self._lookup(words)
        _histogram("vectorized.probe_seconds").observe(time.perf_counter() - t0)
        _histogram("vectorized.probe_keys").observe(float(len(words)))
        return freqs

    def _lookup(self, words: np.ndarray) -> np.ndarray:
        if words.size == 0 or len(self._void_keys) == 0:
            # A splitless reference (e.g. all star trees) stores no keys;
            # every probe misses.  The clamp below would index at -1.
            return np.zeros(len(words), dtype=np.int64)
        query_void = np.ascontiguousarray(words, dtype=np.uint64).view(
            self._void_keys.dtype).ravel()
        positions = np.searchsorted(self._void_keys, query_void)
        positions = np.minimum(positions, len(self._void_keys) - 1)
        hit = self._void_keys[positions] == query_void
        return np.where(hit, self.table.counts[positions], 0)

    def split_block(self, query: Sequence[Tree] | ScannedTrees) -> SplitBlock:
        """Per-tree split rows of a query batch at this probe's width.

        Trees go through ``bipartition_masks`` (and the transform) and
        are packed; scanned text is packed straight from its intervals.
        """
        table = self.table
        if isinstance(query, ScannedTrees):
            if self.transform is not None:
                raise ValueError("a transform needs Tree input, not scanned text")
            return query.block(table.n_words,
                               include_trivial=table.include_trivial)
        per_tree = []
        for tree in query:
            masks = bipartition_masks(tree, include_trivial=table.include_trivial)
            if self.transform is not None:
                masks = self.transform(masks, tree.leaf_mask())
            per_tree.append(masks)
        counts = np.fromiter(map(len, per_tree), dtype=np.int64,
                             count=len(per_tree))
        words = masks_to_words([m for masks in per_tree for m in masks],
                               table.n_words)
        return SplitBlock(words, counts)

    def average_rf_batch(self, trees: Sequence[Tree] | ScannedTrees
                         ) -> np.ndarray:
        """Average RF for a whole query batch in one vectorized pass."""
        return self.average_rf_block(self.split_block(trees))

    def average_rf_block(self, block: SplitBlock) -> np.ndarray:
        """Average RF of every tree of a split block.

        Per-split terms for every tree are probed together and reduced
        with prefix sums — Algorithm 2 with the loop over query trees
        flattened into array ops.
        """
        if self.table.n_trees == 0:
            raise CollectionError("empty hash; average RF is undefined")
        if not _obs_enabled():
            return self._reduce(block)
        t0 = time.perf_counter()
        values = self._reduce(block)
        _histogram("vectorized.batch_seconds").observe(time.perf_counter() - t0)
        return values

    def _reduce(self, block: SplitBlock) -> np.ndarray:
        counts = block.counts
        freqs = self.lookup_frequencies(block.words)
        # Segment sums via prefix sums rather than reduceat: a tree with
        # no non-trivial splits (a star from multifurcation collapse)
        # yields a zero-length segment, and reduceat's index clamping at
        # the array end silently steals the previous tree's last term.
        prefix = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=prefix[1:])
        ends = np.cumsum(counts)
        seg_freq = prefix[ends] - prefix[ends - counts]
        n_trees = self.table.n_trees
        rf_left = self.table.total - seg_freq
        rf_right = counts * n_trees - seg_freq
        return (rf_left + rf_right) / n_trees
