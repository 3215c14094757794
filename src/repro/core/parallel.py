"""DSMP — multiprocessing DendropySingle (paper §III-B).

Parallelizes Algorithm 1 "at the tree level": workers run the 1-vs-r
comparisons for chunks of query trees.  As in the paper, every worker
sees the full reference bipartition table, which is why DSMP's memory
footprint grows with worker count (the paper's Tables III/V show DSMP
jobs OOM-killed at large r — a behaviour this implementation reproduces
in miniature).

Fan-out runs through the :mod:`repro.runtime` executor: heavy read-only
state — the parsed trees and the reference table — is published to
workers through the executor's shared payload (fork inheritance on the
``fork`` backend, a one-time pickle on ``spawn``), tasks are plain
``(start, stop)`` index ranges into the shared query list, and results
are small float lists.  This mirrors the paper's note that its
multiprocessing implementation "loads all R trees at once, increasing
the memory footprint" (§III-B): shared loaded state is exactly how
Python multiprocessing wins here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bipartitions.extract import bipartition_masks
from repro.core.sequential import average_rf_against_sets, sequential_average_rf
from repro.hashing.bfh import MaskTransform
from repro.newick.writer import write_newick
from repro.observability.spans import trace
from repro.runtime.executor import Executor, get_executor, get_payload, \
    resolve_workers
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["dsmp_average_rf", "trees_as_newick"]


def trees_as_newick(trees: Iterable[Tree]) -> list[str]:
    """Serialize trees for explicit IPC or disk hand-off (topology only)."""
    return [write_newick(t, include_lengths=False, include_internal_labels=False)
            for t in trees]


# ---------------------------------------------------------------------------
# Worker task functions (module-level for picklability of the *function*;
# the data arrives through the executor's shared payload).
# ---------------------------------------------------------------------------

def _ds_extract_range(bounds: tuple[int, int]) -> list[frozenset[int]]:
    """Phase-1 task: bipartition sets for a slice of the reference trees."""
    trees, include_trivial, transform = get_payload()
    out: list[frozenset[int]] = []
    for tree in trees[bounds[0]:bounds[1]]:
        masks = bipartition_masks(tree, include_trivial=include_trivial)
        if transform is not None:
            masks = transform(masks, tree.leaf_mask())
        out.append(frozenset(masks))
    return out


def _ds_compare_range(bounds: tuple[int, int]) -> list[float]:
    """Phase-2 task: the 1-vs-r inner loop for a slice of the query trees."""
    query, reference_sets, include_trivial, transform = get_payload()
    out: list[float] = []
    for tree in query[bounds[0]:bounds[1]]:
        masks = bipartition_masks(tree, include_trivial=include_trivial)
        if transform is not None:
            masks = transform(masks, tree.leaf_mask())
        out.append(average_rf_against_sets(masks, reference_sets))
    return out


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def dsmp_average_rf(query: Sequence[Tree], reference: Sequence[Tree], *,
                    n_workers: int | None = None,
                    include_trivial: bool = False,
                    transform: MaskTransform | None = None,
                    chunk_size: int | None = None,
                    executor: str | Executor | None = None) -> list[float]:
    """Average RF of each query tree against ``reference``, DSMP style.

    Both phases of Algorithm 1 are parallel at the tree level: reference
    bipartition extraction, then the query comparisons.

    Parameters
    ----------
    query, reference:
        Tree sequences over one shared namespace.
    n_workers:
        Worker processes; ``None`` uses every CPU; 1 runs the sequential
        algorithm inline.
    chunk_size:
        Trees per task; defaults to a load-balancing heuristic.
    executor:
        Backend name or :class:`~repro.runtime.Executor`; ``None``
        follows the runtime default chain (CLI flag, ``REPRO_EXECUTOR``,
        auto-detection).

    Returns
    -------
    Average RF values aligned with ``query`` order.

    Examples
    --------
    >>> from repro.newick import trees_from_string
    >>> trees = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> dsmp_average_rf(trees, trees, n_workers=2)
    [1.0, 1.0]
    """
    if not reference:
        raise CollectionError("reference collection is empty; average RF is undefined")
    workers = resolve_workers(n_workers)
    if workers <= 1:
        return sequential_average_rf(query, reference,
                                     include_trivial=include_trivial,
                                     transform=transform)
    runner = get_executor(executor)
    query = list(query)
    reference = list(reference)

    # Phase 1: parallel bipartition extraction over the reference trees.
    with trace("dsmp.extract", r=len(reference), workers=workers):
        blocks = runner.submit_ranges(
            _ds_extract_range, len(reference),
            (reference, include_trivial, transform),
            n_workers=workers, chunk_size=chunk_size)
    reference_sets: list[frozenset[int]] = [s for block in blocks for s in block]

    if not query:
        return []
    # Phase 2: parallel query comparisons; every worker sees the full
    # reference table (the DSMP memory cost the paper documents).
    with trace("dsmp.query", q=len(query), r=len(reference), workers=workers):
        compared = runner.submit_ranges(
            _ds_compare_range, len(query),
            (query, reference_sets, include_trivial, transform),
            n_workers=workers, chunk_size=chunk_size)
    return [v for block in compared for v in block]
