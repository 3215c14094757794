"""Shared-memory BFHRF — zero-copy parallel tree-vs-hash comparisons.

The executor ablation (PR 4) showed why "embarrassingly parallel" (§IX)
did not translate into speedups here: every fork/spawn fan-out re-shipped
the pickled frequency hash (and the query trees) to each worker.  This
module is the fix the ROADMAP names — the hash lives once, in a
:class:`~repro.runtime.shm.SharedBFH` segment laid out as the vectorized
backend's sorted arrays, and workers attach it read-only via a
descriptor that pickles to ~200 bytes.

Per-backend payload strategy (the part that actually moves the needle):

* ``fork`` — fresh pool per fan-out; the payload (including the
  in-memory query list) crosses by copy-on-write inheritance, so workers
  pay neither pickling nor parsing.  The ``SharedBFH`` arrays are in the
  segment either way, shared by all children.
* ``spawn`` — the parent pickles the payload once: the query trees as
  their own flat pickle (:meth:`~repro.trees.tree.Tree.__reduce__`) and
  the ``SharedBFH`` as its descriptor, which each worker attaches once
  at pool start.
* ``serial``/``thread`` — no process boundary; the probe kernels are
  NumPy calls that release the GIL, so threads parallelize them without
  pickling or forking anything.

Every path scores with the same :class:`VectorizedBFH` probe kernel over
the same sorted arrays, so results are bitwise-identical to the dict
backend by construction (the parity oracles enforce it anyway).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.bipartitions.encoding import words_for_taxa
from repro.bipartitions.scan import ScannedTrees
from repro.core.bfhrf import _EMPTY_REFERENCE, build_bfh
from repro.core.table import BipartitionTable
from repro.core.vectorized import VectorizedBFH
from repro.hashing.bfh import MaskTransform
from repro.observability.metrics import counter as _metric, \
    histogram as _histogram
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.runtime.executor import Executor, get_executor, get_payload, \
    resolve_workers
from repro.runtime.shm import SharedBFH
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["shm_average_rf", "shm_average_rf_scanned"]


def _shm_query_range(bounds: tuple[int, int]) -> list[float]:
    """Fan-out task: batched probes for one query slice over shared arrays.

    ``shared.vectorized()`` adopts the segment arrays without copying.
    The transform rides separately — segments store only arrays.
    """
    query, shared, transform = get_payload()
    vbfh = shared.vectorized(transform=transform)
    trees = query[bounds[0]:bounds[1]]
    if not _obs_enabled():
        return vbfh.average_rf_batch(trees).tolist()
    t0 = time.perf_counter()
    values = vbfh.average_rf_batch(trees).tolist()
    _histogram("vectorized.chunk_seconds").observe(time.perf_counter() - t0)
    return values


def shm_average_rf(query: Sequence[Tree] | Iterable[Tree],
                   reference: Sequence[Tree] | Iterable[Tree] | None = None, *,
                   n_workers: int = 1,
                   include_trivial: bool = False,
                   transform: MaskTransform | None = None,
                   chunk_size: int | None = None,
                   shared: SharedBFH | None = None,
                   executor: str | Executor | None = None) -> list[float]:
    """Average RF via shared-memory sorted arrays — the default fast path.

    Semantics match :func:`repro.core.bfhrf.bfhrf_average_rf` exactly
    (same empty-reference error, same values bit for bit); only the
    worker payload differs.  With ``n_workers <= 1`` this is the
    vectorized backend with no segments at all.

    Parameters
    ----------
    shared:
        A prebuilt :class:`SharedBFH`; skips the reference pass and the
        segment build (the benchmark's warm path).  The caller keeps
        ownership — this function never unlinks a borrowed segment.

    Examples
    --------
    >>> from repro.newick import trees_from_string
    >>> trees = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> shm_average_rf(trees)
    [1.0, 1.0]
    """
    query = list(query) if not isinstance(query, Sequence) else query
    if shared is None:
        if reference is None:
            reference = query
        reference = list(reference) if not isinstance(reference, Sequence) \
            else reference
        bfh = build_bfh(reference, include_trivial=include_trivial,
                        transform=transform)
        n_taxa = max(1, len(reference[0].taxon_namespace))
    else:
        bfh = None
    if not query:
        return []

    workers = resolve_workers(n_workers) if n_workers > 1 else 1
    if workers <= 1 or len(query) < 2:
        vbfh = shared.vectorized(transform=transform) if shared is not None \
            else VectorizedBFH.from_bfh(bfh, n_taxa)
        with trace("shmrf.query", q=len(query), r=vbfh.n_trees, workers=1):
            return vbfh.average_rf_batch(query).tolist()

    runner = get_executor(executor)
    owned = shared is None
    if owned:
        shared = SharedBFH.from_bfh(bfh, n_taxa)
    try:
        with trace("shmrf.query", q=len(query), r=shared.n_trees,
                   workers=workers, backend=runner.name):
            blocks = runner.submit_ranges(
                _shm_query_range, len(query), (query, shared, transform),
                n_workers=workers, chunk_size=chunk_size)
        return [v for block in blocks for v in block]
    finally:
        if owned:
            shared.release()


def shm_average_rf_scanned(query: ScannedTrees, reference: ScannedTrees, *,
                           n_taxa: int,
                           include_trivial: bool = False) -> list[float]:
    """:func:`shm_average_rf` at one worker, on scanned Newick text.

    The reference table is counted straight from the scanned split rows
    (:meth:`BipartitionTable.from_rows`), with no dict hash, and the
    query is probed with the same kernel, so values are bit for bit
    those of the ``Tree`` path.  Pass the same object as ``query`` and
    ``reference`` for the Q-is-R setting; both must be scanned into one
    namespace of ``n_taxa`` taxa.
    """
    if not len(reference):
        raise CollectionError(_EMPTY_REFERENCE)
    with trace("bfh.build", workers=1) as span:
        rows = reference.block(words_for_taxa(n_taxa),
                               include_trivial=include_trivial)
        table = BipartitionTable.from_rows(
            rows.words, n_taxa=n_taxa, n_trees=len(reference),
            include_trivial=include_trivial)
        span.set(r=table.n_trees, unique=len(table))
    if _obs_enabled():
        _metric("bfh.bipartitions_hashed").inc(table.total)
    if not len(query):
        return []
    vbfh = table.vectorized()
    with trace("shmrf.query", q=len(query), r=vbfh.n_trees, workers=1):
        block = rows if query is reference else vbfh.split_block(query)
        return vbfh.average_rf_block(block).tolist()
