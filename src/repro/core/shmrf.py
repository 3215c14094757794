"""BFHRF over the sorted split table — the default ``shm`` method.

The method keeps its historical name, but there is no shared-memory
segment any more: the reference is one
:class:`~repro.core.table.BipartitionTable` (sorted keys + counts, the
vectorized backend's probe layout), and a process fan-out ships it in
the executor's ordinary payload next to the query trees.

Per-backend payload cost:

* ``fork`` — fresh pool per fan-out; workers inherit the table's arrays
  and the in-memory query list copy-on-write, so they pay neither
  pickling nor parsing.
* ``spawn`` — the parent pickles the payload once: the table as its two
  flat arrays (671 kB for a 1,000-tree, 144-taxon reference) and the
  query trees as their own flat pickle
  (:meth:`~repro.trees.tree.Tree.__reduce__`); each worker unpickles it
  once at pool start.
* ``serial``/``thread`` — no process boundary; the probe kernels are
  NumPy calls that release the GIL, so threads parallelize them without
  pickling or forking anything.

Every path scores with the same
:class:`~repro.core.vectorized.VectorizedBFH` probe kernel over
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
from repro.hashing.bfh import MaskTransform
from repro.observability.metrics import counter as _metric, \
    histogram as _histogram
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.runtime.executor import Executor, get_executor, get_payload, \
    resolve_workers
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["shm_average_rf", "shm_average_rf_scanned"]


def _shm_query_range(bounds: tuple[int, int]) -> list[float]:
    """Fan-out task: batched probes for one query slice of the table.

    ``table.vectorized()`` adopts the table's arrays without copying.
    The transform rides separately — a table stores only splits.
    """
    query, table, transform = get_payload()
    vbfh = table.vectorized(transform=transform)
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
                   table: BipartitionTable | None = None,
                   executor: str | Executor | None = None) -> list[float]:
    """Average RF by probing the sorted split table — the default fast path.

    Semantics match :func:`repro.core.bfhrf.bfhrf_average_rf` exactly
    (same empty-reference error, same values bit for bit).  With
    ``n_workers > 1`` the table travels to the workers in the executor
    payload (see the module docstring for what each backend pays).

    Parameters
    ----------
    table:
        A prebuilt reference :class:`BipartitionTable`, packed wide
        enough for every query taxon; skips the reference pass (a
        parallel store query passes ``store.table(n)``).  ``reference`` and ``include_trivial`` are
        then ignored.

    Examples
    --------
    >>> from repro.newick import trees_from_string
    >>> trees = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> shm_average_rf(trees)
    [1.0, 1.0]
    """
    query = list(query) if not isinstance(query, Sequence) else query
    if table is None:
        if reference is None:
            reference = query
        reference = list(reference) if not isinstance(reference, Sequence) \
            else reference
        bfh = build_bfh(reference, include_trivial=include_trivial,
                        transform=transform)
        table = BipartitionTable.from_bfh(
            bfh, max(1, len(reference[0].taxon_namespace)))
    if not query:
        return []

    workers = resolve_workers(n_workers) if n_workers > 1 else 1
    if workers <= 1 or len(query) < 2:
        vbfh = table.vectorized(transform=transform)
        with trace("shmrf.query", q=len(query), r=table.n_trees, workers=1):
            return vbfh.average_rf_batch(query).tolist()

    runner = get_executor(executor)
    with trace("shmrf.query", q=len(query), r=table.n_trees,
               workers=workers, backend=runner.name):
        blocks = runner.submit_ranges(
            _shm_query_range, len(query), (query, table, transform),
            n_workers=workers, chunk_size=chunk_size)
    return [v for block in blocks for v in block]


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
    with trace("shmrf.query", q=len(query), r=table.n_trees, workers=1):
        block = rows if query is reference else vbfh.split_block(query)
        return vbfh.average_rf_block(block).tolist()
