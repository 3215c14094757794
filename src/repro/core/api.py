"""High-level one-call API — the "easy to use interface" of the abstract.

Every entry point accepts tree collections in any convenient form
(lists of :class:`Tree`, a Newick file path, or raw Newick text) and
dispatches to the requested algorithm.  This is the layer the examples
and CLI are written against.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

from repro.bipartitions.scan import ScannedTrees, scan_newick_file, \
    scan_newick_text
from repro.core.consensus import consensus_tree
from repro.core.day import day_rf
from repro.core.matrix import average_from_matrix, rf_matrix
from repro.core.rf import max_rf, robinson_foulds
from repro.hashing.bfh import BipartitionFrequencyHash, MaskTransform
from repro.newick.io import read_newick_file, trees_from_string
from repro.observability.spans import trace
from repro.runtime.registry import default_method_name, get_method, \
    method_names, methods_docstring
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["as_trees", "average_rf", "rf_distance", "tree_distance",
           "distance_matrix", "best_query_tree", "consensus",
           "AVERAGE_RF_METHODS", "TREE_METRICS"]

TREE_METRICS = ("rf", "matching", "triplet", "quartet", "branch-score")

#: Registered average-RF method names (kept for back-compat; the source
#: of truth is :func:`repro.runtime.method_names`).
AVERAGE_RF_METHODS = method_names()

TreesLike = Sequence[Tree] | str | os.PathLike


def _is_nexus_path(path: str | os.PathLike) -> bool:
    from repro.newick.io import open_tree_file

    try:
        with open_tree_file(path, "r") as fh:
            return fh.readline().strip().upper().startswith("#NEXUS")
    except (OSError, UnicodeDecodeError):
        return False


def _source_kind(source: TreesLike) -> str:
    """Classify a collection argument, sniffing a path's header once.

    One of ``"trees"`` (a tree sequence), ``"nexus-text"``, ``"nexus"``
    (a NEXUS path), ``"newick"`` (a Newick path) or ``"newick-text"``.
    A string is a path unless it holds a ';' or is empty: ``""`` is
    Newick text with no trees, read as an empty Newick file is.
    """
    if isinstance(source, (list, tuple)):
        return "trees"
    if isinstance(source, str) and source.lstrip().upper().startswith("#NEXUS"):
        return "nexus-text"
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and source and ";" not in source):
        return "nexus" if _is_nexus_path(source) else "newick"
    if isinstance(source, str):
        return "newick-text"
    raise TypeError(f"cannot interpret {type(source).__name__} as a tree collection")


def _parse_span(source: str | os.PathLike, kind: str, **attrs):
    if kind in ("nexus", "newick"):
        return trace("parse", source=os.fspath(source), format=kind, **attrs)
    return trace("parse", format=kind, **attrs)


def _read_trees(source: TreesLike, kind: str,
                namespace: TaxonNamespace | None = None) -> list[Tree]:
    """:func:`as_trees` for a source already classified as ``kind``."""
    from repro.newick.nexus import read_nexus_trees

    if kind == "trees":
        return list(source)
    with _parse_span(source, kind) as span:
        if kind in ("nexus", "nexus-text"):
            trees = read_nexus_trees(source, namespace)
        elif kind == "newick":
            trees = read_newick_file(source, namespace)
        else:
            trees = trees_from_string(source, namespace)
        span.set(trees=len(trees))
    return trees


def as_trees(source: TreesLike, namespace: TaxonNamespace | None = None) -> list[Tree]:
    """Coerce a collection argument into a list of trees.

    Accepts an existing tree sequence (returned as a list, namespace
    untouched), a filesystem path to a Newick or NEXUS file (NEXUS is
    auto-detected by its ``#NEXUS`` header), or a string containing
    Newick/NEXUS text.
    """
    return _read_trees(source, _source_kind(source), namespace)


_SCANNABLE = ("newick", "newick-text")


def _read(source: TreesLike, kind: str, namespace: TaxonNamespace, *,
          scan: bool = True) -> ScannedTrees | list[Tree]:
    """:func:`_read_trees`, except that a Newick path or text is scanned
    when ``scan`` is set: same spans, and no ``Tree`` is built."""
    if not (scan and kind in _SCANNABLE):
        return _read_trees(source, kind, namespace)
    with _parse_span(source, kind, columnar=True) as span:
        scanned = scan_newick_file(source, namespace) if kind == "newick" \
            else scan_newick_text(source, namespace)
        span.set(trees=len(scanned))
    return scanned


def _normalize(values: list[float], leaf_counts) -> list[float]:
    # Each tree normalizes by its own 2(n-3): collections with variable
    # taxon counts would be skewed by a single shared denominator taken
    # from the first tree.
    normed = []
    for value, n_leaves in zip(values, leaf_counts):
        denominator = max_rf(int(n_leaves))
        normed.append(value / denominator if denominator else value)
    return normed


def _leaf_counts(trees: Sequence[Tree]) -> list[int]:
    return [tree.leaf_mask().bit_count() for tree in trees]


def _remote_average_rf(query_trees: list[Tree],
                       endpoint) -> list[float]:
    """Dispatch a query to a running serve daemon (the ``endpoint=`` arm).

    The daemon answers from its own warm store with the same vectorized
    probe local compute uses, so replies are bitwise-identical to
    ``average_rf(query, <store trees>)`` — the serve-parity selfcheck
    oracle and the serve test wall hold that bar.
    """
    from repro.serve.client import ServeClient

    with trace("api.average_rf.remote", trees=len(query_trees)):
        with ServeClient.connect(endpoint) as client:
            return client.query_trees(query_trees)


def average_rf(query: TreesLike, reference: TreesLike | None = None, *,
               method: str | None = None, n_workers: int = 1,
               include_trivial: bool = False,
               transform: MaskTransform | None = None,
               normalized: bool = False,
               executor: str | None = None,
               endpoint=None) -> list[float]:
    """Average RF of each query tree against a reference collection.

    Parameters
    ----------
    query, reference:
        Collections (trees / path / Newick text).  ``reference=None``
        means ``Q is R``.  When both are paths or strings they are
        parsed into one shared namespace automatically.  Newick paths
        and text are scored with no ``Tree`` built when the method has
        a ``scan_runner`` (the default ``shm``) and no transform is
        given, at any ``n_workers`` (:mod:`repro.bipartitions.scan`).
    method:
        One of the registered methods (see
        :func:`repro.runtime.methods`).  ``None`` resolves through
        :func:`repro.runtime.default_method_name` to the registry's
        promoted fast path — all fast paths are bitwise-identical to
        ``bfhrf``, so the default only ever changes speed, not values:

<<METHOD_LIST>>
    n_workers:
        Worker count for the parallel methods (serial methods, and
        scanned Newick as above, ignore it).
    normalized:
        Scale each value into [0, 1] by that tree's own ``2(n-3)``.
    executor:
        Parallel backend name (``serial``/``thread``/``fork``/``spawn``);
        ``None`` follows the runtime default chain (CLI ``--executor``,
        ``REPRO_EXECUTOR``, auto-detection) — see ``docs/runtime.md``.
    endpoint:
        Address of a running ``bfhrf serve`` daemon (an
        :class:`~repro.serve.endpoint.Endpoint`, ``unix:///path`` /
        ``tcp://host:port`` URL, or bare socket path).  The query is
        answered by the daemon's warm store — bitwise-identical to
        computing locally against the stored trees — instead of by
        local compute; the daemon's store is the reference, so
        ``reference``, ``method``, ``transform``, and
        ``include_trivial`` cannot be combined with it
        (``normalized`` still applies, locally).

    Raises
    ------
    ValueError
        Unknown method name.
    CollectionError
        The method does not support the requested argument combination
        (e.g. a disparate reference or a transform with ``hashrf``), or
        ``endpoint`` was combined with arguments the daemon's own store
        and configuration decide.

    Examples
    --------
    >>> average_rf("((A,B),(C,D));\\n((A,C),(B,D));")
    [1.0, 1.0]
    """
    if endpoint is not None:
        # The daemon's store/config own these decisions; accepting the
        # arguments and ignoring them would silently change results.
        for name, value in [("reference", reference), ("method", method),
                            ("transform", transform)]:
            if value is not None:
                raise CollectionError(
                    f"endpoint= queries answer from the daemon's store; "
                    f"{name}= cannot be combined with it")
        if include_trivial:
            raise CollectionError(
                "endpoint= queries answer from the daemon's store; "
                "include_trivial= cannot be combined with it")
        query_trees = as_trees(query)
        values = _remote_average_rf(query_trees, endpoint)
        return _normalize(values, _leaf_counts(query_trees)) if normalized \
            else values
    spec = get_method(default_method_name() if method is None else method)
    spec.ensure_supported(disparate=reference is not None,
                          transform=transform is not None)
    query_kind = _source_kind(query)
    reference_kind = None if reference is None else _source_kind(reference)
    if (spec.scan_runner is not None and transform is None
            and query_kind in _SCANNABLE
            and reference_kind in (None, *_SCANNABLE)):
        # Scored straight from the text: no Tree is built.
        ns = TaxonNamespace()
        scanned = _read(query, query_kind, ns)
        reference_scan = scanned if reference is None \
            else _read(reference, reference_kind, ns)
        values = spec.scan_runner(scanned, reference_scan,
                                  n_taxa=max(1, len(ns)),
                                  include_trivial=include_trivial)
        return _normalize(values, scanned.leaf_counts) if normalized \
            else values

    query_trees = _read_trees(query, query_kind)
    if reference is None:
        reference_trees = query_trees
    else:
        ns = query_trees[0].taxon_namespace if query_trees else None
        reference_trees = _read_trees(reference, reference_kind, ns)
    values = spec.run(query_trees, reference_trees, n_workers=n_workers,
                      include_trivial=include_trivial, transform=transform,
                      executor=executor)
    return _normalize(values, _leaf_counts(query_trees)) if normalized \
        else values


# The per-method block is generated from the registry so the docstring
# can never drift from the registered reality again.
if average_rf.__doc__:  # stripped under python -OO
    average_rf.__doc__ = average_rf.__doc__.replace(
        "<<METHOD_LIST>>", methods_docstring(indent="        "))


def rf_distance(tree_a: Tree, tree_b: Tree, *, method: str = "day",
                normalized: bool = False) -> float | int:
    """RF between two trees; ``method`` is ``"day"`` (O(n)) or ``"sets"``."""
    if method == "day":
        value = day_rf(tree_a, tree_b)
        if normalized:
            denominator = max_rf(tree_a.leaf_mask().bit_count())
            return value / denominator if denominator else 0.0
        return value
    if method == "sets":
        return robinson_foulds(tree_a, tree_b, normalized=normalized)
    raise ValueError(f"method must be 'day' or 'sets', got {method!r}")


def tree_distance(tree_a: Tree, tree_b: Tree, *, metric: str = "rf") -> float | int:
    """Two-tree distance under any metric in the catalogue (§IX).

    ``"rf"`` (Day's O(n) algorithm), ``"matching"`` (Matching Split,
    ref [20]), ``"triplet"`` (rooted, ref [4]), ``"quartet"`` (unrooted,
    ref [5]), or ``"branch-score"`` (Kuhner–Felsenstein, branch-length
    aware).

    Examples
    --------
    >>> from repro.newick import trees_from_string
    >>> t1, t2 = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> tree_distance(t1, t2, metric="quartet")
    1
    """
    if metric == "rf":
        return day_rf(tree_a, tree_b)
    if metric == "matching":
        from repro.metrics.matching import matching_split_distance

        return matching_split_distance(tree_a, tree_b)
    if metric == "triplet":
        from repro.metrics.triplet import triplet_distance

        return triplet_distance(tree_a, tree_b)
    if metric == "quartet":
        from repro.metrics.quartet import quartet_distance

        return quartet_distance(tree_a, tree_b)
    if metric == "branch-score":
        from repro.bipartitions.extract import bipartitions_with_lengths

        wa = bipartitions_with_lengths(tree_a)
        wb = bipartitions_with_lengths(tree_b)
        return sum(abs(wa.get(m, 0.0) - wb.get(m, 0.0))
                   for m in set(wa) | set(wb))
    raise ValueError(f"metric must be one of {TREE_METRICS}, got {metric!r}")


def distance_matrix(trees: TreesLike, *, method: str = "hashrf",
                    include_trivial: bool = False) -> np.ndarray:
    """All-vs-all RF matrix (see :func:`repro.core.matrix.rf_matrix`)."""
    return rf_matrix(as_trees(trees), method=method, include_trivial=include_trivial)


def best_query_tree(query: TreesLike, reference: TreesLike | None = None, *,
                    method: str | None = None, n_workers: int = 1,
                    include_trivial: bool = False,
                    transform: MaskTransform | None = None) -> tuple[int, Tree, float]:
    """The query tree minimizing average RF to the reference collection.

    This is the paper's motivating analysis (§I): among candidate
    summary trees, pick the one closest to the data under the RF
    optimality criterion.  Returns ``(index, tree, average_rf)``; ties
    go to the lowest index.

    Examples
    --------
    >>> refs = "((A,B),(C,D));\\n((A,B),(C,D));\\n((A,C),(B,D));"
    >>> idx, tree, value = best_query_tree("((A,B),(C,D));\\n((A,D),(B,C));", refs)
    >>> idx, round(value, 3)
    (0, 0.667)
    """
    query_trees = as_trees(query)
    if not query_trees:
        raise CollectionError("query collection is empty")
    if reference is None:
        reference_arg: TreesLike | None = None
    else:
        reference_arg = as_trees(reference, query_trees[0].taxon_namespace)
    values = average_rf(query_trees, reference_arg, method=method,
                        n_workers=n_workers, include_trivial=include_trivial,
                        transform=transform)
    best = min(range(len(values)), key=lambda i: values[i])
    return best, query_trees[best], values[best]


def consensus(reference: TreesLike, *, method: str = "majority",
              threshold: float = 0.5) -> Tree:
    """Consensus tree of a collection (strict / majority / greedy)."""
    trees = as_trees(reference)
    if not trees:
        raise CollectionError("collection is empty")
    return consensus_tree(trees, trees[0].taxon_namespace,
                          method=method, threshold=threshold)
