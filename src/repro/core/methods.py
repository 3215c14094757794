"""Built-in average-RF method registrations.

Imported lazily by :mod:`repro.runtime.registry` the first time the
registry is consulted; importing this module *is* the registration.
Each runner adapts one algorithm to the registry's uniform signature

    runner(query_trees, reference_trees, *, n_workers, include_trivial,
           transform, executor) -> list[float]

where ``reference_trees`` is the query list itself in the Q-is-R
setting.  Capability checks do not live here — the registry's
:meth:`~repro.runtime.registry.MethodSpec.ensure_supported` rejects
unsupported argument combinations before a runner is called, and
methods with ``supports_workers=False`` simply ignore the worker count.
Algorithm modules are imported inside the runners so consulting the
registry (for the CLI's ``--help``, say) stays cheap.
"""

from __future__ import annotations

from repro.runtime.registry import register_method


def _run_bfhrf(query, reference, *, n_workers, include_trivial, transform,
               executor):
    from repro.core.bfhrf import bfhrf_average_rf

    return bfhrf_average_rf(query, reference, n_workers=n_workers,
                            include_trivial=include_trivial,
                            transform=transform, executor=executor)


def _run_ds(query, reference, *, n_workers, include_trivial, transform,
            executor):
    from repro.core.sequential import sequential_average_rf

    return sequential_average_rf(query, reference,
                                 include_trivial=include_trivial,
                                 transform=transform)


def _run_dsmp(query, reference, *, n_workers, include_trivial, transform,
              executor):
    from repro.core.parallel import dsmp_average_rf

    return dsmp_average_rf(query, reference, n_workers=n_workers,
                           include_trivial=include_trivial,
                           transform=transform, executor=executor)


def _run_hashrf(query, reference, *, n_workers, include_trivial, transform,
                executor):
    from repro.core.hashrf import hashrf_average_rf

    return hashrf_average_rf(query, include_trivial=include_trivial)


def _run_mrsrf(query, reference, *, n_workers, include_trivial, transform,
               executor):
    from repro.core.mrsrf import mrsrf_average_rf

    return mrsrf_average_rf(query, n_workers=n_workers,
                            include_trivial=include_trivial,
                            executor=executor)


def _run_shm(query, reference, *, n_workers, include_trivial, transform,
             executor):
    from repro.core.shmrf import shm_average_rf

    return shm_average_rf(query, reference, n_workers=n_workers,
                          include_trivial=include_trivial,
                          transform=transform, executor=executor)


def _scan_shm(query, reference, *, n_taxa, include_trivial):
    from repro.core.shmrf import shm_average_rf_scanned

    return shm_average_rf_scanned(query, reference, n_taxa=n_taxa,
                                  include_trivial=include_trivial)


register_method(
    "bfhrf", _run_bfhrf,
    summary="The paper's Algorithm 2: one streaming hash build, then "
            "tree-vs-hash comparisons (parallel; the reference "
            "implementation every fast path must match bit for bit).",
    memory_class="hash")

register_method(
    "ds", _run_ds,
    summary="DendropySingle baseline (Algorithm 1): per-tree set "
            "comparisons against the reference bipartition table.",
    supports_workers=False,
    memory_class="hash")

register_method(
    "dsmp", _run_dsmp,
    summary="Multiprocessing DendropySingle (§III-B): Algorithm 1 "
            "parallelized at the tree level.",
    memory_class="hash")

register_method(
    "hashrf", _run_hashrf,
    summary="HashRF baseline: all-vs-all matrix through the lossy "
            "two-level hash, averaged per tree.",
    supports_disparate=False,
    supports_transform=False,
    supports_workers=False,
    memory_class="matrix")

register_method(
    "mrsrf", _run_mrsrf,
    summary="MapReduce HashRF (Matthews & Williams 2010) on the in-repo "
            "MapReduce engine.",
    supports_disparate=False,
    supports_transform=False,
    memory_class="matrix")

register_method(
    "shm", _run_shm,
    summary="BFHRF over the sorted split table: every worker probes "
            "the reference's sorted arrays with the vectorized kernel "
            "(fork inherits them, spawn unpickles them once).",
    memory_class="hash",
    fast_path=True,
    scan_runner=_scan_shm)
