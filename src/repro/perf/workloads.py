"""Built-in perf workloads, self-registered on import.

Each workload is sized so ``scale=1.0`` finishes in seconds (a smoke
approximation of the paper's Table-I complexity sweep, not the full
14k-tree Avian run — the ``benchmarks/`` suites own paper scale) while
still driving every instrumented subsystem: the executor fan-out
(``parallel.fanout_seconds``), the vectorized probes
(``vectorized.probe_seconds``), and the store shard machinery
(``store.shard_build_seconds`` / ``store.query_seconds``), so a ledger
entry's metrics snapshot carries the histograms the regression gate
watches.

Workloads must be deterministic in everything but wall time: fixed
seeds, result checksums in ``extra`` so a compare can also notice a
*correctness* drift between ledger entries.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from repro.perf.registry import register_benchmark

__all__ = ["scaled_count"]

_SEED = 20260808


def scaled_count(base: int, scale: float, *, floor: int = 4) -> int:
    """Scale a workload size, never below ``floor`` (keeps fan-outs real)."""
    return max(floor, int(round(base * scale)))


def _collection(n_taxa: int, r: int):
    from repro.simulation.datasets import variable_taxa

    return variable_taxa(n_taxa, r=r, seed=_SEED).trees


def _checksum(values) -> float:
    return round(float(sum(values)), 6)


def _run_table1(scale: float) -> dict[str, Any]:
    """The flagship smoke workload: fan-out + vectorized + store in one run.

    Mirrors Table 1's shape (tree-vs-hash average RF over a simulated
    collection) at smoke size, then the same collection through the
    vectorized kernel (``shm`` on threads) and a sharded store build +
    warm query — every subsystem the PR gate wants histograms from.
    """
    from repro.core.bfhrf import bfhrf_average_rf
    from repro.core.shmrf import shm_average_rf
    from repro.store.store import build_store

    trees = _collection(scaled_count(24, scale, floor=8),
                        scaled_count(48, scale, floor=8))
    values = bfhrf_average_rf(trees, trees, n_workers=2)
    vec_values = shm_average_rf(trees, trees, n_workers=2, executor="thread")
    with tempfile.TemporaryDirectory(prefix="bfhrf-bench-") as tmp:
        store = build_store(Path(tmp) / "store", trees, n_workers=2,
                            n_shards=4)
        store_values = store.average_rf(trees[: max(4, len(trees) // 4)])
    return {
        "trees": len(trees),
        "taxa": len(trees[0].taxon_namespace),
        "avg_rf_checksum": _checksum(values),
        "vectorized_checksum": _checksum(vec_values),
        "store_checksum": _checksum(store_values),
    }


def _run_vectorized_probe(scale: float) -> dict[str, Any]:
    """Batched-probe throughput of the NumPy backend alone."""
    from repro.core.vectorized import VectorizedBFH

    trees = _collection(scaled_count(32, scale, floor=8),
                        scaled_count(64, scale, floor=8))
    vbfh = VectorizedBFH.from_trees(trees)
    values = vbfh.average_rf_batch(trees)
    return {
        "trees": len(trees),
        "unique_splits": len(vbfh),
        "checksum": _checksum(values.tolist()),
    }


def _run_store_warm(scale: float) -> dict[str, Any]:
    """Store lifecycle: build, incremental add, compact, warm query."""
    from repro.store.store import build_store

    trees = _collection(scaled_count(16, scale, floor=8),
                        scaled_count(48, scale, floor=12))
    split = max(4, (len(trees) * 3) // 4)
    with tempfile.TemporaryDirectory(prefix="bfhrf-bench-") as tmp:
        store = build_store(Path(tmp) / "store", trees[:split], n_shards=4)
        store.add_trees(trees[split:])
        store.compact()
        values = store.average_rf(trees[: max(4, len(trees) // 4)])
        unique = len(store)
    return {
        "trees": len(trees),
        "unique_splits": unique,
        "checksum": _checksum(values),
    }


def _run_serve_warm(scale: float) -> dict[str, Any]:
    """Daemon request latency: warm store behind the unix-socket protocol.

    Starts an in-process daemon over a prebuilt store and measures the
    per-request round trip (parse + enqueue + probe + reply) a client
    sees, recording p50/p95 — the serving-path numbers the warm-store
    ablation promised, now with the wire in the loop.
    """
    import time

    from repro.newick.writer import write_newick
    from repro.serve import ServeClient, ServeConfig, serving
    from repro.store.store import build_store

    trees = _collection(scaled_count(16, scale, floor=8),
                        scaled_count(64, scale, floor=12))
    query_text = "\n".join(write_newick(t)
                           for t in trees[: max(4, len(trees) // 8)])
    n_requests = scaled_count(40, scale, floor=10)
    with tempfile.TemporaryDirectory(prefix="bfhrf-bench-") as tmp:
        store_dir = Path(tmp) / "store"
        build_store(store_dir, trees, n_shards=2)
        sock = str(Path(tmp) / "serve.sock")
        config = ServeConfig(endpoints=[sock], tail_interval_s=5.0)
        with serving(store_dir, config):
            with ServeClient.connect(sock, retries=5) as client:
                values = client.query(query_text)  # warm the probe table
                latencies = []
                for _ in range(n_requests):
                    t0 = time.perf_counter()
                    values = client.query(query_text)
                    latencies.append(time.perf_counter() - t0)
    latencies.sort()
    return {
        "trees": len(trees),
        "requests": n_requests,
        "p50_ms": 1e3 * latencies[len(latencies) // 2],
        "p95_ms": 1e3 * latencies[min(len(latencies) - 1,
                                      (len(latencies) * 95) // 100)],
        "checksum": _checksum(values),
    }


def _run_serve_overload(scale: float) -> dict[str, Any]:
    """Daemon latency under deliberate overload: 2x admission capacity.

    A tiny-capacity daemon (bounded request queue, short batch window) is
    hammered by twice as many client threads as the queue admits.
    Admission control must shed the excess with typed ``overloaded``
    errors — never a hang — so the extras record both sides of that
    contract: p50/p95 latency of the *accepted* requests (shedding is
    what keeps them fast) and the shed-request count (nonzero proves the
    gate actually engaged at this load).
    """
    import threading
    import time

    from repro.newick.writer import write_newick
    from repro.serve import ServeClient, ServeConfig, serving
    from repro.store.store import build_store
    from repro.util.errors import ServeRequestError

    trees = _collection(scaled_count(12, scale, floor=8),
                        scaled_count(48, scale, floor=12))
    query_text = "\n".join(write_newick(t) for t in trees[:4])
    capacity = 3                       # queue_max_requests: what admission
    n_clients = capacity * 2           # admits; drive it at 2x that
    per_client = scaled_count(12, scale, floor=6)
    latencies: list[float] = []
    outcome = {"accepted": 0, "shed": 0}
    lock = threading.Lock()

    with tempfile.TemporaryDirectory(prefix="bfhrf-bench-") as tmp:
        store_dir = Path(tmp) / "store"
        build_store(store_dir, trees, n_shards=2)
        sock = str(Path(tmp) / "serve.sock")
        config = ServeConfig(endpoints=[sock], tail_interval_s=5.0,
                             batch_window_s=0.02,
                             queue_max_requests=capacity)

        def hammer() -> None:
            with ServeClient.connect(sock, retries=5) as client:
                for _ in range(per_client):
                    t0 = time.perf_counter()
                    try:
                        client.query(query_text)
                    except ServeRequestError as exc:
                        if exc.type != "overloaded":
                            raise
                        with lock:
                            outcome["shed"] += 1
                        time.sleep(0.005)  # token backoff, keep the load on
                        continue
                    with lock:
                        outcome["accepted"] += 1
                        latencies.append(time.perf_counter() - t0)

        with serving(store_dir, config):
            threads = [threading.Thread(target=hammer)
                       for _ in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient.connect(sock, retries=5) as client:
                values = client.query(query_text)
                counters = client.stats()["metrics"]["counters"]
    latencies.sort()
    return {
        "trees": len(trees),
        "clients": n_clients,
        "capacity": capacity,
        "requests": n_clients * per_client,
        "accepted": outcome["accepted"],
        "shed": outcome["shed"],
        "admission_rejected": int(
            counters.get("serve.admission_rejected", 0)),
        "p50_ms": 1e3 * latencies[len(latencies) // 2] if latencies else 0.0,
        "p95_ms": 1e3 * latencies[min(len(latencies) - 1,
                                      (len(latencies) * 95) // 100)]
        if latencies else 0.0,
        "checksum": _checksum(values),
    }


def _run_shm_scaling(scale: float) -> dict[str, Any]:
    """Serial vs parallel zero-copy query throughput at a fixed r.

    One shared segment is built once per run; each mode then answers the
    same tree-vs-hash queries: serial (in-process vectorized probes),
    fork×4 and spawn×4 (workers attach the segment by descriptor).  The
    ``extra`` dict carries per-mode seconds plus the derived speedups the
    issue's acceptance gate reads — and ``cpus`` so a 1-core container's
    honest ~1x fork "speedup" is legible as a hardware bound rather than
    a payload-copy regression.  All three modes must agree bit for bit
    with the dict-hash reference values (``parity`` is asserted, not just
    reported).
    """
    import os
    import time

    from repro.core.bfhrf import bfhrf_average_rf, build_bfh
    from repro.core.shmrf import shm_average_rf
    from repro.runtime import BACKENDS, SharedBFH
    from repro.runtime.executor import shutdown_pools

    trees = _collection(scaled_count(40, scale, floor=12),
                        scaled_count(900, scale, floor=48))
    n_taxa = len(trees[0].taxon_namespace)
    queries = trees[: scaled_count(64, scale, floor=12)]
    want = bfhrf_average_rf(queries, trees, n_workers=1)

    bfh = build_bfh(trees)
    seconds: dict[str, float] = {}
    with SharedBFH.from_bfh(bfh, n_taxa) as shared:
        def run(mode: str, **kwargs) -> None:
            if kwargs:
                # Steady state: pay pool/interpreter spin-up (spawn's cached
                # pool, fork's first COW snapshot) outside the timed region.
                shm_average_rf(queries[:4], shared=shared, **kwargs)
            t0 = time.perf_counter()
            got = shm_average_rf(queries, shared=shared, **kwargs)
            seconds[mode] = time.perf_counter() - t0
            if got != want:
                raise AssertionError(f"shm {mode} drifted from dict bfhrf")

        run("serial")
        for backend in ("fork", "spawn"):
            if BACKENDS[backend].available():
                run(backend, n_workers=4, executor=backend)
        shutdown_pools()

    extra: dict[str, Any] = {
        "trees": len(trees),
        "taxa": n_taxa,
        "queries": len(queries),
        "unique_splits": len(bfh.counts),
        "cpus": os.cpu_count(),
        "checksum": _checksum(want),
        "parity": True,
    }
    for mode, spent in seconds.items():
        extra[f"{mode}_seconds"] = round(spent, 6)
    if "fork" in seconds:
        extra["fork_speedup_x"] = round(seconds["serial"] / seconds["fork"], 3)
    if "spawn" in seconds:
        extra["spawn_speedup_x"] = round(seconds["serial"] / seconds["spawn"], 3)
    if "fork" in seconds and "spawn" in seconds:
        extra["spawn_vs_fork_x"] = round(seconds["spawn"] / seconds["fork"], 3)
    return extra


def _run_store_format(scale: float) -> dict[str, Any]:
    """raw-u64 vs succinct-v1 snapshots at the same r: bytes, cold-open
    seconds, and warm-query parity.

    Builds the same collection into two stores that differ only in the
    snapshot codec, then measures what the codec trades: on-disk
    snapshot bytes (``ratio_x`` is the compression win the ISSUE's ≥3x
    acceptance bar reads), cold ``BFHStore.open`` time (succinct decode
    is more CPU per byte), and warm-query answers, which are *asserted*
    bitwise-identical to each other and to a fresh dict-BFH build —
    compression must never move a bit.

    The taxon floor is 130: three 64-bit key words, the regime the
    succinct codec targets (the ROADMAP's n=144 memory wall), kept even
    at the CI gate's --scale 0.5.
    """
    import time

    from repro.core.bfhrf import bfhrf_average_rf
    from repro.store.store import BFHStore, build_store

    trees = _collection(scaled_count(144, scale, floor=130),
                        scaled_count(300, scale, floor=60))
    queries = trees[: max(8, len(trees) // 8)]
    want = bfhrf_average_rf(queries, trees, n_workers=1)

    extra: dict[str, Any] = {
        "trees": len(trees),
        "taxa": len(trees[0].taxon_namespace),
        "checksum": _checksum(want),
        "parity": True,
    }
    bytes_by_codec: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="bfhrf-bench-") as tmp:
        for codec in ("raw-u64", "succinct-v1"):
            store_dir = Path(tmp) / codec
            store = build_store(store_dir, trees, n_shards=3, codec=codec)
            extra["unique_splits"] = len(store)
            bytes_by_codec[codec] = store._snapshot_bytes()
            t0 = time.perf_counter()
            reopened = BFHStore.open(store_dir)
            cold_open = time.perf_counter() - t0
            got = reopened.average_rf(queries)
            if got != want:
                raise AssertionError(
                    f"{codec} store drifted from the fresh dict-BFH build")
            key = codec.replace("-", "_")
            extra[f"{key}_bytes"] = bytes_by_codec[codec]
            extra[f"{key}_cold_open_seconds"] = round(cold_open, 6)
    extra["ratio_x"] = round(
        bytes_by_codec["raw-u64"] / bytes_by_codec["succinct-v1"], 3)
    return extra


def _run_mapreduce(scale: float) -> dict[str, Any]:
    """The MapReduce engine's three stages over an RF-style job."""
    from repro.core.mrsrf import mrsrf_matrix

    trees = _collection(scaled_count(16, scale, floor=8),
                        scaled_count(24, scale, floor=8))
    matrix, _stats = mrsrf_matrix(trees, n_workers=2)
    return {
        "trees": len(trees),
        "checksum": _checksum(float(v) for row in matrix for v in row),
    }


register_benchmark(
    "table1", _run_table1,
    description="fan-out + vectorized + sharded store, Table-1 shape at "
                "smoke size",
    smoke=True)
register_benchmark(
    "vectorized_probe", _run_vectorized_probe,
    description="NumPy batched-probe throughput (searchsorted + reduceat)",
    smoke=True)
register_benchmark(
    "store_warm", _run_store_warm,
    description="store build / add / compact / warm query lifecycle",
    smoke=True)
register_benchmark(
    "shm_scaling", _run_shm_scaling,
    description="zero-copy shared-segment query scaling: serial vs fork/"
                "spawn workers attached to one segment",
    smoke=True)
register_benchmark(
    "serve_warm", _run_serve_warm,
    description="query-daemon round-trip latency (p50/p95 per request) "
                "against a warm store over the unix-socket protocol",
    smoke=True)
register_benchmark(
    "serve_overload", _run_serve_overload,
    description="admission-control shedding at 2x capacity: accepted-"
                "request p50/p95 latency plus typed overloaded shed count",
    smoke=True)
register_benchmark(
    "store_format", _run_store_format,
    description="raw-u64 vs succinct-v1 snapshots at the same r: on-disk "
                "bytes, cold-open seconds, warm-query parity",
    smoke=True)
register_benchmark(
    "mapreduce", _run_mapreduce,
    description="MapReduce RF matrix (map/shuffle/reduce stage timings)")
