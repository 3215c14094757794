"""The ``oneshot`` and ``ingest`` workloads, and what every workload shares.

Why these workloads (see also ``README.md`` for the measured shares):

* ``oneshot`` is the paper's own use case -- one ``average_rf`` call on a
  query file against a reference file -- and the heaviest user of the
  Newick parser.
* ``ingest`` is the store's write path on pre-parsed trees, so the
  parser does almost nothing and the store and the table codecs do most
  of the work.
* ``serve`` (``loadgen.py``) is the only workload that runs the daemon's
  queueing and batching, under open-loop load with a concurrent writer.

The timings of ``oneshot`` and ``ingest`` are reported at a reference
CPU speed (:func:`speed_probe`, :func:`scaled_wall`); ``README.md``
("Noise on the reference box") says why.

Nothing here imports the program at module level: ``run.py`` first
checks that the checkout holds it.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
INSECT_TAXA = 144
SPECIES_SEED = 2017          # insect_like's default dataset seed
REFERENCE_TREES = 1000       # R, the reference collection every workload uses
ONESHOT_QUERY = 200          # Q, held-out query trees
INGEST_ADD = 600             # trees added to the built store
INGEST_BATCH = 20            # trees per fsync'd add_trees call
INGEST_SHARDS = 4
INGEST_QUERY = 50            # parity-query trees after the cold open
SETUP_REPEATS = 3
PROBE_LOOPS = 1_000_000      # iterations of speed_probe()'s loop
PROBE_NOMINAL_S = 0.05       # the reference speed: the probe takes this long


class InvalidRun(Exception):
    """The run cannot be scored (e.g. the load generator fell behind)."""


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)


def synthesize(seed: int, n: int):
    """``n`` insect-like gene trees (the recipe of
    ``repro.simulation.datasets.insect_like``: 144 taxa, unweighted MSC
    gene trees in one namespace) drawn with ``seed``.

    The species tree is fixed at ``insect_like``'s own default seed, so a
    seed changes which gene trees are drawn but not how much they
    disagree; otherwise the unique-split count, and every cost that
    follows it, would swing by a third from seed to seed.
    """
    from repro.simulation.birthdeath import birth_death_tree
    from repro.simulation.coalescent import gene_tree_msc
    from repro.simulation.yule import default_labels
    from repro.trees.taxon import TaxonNamespace
    from repro.util.rng import resolve_rng

    ns = TaxonNamespace(default_labels(INSECT_TAXA))
    species = birth_death_tree(ns.labels, namespace=ns, birth_rate=1.0,
                               death_rate=0.2, rng=resolve_rng(SPECIES_SEED))
    gen = resolve_rng(seed)
    trees = []
    for _ in range(n):
        gene = gene_tree_msc(species, pop_scale=1.0, rng=gen)
        for node in gene.preorder():
            node.length = None
        trees.append(gene)
    return trees


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def freeze_inputs() -> None:
    """Move everything alive now -- the generated inputs above all -- out
    of the collector's reach, so garbage collection inside the timed work
    traverses only the program's own objects, as in a fresh process."""
    gc.collect()
    gc.freeze()


def speed_probe() -> float:
    """Seconds that a fixed pure-Python loop of the benchmark's own takes
    now.  It calls nothing in the program, so it times only the speed
    the CPU happens to run at (see :func:`scaled_wall`)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled_wall(result: dict) -> float:
    """A unit's wall time at the reference speed: a unit whose probes
    took 20% longer than ``PROBE_NOMINAL_S`` counts 1/1.2 of its wall
    time.  A change to the program moves this exactly as it moves the
    raw wall time."""
    return result["wall"] * PROBE_NOMINAL_S / result["probe"]


def repeat_units(unit, seconds: float, *, min_units: int = 3) -> list:
    """Run ``unit()`` back to back for about ``seconds``; each call
    returns its measurement dict (with a ``wall`` key), to which this
    adds ``probe``, the mean of :func:`speed_probe` just before and just
    after the call.  Garbage left by one unit is collected, untimed,
    before the next starts."""
    results = []
    start = time.perf_counter()
    while True:
        gc.collect()
        before = speed_probe()
        result = unit()
        result["probe"] = (before + speed_probe()) / 2
        results.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in results)
        if len(results) >= min_units and elapsed + typical > seconds:
            return results


def traced_units(unit, seconds: float):
    """The traced-run protocol shared by the batch workloads: untraced
    units for the first half of the time, then traced units for the
    rest.  Returns ``(untraced, traced, spans)``."""
    untraced = repeat_units(unit, seconds / 2, min_units=1)
    recorder = tracer.install()
    try:
        traced = repeat_units(unit, seconds / 2, min_units=1)
    finally:
        tracer.uninstall()
    return untraced, traced, recorder.spans


def wall_notes(results) -> str:
    """Each unit's raw wall and probe time, for the notes."""
    return " ".join(f"{r['wall']:.3f}/{r['probe']:.4f}" for r in results)


def layer_metrics(agg: dict, units: float) -> dict[str, float]:
    """The per-layer metrics common to every workload, per unit of work."""

    def self_s(*names):
        return sum(agg.get(n, (0.0,))[0] for n in names) / units

    def count(name, col):
        return agg.get(name, [0.0] * 5)[col] / units

    parse_s = self_s("newick.trees_from_string", "newick.read_newick_file")
    parse_bytes = (count("newick.trees_from_string", 4)
                   + count("newick.read_newick_file", 4))
    inserted = count("hashing.build", 3)
    probes = count("vectorized.probe", 3)
    return {
        "newick.parse_s": parse_s,
        "newick.trees": (count("newick.trees_from_string", 3)
                         + count("newick.read_newick_file", 3)),
        "newick.mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "bipartitions.masks_s": self_s("bipartitions.masks"),
        "bipartitions.splits": count("bipartitions.masks", 3),
        "hashing.build_s": self_s("hashing.build"),
        "hashing.splits_inserted": inserted,
        "hashing.unique_ratio": (count("hashing.build", 4) / inserted
                                 if inserted else 0.0),
        "table.sort_s": self_s("table.sort", "table.from_bfh"),
        "table.pack_s": self_s("table.pack"),
        "table.pack_words": count("table.pack", 3),
        "table.encode_s": self_s("table.encode"),
        "table.decode_s": self_s("table.decode"),
        "table.encoded_bytes": count("table.encode", 3),
        "vectorized.probe_s": self_s("vectorized.probe"),
        "vectorized.probe_keys": probes,
        "vectorized.hit_ratio": (count("vectorized.probe", 4) / probes
                                 if probes else 0.0),
        "vectorized.reduce_s": self_s("vectorized.reduce"),
        "store.build_s": self_s("store.build"),
        "store.add_s": self_s("store.add"),
        "store.compact_s": self_s("store.compact"),
        "store.open_s": self_s("store.open"),
        # Inclusive: the whole rebuild a reader pays after a write.
        "store.table_s": count("store.table", 1),
        "store.tail_s": self_s("store.tail"),
        "serve.decode_s": self_s("serve.decode"),
        "serve.encode_s": self_s("serve.encode"),
    }


def share_metrics(agg: dict, wall: float) -> dict[str, float]:
    """Each layer's self time as a share of ``wall``; the rest is
    ``other.share``."""
    per_layer = tracer.layer_self_times(agg)
    out = {f"{layer}.share": spent / wall for layer, spent in per_layer.items()}
    out["other.share"] = max(0.0, 1.0 - sum(per_layer.values()) / wall)
    return out


def no_serve_metrics() -> dict[str, float]:
    """Serve-only per-layer metrics, zero on the batch workloads."""
    names = ["serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
             "serve.batch_p50_ms", "serve.batch_trees_mean",
             "serve.batch_requests_mean", "serve.admission_rejected",
             "serve.reopens", "serve.tail_applied", "serve.state_skew",
             "loadgen.latency_p50_ms", "loadgen.latency_p99_ms",
             "loadgen.lag_p99_ms", "loadgen.sent", "loadgen.writes"]
    return dict.fromkeys(names, 0.0)


def batch_trace_metrics(untraced, traced, spans,
                        extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a batch workload's traced run."""
    agg = tracer.aggregate(spans)
    base = statistics.median(r["wall"] for r in untraced)
    traced_wall = sum(r["wall"] for r in traced)
    metrics = layer_metrics(agg, len(traced))
    metrics.update(share_metrics(agg, traced_wall))
    # Coverage is judged against the untraced wall time of one unit.
    metrics["observability.coverage_ratio"] = (
        sum(tracer.layer_self_times(agg).values()) / len(traced) / base)
    metrics["observability.overhead_ratio"] = (
        statistics.median(r["wall"] for r in traced) / base)
    metrics.update(no_serve_metrics())
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------------
# oneshot
# ---------------------------------------------------------------------------

def run_oneshot(*, seed: int, seconds: int, trace: bool,
                work: Path) -> Outcome:
    """``average_rf(query_file, reference_file)``, default method, one
    worker: parse both files, build the hash, probe the queries."""
    from repro.core.api import average_rf
    from repro.core.bfhrf import bfhrf_average_rf
    from repro.newick.io import write_newick_file

    trees = synthesize(seed, REFERENCE_TREES + ONESHOT_QUERY)
    reference, query = trees[:REFERENCE_TREES], trees[REFERENCE_TREES:]
    want = bfhrf_average_rf(query, reference)
    ref_path, query_path = work / "reference.nwk", work / "query.nwk"
    freeze_inputs()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        write_newick_file(ref_path, reference)
        write_newick_file(query_path, query)
        setups.append(time.perf_counter() - t0)
    input_bytes = ref_path.stat().st_size + query_path.stat().st_size

    def unit():
        t0 = time.perf_counter()
        try:
            values = average_rf(query_path, ref_path, n_workers=1)
        except Exception as exc:  # counted as a failed operation
            return {"wall": time.perf_counter() - t0, "ok": False,
                    "error": repr(exc)}
        wall = time.perf_counter() - t0
        return {"wall": wall, "ok": values == want}

    n_trees = REFERENCE_TREES + ONESHOT_QUERY
    if trace:
        untraced, traced, spans = traced_units(unit, seconds)
        results = untraced + traced
        metrics = batch_trace_metrics(untraced, traced, spans, {
            "store.journal_bytes": 0.0})
    else:
        results = repeat_units(unit, seconds)
        wall = statistics.median(scaled_wall(r) for r in results)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "trees_per_s": n_trees / wall,
            "capacity_rps": 1.0 / wall,
            "peak_rss_mb": peak_rss_mb(),
            "bytes_per_tree": input_bytes / n_trees,
        }
    failed = sum(1 for r in results if not r["ok"])
    notes = [f"{len(results)} average_rf calls of Q={ONESHOT_QUERY} against "
             f"R={REFERENCE_TREES}; a request is one call; wall/probe s "
             + wall_notes(results)]
    notes += [r["error"] for r in results if "error" in r]
    return Outcome(metrics, attempted=len(results), failed=failed,
                   notes=notes)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern))


def run_ingest(*, seed: int, seconds: int, trace: bool,
               work: Path) -> Outcome:
    """The write path on pre-parsed trees: bulk build, fsync'd adds,
    compaction, a cold open, and a parity query on the reopened store."""
    from repro.core.bfhrf import bfhrf_average_rf, build_bfh
    from repro.store import store as store_module

    total = REFERENCE_TREES + INGEST_ADD
    trees = synthesize(seed, total + INGEST_QUERY)
    base, delta = trees[:REFERENCE_TREES], trees[REFERENCE_TREES:total]
    query = trees[total:]
    bfh = build_bfh(trees[:total])
    want = bfhrf_average_rf(query, bfh=bfh)
    want_unique = len(bfh)
    del bfh
    batches = [delta[i:i + INGEST_BATCH]
               for i in range(0, len(delta), INGEST_BATCH)]
    ops_per_cycle = len(batches) + 4   # build, adds, compact, open, query
    freeze_inputs()

    # Set-up is what a writer pays before its first tree: a fresh
    # process importing the store and creating an empty one (directory,
    # journal and manifest, each made durable).
    setups = []
    create = ("import sys; from repro.store.store import BFHStore; "
              "BFHStore.create(sys.argv[1])")
    for i in range(SETUP_REPEATS):
        target = work / f"empty-{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", create, str(target)],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       check=True, timeout=120)
        setups.append(time.perf_counter() - t0)
        shutil.rmtree(target)

    store_dir = work / "store"

    def unit():
        shutil.rmtree(store_dir, ignore_errors=True)
        result = {"ok": False, "adds": []}
        started = time.perf_counter()
        try:
            t0 = time.perf_counter()
            # Looked up per call, so a traced run reaches the shim.
            store = store_module.build_store(store_dir, base,
                                             n_shards=INGEST_SHARDS)
            result["build"] = time.perf_counter() - t0
            for batch in batches:
                t0 = time.perf_counter()
                store.add_trees(batch)
                result["adds"].append(time.perf_counter() - t0)
            result["journal_bytes"] = _dir_bytes(store_dir, "journal-*.log")
            t0 = time.perf_counter()
            store.compact()
            result["compact"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            reopened = store_module.BFHStore.open(store_dir)
            result["open"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            values = reopened.average_rf(query)
            result["query"] = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed cycle
            result["error"] = repr(exc)
            result["wall"] = time.perf_counter() - started
            return result
        result["wall"] = (result["build"] + sum(result["adds"])
                          + result["compact"] + result["open"]
                          + result["query"])
        result["snapshot_bytes"] = _dir_bytes(store_dir, "*.snap")
        result["ok"] = (values == want and reopened.n_trees == total
                        and len(reopened) == want_unique)
        return result

    if trace:
        untraced, traced, spans = traced_units(unit, seconds)
        results = untraced + traced
        metrics = batch_trace_metrics(untraced, traced, spans, {
            "store.journal_bytes": statistics.mean(
                r.get("journal_bytes", 0) for r in traced)})
    else:
        results = repeat_units(unit, seconds)
        done = [r for r in results if "error" not in r]
        if not done:
            raise InvalidRun("every ingest cycle raised: "
                             + results[0]["error"])
        wall = statistics.median(scaled_wall(r) for r in done)
        # The rates are per cycle, as wall_s is: the add phase alone is
        # 30 fsyncs, and its rate spread 27-34% between runs of the same
        # code on the reference box's shared disk.
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "trees_per_s": total / wall,
            "capacity_rps": ops_per_cycle / wall,
            "peak_rss_mb": peak_rss_mb(),
            "bytes_per_tree": statistics.median(
                r["snapshot_bytes"] for r in done) / total,
        }
    failed_cycles = [r for r in results if not r["ok"]]
    notes = [f"{len(results)} ingest cycles; a request is one store "
             f"operation, {ops_per_cycle} per cycle (build, {len(batches)} "
             f"fsync'd add_trees batches of {INGEST_BATCH} trees, compact, "
             "open, query); wall/probe s " + wall_notes(results),
             "add phase s " + " ".join(f"{sum(r['adds']):.3f}"
                                       for r in results)]
    notes += [r["error"] for r in failed_cycles if "error" in r]
    return Outcome(metrics, attempted=len(results) * ops_per_cycle,
                   failed=len(failed_cycles) * ops_per_cycle, notes=notes)


def _run_serve(**kwargs) -> Outcome:
    import loadgen

    return loadgen.run_serve(**kwargs)


WORKLOADS = {"oneshot": run_oneshot, "ingest": run_ingest,
             "serve": _run_serve}
