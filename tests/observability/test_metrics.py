"""Metrics: registry semantics, snapshot/merge, and the fork-worker path."""

import pytest

import repro.observability as obs
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.parallel import dsmp_average_rf
from repro.core.shmrf import shm_average_rf
from repro.newick import trees_from_string
from repro.observability.metrics import MetricsRegistry
from repro.runtime import fork_available
from repro.simulation.datasets import variable_taxa
from repro.store.store import build_store

NEWICK = "((A,B),(C,D));\n((A,C),(B,D));\n((A,B),(C,D));\n((A,D),(B,C));\n"

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.snapshot()["counters"]["x"] == 5

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(2)
        reg.gauge("workers").set(8)
        assert reg.snapshot()["gauges"]["workers"] == 8

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = reg.snapshot()["histograms"]["lat"]
        assert s["count"] == 3
        assert s["sum"] == 6.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == 2.0
        assert sum(s["buckets"].values()) == 3
        assert all(isinstance(k, str) for k in s["buckets"])

    def test_histogram_quantiles_bounded_by_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.001, 0.002, 0.004, 0.008, 0.5, 1.0):
            h.observe(v)
        s = h.summary()
        assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_histogram_single_value_quantiles_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.25)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["p99"] == 0.25

    def test_empty_histogram_summary_is_zeroed(self):
        reg = MetricsRegistry()
        assert reg.histogram("empty").summary()["count"] == 0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.counter("only_b").inc(1)
        a.merge(b.snapshot())
        snap = a.snapshot()["counters"]
        assert snap["n"] == 7
        assert snap["only_b"] == 1

    def test_histograms_combine(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat").observe(1.0)
        b.histogram("lat").observe(5.0)
        b.histogram("lat").observe(3.0)
        a.merge(b.snapshot())
        s = a.snapshot()["histograms"]["lat"]
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 5.0
        assert s["sum"] == 9.0
        assert sum(s["buckets"].values()) == 3

    def test_bucketless_legacy_summary_merges_moments(self):
        a = MetricsRegistry()
        a.histogram("lat").observe(1.0)
        a.merge({"histograms": {"lat": {"count": 2, "sum": 8.0,
                                        "min": 3.0, "max": 5.0}}})
        s = a.snapshot()["histograms"]["lat"]
        assert s["count"] == 3 and s["sum"] == 9.0
        assert s["min"] == 1.0 and s["max"] == 5.0

    def test_empty_histogram_does_not_poison_min_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat").observe(2.0)
        b.histogram("lat")  # created but never observed
        a.merge(b.snapshot())
        s = a.snapshot()["histograms"]["lat"]
        assert s["count"] == 1 and s["sum"] == 2.0
        assert s["min"] == 2.0 and s["max"] == 2.0 and s["mean"] == 2.0

    def test_merge_round_trips_through_snapshot(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1.5)
        a.histogram("h").observe(4.0)
        b = MetricsRegistry()
        b.merge(a.snapshot())
        assert b.snapshot() == a.snapshot()


class TestInstrumentation:
    def test_parser_counts_trees(self, observed):
        trees_from_string(NEWICK)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["newick.trees_parsed"] == 4

    def test_bfh_counts_hashed_and_hits(self, observed):
        trees = trees_from_string(NEWICK)
        obs.clear_metrics()
        bfh = build_bfh(trees)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["bfh.bipartitions_hashed"] == 4  # one split/tree
        bfhrf_average_rf(trees, bfh=bfh)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["bfh.hash_hits"] + \
            snap["counters"].get("bfh.hash_misses", 0) == 4

    def test_fan_out_probe_and_store_record_histograms(self, observed,
                                                        tmp_path):
        trees = variable_taxa(8, r=12, seed=20260808).trees
        bfhrf_average_rf(trees, trees, n_workers=2)
        shm_average_rf(trees, trees, n_workers=2, executor="thread")
        store = build_store(tmp_path / "store", trees, n_workers=2,
                            n_shards=4)
        store.average_rf(trees[:4])
        hists = obs.metrics_snapshot()["histograms"]
        for name in ("parallel.fanout_seconds", "vectorized.probe_seconds",
                     "store.shard_build_seconds", "store.query_seconds",
                     "store.shard_write_seconds"):
            assert name in hists, f"missing {name}"

    def test_disabled_records_nothing(self):
        assert not obs.enabled()
        trees = trees_from_string(NEWICK)
        bfhrf_average_rf(trees)
        assert obs.metrics_snapshot() == {"counters": {}, "gauges": {},
                                          "histograms": {}}


@needs_fork
class TestForkWorkerMerge:
    def test_parallel_query_metrics_come_home(self, observed):
        trees = trees_from_string(NEWICK)
        obs.clear_metrics()
        values = bfhrf_average_rf(trees, n_workers=2, chunk_size=1)
        assert len(values) == 4
        snap = obs.metrics_snapshot()
        # One chunk task per tree, executed in the workers, merged back.
        assert snap["counters"]["parallel.tasks"] == 4
        assert snap["histograms"]["parallel.task_seconds"]["count"] == 4
        assert snap["gauges"]["parallel.workers"] == 2

    def test_parent_counts_not_doubled(self, observed):
        trees = trees_from_string(NEWICK)  # counts 4 parses in the parent
        before = obs.metrics_snapshot()["counters"]["newick.trees_parsed"]
        bfhrf_average_rf(trees, n_workers=2)
        after = obs.metrics_snapshot()["counters"]["newick.trees_parsed"]
        # Workers inherit the parent registry via fork; worker_init must
        # reset it or the 4 parses would ride back with every snapshot.
        assert after == before

    def test_dsmp_merges_worker_metrics(self, observed):
        trees = trees_from_string(NEWICK)
        obs.clear_metrics()
        dsmp_average_rf(trees, trees, n_workers=2, chunk_size=2)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["parallel.tasks"] >= 2
        assert snap["counters"]["ds.set_comparisons"] == 16  # 4 queries × r=4

    def test_serial_parallel_same_counters(self, observed):
        trees = trees_from_string(NEWICK)
        obs.clear_metrics()
        bfhrf_average_rf(trees)
        serial = obs.metrics_snapshot()["counters"]
        obs.clear_metrics()
        bfhrf_average_rf(trees, n_workers=2)
        parallel = obs.metrics_snapshot()["counters"]
        for name in ("bfh.bipartitions_hashed", "bfh.hash_hits"):
            assert parallel.get(name, 0) == serial.get(name, 0), name
