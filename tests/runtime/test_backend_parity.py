"""Backend-parity matrix: every executor must produce bitwise-identical
results for the core parallel paths (bfhrf, shm, dsmp), and the merged
worker metrics and spans must account for every task.

The matrix covers layouts as well as backends: dict (bfhrf) and the
sorted table (in-process, inherited by fork, unpickled by spawn) must
agree with the serial dict path exactly on every executor.

This is the test-suite twin of the ``backend-parity`` selfcheck oracle.
"""

import pytest

from repro import observability as obs
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.parallel import dsmp_average_rf
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable
from repro.observability.metrics import metrics_snapshot
from repro.runtime import BACKENDS, get_executor, get_payload, \
    set_default_executor

ALL_BACKENDS = ["serial", "thread", "fork", "spawn"]


def _traced_range(bounds):
    """A worker task that opens a span (module level, so spawn workers
    can import it)."""
    lo, hi = bounds
    with obs.trace("parity.task", lo=lo, hi=hi):
        return sum(get_payload()[lo:hi])


def _skip_unless_available(backend: str) -> None:
    if not BACKENDS[backend].available():
        pytest.skip(f"{backend} unavailable here")


@pytest.fixture(autouse=True)
def _clean_default():
    set_default_executor(None)
    yield
    set_default_executor(None)


@pytest.fixture(scope="module")
def trees():
    from tests.conftest import make_collection

    return make_collection(n_taxa=16, n_trees=12, seed=7)


class TestBfhrfParity:
    @pytest.fixture(scope="class")
    def serial_values(self, trees):
        return bfhrf_average_rf(trees, trees, n_workers=1)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bitwise_identical(self, backend, trees, serial_values):
        _skip_unless_available(backend)
        values = bfhrf_average_rf(trees, trees, n_workers=2,
                                  executor=backend)
        assert values == serial_values

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_build_bfh_identical(self, backend, trees):
        _skip_unless_available(backend)
        serial = build_bfh(trees, n_workers=1)
        parallel = build_bfh(trees, n_workers=2, executor=backend)
        assert parallel.counts == serial.counts
        assert parallel.n_trees == serial.n_trees
        assert parallel.total == serial.total


class TestShmParity:
    """The shipped table layout vs the serial dict path, per backend."""

    @pytest.fixture(scope="class")
    def serial_values(self, trees):
        return bfhrf_average_rf(trees, trees, n_workers=1)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bitwise_identical(self, backend, trees, serial_values):
        _skip_unless_available(backend)
        values = shm_average_rf(trees, trees, n_workers=2, executor=backend)
        assert values == serial_values

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_vectorized_layout_agrees(self, backend, trees, serial_values):
        """The in-process vectorized layout, passed in as a table and
        fanned out, scores exactly like the dict path."""
        _skip_unless_available(backend)
        table = BipartitionTable.from_bfh(build_bfh(trees),
                                          len(trees[0].taxon_namespace))
        assert table.vectorized().average_rf_batch(trees).tolist() \
            == serial_values
        values = shm_average_rf(trees, table=table, n_workers=2,
                                executor=backend)
        assert values == serial_values

    def test_second_spawn_fanout_sees_fresh_payload(self, trees):
        """Two spawn fan-outs in a row each score their own payload."""
        _skip_unless_available("spawn")
        from tests.conftest import make_collection

        other = make_collection(n_taxa=12, n_trees=6, seed=77)
        first = shm_average_rf(trees, trees, n_workers=2, executor="spawn")
        second = shm_average_rf(other, other, n_workers=2, executor="spawn")
        assert first == bfhrf_average_rf(trees, trees)
        assert second == bfhrf_average_rf(other, other)

    def test_serial_worker_count_uses_no_segments(self, trees, serial_values):
        assert shm_average_rf(trees, trees, n_workers=1) == serial_values

    @pytest.mark.parametrize("backend", ["fork", "spawn"])
    def test_merged_worker_metrics(self, backend, trees):
        _skip_unless_available(backend)
        obs.reset()
        obs.enable()
        try:
            shm_average_rf(trees, trees, n_workers=2, executor=backend)
            snapshot = metrics_snapshot()
            tasks = snapshot["counters"]["parallel.tasks"]
            assert tasks >= 2
            assert snapshot["histograms"]["parallel.task_seconds"]["count"] \
                == tasks
            # The payload carries the whole reference table, and the
            # query trees on top of it.
            table = BipartitionTable.from_bfh(
                build_bfh(trees), len(trees[0].taxon_namespace))
            payload = snapshot["histograms"]["parallel.payload_bytes"]
            assert payload["count"] == 1
            assert payload["max"] > table.keys.nbytes + table.counts.nbytes
        finally:
            obs.disable()
            obs.reset()


class TestDsmpParity:
    @pytest.fixture(scope="class")
    def serial_values(self, trees):
        return dsmp_average_rf(trees, trees, n_workers=1)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bitwise_identical(self, backend, trees, serial_values):
        _skip_unless_available(backend)
        values = dsmp_average_rf(trees, trees, n_workers=2,
                                 executor=backend)
        assert values == serial_values


class TestMergedWorkerMetrics:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_task_accounted_for(self, backend, trees):
        _skip_unless_available(backend)
        obs.reset()
        obs.enable()
        try:
            bfhrf_average_rf(trees, trees, n_workers=2, executor=backend)
            snapshot = metrics_snapshot()
            tasks = snapshot["counters"]["parallel.tasks"]
            # Serial runs everything as one chunk; the others split work.
            assert tasks >= (1 if backend == "serial" else 2)
            assert snapshot["histograms"]["parallel.task_seconds"]["count"] == tasks
            expected_workers = 1 if backend == "serial" else 2
            assert snapshot["gauges"]["parallel.workers"] == expected_workers
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fanout_latency_and_payload_recorded(self, backend, trees):
        _skip_unless_available(backend)
        obs.reset()
        obs.enable()
        try:
            bfhrf_average_rf(trees, trees, n_workers=2, executor=backend)
            snapshot = metrics_snapshot()
            fanout = snapshot["histograms"]["parallel.fanout_seconds"]
            assert fanout["count"] >= 1
            assert fanout["max"] >= 0.0
            if backend in ("fork", "spawn"):
                payload = snapshot["histograms"]["parallel.payload_bytes"]
                assert payload["count"] >= 1
                assert payload["min"] > 0
        finally:
            obs.disable()
            obs.reset()


def _collect_span_names(spans):
    names = []
    for span in spans:
        names.append(span.name)
        names.extend(_collect_span_names(span.children))
    return names


class TestWorkerSpanParity:
    """Worker-side spans must survive every backend, including spawn.

    ``_traced_range`` opens a ``parity.task`` span inside the worker;
    the process executors ship finished span subtrees home in the worker
    snapshot and graft them under the dispatching span, so the report
    shows the same tree shape regardless of backend.
    """

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_worker_spans_present(self, backend):
        _skip_unless_available(backend)
        obs.reset()
        obs.enable()
        try:
            with obs.trace("parity.dispatch"):
                sums = get_executor(backend).submit_ranges(
                    _traced_range, 12, list(range(12)), n_workers=2)
            assert sum(sums) == sum(range(12))
            roots = obs.finished_spans()
            # Thread-pool workers have their own (empty) span stacks, so
            # their spans surface as extra roots; every other backend
            # nests them under the dispatching span.
            assert "parity.dispatch" in [r.name for r in roots]
            names = _collect_span_names(roots)
            assert "parity.task" in names
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("backend", ["serial", "fork", "spawn"])
    def test_grafted_spans_nest_under_dispatching_span(self, backend):
        _skip_unless_available(backend)
        obs.reset()
        obs.enable()
        try:
            with obs.trace("parity.dispatch"):
                sums = get_executor(backend).submit_ranges(
                    _traced_range, 12, list(range(12)), n_workers=2)
            assert sum(sums) == sum(range(12))
            (root,) = obs.finished_spans()
            counts = [c for c in root.children if c.name == "parity.task"]
            # One span per chunk: serial runs a single chunk inline, the
            # process backends split across two workers and graft home.
            assert len(counts) >= (1 if backend == "serial" else 2)
            for span in counts:
                assert span.wall_s is not None and span.wall_s >= 0.0
        finally:
            obs.disable()
            obs.reset()
