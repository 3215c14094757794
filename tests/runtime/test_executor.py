"""Unit tests for the executor abstraction (repro.runtime.executor)."""

import os

import pytest

from repro import observability as obs
from repro.observability.metrics import metrics_snapshot
from repro.runtime import (
    BACKENDS,
    EXECUTOR_ENV,
    available_backends,
    default_executor_name,
    fork_available,
    get_executor,
    get_payload,
    set_default_executor,
)
from repro.runtime.executor import SerialExecutor
from repro.util.errors import ExecutorError

ALL_BACKENDS = ["serial", "thread", "fork", "spawn"]


def _available(name: str) -> bool:
    return BACKENDS[name].available()


def _square_range(bounds):
    base = get_payload()
    return [base + i * i for i in range(bounds[0], bounds[1])]


def _payload_echo(bounds):
    return get_payload()


@pytest.fixture(autouse=True)
def _clean_default():
    set_default_executor(None)
    yield
    set_default_executor(None)


class TestSubmitRanges:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_values_in_range_order(self, backend):
        if not _available(backend):
            pytest.skip(f"{backend} unavailable here")
        blocks = BACKENDS[backend].submit_ranges(
            _square_range, 10, 100, n_workers=3, chunk_size=3)
        assert [v for b in blocks for v in b] == [100 + i * i for i in range(10)]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_items(self, backend):
        if not _available(backend):
            pytest.skip(f"{backend} unavailable here")
        assert BACKENDS[backend].submit_ranges(_square_range, 0, 0,
                                               n_workers=2) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_payload_reaches_workers(self, backend):
        if not _available(backend):
            pytest.skip(f"{backend} unavailable here")
        shared = {"answer": 42}
        blocks = BACKENDS[backend].submit_ranges(
            _payload_echo, 4, shared, n_workers=2, chunk_size=2)
        assert blocks == [shared, shared]

    def test_serial_payload_restored_after_fanout(self):
        SerialExecutor().submit_ranges(_payload_echo, 2, "inner", n_workers=1)
        assert get_payload() is None

    def test_serial_payload_nesting(self):
        def outer(bounds):
            inner = SerialExecutor().submit_ranges(
                _payload_echo, 1, "inner", n_workers=1)
            return (get_payload(), inner)

        blocks = SerialExecutor().submit_ranges(outer, 1, "outer", n_workers=1)
        assert blocks == [("outer", ["inner"])]


class TestWorkerMetrics:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_task_metrics_merged_into_parent(self, backend):
        if not _available(backend):
            pytest.skip(f"{backend} unavailable here")
        obs.reset()
        obs.enable()
        try:
            BACKENDS[backend].submit_ranges(_square_range, 8, 0,
                                            n_workers=2, chunk_size=2)
            snapshot = metrics_snapshot()
            assert snapshot["counters"]["parallel.tasks"] == 4
            # Serial always gauges one worker; real backends fan out.
            assert snapshot["gauges"]["parallel.workers"] == \
                (1 if backend == "serial" else 2)
            assert snapshot["histograms"]["parallel.task_seconds"]["count"] == 4
        finally:
            obs.disable()
            obs.reset()

    def test_spawn_records_parallel_fanout(self):
        """The acceptance criterion: spawn is genuinely parallel, with the
        observability fan-out recorded at workers > 1 (never a silent
        serial downgrade)."""
        obs.reset()
        obs.enable()
        try:
            BACKENDS["spawn"].submit_ranges(_square_range, 6, 1,
                                            n_workers=2, chunk_size=2)
            snapshot = metrics_snapshot()
            assert snapshot["gauges"]["parallel.workers"] > 1
            assert snapshot["counters"]["parallel.tasks"] == 3
        finally:
            obs.disable()
            obs.reset()


class TestResolution:
    def test_explicit_name_wins(self):
        assert get_executor("serial").name == "serial"
        assert get_executor("thread").name == "thread"

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_auto_detects_a_process_backend(self):
        name = get_executor("auto").name
        assert name == ("fork" if fork_available() else "spawn")

    def test_env_variable_consulted(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread")
        assert default_executor_name() == "thread"
        assert get_executor(None).name == "thread"

    def test_default_outranks_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread")
        set_default_executor("serial")
        assert get_executor(None).name == "serial"

    def test_explicit_outranks_default(self):
        set_default_executor("serial")
        assert get_executor("thread").name == "thread"

    def test_unknown_name_raises(self):
        with pytest.raises(ExecutorError):
            get_executor("mpi")
        with pytest.raises(ExecutorError):
            set_default_executor("mpi")

    def test_auto_clears_default(self):
        set_default_executor("thread")
        set_default_executor("auto")
        assert default_executor_name() == os.environ.get(EXECUTOR_ENV, "auto")

    def test_available_backends_always_has_portable_ones(self):
        names = available_backends()
        assert {"serial", "thread", "spawn"} <= set(names)


class _StreamingPart:
    """Each part pickles as a fixed-size blob; module-level so pickle can
    reference the class by import path."""

    nbytes = 0
    served = 0

    def __getstate__(self):
        _StreamingPart.served += 1
        return b"\0" * _StreamingPart.nbytes


class TestPayloadProbe:
    """Satellite regression: the payload gauge must not pickle the world."""

    def _probe(self, shared):
        from repro.runtime.executor import _record_payload_bytes

        obs.reset()
        obs.enable()
        try:
            _record_payload_bytes(shared)
            return metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()

    def test_plain_payload_records_pickled_size(self):
        snapshot = self._probe(list(range(50)))
        size = snapshot["histograms"]["parallel.payload_bytes"]["max"]
        assert 0 < size < 1024

    def test_oversized_payload_records_cap_as_floor(self):
        from repro.runtime.executor import PAYLOAD_PROBE_CAP

        huge = b"x" * (PAYLOAD_PROBE_CAP * 4)
        snapshot = self._probe(huge)
        assert snapshot["histograms"]["parallel.payload_bytes"]["max"] \
            == float(PAYLOAD_PROBE_CAP)

    def test_probe_cap_bounds_serialized_bytes(self):
        from repro.runtime.executor import PAYLOAD_PROBE_CAP, _capped_pickle_size

        _StreamingPart.nbytes = PAYLOAD_PROBE_CAP // 2
        _StreamingPart.served = 0
        payload = tuple(_StreamingPart() for _ in range(100))
        assert _capped_pickle_size(payload) == float(PAYLOAD_PROBE_CAP)
        # The probe stopped within a few parts of the cap instead of
        # serializing all 100 halves (~50 MB).
        assert _StreamingPart.served <= 4

    def test_unpicklable_payload_is_skipped(self):
        snapshot = self._probe(lambda: None)
        assert "parallel.payload_bytes" not in snapshot["histograms"]

    def test_disabled_observability_short_circuits(self, monkeypatch):
        from repro.runtime import executor as ex

        def boom(shared, cap=0):
            raise AssertionError("probe ran while observability was off")

        monkeypatch.setattr(ex, "_capped_pickle_size", boom)
        ex._record_payload_bytes(list(range(10)))  # must be a no-op


def _noop_range(bounds):
    return bounds


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
class TestForkSignalHygiene:
    def test_pool_teardown_does_not_ghost_signal_the_parent(self):
        """A fork fan-out from a process with an asyncio-style signal
        wakeup fd must not echo the workers' teardown SIGTERM back into
        the parent's pipe.

        Forked children share the parent's wakeup fd; pool teardown
        SIGTERMs them, and without the fork initializer detaching the
        fd, the children's inherited C handler writes into the shared
        pipe — the parent's event loop then reads a SIGTERM that was
        never sent to it (the `bfhrf serve` daemon shut itself down
        after its first --workers>1 batch this way).
        """
        import signal
        import socket as socketlib

        read_side, write_side = socketlib.socketpair()
        read_side.setblocking(False)
        write_side.setblocking(False)
        previous_fd = signal.set_wakeup_fd(write_side.fileno())
        previous_term = signal.signal(signal.SIGTERM, lambda *a: None)
        try:
            BACKENDS["fork"].submit_ranges(_noop_range, 8, None, n_workers=2)
            # Pool teardown has SIGTERMed the workers by now; the
            # parent's pipe must still be empty.
            with pytest.raises(BlockingIOError):
                read_side.recv(64)
        finally:
            signal.set_wakeup_fd(previous_fd)
            signal.signal(signal.SIGTERM, previous_term)
            read_side.close()
            write_side.close()
