"""Direct tests for the fork-payload pool infrastructure."""

import multiprocessing as mp

import pytest

from repro.runtime.executor import fork_available, fork_payload_pool, get_payload, \
    resolve_workers


def _read_payload(_index):
    return get_payload()


def _call_payload(value):
    return get_payload()(value)


def _sum_range(bounds):
    data = get_payload()
    return sum(data[bounds[0]:bounds[1]])


pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


class TestForkPayloadPool:
    def test_workers_inherit_payload(self):
        with fork_payload_pool(2, {"answer": 42}) as pool:
            results = pool.map(_read_payload, range(4))
        assert all(r == {"answer": 42} for r in results)

    def test_parent_global_cleared(self):
        with fork_payload_pool(2, ("secret",)) as pool:
            # The parent must not keep the payload referenced globally.
            assert get_payload() is None
            pool.map(_read_payload, range(2))

    def test_unpicklable_payload_crosses_fork(self):
        # Lambdas can't cross pickle; fork inheritance carries arbitrary
        # objects without serialization (workers call it, returning ints).
        fn = lambda x: x + 1  # noqa: E731
        with fork_payload_pool(2, fn) as pool:
            results = pool.map(_call_payload, range(4))
        assert results == [1, 2, 3, 4]

    def test_range_tasks(self):
        data = list(range(100))
        with fork_payload_pool(3, data) as pool:
            parts = pool.map(_sum_range, [(0, 50), (50, 100)])
        assert sum(parts) == sum(data)

    def test_sequential_pools_isolated(self):
        with fork_payload_pool(2, "first") as pool:
            first = pool.map(_read_payload, range(2))
        with fork_payload_pool(2, "second") as pool:
            second = pool.map(_read_payload, range(2))
        assert set(first) == {"first"}
        assert set(second) == {"second"}


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_defaults_to_cpu_count(self):
        assert resolve_workers(None) == mp.cpu_count()
        assert resolve_workers(0) == mp.cpu_count()
        assert resolve_workers(-1) == mp.cpu_count()
