"""Lifecycle, leak, and crash tests for the shared-memory payload layer.

The contract under test: segments are invisible to correctness (bitwise
parity is covered in ``test_backend_parity``) and invisible to the
filesystem once their owner releases them — after a clean run, after a
mid-probe exception, after a SIGKILLed fork worker, and after a spawn
worker that never attaches.  ``/dev/shm`` leak checking itself is
enforced suite-wide by an autouse fixture in ``tests/conftest.py``;
the tests here additionally assert emptiness at the interesting
intermediate points.
"""

import os
import pickle
import signal

import multiprocessing as mp

import numpy as np
import pytest

from repro import observability as obs
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.vectorized import VectorizedBFH
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    SharedBFH,
    SharedBFHDescriptor,
    leaked_segments,
    owned_leaked_segments,
)
from repro.core.shmrf import shm_average_rf
from repro.observability.metrics import metrics_snapshot
from repro.runtime import BACKENDS
from tests.conftest import make_collection


@pytest.fixture
def trees():
    return make_collection(n_taxa=12, n_trees=8, seed=404)


@pytest.fixture
def shared(trees):
    bfh = build_bfh(trees)
    with SharedBFH.from_bfh(bfh, 12) as sb:
        yield sb, bfh


class TestSharedBFHLayout:
    def test_round_trips_dict_hash(self, shared):
        sb, bfh = shared
        back = sb.to_bfh()
        assert back.counts == bfh.counts
        assert back.n_trees == bfh.n_trees
        assert back.total == bfh.total
        assert back.include_trivial == bfh.include_trivial

    def test_matches_vectorized_layout_exactly(self, shared, trees):
        sb, bfh = shared
        vbfh = VectorizedBFH.from_bfh(bfh, 12)
        assert np.array_equal(sb.keys, vbfh.keys)
        assert np.array_equal(sb.freqs, vbfh.freqs)

    def test_probe_answers_match_dict(self, shared):
        sb, bfh = shared
        for mask, count in bfh.counts.items():
            assert sb.frequency(mask) == count
        assert sb.frequency(0) == 0  # no stored split is empty

    def test_vectorized_view_is_zero_copy(self, shared):
        sb, _bfh = shared
        vbfh = sb.vectorized()
        assert vbfh.keys.base is not None  # a view, not a sorted copy
        assert np.shares_memory(vbfh.keys, sb.keys)
        assert np.shares_memory(vbfh.freqs, sb.freqs)

    def test_splitless_reference(self):
        from repro.newick import trees_from_string

        stars = trees_from_string("(A,B,C,D);\n(A,B,C,D);")
        with SharedBFH.from_bfh(build_bfh(stars), 4) as sb:
            assert len(sb) == 0
            assert sb.frequency(0b0011) == 0
        assert owned_leaked_segments() == []


class TestLifecycle:
    def test_context_manager_unlinks_on_success(self, trees):
        bfh = build_bfh(trees)
        with SharedBFH.from_bfh(bfh, 12) as sb:
            name = sb.name
            assert name in leaked_segments()
        assert name not in leaked_segments()

    def test_context_manager_unlinks_on_exception(self, trees):
        bfh = build_bfh(trees)
        with pytest.raises(RuntimeError, match="mid-probe"):
            with SharedBFH.from_bfh(bfh, 12) as sb:
                name = sb.name
                sb.frequency(next(iter(bfh.counts)))
                raise RuntimeError("mid-probe failure")
        assert name not in leaked_segments()

    def test_release_is_idempotent(self, trees):
        sb = SharedBFH.from_bfh(build_bfh(trees), 12)
        sb.release()
        sb.release()
        sb.close()
        sb.unlink()
        assert owned_leaked_segments() == []

    def test_attacher_close_does_not_unlink(self, shared):
        sb, bfh = shared
        attached = SharedBFH.attach(sb.descriptor())
        assert np.array_equal(attached.keys, sb.keys)
        attached.release()  # non-owner: close only
        assert sb.name in leaked_segments()
        assert sb.frequency(next(iter(bfh.counts))) > 0

    def test_attached_arrays_are_read_only(self, shared):
        sb, _bfh = shared
        attached = SharedBFH.attach(sb.descriptor())
        try:
            assert not attached.keys.flags.writeable
            assert not attached.freqs.flags.writeable
            with pytest.raises(ValueError):
                attached.freqs[0] = 99
        finally:
            attached.release()

    def test_pickles_as_small_descriptor(self, shared):
        sb, _bfh = shared
        blob = pickle.dumps(sb)
        assert len(blob) < 1024  # descriptor, not the table
        clone = pickle.loads(blob)
        try:
            assert np.array_equal(clone.keys, sb.keys)
            assert np.array_equal(clone.freqs, sb.freqs)
        finally:
            clone.close()

    def test_descriptor_fields(self, shared):
        sb, bfh = shared
        d = sb.descriptor()
        assert isinstance(d, SharedBFHDescriptor)
        assert d.name.startswith(SEGMENT_PREFIX)
        assert d.n_keys == len(bfh.counts)
        assert d.n_trees == bfh.n_trees
        assert d.total == bfh.total


# -- crash-shaped lifecycles --------------------------------------------------
# Helpers must be module-level so spawn children can import them.

def _attach_and_sigkill(descriptor):
    SharedBFH.attach(descriptor)
    os.kill(os.getpid(), signal.SIGKILL)


def _attach_and_exit(descriptor, out):
    attached = SharedBFH.attach(descriptor)
    out.put(int(attached.freqs.sum()))
    attached.close()


def _never_attaches(_descriptor):
    raise RuntimeError("worker died before attaching")


class TestWorkerDeath:
    def test_sigkilled_fork_attacher_does_not_reap_segment(self, shared):
        sb, bfh = shared
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=_attach_and_sigkill, args=(sb.descriptor(),))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        # The parent's segment must have survived the worker's death …
        assert sb.name in leaked_segments()
        assert sb.frequency(next(iter(bfh.counts))) > 0

    def test_spawn_attacher_exit_does_not_reap_segment(self, shared):
        sb, bfh = shared
        ctx = mp.get_context("spawn")
        out = ctx.Queue()
        proc = ctx.Process(target=_attach_and_exit, args=(sb.descriptor(), out))
        proc.start()
        total = out.get(timeout=60)
        proc.join(timeout=60)
        # A clean spawn exit runs the child's resource tracker; without
        # the attach-side unregister it would unlink the parent's name.
        assert total == int(sb.freqs.sum())
        assert sb.name in leaked_segments()
        assert sb.frequency(next(iter(bfh.counts))) > 0

    def test_spawn_worker_that_never_attaches(self, shared):
        sb, _bfh = shared
        ctx = mp.get_context("spawn")
        proc = ctx.Process(target=_never_attaches, args=(sb.descriptor(),))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode != 0
        assert sb.name in leaked_segments()  # still owned by the parent


class TestConsecutiveSpawnFanouts:
    def test_second_fanout_sees_fresh_payload(self, trees):
        """Two spawn fan-outs in a row each score their own payload."""
        other = make_collection(n_taxa=12, n_trees=6, seed=77)
        first = shm_average_rf(trees, trees, n_workers=2, executor="spawn")
        second = shm_average_rf(other, other, n_workers=2, executor="spawn")
        assert first == bfhrf_average_rf(trees, trees)
        assert second == bfhrf_average_rf(other, other)


class TestPayloadAccounting:
    @pytest.mark.parametrize("backend", ["fork", "spawn"])
    def test_payload_bytes_count_the_trees_too(self, backend, trees):
        """The histogram adds the pickled query trees to the segment, so a
        spawn fan-out does not report only the table it shares."""
        if not BACKENDS[backend].available():
            pytest.skip(f"{backend} unavailable here")
        obs.reset()
        obs.enable()
        try:
            shm_average_rf(trees, trees, n_workers=2, executor=backend)
            snapshot = metrics_snapshot()
            segment = snapshot["gauges"]["parallel.shm_payload_bytes"]
            assert segment > 0
            assert snapshot["histograms"]["parallel.payload_bytes"]["max"] \
                > segment
        finally:
            obs.disable()
            obs.reset()
