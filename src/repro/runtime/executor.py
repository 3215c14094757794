"""Pluggable executor backends — the one fan-out substrate every layer shares.

The paper's central observation is that tree-vs-hash comparisons are
embarrassingly parallel; everything in this repo that exploits it (the
BFHRF comparison loop, the parallel hash build, DSMP, the MapReduce
engine, the sorted-table probe) fans out the same way: chunk an index
space, publish heavy read-only state to workers, map a range task, fold
small results (and worker metric snapshots) back into the parent.  This
module owns that skeleton once, behind a four-backend interface:

``serial``
    Inline execution in the calling process.  The baseline every other
    backend must match bitwise, and the automatic choice for one worker.
``fork``
    POSIX ``fork`` pool.  Workers inherit the shared payload
    copy-on-write — no pickling of the reference structures at all.
    The fastest start on Linux and the paper's implicit platform.
``spawn``
    Fresh-interpreter pool; the parent pickles the shared payload once
    and every worker unpickles those bytes at pool start.  Slower to
    launch than ``fork`` but available everywhere — platforms without
    ``fork`` get *real* parallelism instead of the silent serial
    fallback the pre-runtime code shipped.
``thread``
    ``ThreadPoolExecutor`` sharing the parent's memory.  Right for
    GIL-light tasks (the NumPy probe kernel behind ``shm``); useless for
    pure-Python loops, but always correct.

Tasks are module-level callables receiving one ``(start, stop)`` index
range and reading the shared payload via :func:`get_payload`; they
return a plain value.

The payload is the only way data reaches a worker.  A reference
:class:`~repro.core.table.BipartitionTable` crosses as its two flat
NumPy arrays, trees as their own flat pickle
(:meth:`repro.trees.tree.Tree.__reduce__`).  Every fan-out builds its
pool and tears it down; no pool outlives a call.  Worker-side metric
capture is the executor's job, not the task's: process backends
snapshot each task's worker-local registry and merge it in the parent,
in-process backends record straight into the live registry.

Backend selection (first match wins):

1. an explicit ``executor=`` argument (string or Executor instance);
2. the process default installed by :func:`set_default_executor`
   (the CLI's global ``--executor`` flag);
3. the ``REPRO_EXECUTOR`` environment variable;
4. auto-detection — ``fork`` where available, else ``spawn``.

Requesting an unavailable backend raises
:class:`~repro.util.errors.ExecutorError` — never a silent downgrade.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro import observability as _obs
from repro.observability.metrics import counter as _metric, gauge as _gauge, \
    histogram as _histogram
from repro.observability.state import enabled as _obs_enabled
from repro.util.chunking import balanced_chunk_count, chunk_indices, \
    default_chunk_size
from repro.util.errors import ExecutorError

__all__ = [
    "Executor", "SerialExecutor", "ThreadExecutor", "ForkExecutor",
    "SpawnExecutor", "BACKENDS", "available_backends", "get_executor",
    "set_default_executor", "default_executor_name", "resolve_workers",
    "fork_available", "get_payload", "fork_payload_pool",
    "worker_task_snapshot", "merge_worker_snapshots", "record_fanout",
    "EXECUTOR_ENV",
]

#: Environment variable consulted when no executor is passed explicitly.
EXECUTOR_ENV = "REPRO_EXECUTOR"

RangeTask = Callable[[tuple[int, int]], Any]


def resolve_workers(n_workers: int | None) -> int:
    """Normalize a worker-count argument (``None``/0/negative → all CPUs)."""
    if n_workers is None or n_workers <= 0:
        return mp.cpu_count()
    return n_workers


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in mp.get_all_start_methods()


# ---------------------------------------------------------------------------
# The shared-payload slot.
#
# The parent publishes heavy read-only state here immediately before
# fanning out; workers (forked children, spawn-initialized children, or
# sibling threads) read it back through get_payload().  Serial and
# thread backends save/restore the previous value so nested fan-outs
# compose.
# ---------------------------------------------------------------------------

_PAYLOAD: Any = None


def get_payload() -> Any:
    """Worker-side accessor for the shared fan-out payload."""
    return _PAYLOAD


def _set_payload(value: Any) -> Any:
    global _PAYLOAD
    previous = _PAYLOAD
    _PAYLOAD = value
    return previous


def _fork_worker_init() -> None:
    """Fork-pool initializer: shed signal plumbing inherited from the parent.

    A forked child shares the parent's signal *wakeup fd* (asyncio's
    ``add_signal_handler`` self-pipe).  Pool teardown SIGTERMs workers;
    left alone, the child's inherited C-level handler would write that
    signal number into the shared pipe and the parent's event loop
    would read it as a SIGTERM *to the parent* — the ``bfhrf serve``
    daemon would gracefully shut itself down after its first fan-out.
    Detach the fd and restore default dispositions, then drop the
    inherited observability state as before.
    """
    if threading.current_thread() is threading.main_thread():
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    _obs.worker_init()


def fork_payload_pool(n_workers: int, payload: Any):
    """A ``fork`` pool whose workers inherit ``payload`` without pickling.

    The parent stashes the payload in the module global, the fork
    snapshots it into every child copy-on-write, and the parent-side slot
    is restored as soon as the pool exists (children already hold their
    snapshot).  Must be used as a context manager.
    """
    if not fork_available():
        raise ExecutorError("the 'fork' start method is unavailable on this "
                            "platform; use the 'spawn' backend instead")
    ctx = mp.get_context("fork")
    previous = _set_payload(payload)
    try:
        # Workers drop the observability state and signal plumbing they
        # inherited from the parent, so the snapshots they return carry
        # only their own work (and pool teardown can't ghost-signal the
        # parent's event loop).
        pool = ctx.Pool(processes=n_workers, initializer=_fork_worker_init)
    finally:
        _set_payload(previous)
    return pool


def _spawn_worker_init(payloads, observing: bool) -> None:
    """Spawn-pool initializer: unpickle the payload, mirror obs state.

    The parent pickled the payload once and queued one copy of the bytes
    per worker.  The garbage collector stays off while a worker unpickles
    them: a payload of trees is one allocation burst of container objects
    that would otherwise trigger collection after collection over a heap
    with nothing to free (1,000 144-taxon trees unpickled in 110-190 ms
    this way, against 0.9-1.5 s with it running).  The payload is then
    frozen, so later collections in the worker skip it too.

    A spawned child starts from a fresh interpreter, so the parent's
    observability enable flag does not carry over the way fork
    inheritance carries it; re-enable recording (metrics only — span
    memory tracing is a parent-side concern) so worker snapshots exist
    to merge.
    """
    payload = payloads.get()
    gc.disable()
    try:
        _set_payload(pickle.loads(payload))
        gc.freeze()  # the payload lives as long as the worker: never scan it
    finally:
        gc.enable()
    if observing:
        from repro.observability.state import enable

        enable()


# ---------------------------------------------------------------------------
# Worker-side metrics hand-off — owned by the executor, not the tasks.
# ---------------------------------------------------------------------------

def worker_task_snapshot(task_t0: float) -> dict[str, Any] | None:
    """Finish one worker task: record its latency, drain metrics *and spans*.

    Used by the process backends' task wrapper.  ``None`` stands for
    "nothing recorded" so the disabled path ships no extra bytes.  Any spans the task
    finished in this worker ride home serialized under the snapshot's
    ``"spans"`` key; :func:`merge_worker_snapshots` grafts them back
    under the dispatching span, so worker-side tracing survives the
    process boundary on ``fork`` and ``spawn`` alike.
    """
    if not _obs_enabled():
        return None
    _histogram("parallel.task_seconds").observe(time.perf_counter() - task_t0)
    _metric("parallel.tasks").inc()
    snapshot = _obs.snapshot_and_reset()
    finished = _obs.finished_spans()
    if finished:
        snapshot["spans"] = [span.to_dict() for span in finished]
        _obs.clear_spans()
    return snapshot


def merge_worker_snapshots(snapshots: Iterable[dict[str, Any] | None]) -> None:
    """Parent-side reduction of per-task worker snapshots."""
    for snapshot in snapshots:
        if snapshot:
            worker_spans = snapshot.pop("spans", None)
            if worker_spans:
                _obs.graft_spans(worker_spans)
            _obs.merge_metrics(snapshot)


def record_fanout(workers: int, chunk_size: int) -> None:
    """Gauge the shape of a fan-out (pool size and chunk size)."""
    if _obs_enabled():
        _gauge("parallel.workers").set(workers)
        _gauge("parallel.chunk_size").set(chunk_size)


def _record_fanout_seconds(t0: float) -> None:
    """Whole fan-out latency (dispatch to last result merged)."""
    if _obs_enabled():
        _histogram("parallel.fanout_seconds").observe(time.perf_counter() - t0)


#: Ceiling for the pickle *probe* (not for actual payload transport):
#: sizing the payload must never cost more than shipping it, so the
#: probe aborts past this and records the cap as a known floor.
PAYLOAD_PROBE_CAP = 1 << 20


class _ProbeCapReached(Exception):
    pass


class _CountingSink:
    """A write-only pickle target that counts bytes and aborts at a cap."""

    __slots__ = ("size", "cap")

    def __init__(self, cap: int):
        self.size = 0
        self.cap = cap

    def write(self, data) -> None:
        self.size += len(data)
        if self.size > self.cap:
            raise _ProbeCapReached


def _capped_pickle_size(shared: Any, cap: int = PAYLOAD_PROBE_CAP) -> float | None:
    """Pickled size of ``shared``, never serializing more than ``cap`` bytes."""
    sink = _CountingSink(cap)
    try:
        pickle.dump(shared, sink, protocol=pickle.HIGHEST_PROTOCOL)
    except _ProbeCapReached:
        return float(cap)
    except Exception:
        # Unpicklable fork payloads are skipped, not failed — fork never
        # needed pickling in the first place.
        return None
    return float(sink.size)


def _record_payload_bytes(shared: Any) -> None:
    """Pickled size of the payload a process fan-out hands its workers.

    What a spawn worker unpickles (a fork worker inherits the same
    objects).  The probe is capped at :data:`PAYLOAD_PROBE_CAP` bytes and
    records the cap as a floor when it trips.
    """
    if not _obs_enabled():
        return
    measured = _capped_pickle_size(shared)
    if measured is not None:
        _histogram("parallel.payload_bytes").observe(measured)


def _finish_task_inline(task_t0: float) -> None:
    """In-process task epilogue: latency straight into the live registry."""
    if _obs_enabled():
        _histogram("parallel.task_seconds").observe(time.perf_counter() - task_t0)
        _metric("parallel.tasks").inc()


def _invoke_inline(task: RangeTask, bounds: tuple[int, int]) -> Any:
    """Run one task in-process (serial/thread): shared registry, no snapshot."""
    t0 = time.perf_counter()
    value = task(bounds)
    _finish_task_inline(t0)
    return value


def _invoke_child(item: tuple[RangeTask, tuple[int, int]]):
    """Run one task in a worker process and ship its metrics back.

    Module-level for picklability; the *data* arrives via fork
    inheritance or the spawn initializer, only ``(task, bounds)`` rides
    in the call.
    """
    task, bounds = item
    t0 = time.perf_counter()
    value = task(bounds)
    return value, worker_task_snapshot(t0)


# ---------------------------------------------------------------------------
# Backends.
# ---------------------------------------------------------------------------

class Executor:
    """One execution backend; stateless, shared singletons in :data:`BACKENDS`.

    ``submit_ranges`` is the whole interface: run ``task`` over chunked
    ``(start, stop)`` ranges of ``n_items`` with ``shared`` published to
    the workers, and return the per-chunk values in range order.  Worker
    metric snapshot/merge and the fan-out gauges are handled here so no
    caller hand-rolls them.
    """

    name = "?"

    def available(self) -> bool:
        return True

    def submit_ranges(self, task: RangeTask, n_items: int, shared: Any, *,
                      n_workers: int | None = 1,
                      chunk_size: int | None = None) -> list[Any]:
        """Run ``task`` over chunked ranges; results come back in range order."""
        raise NotImplementedError

    def _plan(self, n_items: int, n_workers: int | None,
              chunk_size: int | None) -> tuple[int, int]:
        """Resolve (workers, chunk_size), clamping workers to the chunk count."""
        workers = resolve_workers(n_workers)
        size = chunk_size or default_chunk_size(n_items, workers)
        workers = min(workers, balanced_chunk_count(n_items, size))
        return workers, size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SerialExecutor(Executor):
    """Inline execution — the bitwise baseline and the one-worker path."""

    name = "serial"

    def submit_ranges(self, task, n_items, shared, *, n_workers=1,
                      chunk_size=None):
        if n_items <= 0:
            return []
        size = chunk_size or n_items
        record_fanout(1, size)
        t0 = time.perf_counter()
        previous = _set_payload(shared)
        try:
            return [_invoke_inline(task, bounds)
                    for bounds in chunk_indices(n_items, size)]
        finally:
            _set_payload(previous)
            _record_fanout_seconds(t0)


class ThreadExecutor(Executor):
    """Thread pool sharing the parent's memory (for GIL-light tasks)."""

    name = "thread"

    def submit_ranges(self, task, n_items, shared, *, n_workers=1,
                      chunk_size=None):
        if n_items <= 0:
            return []
        workers, size = self._plan(n_items, n_workers, chunk_size)
        record_fanout(workers, size)
        t0 = time.perf_counter()
        previous = _set_payload(shared)
        try:
            if workers <= 1:
                return [_invoke_inline(task, bounds)
                        for bounds in chunk_indices(n_items, size)]
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(lambda b: _invoke_inline(task, b),
                                     chunk_indices(n_items, size)))
        finally:
            _set_payload(previous)
            _record_fanout_seconds(t0)


class _ProcessExecutor(Executor):
    """Shared fan-out skeleton of the two process backends."""

    def _pool(self, workers: int, shared: Any):
        raise NotImplementedError

    def submit_ranges(self, task, n_items, shared, *, n_workers=1,
                      chunk_size=None):
        if n_items <= 0:
            return []
        workers, size = self._plan(n_items, n_workers, chunk_size)
        record_fanout(workers, size)
        _record_payload_bytes(shared)
        t0 = time.perf_counter()
        items = [(task, bounds) for bounds in chunk_indices(n_items, size)]
        with self._pool(workers, shared) as pool:
            results = pool.map(_invoke_child, items)
        merge_worker_snapshots(snap for _value, snap in results)
        _record_fanout_seconds(t0)
        return [value for value, _snap in results]


class ForkExecutor(_ProcessExecutor):
    """``fork`` pool: payload shared by copy-on-write inheritance."""

    name = "fork"

    def available(self) -> bool:
        return fork_available()

    def _pool(self, workers: int, shared: Any):
        return fork_payload_pool(workers, shared)


class SpawnExecutor(_ProcessExecutor):
    """``spawn`` pool: payload pickled once, unpickled by each worker."""

    name = "spawn"

    def _pool(self, workers: int, shared: Any):
        # The payload goes through a queue, not the initializer arguments:
        # those ride each child's start-up pipe, and bytes past the pipe
        # buffer would make every start wait for the previous child to
        # finish importing, so workers would start one after another.
        ctx = mp.get_context("spawn")
        payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        payloads = ctx.SimpleQueue()
        pool = ctx.Pool(processes=workers, initializer=_spawn_worker_init,
                        initargs=(payloads, _obs_enabled()))
        for _ in range(workers):
            payloads.put(payload)
        return pool


BACKENDS: dict[str, Executor] = {
    executor.name: executor
    for executor in (SerialExecutor(), ThreadExecutor(), ForkExecutor(),
                     SpawnExecutor())
}

_DEFAULT_EXECUTOR: str | None = None


def available_backends() -> list[str]:
    """Names of the backends that can run on this platform."""
    return [name for name, ex in BACKENDS.items() if ex.available()]


def set_default_executor(name: str | None) -> None:
    """Install (or clear, with ``None``) the process-wide default backend.

    The CLI's global ``--executor`` flag lands here; it outranks the
    ``REPRO_EXECUTOR`` environment variable and is outranked by explicit
    ``executor=`` arguments.
    """
    global _DEFAULT_EXECUTOR
    if name is not None and name != "auto" and name not in BACKENDS:
        raise ExecutorError(
            f"unknown executor {name!r}; choose from "
            f"{sorted(BACKENDS)} or 'auto'")
    _DEFAULT_EXECUTOR = None if name in (None, "auto") else name


def default_executor_name() -> str:
    """The name ``get_executor(None)`` would resolve, without resolving it."""
    return _DEFAULT_EXECUTOR or os.environ.get(EXECUTOR_ENV) or "auto"


def get_executor(spec: str | Executor | None = None) -> Executor:
    """Resolve an executor: argument > CLI default > env > auto-detect.

    Parameters
    ----------
    spec:
        An :class:`Executor` instance (returned as-is), a backend name,
        ``"auto"``, or ``None`` (fall through the default chain).

    Raises
    ------
    ExecutorError
        Unknown name, or a backend that cannot run on this platform.
    """
    if isinstance(spec, Executor):
        return spec
    name = (spec or default_executor_name()).lower()
    if name == "auto":
        name = "fork" if fork_available() else "spawn"
    executor = BACKENDS.get(name)
    if executor is None:
        raise ExecutorError(
            f"unknown executor {name!r}; choose from "
            f"{sorted(BACKENDS)} or 'auto'")
    if not executor.available():
        raise ExecutorError(
            f"executor {name!r} is unavailable on this platform; available: "
            f"{available_backends()}")
    return executor
