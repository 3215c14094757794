"""A zero-copy shared-memory reference table for process fan-outs.

The executor ablation (``BENCH_ablation_workers``) showed why the
paper's "embarrassingly parallel" comparison loop was not paying off in
process backends: every fan-out re-shipped the pickled BFH to every
worker — ~30x overhead on ``spawn``.  :class:`SharedBFH` fixes that for
the one structure worth sharing: the BFH's bitmask keys and counts laid
out as flat *sorted* arrays (the same ``(U, n_words)`` ``uint64`` +
``int64`` layout the vectorized backend probes with ``searchsorted``) in
one :mod:`multiprocessing.shared_memory` segment.  Workers attach
read-only; nothing about the table is ever pickled — its ``__reduce__``
ships only a :class:`SharedBFHDescriptor` of a few dozen bytes, so any
executor payload holding one crosses the process boundary as that
descriptor.  Trees are not shared this way: they cross in the ordinary
payload, as their own flat pickle.

Lifecycle contract
------------------
The *creating* process owns the segment: ``close()`` + ``unlink()`` (or
the ``with`` block, or :meth:`release`) must run on success and failure
alike — every fan-out in :mod:`repro.core.shmrf` wraps its segments in
``try/finally``.  Workers only ever ``close()``.  On this Python,
``SharedMemory`` registers *attached* segments with the per-process
resource tracker too (bpo-38119), which would let a dying worker's
tracker unlink the parent's live segment; worker-side attaches therefore
unregister themselves immediately — worker death (even SIGKILL) never
reaps a segment the parent still owns.

``leaked_segments()`` lists ``/dev/shm`` entries carrying this module's
name prefix — the test suite asserts it is empty after every lifecycle
test and after the whole run.
"""

from __future__ import annotations

import os
import secrets
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.observability.metrics import counter as _metric, gauge as _gauge, \
    histogram as _histogram
from repro.observability.state import enabled as _obs_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports runtime)
    from repro.core.vectorized import VectorizedBFH
    from repro.hashing.bfh import BipartitionFrequencyHash

__all__ = [
    "SEGMENT_PREFIX", "SharedBFH", "SharedBFHDescriptor",
    "leaked_segments", "owned_leaked_segments",
]

#: Every segment this module creates is named ``bfhrf-<12 hex chars>`` —
#: short enough for macOS's 31-byte PSM name limit, unique enough for
#: concurrent suites, and greppable in ``/dev/shm`` for leak checks.
SEGMENT_PREFIX = "bfhrf-"

_SHM_DIR = "/dev/shm"


def _new_segment_name() -> str:
    return SEGMENT_PREFIX + secrets.token_hex(6)


#: Names of segments created (and not yet unlinked) by *this* process —
#: the process-local side of the leak accounting.  ``leaked_segments()``
#: scans all of ``/dev/shm``, which is a machine-global namespace: a
#: concurrent ``bfhrf`` process's perfectly healthy transient segment
#: would look like a leak there.  Owned-name tracking cannot be fooled
#: that way.
_OWNED_NAMES: set[str] = set()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a fresh uniquely-named segment (never attaches to a stale one)."""
    while True:
        try:
            shm = shared_memory.SharedMemory(
                name=_new_segment_name(), create=True, size=max(1, nbytes))
        except FileExistsError:  # pragma: no cover - 48-bit collision
            continue
        _OWNED_NAMES.add(shm.name)
        if _obs_enabled():
            _metric("shm.segments_created").inc()
            _gauge("shm.segment_bytes").set(shm.size)
        return shm


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* resource-tracker ownership.

    Python 3.12 and older register attached segments with the resource
    tracker exactly like created ones, so a worker process exiting (or
    being SIGKILLed, which triggers its tracker's cleanup of everything
    still registered) would unlink the parent's segment.  Unregistering
    right after attach restores the obvious ownership rule: only the
    creator's tracker may reap the name.
    """
    t0 = time.perf_counter()
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass
    if _obs_enabled():
        _histogram("shm.attach_seconds").observe(time.perf_counter() - t0)
    return shm


def leaked_segments() -> list[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    Empty on platforms without ``/dev/shm``; the leak tests skip there.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


def owned_leaked_segments() -> list[str]:
    """Segments created by this process whose names still exist.

    The suite-wide leak fixture uses this instead of raw
    :func:`leaked_segments` so that an unrelated concurrent process
    exercising shared memory under the same prefix cannot fail a test.
    """
    existing = set(leaked_segments())
    return sorted(name for name in _OWNED_NAMES if name in existing)


# ---------------------------------------------------------------------------
# SharedBFH.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedBFHDescriptor:
    """Everything a worker needs to attach: the name plus array shape."""

    name: str
    n_keys: int
    n_words: int
    n_trees: int
    total: int
    include_trivial: bool


class SharedBFH:
    """The BFH as flat sorted arrays in one shared-memory segment.

    Layout: ``keys`` — ``(n_keys, n_words)`` ``uint64`` rows, sorted
    under the vectorized backend's void-byte order — followed by
    ``freqs`` — ``(n_keys,)`` ``int64``.  Probes are exactly
    :class:`~repro.core.vectorized.VectorizedBFH` probes over views of
    the segment (:meth:`vectorized` wraps without copying or re-sorting),
    so results are bitwise-identical to the dict BFH by construction —
    the property the selfcheck ``shm-roundtrip`` oracle enforces.

    Create with :meth:`from_bfh` / :meth:`from_table` (owner) or
    :meth:`attach` (worker).  Pickling ships only the descriptor.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 descriptor: SharedBFHDescriptor, *, owner: bool):
        self._shm: shared_memory.SharedMemory | None = shm
        self._descriptor = descriptor
        self._owner = owner
        self._unlinked = False
        n_keys, n_words = descriptor.n_keys, descriptor.n_words
        keys_nbytes = n_keys * n_words * 8
        keys = np.frombuffer(shm.buf, dtype=np.uint64,
                             count=n_keys * n_words).reshape(n_keys, n_words)
        freqs = np.frombuffer(shm.buf, dtype=np.int64, count=n_keys,
                              offset=keys_nbytes)
        keys.flags.writeable = owner
        freqs.flags.writeable = owner
        self.keys = keys
        self.freqs = freqs

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_bfh(cls, bfh: "BipartitionFrequencyHash",
                 n_taxa: int) -> "SharedBFH":
        """Lay a dict-backed hash out in shared memory (the owner side)."""
        # The canonical table defines the sort order the probes rely on;
        # building through it guarantees the segment's order is the
        # probe's order.  Lazy import: core imports runtime, never the
        # reverse at module scope.
        from repro.core.table import BipartitionTable

        return cls.from_table(BipartitionTable.from_bfh(bfh, n_taxa))

    @classmethod
    def from_table(cls, table: "BipartitionTable") -> "SharedBFH":
        """Copy a canonical table into a fresh segment (the owner side).

        Table rows are already in the probe order the segment's readers
        assume, so this is one memcpy per array — no re-sort.
        """
        n_keys, n_words = table.keys.shape
        shm = _create_segment(n_keys * n_words * 8 + n_keys * 8)
        descriptor = SharedBFHDescriptor(
            name=shm.name, n_keys=n_keys, n_words=n_words,
            n_trees=table.n_trees, total=table.total,
            include_trivial=table.include_trivial)
        shared = cls(shm, descriptor, owner=True)
        shared.keys[:] = table.keys
        shared.freqs[:] = table.counts
        shared.keys.flags.writeable = False
        shared.freqs.flags.writeable = False
        return shared

    @classmethod
    def attach(cls, descriptor: SharedBFHDescriptor) -> "SharedBFH":
        """Worker-side read-only attach (resource-tracker-unregistered)."""
        return cls(_attach_segment(descriptor.name), descriptor, owner=False)

    def __reduce__(self):
        return (SharedBFH.attach, (self.descriptor(),))

    # -- introspection --------------------------------------------------------

    def descriptor(self) -> SharedBFHDescriptor:
        return self._descriptor

    @property
    def name(self) -> str:
        return self._descriptor.name

    @property
    def n_trees(self) -> int:
        return self._descriptor.n_trees

    @property
    def total(self) -> int:
        return self._descriptor.total

    @property
    def n_words(self) -> int:
        return self._descriptor.n_words

    @property
    def include_trivial(self) -> bool:
        return self._descriptor.include_trivial

    @property
    def nbytes(self) -> int:
        """Actual segment size in bytes (what one fan-out shares, not ships)."""
        return self._shm.size if self._shm is not None else 0

    def segment_nbytes(self) -> int:
        """Executor payload-probe protocol: bytes shared, without pickling."""
        return self.nbytes

    def __len__(self) -> int:
        return self._descriptor.n_keys

    # -- views and probes -----------------------------------------------------

    def vectorized(self, *, transform=None) -> "VectorizedBFH":
        """A :class:`VectorizedBFH` probing the shared arrays zero-copy."""
        from repro.core.vectorized import VectorizedBFH

        return VectorizedBFH(self.keys, self.freqs, self.n_trees, self.total,
                             include_trivial=self.include_trivial,
                             transform=transform)

    def frequency(self, mask: int) -> int:
        """Reference-tree count for one mask (0 when absent) — probe path."""
        from repro.core.table import masks_to_words

        words = masks_to_words([mask], self._descriptor.n_words)
        return int(self.vectorized()._lookup(words)[0])

    def to_bfh(self) -> "BipartitionFrequencyHash":
        """Reconstruct the dict-backed hash (round-trip / verification aid)."""
        return self.vectorized().table(64 * self.n_words).to_bfh()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent; owner keeps the name)."""
        if self._shm is None:
            return
        self.keys = None
        self.freqs = None
        try:
            self._shm.close()
        except BufferError:  # a live external view pins the mapping
            pass
        self._shm = None

    def unlink(self) -> None:
        """Remove the segment name (owner side; idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        name = self._descriptor.name
        _OWNED_NAMES.discard(name)
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        shm.unlink()
        shm.close()

    def release(self) -> None:
        """Close, and unlink when this instance owns the segment."""
        self.close()
        if self._owner:
            self.unlink()

    def __enter__(self) -> "SharedBFH":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SharedBFH({self._descriptor.name!r}, "
                f"keys={self._descriptor.n_keys}, "
                f"words={self._descriptor.n_words}, "
                f"trees={self._descriptor.n_trees})")
