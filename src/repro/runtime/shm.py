"""Zero-copy shared-memory payloads for process fan-outs.

The executor ablation (``BENCH_ablation_workers``) showed why the
paper's "embarrassingly parallel" comparison loop was not paying off in
process backends: every fan-out re-shipped the pickled BFH (and often
the query trees) to every worker — ~30x overhead on ``spawn``, and even
``fork`` lost its copy-on-write advantage the moment a pool was reused.
This module fixes the transport layer:

:class:`SharedBFH`
    The BFH's bitmask keys and counts laid out as flat *sorted* arrays
    (the same ``(U, n_words)`` ``uint64`` + ``int64`` layout the
    vectorized backend probes with ``searchsorted``) in one
    :mod:`multiprocessing.shared_memory` segment.  Workers attach
    read-only; nothing about the table is ever pickled — only a
    :class:`SharedBFHDescriptor` of a few dozen bytes crosses the
    process boundary.

:class:`SharedTreeCollection`
    A tree collection whose cross-process form is one segment holding
    the namespace's ordered labels plus concatenated Newick text with
    per-tree offsets.  The parent keeps its in-memory trees (fork and
    in-process backends never serialize); the segment materializes
    lazily on first pickle, and spawn workers parse only their slice
    into a namespace pre-seeded with the full label list — so worker
    masks are bit-for-bit the parent's masks.

Both classes pickle via ``__reduce__`` into tiny descriptors, which is
what lets the unchanged executor backends "pass a segment descriptor
instead of a pickled payload": any payload tuple containing these
objects automatically ships as descriptors.

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

import json
import os
import secrets
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.observability.metrics import counter as _metric, gauge as _gauge, \
    histogram as _histogram
from repro.observability.state import enabled as _obs_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports runtime)
    from repro.core.vectorized import VectorizedBFH
    from repro.hashing.bfh import BipartitionFrequencyHash
    from repro.trees.tree import Tree

__all__ = [
    "SEGMENT_PREFIX", "SharedBFH", "SharedBFHDescriptor",
    "SharedTreeCollection", "SharedTreeCollectionDescriptor",
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
# Worker-side attach cache.
#
# With reusable pools the payload descriptor arrives once per *task*, not
# once per worker; re-attaching (an mmap + fd per attach) on every task
# would leak file descriptors in long-lived workers.  Keyed by segment
# name, latest-per-class eviction: a fan-out holds at most one SharedBFH
# and one SharedTreeCollection at a time.
# ---------------------------------------------------------------------------

_ATTACH_CACHE: dict[str, Any] = {}


def _cached_attach(cls, descriptor):
    cached = _ATTACH_CACHE.get(descriptor.name)
    if cached is not None:
        return cached
    for name, obj in list(_ATTACH_CACHE.items()):
        if isinstance(obj, cls):
            obj.close()
            del _ATTACH_CACHE[name]
    attached = cls.attach(descriptor)
    _ATTACH_CACHE[descriptor.name] = attached
    return attached


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

    Create with :meth:`from_bfh` / :meth:`from_trees` (owner) or
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
    def from_trees(cls, trees, *, include_trivial: bool = False,
                   transform=None) -> "SharedBFH":
        """Build the hash from a reference collection, then share it."""
        from repro.core.bfhrf import build_bfh

        trees = list(trees)
        bfh = build_bfh(trees, include_trivial=include_trivial,
                        transform=transform)
        n_taxa = len(trees[0].taxon_namespace) if trees else 1
        return cls.from_bfh(bfh, max(1, n_taxa))

    @classmethod
    def attach(cls, descriptor: SharedBFHDescriptor) -> "SharedBFH":
        """Worker-side read-only attach (resource-tracker-unregistered)."""
        return cls(_attach_segment(descriptor.name), descriptor, owner=False)

    def __reduce__(self):
        return (_cached_attach, (SharedBFH, self.descriptor()))

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


# ---------------------------------------------------------------------------
# SharedTreeCollection.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedTreeCollectionDescriptor:
    """Attach recipe: segment name plus the three region sizes."""

    name: str
    n_trees: int
    labels_nbytes: int
    text_nbytes: int


class SharedTreeCollection:
    """A tree collection whose cross-process form is one text segment.

    Layout: ``(n_trees + 1)`` ``int64`` offsets, then the namespace's
    ordered label list as JSON, then the concatenated Newick text.
    Workers parse only their slice, into a :class:`TaxonNamespace`
    pre-seeded with the *full* label list — label→bit-index assignment is
    therefore identical to the parent's, making worker-side bipartition
    masks bit-for-bit equal to parent-side ones (lengths round-trip via
    ``repr``, so weighted builds stay exact too).

    The segment is **lazy**: a collection used only by in-process or
    fork backends (which see the parent's ``trees`` list directly) never
    serializes anything; the first pickle materializes it.
    """

    def __init__(self, trees: list["Tree"], *, include_lengths: bool = True):
        namespace = trees[0].taxon_namespace if trees else None
        for tree in trees:
            if tree.taxon_namespace is not namespace:
                raise ValueError(
                    "SharedTreeCollection requires one shared TaxonNamespace "
                    "across all trees (bit indices must agree)")
        self._trees: list["Tree"] | None = list(trees)
        self._namespace = namespace
        self._include_lengths = include_lengths
        self._shm: shared_memory.SharedMemory | None = None
        self._descriptor: SharedTreeCollectionDescriptor | None = None
        self._owner = True
        self._unlinked = False

    @classmethod
    def create(cls, trees, *, include_lengths: bool = True
               ) -> "SharedTreeCollection":
        return cls(list(trees), include_lengths=include_lengths)

    # -- owner-side materialization -------------------------------------------

    def _materialize(self) -> SharedTreeCollectionDescriptor:
        """Build the segment on first pickle; cached for later pickles."""
        if self._descriptor is not None:
            return self._descriptor
        from repro.newick.writer import write_newick

        trees = self._trees or []
        labels = [] if self._namespace is None else self._namespace.labels
        labels_blob = json.dumps(labels, ensure_ascii=False).encode("utf-8")
        records = [write_newick(t, include_lengths=self._include_lengths)
                   for t in trees]
        encoded = [r.encode("utf-8") for r in records]
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
        text_blob = b"".join(encoded)
        offsets_nbytes = offsets.nbytes
        shm = _create_segment(offsets_nbytes + len(labels_blob) + len(text_blob))
        view = shm.buf
        view[:offsets_nbytes] = offsets.tobytes()
        view[offsets_nbytes:offsets_nbytes + len(labels_blob)] = labels_blob
        start = offsets_nbytes + len(labels_blob)
        view[start:start + len(text_blob)] = text_blob
        self._shm = shm
        self._descriptor = SharedTreeCollectionDescriptor(
            name=shm.name, n_trees=len(trees),
            labels_nbytes=len(labels_blob), text_nbytes=len(text_blob))
        return self._descriptor

    def __reduce__(self):
        return (_cached_attach, (SharedTreeCollection, self._materialize()))

    # -- worker-side attach ---------------------------------------------------

    @classmethod
    def attach(cls, descriptor: SharedTreeCollectionDescriptor
               ) -> "SharedTreeCollection":
        """Read-only attach; trees parse lazily per requested slice."""
        self = cls.__new__(cls)
        self._trees = None
        self._namespace = None
        self._include_lengths = True
        self._shm = _attach_segment(descriptor.name)
        self._descriptor = descriptor
        self._owner = False
        self._unlinked = False
        self._slice_cache: dict[tuple[int, int], list["Tree"]] = {}
        return self

    def _attached_regions(self):
        """(offsets array, labels list, text bytes) from the segment."""
        d = self._descriptor
        offsets_nbytes = (d.n_trees + 1) * 8
        buf = self._shm.buf
        offsets = np.frombuffer(buf, dtype=np.int64, count=d.n_trees + 1)
        labels = json.loads(
            bytes(buf[offsets_nbytes:offsets_nbytes + d.labels_nbytes])
            .decode("utf-8"))
        text_start = offsets_nbytes + d.labels_nbytes
        return offsets, labels, buf, text_start

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        if self._trees is not None:
            return len(self._trees)
        return self._descriptor.n_trees

    @property
    def trees(self) -> list["Tree"]:
        return self.slice(0, len(self))

    def slice(self, lo: int, hi: int) -> list["Tree"]:
        """Trees ``[lo:hi]`` — in-memory in the parent, parsed in workers."""
        if self._trees is not None:
            return self._trees[lo:hi]
        cached = self._slice_cache.get((lo, hi))
        if cached is not None:
            return cached
        from repro.newick.io import trees_from_string
        from repro.trees.taxon import TaxonNamespace

        offsets, labels, buf, text_start = self._attached_regions()
        if self._namespace is None:
            self._namespace = TaxonNamespace(labels)
        start = text_start + int(offsets[lo])
        stop = text_start + int(offsets[hi])
        text = bytes(buf[start:stop]).decode("utf-8")
        trees = trees_from_string(text, self._namespace)
        self._slice_cache[(lo, hi)] = trees
        return trees

    @property
    def name(self) -> str | None:
        return None if self._descriptor is None else self._descriptor.name

    @property
    def nbytes(self) -> int:
        return self._shm.size if self._shm is not None else 0

    def segment_nbytes(self) -> int:
        """Executor payload-probe protocol: bytes shared, without pickling.

        0 while the segment is still lazy — materializing just to
        measure would defeat the laziness (fork fan-outs never build it).
        """
        return self.nbytes

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live external view
            pass
        self._shm = None

    def unlink(self) -> None:
        if self._unlinked or self._descriptor is None:
            return
        self._unlinked = True
        _OWNED_NAMES.discard(self._descriptor.name)
        try:
            shm = shared_memory.SharedMemory(name=self._descriptor.name)
        except FileNotFoundError:
            return
        shm.unlink()
        shm.close()

    def release(self) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __enter__(self) -> "SharedTreeCollection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = "attached" if not self._owner else (
            "materialized" if self._descriptor else "in-memory")
        return f"SharedTreeCollection({len(self)} trees, {where})"
