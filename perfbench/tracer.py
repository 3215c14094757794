"""Span shims around each layer's public functions, owned by the benchmark.

The program itself is never edited: :func:`install` replaces every
binding of a traced function -- the defining module's attribute, every
``from X import f`` copy in other ``repro`` modules (for example
``bipartition_masks`` inside ``hashing/bfh.py``, ``core/vectorized.py``
and ``store/store.py``) and class attributes such as
``BFHStore.open`` -- with a shim that records a span.  Spans nest along
the real call path on each thread, so a span's *self* time is its
duration minus the time covered by its child spans.

Untraced runs never call :func:`install`, so they import the program
unwrapped.
"""

from __future__ import annotations

import os
import sys
import threading
import time

# (span name, layer, module, qualified attribute).  The layer names are
# the program's module names; the span name is the metric prefix.
TARGETS = [
    ("newick.trees_from_string", "newick", "repro.newick.io", "trees_from_string"),
    ("newick.read_newick_file", "newick", "repro.newick.io", "read_newick_file"),
    ("bipartitions.masks", "bipartitions", "repro.bipartitions.extract",
     "bipartition_masks"),
    ("hashing.build", "hashing", "repro.hashing.bfh",
     "BipartitionFrequencyHash.from_trees"),
    ("table.from_bfh", "table", "repro.core.table", "BipartitionTable.from_bfh"),
    ("table.sort", "table", "repro.core.table", "BipartitionTable.from_counts"),
    ("table.pack", "table", "repro.core.table", "masks_to_words"),
    ("table.encode", "table", "repro.core.table", "CodecSpec.encode"),
    ("table.decode", "table", "repro.core.table", "CodecSpec.decode"),
    ("vectorized.probe", "vectorized", "repro.core.vectorized",
     "VectorizedBFH.lookup_frequencies"),
    ("vectorized.reduce", "vectorized", "repro.core.vectorized",
     "VectorizedBFH.average_rf_batch"),
    ("store.build", "store", "repro.store.store", "build_store"),
    ("store.add", "store", "repro.store.store", "BFHStore.add_trees"),
    ("store.compact", "store", "repro.store.store", "BFHStore.compact"),
    ("store.open", "store", "repro.store.store", "BFHStore.open"),
    ("store.table", "store", "repro.store.store", "BFHStore.table"),
    ("store.tail", "store", "repro.store.store", "BFHStore.tail_journal"),
    ("serve.encode", "serve", "repro.serve.protocol", "encode_frame"),
    ("serve.decode", "serve", "repro.serve.protocol", "decode_frame"),
]

LAYERS = ["newick", "bipartitions", "hashing", "table", "vectorized", "store",
          "serve"]
LAYER_OF = {name: layer for name, layer, _, _ in TARGETS}


def _newick_text_counts(args, kwargs, result):
    return len(result), len(args[0]) if args else 0


def _newick_file_counts(args, kwargs, result):
    return len(result), os.path.getsize(args[0]) if args else 0


def _size_counts(args, kwargs, result):
    return len(result), 0


def _hash_counts(args, kwargs, result):
    return result.total, len(result)


def _pack_counts(args, kwargs, result):
    return int(result.size), 0


def _encode_counts(args, kwargs, result):
    return result.nbytes, 0


def _probe_counts(args, kwargs, result):
    import numpy as np

    return len(result), int(np.count_nonzero(result))


def _int_counts(args, kwargs, result):
    return int(result), 0


# Work counted at each boundary: two numbers per span, see ``aggregate``.
COUNTERS = {
    "newick.trees_from_string": _newick_text_counts,
    "newick.read_newick_file": _newick_file_counts,
    "bipartitions.masks": _size_counts,
    "hashing.build": _hash_counts,
    "table.pack": _pack_counts,
    "table.encode": _encode_counts,
    "vectorized.probe": _probe_counts,
    "store.add": _int_counts,
    "store.tail": _int_counts,
}


class Recorder:
    """Spans kept in memory, one open-span stack per thread.

    Each finished span is stored as ``(name, start, end, self_wall,
    self_cpu, c1, c2)``.  ``start``/``end`` are ``time.monotonic`` stamps
    (one clock across processes on Linux, so a daemon's spans can be cut
    to the client's phases); ``self_cpu`` is the span's own share of its
    thread's CPU time, which does not count time spent waiting for the
    interpreter lock while another thread runs.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def muted(self) -> bool:
        return getattr(self._local, "muted", False)

    def mute(self, value: bool) -> None:
        self._local.muted = value


_RECORDER: Recorder | None = None
_ORIGINALS: list[tuple[object, str, object]] = []


def _shim(fn, name):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        rec = _RECORDER
        if rec is None or rec.muted():
            return fn(*args, **kwargs)
        stack = rec._stack()
        children = [0.0, 0.0]
        stack.append(children)
        start, cpu0 = time.monotonic(), time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            end, cpu1 = time.monotonic(), time.thread_time()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
                stack[-1][1] += cpu1 - cpu0
        c1, c2 = counter(args, kwargs, result) if counter else (0, 0)
        with rec._lock:
            rec.spans.append((name, start, end, end - start - children[0],
                              cpu1 - cpu0 - children[1], c1, c2))
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _resolve(module_name: str, qualname: str):
    import importlib

    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _preload() -> None:
    """Import every module that binds a traced function, so each copy of
    a ``from X import f`` binding exists before it is rebound."""
    import repro.cli  # noqa: F401
    import repro.core.api  # noqa: F401
    import repro.core.methods  # noqa: F401
    import repro.core.shmrf  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.store  # noqa: F401


def install() -> Recorder:
    """Rebind every traced function everywhere it is bound; returns the
    recorder the shims write to."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("tracing shims are already installed")
    _preload()
    for name, _layer, module_name, qualname in TARGETS:
        owner, attr = _resolve(module_name, qualname)
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(_shim(raw.__func__, name))
            else:
                wrapped = _shim(raw, name)
            _ORIGINALS.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        shim = _shim(raw, name)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    _ORIGINALS.append((module, key, raw))
                    setattr(module, key, shim)
    _RECORDER = Recorder()
    return _RECORDER


def uninstall() -> None:
    """Restore every binding :func:`install` replaced."""
    global _RECORDER
    while _ORIGINALS:
        owner, attr, raw = _ORIGINALS.pop()
        setattr(owner, attr, raw)
    _RECORDER = None


def mute_during(owner, attr: str) -> None:
    """Record nothing on the calling thread while ``owner.attr`` runs
    (used for introspection calls that are not part of the workload)."""
    raw = owner.__dict__[attr]

    def muted(*args, **kwargs):
        rec = _RECORDER
        if rec is None:
            return raw(*args, **kwargs)
        rec.mute(True)
        try:
            return raw(*args, **kwargs)
        finally:
            rec.mute(False)

    _ORIGINALS.append((owner, attr, raw))
    setattr(owner, attr, muted)


def aggregate(spans, start: float = float("-inf"),
              end: float = float("inf"), *,
              cpu: bool = False) -> dict[str, list[float]]:
    """Per span name: ``[self_s, total_s, calls, c1, c2]`` over spans
    that started inside ``[start, end)``; ``self_s`` is wall time, or
    thread CPU time with ``cpu``."""
    out: dict[str, list[float]] = {}
    for name, s0, s1, self_wall, self_cpu, c1, c2 in spans:
        if not start <= s0 < end:
            continue
        row = out.setdefault(name, [0.0, 0.0, 0, 0, 0])
        row[0] += self_cpu if cpu else self_wall
        row[1] += s1 - s0
        row[2] += 1
        row[3] += c1
        row[4] += c2
    return out


def layer_self_times(agg: dict[str, list[float]]) -> dict[str, float]:
    """Self time summed per layer (module)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in agg.items():
        out[LAYER_OF[name]] += row[0]
    return out
