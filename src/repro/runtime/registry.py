"""Capability-driven registry of average-RF methods.

``average_rf`` historically dispatched through an if/elif chain with each
method's capability checks hand-written inline, and the CLI duplicated
the method list and the error prose a second time.  Methods now
*self-register* here with explicit capability flags; the API dispatches
through :func:`get_method`, capability violations become one uniform
:class:`~repro.util.errors.CollectionError` phrased from the flags, and
the CLI ``--method`` choices, ``selfcheck``'s oracle list, the
``average_rf`` docstring, and the ``docs/api.md`` method table are all
enumerations of this registry — a new method registered with
:func:`register_method` appears in every one of those surfaces without
further edits.

The registry layer deliberately knows nothing about trees: runners are
opaque callables, and the built-in methods live in
:mod:`repro.core.methods`, which is imported lazily on first access so
``repro.runtime`` stays importable without dragging in the algorithm
stack (and without an import cycle — ``core`` imports ``runtime``, never
the reverse at module scope).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.util.errors import CollectionError

__all__ = [
    "MethodSpec", "register_method", "get_method", "method_names", "methods",
    "default_method_name", "methods_markdown_table", "methods_docstring",
]

#: Human-readable glosses for the ``memory_class`` flag values.
_MEMORY_CLASSES = ("hash", "matrix", "stream")


@dataclass(frozen=True)
class MethodSpec:
    """One average-RF method and what it can do.

    Attributes
    ----------
    name:
        The ``method=`` string users pass.
    runner:
        ``runner(query_trees, reference_trees, *, n_workers, include_trivial,
        transform, executor) -> list[float]`` returning one average-RF value
        per query tree.  ``reference_trees`` is the query collection itself
        for same-collection scoring.
    summary:
        One sentence for generated docs (docstring + ``docs/api.md``).
    supports_disparate:
        Accepts a reference collection distinct from the query collection.
    supports_transform:
        Accepts a ``MaskTransform`` applied to every bipartition.
    supports_workers:
        ``n_workers > 1`` fans out; when ``False`` extra workers are
        silently ignored (never an error — callers sweep worker counts).
    memory_class:
        ``"hash"`` (O(n·r) split hash), ``"matrix"`` (pairwise matrix),
        or ``"stream"`` (O(n) working set per tree).
    fast_path:
        Candidate for the *default* method: when ``average_rf`` is called
        without ``method=``, the most recently registered fast-path spec
        wins (see :func:`default_method_name`).  Flagging a method here
        promises bitwise-identical results to ``bfhrf`` — the parity
        oracles hold every fast path to that.
    scan_runner:
        Scores scanned Newick text, as
        ``scan_runner(query, reference, *, n_taxa, include_trivial)``
        on two :class:`~repro.bipartitions.scan.ScannedTrees` of one
        namespace.  When set, ``average_rf`` scans Newick file or text
        inputs given with no transform, at any ``n_workers``
        (:mod:`repro.bipartitions.scan`), and calls it instead of
        ``runner``, so no ``Tree`` is built; it must return bit for bit
        what ``runner`` returns on the parsed trees.
    """

    name: str
    runner: Callable[..., list[float]]
    summary: str
    supports_disparate: bool = True
    supports_transform: bool = True
    supports_workers: bool = True
    memory_class: str = "hash"
    fast_path: bool = False
    scan_runner: Callable[..., list[float]] | None = None

    def __post_init__(self) -> None:
        if self.memory_class not in _MEMORY_CLASSES:
            raise ValueError(f"memory_class must be one of {_MEMORY_CLASSES}, "
                             f"got {self.memory_class!r}")

    def ensure_supported(self, *, disparate: bool = False,
                         transform: bool = False) -> None:
        """Raise one uniform :class:`CollectionError` for a capability miss.

        The message is generated from the flags — including which other
        registered methods *do* support the requested combination — so
        every method reports violations with the same shape and the
        suggestions never go stale.
        """
        if disparate and not self.supports_disparate:
            self._reject("a reference collection distinct from the query "
                         "collection", lambda s: s.supports_disparate)
        if transform and not self.supports_transform:
            self._reject("a bipartition transform",
                         lambda s: s.supports_transform)

    def _reject(self, what: str,
                predicate: Callable[["MethodSpec"], bool]) -> None:
        alternatives = [s.name for s in methods() if predicate(s)]
        raise CollectionError(
            f"method {self.name!r} does not support {what}; "
            f"use one of: {', '.join(alternatives)}")

    def run(self, query_trees, reference_trees, **kwargs) -> list[float]:
        return self.runner(query_trees, reference_trees, **kwargs)


_REGISTRY: dict[str, MethodSpec] = {}
_BUILTINS_LOADED = False


def register_method(name: str, runner: Callable[..., list[float]], *,
                    summary: str, supports_disparate: bool = True,
                    supports_transform: bool = True,
                    supports_workers: bool = True,
                    memory_class: str = "hash",
                    fast_path: bool = False,
                    scan_runner: Callable[..., list[float]] | None = None
                    ) -> MethodSpec:
    """Register an average-RF method; returns its :class:`MethodSpec`.

    Re-registering a name replaces the previous entry (last wins), which
    keeps module reloads idempotent.
    """
    spec = MethodSpec(name=name, runner=runner, summary=summary,
                      supports_disparate=supports_disparate,
                      supports_transform=supports_transform,
                      supports_workers=supports_workers,
                      memory_class=memory_class,
                      fast_path=fast_path, scan_runner=scan_runner)
    _REGISTRY[name] = spec
    return spec


def _ensure_builtins() -> None:
    """Populate the registry with the shipped methods, exactly once."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.core.methods  # noqa: F401  (registers on import)


def get_method(name: str) -> MethodSpec:
    """Look up a method by name; unknown names raise ``ValueError``."""
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown method {name!r}; expected one of "
                         f"{', '.join(sorted(_REGISTRY))}")
    return spec


def method_names() -> tuple[str, ...]:
    """Registered method names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def methods() -> tuple[MethodSpec, ...]:
    """All registered specs, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY.values())


def default_method_name() -> str:
    """The method ``average_rf`` uses when none is requested.

    The most recently registered spec with ``fast_path=True`` wins —
    registration order *is* the promotion mechanism, so an extension
    registering a faster bitwise-identical method takes over the default
    without any call-site edits.  With no fast path registered the
    reference implementation ``bfhrf`` is the default.
    """
    _ensure_builtins()
    chosen = "bfhrf"
    for spec in _REGISTRY.values():
        if spec.fast_path:
            chosen = spec.name
    return chosen


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def methods_markdown_table() -> str:
    """The method capability table for ``docs/api.md``, as Markdown."""
    default = default_method_name()
    lines = [
        "| Method | Disparate reference | Transforms | Workers | Memory "
        "| Summary |",
        "|---|---|---|---|---|---|",
    ]
    for spec in methods():
        name = f"`{spec.name}` (default)" if spec.name == default \
            else f"`{spec.name}`"
        lines.append(
            f"| {name} | {_flag(spec.supports_disparate)} "
            f"| {_flag(spec.supports_transform)} "
            f"| {_flag(spec.supports_workers)} "
            f"| {spec.memory_class} | {spec.summary} |")
    lines.append("")
    lines.append(
        "Every method runs locally; `average_rf(..., endpoint=...)` "
        "instead dispatches the query to a running `bfhrf serve` daemon "
        "(`unix://`/`tcp://` address), whose warm store answers with the "
        "same vectorized probe — bitwise-identical to local compute "
        "against the stored trees.")
    return "\n".join(lines)


def methods_docstring(indent: str = "    ") -> str:
    """The per-method block spliced into ``average_rf``'s docstring."""
    default = default_method_name()
    lines: list[str] = []
    for spec in methods():
        caveats = []
        if not spec.supports_disparate:
            caveats.append("single collection only")
        if not spec.supports_transform:
            caveats.append("no transforms")
        if not spec.supports_workers:
            caveats.append("serial")
        suffix = f" ({'; '.join(caveats)})" if caveats else ""
        marker = " — the default" if spec.name == default else ""
        lines.append(f"{indent}``{spec.name}``{marker}")
        lines.append(f"{indent}    {spec.summary}{suffix}")
    return "\n".join(lines)
