"""Execution runtime: pluggable parallel backends + the method registry.

Everything in the repo that fans work out — the BFHRF comparison loop,
the parallel hash build, DSMP, the MapReduce engine, store shard counts —
runs through one :class:`~repro.runtime.executor.Executor` interface with
four backends (``serial``, ``thread``, ``fork``, ``spawn``), and every
average-RF method is described by one
:class:`~repro.runtime.registry.MethodSpec` entry.  Process backends
receive everything, reference table included, in the one fan-out
payload.  See ``docs/runtime.md`` for the full tour.
"""

from repro.runtime.executor import (
    BACKENDS,
    EXECUTOR_ENV,
    Executor,
    ForkExecutor,
    SerialExecutor,
    SpawnExecutor,
    ThreadExecutor,
    available_backends,
    default_executor_name,
    fork_available,
    get_executor,
    get_payload,
    resolve_workers,
    set_default_executor,
)
from repro.runtime.registry import (
    MethodSpec,
    default_method_name,
    get_method,
    method_names,
    methods,
    methods_docstring,
    methods_markdown_table,
    register_method,
)

__all__ = [
    "Executor", "SerialExecutor", "ThreadExecutor", "ForkExecutor",
    "SpawnExecutor", "BACKENDS", "EXECUTOR_ENV", "available_backends",
    "default_executor_name", "get_executor", "set_default_executor",
    "get_payload", "resolve_workers", "fork_available",
    "MethodSpec", "register_method", "get_method", "method_names",
    "methods", "default_method_name", "methods_markdown_table",
    "methods_docstring",
]
