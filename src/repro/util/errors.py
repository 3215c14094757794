"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors, taxon-namespace mismatches, and invalid
tree topologies when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NewickParseError",
    "TaxonError",
    "TreeStructureError",
    "BipartitionError",
    "CollectionError",
    "SimulationError",
    "StoreError",
    "StoreCorruptError",
    "ExecutorError",
    "ServeError",
    "ServeConnectionError",
    "ServeProtocolError",
    "ServeRequestError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class NewickParseError(ReproError):
    """A Newick string or file could not be parsed.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    position:
        Character offset into the input at which the problem was detected,
        or ``None`` when no position is meaningful (e.g. unexpected EOF on
        an empty input).
    line:
        1-based line number within a multi-tree file, when known.
    """

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"position {position}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class TaxonError(ReproError):
    """A taxon lookup failed or taxon namespaces are inconsistent.

    Raised when a label is missing from a :class:`~repro.trees.TaxonNamespace`,
    when two trees that must share a namespace do not, or when duplicate
    taxon labels are encountered where uniqueness is required.
    """


class TreeStructureError(ReproError):
    """A tree violates a structural requirement of the requested operation.

    Examples: asking for bipartitions of a tree with fewer than 4 leaves,
    passing a rooted tree where an unrooted one is required, or detecting a
    cycle/duplicate child during validation.
    """


class BipartitionError(ReproError):
    """A bipartition value is malformed for its namespace.

    Raised for masks that are empty, full (all taxa on one side), or that
    set bits beyond the namespace size.
    """


class CollectionError(ReproError):
    """A tree-collection level operation received unusable input.

    Examples: an empty reference collection (the average RF is undefined),
    or collections whose trees disagree on taxon namespaces when a method
    requires fixed taxa.
    """


class SimulationError(ReproError):
    """A simulation was requested with invalid parameters.

    Examples: non-positive rates, fewer than 3 taxa, or a perturbation
    count that cannot be applied to the given topology.
    """


class ExecutorError(ReproError):
    """An execution backend was requested that cannot run here.

    Examples: an unknown ``REPRO_EXECUTOR`` name, or asking for the
    ``fork`` backend on a platform without the ``fork`` start method.
    Loud by design — the alternative (silently degrading to serial) hides
    the loss of parallelism from the caller.
    """


class StoreError(ReproError):
    """A persistent BFH store operation failed.

    Examples: opening a directory that is not a store, removing a tree
    that was never added, or mixing trees with a store whose settings
    (trivial-split policy, weighted mode) do not match.
    """


class StoreCorruptError(StoreError):
    """On-disk store state failed an integrity check.

    Raised for bad magic bytes, checksum mismatches on complete records
    or snapshots, and namespace-fingerprint disagreements — anything
    where continuing would risk silently wrong frequencies.  A torn
    journal tail (an interrupted append) is *not* corruption: it is
    recovered by dropping the incomplete record.
    """


class ServeError(ReproError):
    """A ``bfhrf serve`` daemon or client operation failed.

    Examples: starting a daemon on a socket another daemon already owns,
    or a platform without unix-domain sockets.
    """


class ServeConnectionError(ServeError):
    """The client could not reach (or lost) the daemon socket.

    Raised after connect retries are exhausted, on a request timeout,
    and when the daemon closes the connection mid-reply.
    """


class ServeProtocolError(ServeError):
    """The peer spoke something other than the expected protocol.

    Examples: a hello with an unsupported protocol version, a reply that
    is not valid JSON, or a reply whose id does not match the request.
    """


class ServeRequestError(ServeError):
    """The daemon answered a request with a typed error reply.

    Attributes
    ----------
    type:
        The machine-readable error type from the reply (one of
        :data:`repro.serve.protocol.ERROR_TYPES`, e.g. ``"parse-error"``).
    """

    def __init__(self, error_type: str, message: str):
        self.type = error_type
        super().__init__(f"[{error_type}] {message}")
