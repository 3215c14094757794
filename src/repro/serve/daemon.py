"""The warm-store query daemon behind ``bfhrf serve start``.

One :class:`ServeDaemon` opens a :class:`~repro.store.store.BFHStore`
once and answers average-RF queries over one or more listeners — any
mix of unix-domain sockets and TCP, each named by a
:class:`~repro.serve.endpoint.Endpoint` — for as long as it runs;
queries pay only scan + probe, never open/replay.  Every listener
speaks the same NDJSON protocol (:mod:`repro.serve.protocol`) and
serves bitwise-identical replies.

Three cooperating task families on one event loop and one thread, so
a scan or a probe runs to completion before the loop reads anything
else (``max_frame_bytes`` and ``batch_max_trees`` bound that stall):

* **connection handlers** (one per client) speak the NDJSON protocol:
  hello on connect (carrying the listener's endpoint), then
  request/reply.  Requests are *pipelined* — each one runs as its own
  task while the handler keeps reading, up to
  :attr:`ServeConfig.max_inflight` per connection; past the cap the
  daemon sheds with a typed ``overloaded`` error instead of buffering.
  Replies are serialized through a per-connection write lock.
* the **batcher** drains the bounded query queue and coalesces every
  pending query — across clients and listeners — into *one* vectorized
  probe (:meth:`~repro.core.vectorized.VectorizedBFH.average_rf_block`
  over the requests' concatenated split blocks), then splits the result
  vector back per request.  Concurrent load
  therefore amortizes the probe exactly like the paper's batch
  formulation.
* the **tailer** polls the store directory: journal records appended by
  another process (``bfhrf store add``) are applied in place via
  :meth:`~repro.store.store.BFHStore.tail_journal`; a manifest
  generation bump (an external ``store compact``) triggers a full
  reopen, and the *epoch* counter is bumped.  A batch takes the store's
  table (O(1), and never written later) with its state stamp in one
  synchronous step; every reply names the state it was scored on.

**Admission control** bounds every buffer a client can fill.  Three
gates, each shedding with ``overloaded`` (the connection stays open —
the client backs off and retries) and counted under
``serve.admission_rejected``:

* per-connection in-flight requests > ``max_inflight``
  (``…rejected.inflight``);
* the global queue already holds ``queue_max_requests`` pending
  queries (``…rejected.queue_requests``);
* admitting the query would push queued trees past
  ``queue_max_trees`` — backpressure once more work is queued than one
  batch can drain (``…rejected.queue_trees``; a single query bigger
  than the cap is still admitted to an empty queue, else it could
  never run).

Shutdown (SIGTERM/SIGINT, a ``shutdown`` request, or
:meth:`ServeDaemon.request_shutdown`) is drain-then-close: stop
accepting, answer every already-queued query, flush replies, close
connections, unlink owned sockets.

A stale unix socket file left by a SIGKILLed predecessor is detected by
a probe connect on startup — connection refused means nobody owns it
and the path is reclaimed; an answering daemon makes startup fail
loudly.  Sockets pre-bound by a :class:`~repro.serve.supervisor.\
ServeSupervisor` are inherited as-is and never unlinked here — their
lifecycle belongs to the supervisor.

Metrics are recorded only into a private
:class:`~repro.observability.metrics.MetricsRegistry` (served by the
``stats`` request).  When :meth:`ServeDaemon.serve` returns with tracing
enabled, that registry's snapshot is merged into the process-global one
once, so ``--trace``/``--metrics-out`` see ``serve.*`` metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import signal
import socket
import stat
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.bipartitions.scan import ScannedTrees, SplitBlock, \
    scan_newick_text
from repro.newick import read_nexus_trees
from repro.observability.metrics import MetricsRegistry, merge_metrics
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.serve.endpoint import Endpoint
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SERVER_NAME,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
)
from repro.store.store import BFHStore
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import ReproError, ServeError, ServeProtocolError, \
    StoreError

__all__ = ["ServeConfig", "ServeDaemon", "ServeHandle", "serving",
           "prepare_socket_path"]


def prepare_socket_path(path: Path) -> bool:
    """Bind-time recovery: reclaim a dead daemon's socket, refuse a live
    one's.  Returns whether a stale socket file was reclaimed."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return False
    if not stat.S_ISSOCK(mode):
        raise ServeError(
            f"{path} exists and is not a socket; refusing to replace it")
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except OSError:
        # Nobody answers: stale file from a crashed/SIGKILLed daemon.
        path.unlink()
        return True
    else:
        raise ServeError(f"another daemon is already serving on {path}")
    finally:
        probe.close()


@dataclass
class ServeConfig:
    """Tunables for one daemon instance.

    Addressing: ``endpoints`` takes any mix of endpoint URLs
    (``unix:///path``, ``tcp://host:port``), bare socket paths, or
    :class:`~repro.serve.endpoint.Endpoint` instances.  At least one
    endpoint is required.
    """

    endpoints: Sequence[Endpoint | str | os.PathLike] = ()
    batch_max_trees: int = 4096      # stop coalescing past this many trees
    batch_window_s: float = 0.0      # extra wait to let a batch accumulate
    tail_interval_s: float = 0.5     # journal poll period
    drain_timeout_s: float = 10.0    # max wait for queued queries on stop
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    socket_mode: int = 0o600         # owner-only by default (ops: loosen
                                     # deliberately, the socket is the ACL)
    max_inflight: int = 64           # pipelined requests per connection
    queue_max_requests: int = 1024   # bounded global query queue
    queue_max_trees: int | None = None   # None -> batch_max_trees
    reuse_port: bool = False         # SO_REUSEPORT on TCP binds (multi-proc)

    def __post_init__(self) -> None:
        unique: list[Endpoint] = []
        for ep in map(Endpoint.parse, self.endpoints):
            if ep not in unique:
                unique.append(ep)
        if not unique:
            raise ServeError(
                "ServeConfig needs at least one endpoint (endpoints=)")
        self.endpoints = tuple(unique)
        if self.queue_max_trees is None:
            self.queue_max_trees = max(1, self.batch_max_trees)


@dataclass
class _Listener:
    """One bound listener; ``endpoint`` is rewritten to the actual bind
    (resolving a ``tcp://host:0`` ephemeral port)."""

    endpoint: Endpoint
    prebound: bool = False


@dataclass
class _Pending:
    """One parsed query request waiting for the batcher."""

    trees: ScannedTrees | list[Tree]  # scanned Newick, or parsed NEXUS
    n_taxa: int                      # namespace size the trees parsed under
    epoch: int                       # store epoch the trees were read in
    text: str | None                 # kept when the read bound query-only taxa
    future: asyncio.Future | None = None
    enqueued_at: float = 0.0


class ServeHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, daemon: "ServeDaemon", thread: threading.Thread,
                 failures: list[BaseException]):
        self._daemon = daemon
        self._thread = thread
        self._failures = failures

    @property
    def daemon(self) -> "ServeDaemon":
        return self._daemon

    def stop(self, timeout: float = 15.0) -> None:
        """Request a graceful drain-then-close and wait for it."""
        self._daemon.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServeError("daemon thread did not exit within "
                             f"{timeout}s of a shutdown request")
        if self._failures:
            exc = self._failures[0]
            if isinstance(exc, ReproError):
                raise exc
            raise ServeError(f"daemon failed: {exc!r}") from exc


class ServeDaemon:
    """Serve average-RF queries from one warm :class:`BFHStore`."""

    def __init__(self, store_dir: str | os.PathLike, config: ServeConfig,
                 *, prebound_sockets:
                 Mapping[Endpoint, socket.socket] | None = None):
        self.store_dir = Path(store_dir)
        self.config = config
        self._prebound = dict(prebound_sockets or {})
        self._metrics = MetricsRegistry()
        self._store: BFHStore | None = None
        # The query namespace of one epoch: (epoch, namespace).
        self._query_ns: tuple[int, TaxonNamespace] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing: asyncio.Event | None = None
        self._queue: asyncio.Queue[_Pending] | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._listeners: list[_Listener] = []
        self._draining = False
        self._active_requests = 0
        self._queued_trees = 0
        self._started_at = 0.0
        self._epoch = 0

    @property
    def bound_endpoints(self) -> tuple[Endpoint, ...]:
        """Actually-bound endpoints, in config order, with ephemeral TCP
        ports resolved.  Populated by the time ``on_ready`` fires."""
        return tuple(listener.endpoint for listener in self._listeners)

    # -- metrics: only into the private registry ---------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        self._metrics.counter(name).inc(n)

    def _observe(self, name: str, value: float) -> None:
        self._metrics.histogram(name).observe(value)

    def _set_gauge(self, name: str, value: float) -> None:
        self._metrics.gauge(name).set(value)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """Blocking entry point (the CLI): serve until SIGTERM/SIGINT."""
        asyncio.run(self.serve())

    def run_in_thread(self, *, ready_timeout: float = 15.0) -> ServeHandle:
        """Start the daemon on a daemon thread; returns once it accepts."""
        ready = threading.Event()
        failures: list[BaseException] = []

        def _runner() -> None:
            try:
                asyncio.run(self.serve(on_ready=ready.set))
            except BaseException as exc:  # surfaced through the handle
                failures.append(exc)
            finally:
                ready.set()

        thread = threading.Thread(target=_runner, name="bfhrf-serve",
                                  daemon=True)
        thread.start()
        if not ready.wait(ready_timeout):
            self.request_shutdown()
            thread.join(1.0)
            raise ServeError(f"daemon did not become ready within "
                             f"{ready_timeout}s")
        if failures:
            thread.join(1.0)
            exc = failures[0]
            if isinstance(exc, ReproError):
                raise exc
            raise ServeError(f"daemon failed to start: {exc!r}") from exc
        return ServeHandle(self, thread, failures)

    def request_shutdown(self) -> None:
        """Thread-safe graceful-stop trigger (what SIGTERM calls)."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._begin_shutdown)
        except RuntimeError:
            pass  # loop already closed: nothing to stop

    def _begin_shutdown(self) -> None:
        self._draining = True
        if self._closing is not None:
            self._closing.set()

    async def serve(self, *, on_ready: Callable[[], None] | None = None
                    ) -> None:
        """Open the store, bind every endpoint, and serve until shutdown."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._closing = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=cfg.queue_max_requests)
        self._draining = False
        self._queued_trees = 0
        self._listeners = []
        self._store = BFHStore.open(self.store_dir)
        servers: list[asyncio.AbstractServer] = []
        owned_paths: list[Path] = []
        try:
            for endpoint in cfg.endpoints:
                listener = _Listener(endpoint=endpoint)
                handler = functools.partial(self._on_connect,
                                            listener=listener)
                prebound = self._prebound.get(endpoint)
                if endpoint.kind == "unix":
                    if not hasattr(socket, "AF_UNIX"):
                        raise ServeError("unix-domain sockets are "
                                         "unavailable on this platform")
                    if prebound is not None:
                        listener.prebound = True
                        server = await asyncio.start_unix_server(
                            handler, sock=prebound,
                            limit=cfg.max_frame_bytes)
                    else:
                        path = Path(endpoint.path)
                        if prepare_socket_path(path):
                            self._inc("serve.stale_sockets_recovered")
                        server = await asyncio.start_unix_server(
                            handler, path=str(path),
                            limit=cfg.max_frame_bytes)
                        os.chmod(path, cfg.socket_mode)
                        owned_paths.append(path)
                else:
                    kwargs: dict[str, Any] = {}
                    if cfg.reuse_port:
                        kwargs["reuse_port"] = True
                    server = await asyncio.start_server(
                        handler, host=endpoint.host, port=endpoint.port,
                        limit=cfg.max_frame_bytes, **kwargs)
                    bound_port = server.sockets[0].getsockname()[1]
                    listener.endpoint = endpoint.with_port(bound_port)
                servers.append(server)
                self._listeners.append(listener)
        except BaseException:
            for server in servers:
                server.close()
            for path in owned_paths:
                with contextlib.suppress(OSError):
                    path.unlink()
            self._loop = None
            raise
        handled_signals = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._begin_shutdown)
                handled_signals.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        batcher = loop.create_task(self._batch_loop())
        tailer = loop.create_task(self._tail_loop())
        self._started_at = time.monotonic()
        try:
            if on_ready is not None:
                on_ready()
            await self._closing.wait()
        finally:
            # Drain-then-close: no new connections, queued queries finish,
            # replies flush, then everything is torn down.
            for server in servers:
                server.close()
            for server in servers:
                await server.wait_closed()
            deadline = loop.time() + cfg.drain_timeout_s
            while (not self._queue.empty() or self._active_requests
                   ) and loop.time() < deadline:
                await asyncio.sleep(0.01)
            tailer.cancel()
            batcher.cancel()
            await asyncio.gather(tailer, batcher, return_exceptions=True)
            while not self._queue.empty():  # drain timeout elapsed
                pending = self._queue.get_nowait()
                self._queued_trees = max(
                    0, self._queued_trees - len(pending.trees))
                if not pending.future.done():
                    pending.future.set_exception(ServeError(
                        "daemon shut down before the query was scored"))
            for writer in list(self._writers):
                writer.close()
            conn_tasks = list(self._conn_tasks)
            if conn_tasks:
                await asyncio.wait(conn_tasks, timeout=1.0)
                for task in conn_tasks:
                    task.cancel()
            for sig in handled_signals:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(sig)
            for path in owned_paths:
                with contextlib.suppress(OSError):
                    path.unlink()
            self._loop = None
            if _obs_enabled():
                merge_metrics(self._metrics.snapshot())

    # -- connection handling ----------------------------------------------

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          listener: _Listener) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        self._inc("serve.connections")
        self._inc(f"serve.connections.{listener.endpoint.kind}")
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()
        try:
            await self._send(writer, self._hello(listener))
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break  # client went away (possibly mid-frame)
                except asyncio.LimitOverrunError:
                    # No newline within the frame cap: the stream cannot
                    # be resynced, so reply typed and hang up.
                    self._inc("serve.requests")
                    self._inc("serve.request_errors")
                    async with write_lock:
                        await self._send(writer, error_reply(
                            None, "oversized-frame",
                            f"frame exceeds {self.config.max_frame_bytes} "
                            "bytes; closing connection"))
                    break
                try:
                    msg = decode_frame(line)
                except ServeProtocolError as exc:
                    self._inc("serve.requests")
                    self._inc("serve.request_errors")
                    async with write_lock:
                        await self._send(writer,
                                         error_reply(None, "bad-request",
                                                     str(exc)))
                    continue
                if len(inflight) >= self.config.max_inflight:
                    # Shed instead of buffering: the client has more
                    # requests in flight than we are willing to hold.
                    self._inc("serve.requests")
                    self._inc("serve.request_errors")
                    reply = self._admission_reject(
                        msg.get("id"), "inflight",
                        f"connection already has {len(inflight)} requests "
                        f"in flight (cap {self.config.max_inflight}); "
                        "back off and retry")
                    async with write_lock:
                        await self._send(writer, reply)
                    continue
                self._active_requests += 1
                request = asyncio.ensure_future(
                    self._serve_request(msg, writer, write_lock))
                inflight.add(request)
                request.add_done_callback(inflight.discard)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client disconnected mid-response; nothing to tell it
        finally:
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_request(self, msg: dict[str, Any],
                             writer: asyncio.StreamWriter,
                             write_lock: asyncio.Lock) -> None:
        """One pipelined request: dispatch, then reply under the lock."""
        try:
            reply = await self._process(msg)
            if reply is not None:
                async with write_lock:
                    await self._send(writer, reply)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away before its reply; drop it
        finally:
            self._active_requests -= 1

    async def _send(self, writer: asyncio.StreamWriter,
                    obj: dict[str, Any]) -> None:
        writer.write(encode_frame(obj))
        await writer.drain()

    def _hello(self, listener: _Listener) -> dict[str, Any]:
        store = self._store
        info = {"path": str(store.path), "generation": store.generation,
                "trees": store.n_trees, "taxa": len(store.labels)}
        return {"type": "hello", "server": SERVER_NAME,
                "protocol": PROTOCOL_VERSION, "pid": os.getpid(),
                "listener": listener.endpoint.describe(),
                "store": info}

    def _admission_reject(self, rid: Any, reason: str,
                          message: str) -> dict[str, Any]:
        self._inc("serve.admission_rejected")
        self._inc(f"serve.admission_rejected.{reason}")
        return error_reply(rid, "overloaded", message)

    async def _process(self, msg: dict[str, Any]) -> dict[str, Any] | None:
        t0 = time.perf_counter()
        rid = msg.get("id")
        op = msg.get("op")
        with trace("serve.request", op=str(op)):
            reply = await self._dispatch(rid, op, msg)
        self._inc("serve.requests")
        if reply is not None and not reply.get("ok", False):
            self._inc("serve.request_errors")
        self._observe("serve.request_seconds", time.perf_counter() - t0)
        return reply

    async def _dispatch(self, rid: Any, op: Any,
                        msg: dict[str, Any]) -> dict[str, Any]:
        if not isinstance(op, str):
            return error_reply(rid, "bad-request",
                               "request needs an 'op' string")
        if op == "ping":
            return ok_reply(rid, pong=True)
        if op == "stats":
            return ok_reply(rid, stats=self._stats_payload())
        if self._draining:
            return error_reply(rid, "shutting-down",
                               "daemon is draining; reconnect later")
        if op == "query":
            return await self._handle_query(rid, msg)
        if op == "shutdown":
            # Reply first (the handler send is counted as active, so the
            # drain below waits for it), then begin the drain.
            self._loop.call_soon(self._begin_shutdown)
            return ok_reply(rid, stopping=True)
        return error_reply(rid, "unknown-op", f"unknown op {op!r}")

    # -- query path --------------------------------------------------------

    def _parse(self, text: str) -> _Pending:
        """Read query text in the store's namespace (bit-aligned masks):
        Newick is scanned with no ``Tree``, NEXUS is parsed.

        Queries of one epoch share one namespace; a scan that grows it
        (query-only taxa, or a rejected record whose new labels were
        already bound) drops it.  Query-only taxa take the next free
        bits, which a later tail may hand to new store taxa, so such a
        query keeps its text for :meth:`_score` to read again."""
        if self._query_ns is None or self._query_ns[0] != self._epoch:
            self._query_ns = (self._epoch, self._store.namespace())
        ns = self._query_ns[1]
        known = len(ns)
        try:
            if text.lstrip().upper().startswith("#NEXUS"):
                trees = read_nexus_trees(text, ns)
            else:
                trees = scan_newick_text(text, ns)
        finally:
            grew = len(ns) != known
            if grew:
                self._query_ns = None
        return _Pending(trees=trees, n_taxa=max(1, len(ns)),
                        epoch=self._epoch, text=text if grew else None)

    async def _handle_query(self, rid: Any,
                            msg: dict[str, Any]) -> dict[str, Any]:
        text = msg.get("trees")
        if not isinstance(text, str):
            return error_reply(rid, "bad-request",
                               "'trees' must be a string of Newick/NEXUS "
                               "text")
        t0 = time.perf_counter()
        try:
            pending = self._parse(text)
        except ReproError as exc:
            return error_reply(rid, "parse-error", str(exc))
        finally:
            self._observe("serve.parse_seconds", time.perf_counter() - t0)
        trees = pending.trees
        if not trees:
            return ok_reply(rid, values=[], trees=0, **self._stamp())
        cfg = self.config
        if (self._queued_trees
                and self._queued_trees + len(trees) > cfg.queue_max_trees):
            # Backpressure: more trees are already queued than one batch
            # drains; admitting more only grows latency unboundedly.
            return self._admission_reject(
                rid, "queue_trees",
                f"{self._queued_trees} trees already queued; admitting "
                f"{len(trees)} more would exceed the {cfg.queue_max_trees}"
                "-tree backpressure cap — back off and retry")
        pending.future = self._loop.create_future()
        pending.enqueued_at = time.monotonic()
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            return self._admission_reject(
                rid, "queue_requests",
                f"query queue is full ({cfg.queue_max_requests} pending "
                "requests); back off and retry")
        self._queued_trees += len(trees)
        self._set_gauge("serve.queued_trees", self._queued_trees)
        try:
            values, stamp = await pending.future
        except ReproError as exc:
            return error_reply(rid, "store-error", str(exc))
        except Exception as exc:  # never leak a traceback over the wire
            return error_reply(rid, "internal",
                               f"{type(exc).__name__}: {exc}")
        return ok_reply(rid, values=values, trees=len(trees), **stamp)

    async def _batch_loop(self) -> None:
        """Coalesce concurrently-pending queries into single probes."""
        cfg = self.config
        while True:
            pending = [await self._queue.get()]
            # Yield at least once per batch, window or not: with a
            # backlog ``get`` does not, and the last batch's replies
            # would wait behind this one's probe.
            await asyncio.sleep(cfg.batch_window_s)
            n_trees = len(pending[0].trees)
            while n_trees < cfg.batch_max_trees and not self._queue.empty():
                extra = self._queue.get_nowait()
                pending.append(extra)
                n_trees += len(extra.trees)
            self._queued_trees = max(0, self._queued_trees - n_trees)
            self._set_gauge("serve.queued_trees", self._queued_trees)
            now = time.monotonic()
            for item in pending:
                self._observe("serve.queue_wait_seconds",
                              now - item.enqueued_at)
            self._observe("serve.batch_requests", len(pending))
            self._observe("serve.batch_trees", n_trees)
            t0 = time.perf_counter()
            try:
                per_request = self._score(pending)
            except Exception as exc:
                for item in pending:
                    if not item.future.done():
                        item.future.set_exception(exc)
            else:
                self._observe("serve.probe_seconds",
                              time.perf_counter() - t0)
                for item, result in zip(pending, per_request):
                    if not item.future.done():
                        item.future.set_result(result)
            self._inc("serve.batches")

    def _stamp(self) -> dict[str, int]:
        """The store state a reply names."""
        return {"reference_trees": self._store.n_trees,
                "generation": self._store.generation, "epoch": self._epoch}

    def _score(self, pending: list[_Pending]
               ) -> list[tuple[list[float], dict[str, int]]]:
        """One probe for the whole batch, on the loop thread.  Each
        request gets its values and the stamp of the state they were
        computed on: the table and the stamp are read in one synchronous
        step, with no tail in between."""
        for item in pending:
            if item.text is not None and item.epoch != self._epoch:
                # A tail since the read may have given the bits of its
                # query-only taxa to new store taxa: read it again.
                fresh = self._parse(item.text)
                item.trees, item.n_taxa = fresh.trees, fresh.n_taxa
                item.epoch = fresh.epoch
        n_taxa = max(item.n_taxa for item in pending)
        with trace("serve.batch", requests=len(pending),
                   trees=sum(len(item.trees) for item in pending)):
            # Pack wide enough for the widest query namespace (new taxa
            # in query trees): a narrower key truncates masks.
            table = self._store.table(
                max(n_taxa, len(self._store.labels), 1))
            stamp = self._stamp()
            probe = table.vectorized()
            block = SplitBlock.concat(
                [probe.split_block(item.trees) for item in pending])
            values = probe.average_rf_block(block).tolist()
        out = []
        offset = 0
        for item in pending:
            out.append(([float(v)
                         for v in values[offset:offset + len(item.trees)]],
                        stamp))
            offset += len(item.trees)
        return out

    # -- journal tailing ----------------------------------------------------

    async def _tail_loop(self) -> None:
        """Make external ``store add`` / ``compact`` visible live."""
        while True:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._closing.wait(),
                                       timeout=self.config.tail_interval_s)
                return  # shutting down
            try:
                self._refresh_store()
            except Exception:
                # Transient (mid-compact window, torn manifest read):
                # keep serving the last consistent view, try again.
                self._inc("serve.tail_errors")

    def _refresh_store(self) -> None:
        """Tail the journal — or reopen after an external compaction —
        and bump the epoch if the state changed."""
        store = self._store
        if BFHStore.read_generation(self.store_dir) == store.generation:
            try:
                applied = store.tail_journal()
            except StoreError:
                # The journal vanished between the generation probe and
                # the read: a compaction raced us.  Reopen.
                pass
            else:
                self._set_gauge("store.journal_lag_bytes",
                                store.journal_lag_bytes())
                if applied:
                    self._epoch += 1
                    self._inc("serve.tail_applied", applied)
                return
        self._store = BFHStore.open(self.store_dir)
        self._epoch += 1
        self._inc("serve.reopens")
        self._set_gauge("store.journal_lag_bytes",
                        self._store.journal_lag_bytes())

    # -- introspection -------------------------------------------------------

    def _stats_payload(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "server": SERVER_NAME,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started_at,
            "epoch": self._epoch,
            "draining": self._draining,
            "listeners": [str(ep) for ep in self.bound_endpoints],
            "admission": {
                "max_inflight": cfg.max_inflight,
                "queue_max_requests": cfg.queue_max_requests,
                "queue_max_trees": cfg.queue_max_trees,
                "queued_trees": self._queued_trees,
            },
            "metrics": self._metrics.snapshot(),
            "store": self._store.info(),
        }


@contextlib.contextmanager
def serving(store_dir: str | os.PathLike,
            config: ServeConfig) -> Iterator[ServeDaemon]:
    """Context manager: daemon on a background thread, stopped on exit."""
    daemon = ServeDaemon(store_dir, config)
    handle = daemon.run_in_thread()
    try:
        yield daemon
    finally:
        handle.stop()
