"""The ``serve`` workload: an open-loop load generator against the daemon.

One ``bfhrf serve start --procs 1`` daemon (a subprocess, default
batching) serves a warm r=1000 store.  This process drives it over two
unix connections:

* **steady phase** -- ``STEADY_REQUESTS`` Poisson arrivals at the fixed
  absolute rate ``STEADY_RPS`` (about a third of the seed's capacity),
  open loop: a request is sent when it is due whatever the daemon is
  doing, and its latency runs from that due time, so a stall also counts
  against the requests queued behind it.  Request sizes are 1, 4 and 16
  held-out trees in the ratio 60:30:10.  Meanwhile a writer thread
  appends ``WRITE_BATCH`` trees to the store every ``WRITE_EVERY_S``
  seconds, so the daemon tails the journal and rebuilds its probe table
  under load.
* **saturation phase** -- half of ``--seconds``, no writes; each
  connection sends its share of a fixed round back to back (closed
  loop), both shares holding the same sizes so neither connection
  finishes long before the other.  A round's wall time gives
  ``wall_s``, ``capacity_rps`` and ``trees_per_s``.

Every reply is checked against ``bfhrf_average_rf`` at the reference
size the reply reports.  A reply whose values belong to the previous
writer step is the known reply-state race and is counted as
``serve.state_skew``, not as a failure.  A run in which the generator
fell behind its schedule, or the daemon shed steady-phase load, is
invalid and is not scored.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import (REFERENCE_TREES, ROOT, SETUP_REPEATS, InvalidRun,
                       Outcome, layer_metrics, percentile, share_metrics,
                       synthesize)

STEADY_RPS = 25.0            # fixed absolute offered load, ~1/3 of capacity
SIZE_BLOCK = (1,) * 6 + (4,) * 3 + (16,)   # 60/30/10 per shuffled block
POOL_TREES = 200             # held-out query trees
WRITE_BATCH = 4              # trees per writer step
WRITE_EVERY_S = 2.0
STEADY_REQUESTS = 1000       # >= 10 samples beyond p99
CONNECTIONS = 2
ROUND_SHARE = 20             # requests per connection per saturation round
ROUND_REQUESTS = CONNECTIONS * ROUND_SHARE
# Generator lateness p99 above this makes a run invalid.  It only has to
# stay well under the mean gap between arrivals (40 ms at 25 rps) for the
# offered load to be the scheduled one; lateness itself is inside every
# latency, which runs from the scheduled send time.
LAG_BOUND_MS = 25.0
STORE_SHARDS = 4
READY_TIMEOUT_S = 60.0


def _requests(rng: random.Random, n: int) -> list[list[int]]:
    """``n`` requests of pool-tree indices, sizes in exact 60/30/10
    blocks so every seed offers the same work mix."""
    sizes: list[int] = []
    while len(sizes) < n:
        block = list(SIZE_BLOCK)
        rng.shuffle(block)
        sizes.extend(block)
    return [rng.sample(range(POOL_TREES), size) for size in sizes[:n]]


def _frame(rid: int, trees: list[int], texts: list[str]) -> bytes:
    text = "\n".join(texts[i] for i in trees)
    return (json.dumps({"id": rid, "op": "query", "trees": text})
            + "\n").encode()


class Daemon:
    """A ``bfhrf serve start`` subprocess on one store, one unix socket.

    With ``dump`` set it starts through ``launcher.py``, which installs
    the span shims and writes the daemon's spans to ``dump`` on exit.
    """

    def __init__(self, store_dir: Path, sock: Path, log: Path,
                 dump: Path | None = None):
        self.sock = sock
        cmd = [sys.executable]
        cmd += (["-m", "repro"] if dump is None
                else [str(Path("perfbench") / "launcher.py"), str(dump)])
        cmd += ["--quiet", "serve", "start", str(store_dir),
                "--addr", f"unix://{sock}", "--procs", "1"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                     stderr=self._log)

    def wait_ready(self):
        """Connect as soon as the daemon says hello; returns the client."""
        from repro.serve.client import ServeClient
        from repro.util.errors import ServeConnectionError

        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                return ServeClient.connect(f"unix://{self.sock}")
            except ServeConnectionError:
                if self.proc.poll() is not None:
                    raise InvalidRun(f"daemon exited with {self.proc.returncode}"
                                     f" before saying hello") from None
                if time.monotonic() > deadline:
                    raise InvalidRun("daemon never said hello") from None
                time.sleep(0.01)

    def stop(self) -> None:
        """Drain through the protocol; terminate, then kill, if that fails."""
        from repro.serve.client import ServeClient

        if self.proc.poll() is None:
            try:
                with ServeClient.connect(f"unix://{self.sock}",
                                         timeout=10.0) as client:
                    client.shutdown()
            except Exception:  # the daemon is wedged or gone: stop it anyway
                self.proc.terminate()
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Writer(threading.Thread):
    """Appends ``WRITE_BATCH`` trees every ``WRITE_EVERY_S`` seconds
    until ``stop_at``, off the generator's send path."""

    def __init__(self, store, trees, start: float, stop_at: float):
        super().__init__(name="perfbench-writer", daemon=True)
        self.store, self.trees = store, trees
        self.start_at, self.stop_at = start, stop_at
        self.writes = 0
        self.error: str | None = None
        self.halt = threading.Event()

    def run(self) -> None:
        while (self.writes + 1) * WRITE_BATCH <= len(self.trees):
            due = self.start_at + (self.writes + 1) * WRITE_EVERY_S
            if due >= self.stop_at or self.halt.wait(due - time.monotonic()):
                return
            lo = self.writes * WRITE_BATCH
            try:
                self.store.add_trees(self.trees[lo:lo + WRITE_BATCH])
            except Exception as exc:  # reported as a failed operation
                self.error = repr(exc)
                return
            self.writes += 1


async def _connect(sock: Path):
    reader, writer = await asyncio.open_unix_connection(str(sock),
                                                        limit=1 << 24)
    hello = json.loads(await reader.readline())
    if hello.get("type") != "hello":
        raise InvalidRun(f"unexpected greeting {hello!r}")
    return reader, writer


async def _steady(sock: Path, frames: list[bytes], offsets: list[float],
                  make_writer):
    """Send ``frames[i]`` at ``offsets[i]`` on connection ``i % 2``."""
    conns = [await _connect(sock) for _ in range(CONNECTIONS)]
    received: list[tuple[float, bytes]] = []

    async def read(k: int) -> None:
        reader = conns[k][0]
        for _ in range(k, len(frames), CONNECTIONS):
            line = await reader.readline()
            if not line:
                return
            received.append((time.monotonic(), line))

    readers = [asyncio.ensure_future(read(k)) for k in range(CONNECTIONS)]
    base = time.monotonic() + 0.05
    writer_thread = make_writer(base, base + offsets[-1])
    writer_thread.start()
    lags = []
    try:
        for i, offset in enumerate(offsets):
            due = base + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            stream = conns[i % CONNECTIONS][1]
            stream.write(frames[i])
            lags.append(time.monotonic() - due)
            await stream.drain()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.gather(*readers), timeout=60.0)
    finally:
        writer_thread.halt.set()
        writer_thread.join(30.0)
        for task in readers:
            task.cancel()
        for _, stream in conns:
            stream.close()
    return base, lags, received, writer_thread


async def _saturation(sock: Path, frames: list[bytes], seconds: float,
                      min_rounds: int = 3):
    """Closed loop: connection ``k`` sends its share of one round,
    ``frames[k * ROUND_SHARE:(k + 1) * ROUND_SHARE]``, back to back;
    rounds repeat for about ``seconds``."""
    conns = [await _connect(sock) for _ in range(CONNECTIONS)]
    lines: list[bytes] = []
    walls: list[float] = []
    windows: list[tuple[float, float]] = []

    async def drive(k: int) -> None:
        reader, stream = conns[k]
        for frame in frames[k * ROUND_SHARE:(k + 1) * ROUND_SHARE]:
            stream.write(frame)
            await stream.drain()
            line = await reader.readline()
            if not line:
                raise InvalidRun("daemon closed a saturation connection")
            lines.append(line)

    start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            await asyncio.wait_for(
                asyncio.gather(*(drive(k) for k in range(CONNECTIONS))),
                timeout=60.0)
            t1 = time.monotonic()
            walls.append(t1 - t0)
            windows.append((t0, t1))
            if (len(walls) >= min_rounds
                    and t1 - start + statistics.median(walls) > seconds):
                break
    finally:
        for _, stream in conns:
            stream.close()
    return walls, windows, lines


def _expected(base, pool, extra, writes: int) -> list[list[float]]:
    """``bfhrf`` values of every pool tree after each writer step."""
    from repro.core.bfhrf import bfhrf_average_rf, build_bfh

    bfh = build_bfh(base)
    states = [bfhrf_average_rf(pool, bfh=bfh)]
    for step in range(writes):
        for tree in extra[step * WRITE_BATCH:(step + 1) * WRITE_BATCH]:
            bfh.add_tree(tree)
        states.append(bfhrf_average_rf(pool, bfh=bfh))
    return states


class _Checker:
    """Classifies replies against the per-state reference values."""

    def __init__(self, requests, states):
        self.requests, self.states = requests, states
        self.skew = self.failed = self.overloaded = 0
        self.errors: list[str] = []

    def check(self, line: bytes) -> bool:
        reply = json.loads(line)
        if not reply.get("ok"):
            kind = (reply.get("error") or {}).get("type")
            self.overloaded += kind == "overloaded"
            self._fail(f"error reply {reply.get('error')!r}")
            return False
        trees = self.requests[reply["id"]]
        step, rest = divmod(reply["reference_trees"] - REFERENCE_TREES,
                            WRITE_BATCH)
        if rest or not 0 <= step < len(self.states):
            self._fail(f"reply reports {reply['reference_trees']} "
                       "reference trees, which no writer step produced")
            return False
        if reply["values"] == [self.states[step][i] for i in trees]:
            return True
        if step and reply["values"] == [self.states[step - 1][i]
                                        for i in trees]:
            self.skew += 1
            return True
        self._fail(f"request {reply['id']}: values differ from bfhrf at "
                   f"{reply['reference_trees']} reference trees")
        return False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _stats_metrics(stats: dict) -> dict[str, float]:
    hist = stats["metrics"]["histograms"]
    counters = stats["metrics"]["counters"]

    def h(name, key, scale=1.0):
        return scale * hist.get(name, {}).get(key, 0.0)

    return {
        "serve.queue_wait_p50_ms": h("serve.queue_wait_seconds", "p50", 1e3),
        "serve.queue_wait_p99_ms": h("serve.queue_wait_seconds", "p99", 1e3),
        "serve.batch_p50_ms": h("serve.probe_seconds", "p50", 1e3),
        "serve.batch_trees_mean": h("serve.batch_trees", "mean"),
        "serve.batch_requests_mean": h("serve.batch_requests", "mean"),
        "serve.admission_rejected": counters.get("serve.admission_rejected", 0),
        "serve.reopens": counters.get("serve.reopens", 0),
        "serve.tail_applied": counters.get("serve.tail_applied", 0),
    }


def run_serve(*, seed: int, seconds: int, trace: bool,
              work: Path) -> Outcome:
    from repro.newick.writer import write_newick
    from repro.store.store import BFHStore, build_store

    n_steady = STEADY_REQUESTS
    # Enough held-out trees for a writer step every WRITE_EVERY_S for the
    # phase's expected length, with a margin for a long Poisson draw.
    writer_trees = WRITE_BATCH * math.ceil(
        1.2 * n_steady / STEADY_RPS / WRITE_EVERY_S)
    trees = synthesize(seed, REFERENCE_TREES + POOL_TREES + writer_trees)
    base = trees[:REFERENCE_TREES]
    pool = trees[REFERENCE_TREES:REFERENCE_TREES + POOL_TREES]
    extra = trees[REFERENCE_TREES + POOL_TREES:]
    texts = [write_newick(tree) for tree in pool]

    rng = random.Random(seed)
    requests = _requests(rng, n_steady)
    for _ in range(CONNECTIONS):
        requests += _requests(rng, ROUND_SHARE)
    frames = [_frame(rid, req, texts) for rid, req in enumerate(requests)]
    offsets, t = [], 0.0
    for _ in range(n_steady):
        t += rng.expovariate(STEADY_RPS)
        offsets.append(t)
    steady_frames, round_frames = frames[:n_steady], frames[n_steady:]
    round_trees = sum(len(r) for r in requests[n_steady:])

    # Set-up, repeated: build the store, start the daemon, wait for its
    # hello, answer one warm query.  The last daemon stays up.
    setups, daemons = [], []
    try:
        for i in range(SETUP_REPEATS):
            store_dir = work / f"st{i}"
            t0 = time.perf_counter()
            build_store(store_dir, base, n_shards=STORE_SHARDS)
            daemon = Daemon(store_dir, work / f"s{i}.sock",
                            work / f"daemon{i}.log")
            daemons.append(daemon)
            with daemon.wait_ready() as client:
                client.query(texts[0])
            setups.append(time.perf_counter() - t0)
            if i < SETUP_REPEATS - 1:
                daemon.stop()
        snapshot_bytes = sum(p.stat().st_size for p in store_dir.glob("*.snap"))

        untraced_walls: list[float] = []
        dump = work / "spans.json"
        if trace:
            untraced_walls, _, _ = asyncio.run(
                _saturation(daemon.sock, round_frames, 0.0))
            daemon.stop()
            daemon = Daemon(store_dir, work / "traced.sock",
                            work / "traced.log", dump=dump)
            daemons.append(daemon)
            with daemon.wait_ready() as client:
                client.query(texts[0])
        writer_store = BFHStore.open(store_dir)

        def make_writer(start, stop_at):
            return Writer(writer_store, extra, start, stop_at)

        base_t, lags, received, writer = asyncio.run(
            _steady(daemon.sock, steady_frames, offsets, make_writer))
        journal_bytes = sum(p.stat().st_size
                            for p in store_dir.glob("journal-*.log"))
        final = REFERENCE_TREES + writer.writes * WRITE_BATCH
        with daemon.wait_ready() as client:   # let the tailer catch up
            deadline = time.monotonic() + 10.0
            while (client.request("query", trees=texts[0])["reference_trees"]
                   != final and time.monotonic() < deadline):
                time.sleep(0.05)
        walls, windows, sat_lines = asyncio.run(
            _saturation(daemon.sock, round_frames, seconds / 2))
        stats = None
        if trace:
            with daemon.wait_ready() as client:
                stats = client.stats()
    finally:
        for d in daemons:
            d.stop()

    states = _expected(base, pool, extra, writer.writes)
    checker = _Checker(requests, states)
    latencies = []
    for t_recv, line in received:
        if checker.check(line):
            rid = json.loads(line)["id"]
            latencies.append(t_recv - (base_t + offsets[rid]))
    steady_overloaded = checker.overloaded
    for line in sat_lines:
        checker.check(line)
    attempted = n_steady + len(walls) * ROUND_REQUESTS + writer.writes
    failed = checker.failed + (n_steady - len(received))
    if writer.error:
        attempted += 1
        failed += 1
        checker.errors.append(f"writer: {writer.error}")

    lag_p99_ms = 1e3 * percentile(lags, 99)
    if len(lags) < n_steady:
        raise InvalidRun(f"sent {len(lags)} of {n_steady} scheduled requests")
    if lag_p99_ms > LAG_BOUND_MS:
        raise InvalidRun(f"generator lag p99 {lag_p99_ms:.1f} ms exceeds "
                         f"{LAG_BOUND_MS} ms")
    if steady_overloaded:
        raise InvalidRun(f"daemon shed {steady_overloaded} steady-phase "
                         "requests")

    round_wall = statistics.median(walls)
    latency_p50_ms = 1e3 * statistics.median(latencies)
    latency_p99_ms = 1e3 * percentile(latencies, 99)
    notes = [f"steady: {n_steady} requests at {STEADY_RPS} rps open loop, "
             f"{len(latencies)} latency samples, p50 {latency_p50_ms:.1f} ms, "
             f"p99 {latency_p99_ms:.1f} ms, {writer.writes} writer steps, "
             f"{checker.skew} state-skewed replies; generator lag p99 "
             f"{lag_p99_ms:.2f} ms",
             f"saturation: {len(walls)} closed-loop rounds of "
             f"{ROUND_REQUESTS} requests ({round_trees} trees) on "
             f"{CONNECTIONS} connections; round walls "
             + " ".join(f"{w:.3f}" for w in walls)]
    notes += checker.errors
    if not trace:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": round_wall,
            "trees_per_s": round_trees / round_wall,
            "capacity_rps": ROUND_REQUESTS / round_wall,
            "peak_rss_mb": rss_kb / 1024.0,
            "bytes_per_tree": snapshot_bytes / REFERENCE_TREES,
        }
        return Outcome(metrics, attempted, failed, notes)

    spans = [tuple(s) for s in json.loads(dump.read_text())]
    sat_start, sat_end = windows[0][0], windows[-1][1]
    # The daemon's parse workers and batcher share one interpreter lock,
    # so wall-time spans overlap; thread CPU time attributes each layer
    # only the time it ran.
    metrics = layer_metrics(
        tracer.aggregate(spans, base_t, sat_end, cpu=True), 1)
    sat_agg = tracer.aggregate(spans, sat_start, sat_end, cpu=True)
    metrics.update(share_metrics(sat_agg, sum(walls)))
    untraced = statistics.median(untraced_walls)
    metrics["observability.coverage_ratio"] = (
        sum(tracer.layer_self_times(sat_agg).values())
        / (len(walls) * untraced))
    metrics["observability.overhead_ratio"] = round_wall / untraced
    metrics.update(_stats_metrics(stats))
    metrics.update({
        "serve.state_skew": checker.skew,
        "loadgen.latency_p50_ms": latency_p50_ms,
        "loadgen.latency_p99_ms": latency_p99_ms,
        "loadgen.lag_p99_ms": lag_p99_ms,
        "loadgen.sent": len(lags),
        "loadgen.writes": writer.writes,
        "store.journal_bytes": journal_bytes,
    })
    return Outcome(metrics, attempted, failed, notes)
