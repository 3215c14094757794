"""The multi-process supervisor: SO_REUSEPORT workers, crash respawn,
and pool-wide stop — driven through the real CLI in a subprocess, the
way production runs it.

The acceptance bar: SIGKILL any single worker and no client retry ever
exceeds its backoff budget — connections land on survivors immediately
and a respawned worker rejoins within seconds.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import write_newick
from repro.serve import Endpoint, ServeClient, ServeConfig, ServeSupervisor
from repro.store import build_store
from repro.util.errors import ServeError

from tests.conftest import make_collection

pytest.importorskip("numpy")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(socket, "SO_REUSEPORT"),
    reason="supervisor needs fork and SO_REUSEPORT")


@pytest.fixture
def collection():
    return make_collection(10, 12, seed=20260814)


@pytest.fixture
def store_dir(tmp_path, collection):
    path = tmp_path / "store"
    build_store(path, collection, n_shards=2)
    return path


def _text(trees) -> str:
    return "\n".join(write_newick(t) for t in trees)


def _free_port() -> int:
    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
    finally:
        sock.close()


def _pid_alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited but unreaped zombie is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: the signal probe is all there is
        return True


def _connect_with_budget(addr, deadline_s: float = 15.0) -> ServeClient:
    """One reconnect-with-backoff budget; exceeding it fails the test."""
    return ServeClient.connect(addr, retries=60, backoff_s=0.05,
                               max_backoff_s=0.25, timeout=deadline_s)


class _Pool:
    """A supervisor pool running as a real CLI subprocess.

    The CLI starts in its own session, so the supervisor and every
    worker it forks share one process group that :meth:`kill` can
    SIGKILL at once; killing only the supervisor would orphan them.
    """

    def __init__(self, store_dir, tmp_path, n_procs=2):
        self.socket_path = str(tmp_path / "pool.sock")
        self.port = _free_port()
        self.tcp_addr = f"tcp://127.0.0.1:{self.port}"
        self.seen_pids: set[int] = set()
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(__file__).resolve()
                                 .parents[2] / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start",
             str(store_dir),
             "--addr", f"unix://{self.socket_path}",
             "--addr", self.tcp_addr,
             "--procs", str(n_procs),
             "--tail-interval", "0.1", "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)

    def wait_ready(self, deadline_s: float = 30.0) -> None:
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    "supervisor exited early:\n"
                    + self.proc.stderr.read().decode())
            try:
                with ServeClient.connect(self.socket_path) as client:
                    client.ping()
                return
            except Exception:
                time.sleep(0.05)
        raise AssertionError("pool never became ready")

    def worker_pids(self, attempts: int = 30) -> set[int]:
        """Distinct worker pids, discovered by repeatedly asking stats
        (connections land on whichever worker accepts first).  A
        connection reset by a just-killed worker is skipped, not fatal."""
        from repro.util.errors import ServeConnectionError

        pids: set[int] = set()
        for _ in range(attempts):
            try:
                with _connect_with_budget(self.tcp_addr) as client:
                    pids.add(client.stats()["pid"])
            except ServeConnectionError:
                continue
        self.seen_pids |= pids
        return pids

    def stop(self, timeout: float = 20.0) -> int:
        if self.proc.poll() is None:
            with _connect_with_budget(self.socket_path) as client:
                client.shutdown()
        return self.proc.wait(timeout=timeout)

    def kill(self, deadline_s: float = 10.0) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited
        self.proc.wait(timeout=deadline_s)
        deadline = time.monotonic() + deadline_s
        while any(map(_pid_alive, self.seen_pids)):
            if time.monotonic() > deadline:
                alive = sorted(filter(_pid_alive, self.seen_pids))
                raise AssertionError(f"workers outlived the pool: {alive}")
            time.sleep(0.05)


@pytest.fixture
def pool(store_dir, tmp_path):
    pool = _Pool(store_dir, tmp_path, n_procs=2)
    try:
        pool.wait_ready()
        yield pool
    finally:
        pool.kill()


class TestPoolServing:
    def test_workers_share_endpoints_and_answer_bitwise(self, pool,
                                                        collection):
        want = bfhrf_average_rf(collection, collection)
        with _connect_with_budget(pool.socket_path) as client:
            assert client.query(_text(collection)) == want
        with _connect_with_budget(pool.tcp_addr) as client:
            assert client.query(_text(collection)) == want
            assert client.stats()["listeners"] == [
                f"unix://{pool.socket_path}", pool.tcp_addr]

    def test_two_distinct_worker_pids(self, pool):
        assert len(pool.worker_pids()) == 2

    def test_sigkilled_worker_respawns_and_service_continues(
            self, pool, collection):
        """SIGKILL one worker: queries keep succeeding within a single
        client backoff budget, and a fresh pid joins the pool."""
        before = pool.worker_pids()
        assert len(before) == 2
        victim = sorted(before)[0]
        os.kill(victim, signal.SIGKILL)

        # Zero failures beyond the backoff budget: a connection the
        # dead worker had already accepted dies with a reset — that
        # casualty must be recovered by ONE fresh reconnect-with-backoff
        # (a survivor or the respawn picks it up); a second failure
        # fails the test.
        from repro.util.errors import ServeConnectionError

        want = bfhrf_average_rf(collection[:2], collection)
        for _ in range(10):
            try:
                with _connect_with_budget(pool.tcp_addr) as client:
                    assert client.query(_text(collection[:2])) == want
            except ServeConnectionError:
                with _connect_with_budget(pool.tcp_addr) as client:
                    assert client.query(_text(collection[:2])) == want

        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            pids = pool.worker_pids(attempts=10)
            if victim not in pids and len(pids) == 2:
                break
            time.sleep(0.2)
        else:
            raise AssertionError(
                f"no respawned worker appeared (still seeing {pids})")

    def test_stop_request_tears_down_whole_pool(self, pool):
        assert pool.stop() == 0
        assert not os.path.exists(pool.socket_path), \
            "supervisor must unlink its unix socket"

    def test_sigterm_supervisor_exits_cleanly(self, pool):
        pool.proc.send_signal(signal.SIGTERM)
        assert pool.proc.wait(timeout=20) == 0
        assert not os.path.exists(pool.socket_path)


class TestSupervisorValidation:
    def _config(self, tmp_path, *, endpoints=(), **overrides) -> ServeConfig:
        defaults = dict(endpoints=[str(tmp_path / "v.sock"), *endpoints])
        defaults.update(overrides)
        return ServeConfig(**defaults)

    def test_rejects_ephemeral_tcp_port_with_multiple_procs(
            self, tmp_path, store_dir):
        config = self._config(tmp_path, endpoints=["tcp://127.0.0.1:0"])
        with pytest.raises(ServeError, match="ephemeral"):
            ServeSupervisor(store_dir, config, n_procs=2)

    def test_rejects_nonpositive_procs(self, tmp_path, store_dir):
        with pytest.raises(ServeError, match="procs"):
            ServeSupervisor(store_dir, self._config(tmp_path), n_procs=0)

    def test_worker_config_enables_reuse_port_for_tcp(self, tmp_path,
                                                      store_dir):
        port = _free_port()
        config = self._config(
            tmp_path, endpoints=[f"tcp://127.0.0.1:{port}"])
        supervisor = ServeSupervisor(store_dir, config, n_procs=2)
        assert supervisor._worker_config.reuse_port is True
        assert config.reuse_port is False  # caller's config untouched

    def test_unix_only_pool_keeps_reuse_port_off(self, tmp_path, store_dir):
        supervisor = ServeSupervisor(store_dir, self._config(tmp_path),
                                     n_procs=2)
        assert supervisor._worker_config.reuse_port is False
