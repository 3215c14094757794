"""Fault injection: every failure mode ends in a typed error or a clean
recovery — never a hang, never a traceback over the wire."""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import trees_from_string, write_newick
from repro.serve import ServeClient, ServeConfig, ServeDaemon, serving
from repro.serve.protocol import decode_frame, encode_frame
from repro.store import BFHStore, build_store
from repro.util.errors import (
    ServeConnectionError,
    ServeError,
    ServeRequestError,
)

from tests.conftest import make_collection

pytest.importorskip("numpy")


@pytest.fixture
def collection():
    return make_collection(10, 16, seed=20260811)


@pytest.fixture
def store_dir(tmp_path, collection):
    path = tmp_path / "store"
    build_store(path, collection, n_shards=2)
    return path


def _config(tmp_path, *, endpoints=(), **overrides) -> ServeConfig:
    defaults = dict(endpoints=[str(tmp_path / "serve.sock"), *endpoints],
                    tail_interval_s=0.05)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _text(trees) -> str:
    return "\n".join(write_newick(t) for t in trees)


def _raw_connect(socket_path: str) -> tuple[socket.socket, dict]:
    """A bare socket past the hello, for sending hostile bytes."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(socket_path)
    buffer = b""
    while b"\n" not in buffer:
        buffer += sock.recv(65536)
    hello_line, _ = buffer.split(b"\n", 1)
    return sock, decode_frame(hello_line)


def _raw_request(sock: socket.socket, payload: bytes) -> dict:
    sock.sendall(payload)
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("daemon closed instead of replying")
        buffer += chunk
    line, _ = buffer.split(b"\n", 1)
    return decode_frame(line)


class TestMalformedFrames:
    def test_non_json_frame_gets_bad_request_and_connection_survives(
            self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            sock, hello = _raw_connect(daemon.config.endpoints[0].path)
            assert hello["server"] == "bfhrf-serve"
            reply = _raw_request(sock, b"((A,B),C); this is not json\n")
            assert reply["ok"] is False
            assert reply["error"]["type"] == "bad-request"
            # Same connection, next frame: still served.
            reply = _raw_request(
                sock, encode_frame({"id": 1, "op": "ping"}))
            assert reply == {"id": 1, "ok": True, "pong": True}
            sock.close()

    def test_json_array_frame_is_bad_request(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            sock, _ = _raw_connect(daemon.config.endpoints[0].path)
            reply = _raw_request(sock, b"[1, 2, 3]\n")
            assert reply["error"]["type"] == "bad-request"
            sock.close()

    def test_missing_op_and_unknown_op(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    client.request("frobnicate")
                assert excinfo.value.type == "unknown-op"
                sock, _ = _raw_connect(daemon.config.endpoints[0].path)
                reply = _raw_request(sock, b'{"id": 5}\n')
                assert reply["error"]["type"] == "bad-request"
                sock.close()
                assert client.ping()  # the first client is unharmed

    def test_query_with_non_string_trees(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    client.request("query", trees=[1, 2])
                assert excinfo.value.type == "bad-request"

    def test_unparseable_newick_is_parse_error(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    client.query("((A,B),C")  # unbalanced
                assert excinfo.value.type == "parse-error"
                assert client.ping()  # typed error, connection usable


class TestOversizedFrames:
    def test_oversized_frame_typed_error_then_hangup(self, tmp_path,
                                                     store_dir, collection):
        config = _config(tmp_path, max_frame_bytes=1024)
        with serving(store_dir, config) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                big = _text(collection * 8)
                assert len(big) > config.max_frame_bytes
                with pytest.raises(ServeRequestError) as excinfo:
                    client.query(big)
                assert excinfo.value.type == "oversized-frame"
                # The stream cannot be resynced: the daemon hangs up.
                with pytest.raises(ServeConnectionError):
                    client.ping()
            # The daemon itself is fine — a new client gets real answers.
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                small = _text(collection[:1])
                assert client.query(small) == bfhrf_average_rf(
                    collection[:1], collection)


class TestClientDisconnects:
    def test_disconnect_mid_response_leaves_daemon_healthy(
            self, tmp_path, store_dir, collection):
        with serving(store_dir, _config(tmp_path)) as daemon:
            for _ in range(3):
                sock, _ = _raw_connect(daemon.config.endpoints[0].path)
                sock.sendall(encode_frame(
                    {"id": 1, "op": "query", "trees": _text(collection)}))
                sock.close()  # gone before the reply can be written
            deadline = time.monotonic() + 10
            while True:  # the daemon must keep accepting and answering
                try:
                    with ServeClient.connect(daemon.config.endpoints[0].path,
                                             retries=3) as client:
                        got = client.query(_text(collection[:2]))
                    break
                except ServeConnectionError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
        assert got == bfhrf_average_rf(collection[:2], collection)

    def test_half_frame_then_disconnect(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            sock, _ = _raw_connect(daemon.config.endpoints[0].path)
            sock.sendall(b'{"id": 1, "op": "qu')  # no newline, ever
            sock.close()
            with ServeClient.connect(daemon.config.endpoints[0].path,
                                     retries=3) as client:
                assert client.ping()


class TestCompactionRace:
    def test_external_compaction_during_queries(self, tmp_path, store_dir,
                                                collection):
        """A compaction by another process mid-serve: the daemon reopens
        at the new generation and answers stay bitwise correct."""
        probe = collection[:3]
        want = bfhrf_average_rf(probe, collection)
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.query(_text(probe)) == want

                external = BFHStore.open(store_dir)
                external.add_trees(collection[:1])
                external.remove_trees(collection[:1])  # journal traffic
                old_generation = external.generation
                external.compact()
                assert external.generation > old_generation

                deadline = time.monotonic() + 10
                while True:
                    reply = client.request("query", trees=_text(probe))
                    assert reply["values"] == want  # exact throughout
                    if reply["generation"] == external.generation:
                        break
                    if time.monotonic() > deadline:
                        raise AssertionError(
                            "daemon never reopened at the compacted "
                            f"generation (still {reply['generation']})")
                    time.sleep(0.02)
                stats = client.stats()
        assert stats["metrics"]["counters"]["serve.reopens"] >= 1

    @pytest.mark.skipif(
        not hasattr(os, "fork") or not hasattr(socket, "SO_REUSEPORT"),
        reason="a --procs pool needs fork and SO_REUSEPORT")
    def test_compaction_races_a_two_process_pool(self, tmp_path, store_dir,
                                                 collection):
        """``--procs 2``: two connections query in a loop while another
        process adds, removes and compacts.  Every reply is ``ok`` and
        exact at the state it reports, and both workers tail and reopen
        up to the last generation."""
        from tests.serve.test_supervisor import _Pool, _connect_with_budget

        probe = _text(collection[:3])
        writer = BFHStore.open(store_dir)
        extra = trees_from_string(_text(make_collection(10, 2, seed=5)),
                                  writer.namespace())
        # Every state the writer passes through is the base plus a
        # prefix of ``extra``, so the tree count names it.
        states = {len(collection) + k: bfhrf_average_rf(
            collection[:3], collection + extra[:k]) for k in range(3)}
        errors: list[str] = []
        seen: set[tuple[int, int]] = set()   # (worker pid, generation)
        writing = threading.Event()
        writing.set()

        def _check(client, reply) -> None:
            seen.add((client.hello["pid"], reply["generation"]))
            if reply["values"] != states.get(reply["reference_trees"]):
                errors.append(f"{reply['reference_trees']} trees at "
                              f"generation {reply['generation']}: "
                              f"{reply['values']}")

        def _poll(addr) -> None:
            try:
                with _connect_with_budget(addr) as client:
                    while writing.is_set():
                        _check(client, client.request("query", trees=probe))
            except ServeRequestError as exc:
                errors.append(f"{exc.type} reply: {exc}")
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        pool = _Pool(store_dir, tmp_path, n_procs=2)
        try:
            pool.wait_ready()
            pollers = [threading.Thread(target=_poll, args=(addr,))
                       for addr in (pool.socket_path, pool.tcp_addr)]
            for poller in pollers:
                poller.start()
            for _ in range(3):
                for k in range(2):
                    writer.add_trees(extra[k:k + 1])
                    time.sleep(0.05)
                writer.remove_trees(extra[1:2])
                time.sleep(0.05)
                writer.compact()
                time.sleep(0.15)
                writer.remove_trees(extra[:1])
                time.sleep(0.05)
            writer.compact()
            final = writer.generation
            # Fresh connections land on either worker; each must reach
            # the last generation with exact replies.
            deadline = time.monotonic() + 20
            while len({pid for pid, gen in seen if gen == final}) < 2:
                assert time.monotonic() < deadline, \
                    f"not every worker reached generation {final}: {seen}"
                with _connect_with_budget(pool.tcp_addr) as client:
                    pool.seen_pids.add(client.hello["pid"])
                    _check(client, client.request("query", trees=probe))
                time.sleep(0.02)
            writing.clear()
            for poller in pollers:
                poller.join(timeout=30)
            assert not any(poller.is_alive() for poller in pollers)
        finally:
            writing.clear()
            pool.seen_pids |= {pid for pid, _ in seen}
            pool.kill()
            pool.proc.stdout.close()
            pool.proc.stderr.close()
        assert not errors, errors[:3]
        assert len({gen for _, gen in seen}) > 1  # the pollers saw it move


class TestSocketRecovery:
    def test_stale_socket_from_killed_daemon_is_reclaimed(
            self, tmp_path, store_dir, collection):
        """SIGKILL leaves the socket file behind; the next daemon probes
        it, finds nobody home, unlinks, and serves."""
        config = _config(tmp_path)
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(config.endpoints[0].path)
        stale.close()  # close() without unlink == what SIGKILL leaves
        import os
        assert os.path.exists(config.endpoints[0].path)

        with serving(store_dir, config) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.query(_text(collection[:1])) == \
                    bfhrf_average_rf(collection[:1], collection)
                stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["serve.stale_sockets_recovered"] == 1

    def test_live_socket_is_refused(self, tmp_path, store_dir):
        config = _config(tmp_path)
        with serving(store_dir, config):
            rival = ServeDaemon(store_dir, config)
            with pytest.raises(ServeError, match="already serving"):
                rival.run_in_thread()

    def test_non_socket_file_is_refused(self, tmp_path, store_dir):
        config = _config(tmp_path)
        with open(config.endpoints[0].path, "w") as handle:
            handle.write("precious data, do not unlink\n")
        daemon = ServeDaemon(store_dir, config)
        with pytest.raises(ServeError, match="not a socket"):
            daemon.run_in_thread()
        with open(config.endpoints[0].path) as handle:  # untouched
            assert "precious" in handle.read()


class TestTcpFaults:
    """Hostile TCP clients: half-open shutdowns, abortive resets, and
    malformed frames must leave the daemon serving everyone else."""

    def _tcp_config(self, tmp_path) -> ServeConfig:
        return _config(tmp_path, endpoints=["tcp://127.0.0.1:0"])

    def _tcp_connect(self, endpoint) -> tuple[socket.socket, dict]:
        sock = socket.create_connection((endpoint.host, endpoint.port),
                                        timeout=10.0)
        buffer = b""
        while b"\n" not in buffer:
            buffer += sock.recv(65536)
        hello_line, _ = buffer.split(b"\n", 1)
        return sock, decode_frame(hello_line)

    def test_half_open_client_mid_frame_does_not_wedge(
            self, tmp_path, store_dir, collection):
        """A client that sends half a frame then shuts down its write
        side (TCP half-open: FIN with the read side still up) must be
        dropped cleanly, not leave a handler waiting forever."""
        with serving(store_dir, self._tcp_config(tmp_path)) as daemon:
            tcp_ep = daemon.bound_endpoints[1]
            sock, hello = self._tcp_connect(tcp_ep)
            assert hello["listener"]["kind"] == "tcp"
            sock.sendall(b'{"id": 1, "op": "query", "trees": "((A,')
            sock.shutdown(socket.SHUT_WR)  # half-open: we can still read
            # The daemon sees EOF mid-frame and hangs up its side too.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sock.recv(65536) == b"":
                    break
            else:
                raise AssertionError("daemon never closed the half-open "
                                     "connection")
            sock.close()
            # Everyone else is still being served, on both listeners.
            with ServeClient.connect(tcp_ep) as client:
                assert client.query(_text(collection[:1])) == \
                    bfhrf_average_rf(collection[:1], collection)
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.ping()

    def test_abortive_reset_after_request_is_survived(
            self, tmp_path, store_dir, collection):
        """A client that fires a query then resets the connection (RST
        via SO_LINGER 0) mid-reply must not take the daemon down."""
        import struct

        with serving(store_dir, self._tcp_config(tmp_path)) as daemon:
            tcp_ep = daemon.bound_endpoints[1]
            sock, _ = self._tcp_connect(tcp_ep)
            sock.sendall(encode_frame(
                {"id": 1, "op": "query", "trees": _text(collection)}))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()  # RST: the reply write will fail server-side
            time.sleep(0.1)
            with ServeClient.connect(tcp_ep) as client:
                assert client.query(_text(collection[:2])) == \
                    bfhrf_average_rf(collection[:2], collection)

    def test_malformed_frame_over_tcp_gets_typed_error(
            self, tmp_path, store_dir):
        """Error paths are transport-agnostic: bad JSON over TCP gets
        the same typed reply as over unix, and the connection lives."""
        with serving(store_dir, self._tcp_config(tmp_path)) as daemon:
            tcp_ep = daemon.bound_endpoints[1]
            sock, _ = self._tcp_connect(tcp_ep)
            try:
                reply = _raw_request(sock, b"this is not json\n")
                assert reply["ok"] is False
                assert reply["error"]["type"] == "bad-request"
                reply = _raw_request(sock, encode_frame(
                    {"id": 7, "op": "ping"}))
                assert reply == {"id": 7, "ok": True, "pong": True}
            finally:
                sock.close()
