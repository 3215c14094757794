"""End-to-end daemon tests over a real unix socket.

Every query answer is held to the store contract: bitwise-identical to
the direct in-process ``bfhrf_average_rf`` computation — through
batching, journal tailing, and shutdown drains.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import observability as obs
from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import trees_from_string, write_newick
from repro.observability.metrics import metrics_snapshot
from repro.serve import Endpoint, ServeClient, ServeConfig, serving
from repro.store import BFHStore, build_store
from repro.util.errors import ServeRequestError

from tests.conftest import make_collection

pytest.importorskip("numpy")


@pytest.fixture
def collection():
    return make_collection(12, 24, seed=20260809)


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


class TestSingleQuery:
    def test_parity_with_direct_api(self, tmp_path, store_dir, collection):
        want = bfhrf_average_rf(collection, collection)
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                got = client.query(_text(collection))
        assert got == want  # bitwise, not approx

    def test_query_trees_helper_and_reply_metadata(self, tmp_path, store_dir,
                                                   collection):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.ping()
                got = client.query_trees(collection[:3])
                reply = client.request("query", trees=_text(collection[:3]))
        assert got == bfhrf_average_rf(collection[:3], collection)
        assert reply["trees"] == 3
        assert reply["reference_trees"] == len(collection)
        assert reply["generation"] >= 1

    def test_empty_query_text(self, tmp_path, store_dir):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.query("") == []

    def test_nexus_query(self, tmp_path, store_dir, collection):
        nexus = ("#NEXUS\nBEGIN TREES;\n"
                 + "".join(f"TREE t{i} = {write_newick(t)}\n"
                           for i, t in enumerate(collection[:2]))
                 + "END;\n")
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                got = client.query(nexus)
        assert got == bfhrf_average_rf(collection[:2], collection)

    def test_stats_introspection(self, tmp_path, store_dir, collection):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                client.query(_text(collection[:2]))
                stats = client.stats()
        assert stats["server"] == "bfhrf-serve"
        assert stats["draining"] is False
        assert stats["store"]["trees"] == len(collection)
        metrics = stats["metrics"]
        assert metrics["counters"]["serve.batches"] >= 1
        assert metrics["histograms"]["serve.probe_seconds"]["count"] >= 1
        assert metrics["histograms"]["serve.queue_wait_seconds"]["count"] >= 1

    def test_stats_time_the_parse_stage(self, tmp_path, store_dir, collection):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                client.query(_text(collection[:2]))
                with pytest.raises(ServeRequestError):
                    client.query("((A,B);")
                parse = client.stats()["metrics"]["histograms"][
                    "serve.parse_seconds"]
        assert parse["count"] == 2  # a failed parse is timed too
        assert parse["sum"] > 0


def _loop_thread(daemon) -> int:
    """The ident of the thread that runs the daemon's event loop."""
    seen: list[int] = []
    done = threading.Event()

    def _record() -> None:
        seen.append(threading.get_ident())
        done.set()

    daemon._loop.call_soon_threadsafe(_record)
    assert done.wait(10)
    return seen[0]


def test_scan_probe_tail_and_stats_run_on_the_loop_thread(
        tmp_path, store_dir, collection, monkeypatch):
    """The daemon is one thread: a query's scan and probe, a tailed add,
    a reopen after an external compaction and ``stats`` all run on the
    event loop's thread, so nothing else ever touches the store."""
    from repro.serve import ServeDaemon

    calls: list[tuple[str, int]] = []
    for name in ("_parse", "_score", "_refresh_store", "_stats_payload"):
        def _recorded(self, *args, _real=getattr(ServeDaemon, name),
                      _name=name):
            calls.append((_name, threading.get_ident()))
            return _real(self, *args)
        monkeypatch.setattr(ServeDaemon, name, _recorded)

    probe = _text(collection[:3])
    with serving(store_dir, _config(tmp_path)) as daemon:
        loop_thread = _loop_thread(daemon)
        with ServeClient.connect(daemon.config.endpoints[0].path) as client:
            assert client.query(probe) == bfhrf_average_rf(collection[:3],
                                                           collection)
            external = BFHStore.open(store_dir)
            external.add_trees(collection[:1])
            deadline = time.monotonic() + 10
            while client.request("query", trees=probe)[
                    "reference_trees"] == len(collection):
                assert time.monotonic() < deadline, "the add never tailed"
                time.sleep(0.02)
            external.compact()
            deadline = time.monotonic() + 10
            while client.request("query", trees=probe)[
                    "generation"] != external.generation:
                assert time.monotonic() < deadline, "the daemon never reopened"
                time.sleep(0.02)
            stats = client.stats()
    counters = stats["metrics"]["counters"]
    assert counters["serve.tail_applied"] >= 1
    assert counters["serve.reopens"] >= 1
    assert {name for name, _ in calls} == {
        "_parse", "_score", "_refresh_store", "_stats_payload"}
    assert {ident for _, ident in calls} == {loop_thread}
    assert loop_thread != threading.get_ident()


class TestQueryNamespace:
    """Queries of one store epoch share one namespace; a scan that grows
    it (query-only taxa) drops it, and replies are unchanged."""

    def _known_labels(self, daemon) -> int:
        epoch, ns = daemon._query_ns
        assert epoch == daemon._epoch
        return len(ns)

    def test_unknown_taxon_then_ordinary_query(self, tmp_path, store_dir,
                                               collection):
        store = BFHStore.open(store_dir)
        ns = store.namespace()
        reference = trees_from_string(_text(collection), ns)
        ordinary = _text(collection[:2])
        stranger = write_newick(collection[2])[:-1]
        unknown = f"({stranger},Zed);"
        want_unknown = bfhrf_average_rf(trees_from_string(unknown, ns),
                                        reference)
        want_ordinary = bfhrf_average_rf(collection[:2], collection)
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                assert client.query(ordinary) == want_ordinary
                kept = daemon._query_ns[1]
                assert client.query(unknown) == want_unknown
                assert daemon._query_ns is None  # grown, so dropped
                assert client.query(ordinary) == want_ordinary
                assert self._known_labels(daemon) == len(store.labels)
                assert daemon._query_ns[1] is not kept
                kept = daemon._query_ns[1]
                assert client.query(ordinary) == want_ordinary
                assert daemon._query_ns[1] is kept  # one per epoch

                # A record rejected after an earlier one bound a new label.
                with pytest.raises(ServeRequestError) as excinfo:
                    client.query(f"{unknown}\n((A,B);")
                assert excinfo.value.type == "parse-error"
                assert client.query(ordinary) == want_ordinary
                assert self._known_labels(daemon) == len(store.labels)

    def test_tailed_extend_ns_makes_the_taxon_known(self, tmp_path,
                                                    store_dir, collection):
        probe = _text(collection[:2])
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                client.query(probe)
                external = BFHStore.open(store_dir)
                ns = external.namespace()
                added = trees_from_string(
                    f"({write_newick(collection[0])[:-1]},Zed);", ns)
                external.add_trees(added)
                final = len(collection) + 1
                deadline = time.monotonic() + 10
                while client.request("query", trees=probe)[
                        "reference_trees"] != final:
                    assert time.monotonic() < deadline, "the add never tailed"
                    time.sleep(0.02)
                query = f"({write_newick(collection[1])[:-1]},Zed);"
                reply = client.request("query", trees=query)
                assert self._known_labels(daemon) == len(external.labels)
        reference = trees_from_string(_text(collection), ns) + added
        assert reply["values"] == bfhrf_average_rf(
            trees_from_string(query, ns), reference)
        assert reply["reference_trees"] == final


    def test_query_only_taxa_rescanned_after_namespace_growth(
            self, tmp_path, store_dir, collection):
        """A query scanned before a tail that grew the store namespace is
        scored at the new state with the new taxon bits.  Its query-only
        taxon took the next free bit; the tailed tree gives that bit to
        a different new store taxon, so probing the old scan would score
        ``Zzz`` as ``Zed`` (10.68 against 10.76).  Calls the daemon's steps directly, so the
        interleaving is fixed, not timed."""
        from repro.serve import ServeDaemon

        daemon = ServeDaemon(store_dir, _config(tmp_path))
        daemon._store = BFHStore.open(store_dir)
        # ``a`` holds bit 0, so it anchors every split of both trees.
        a, b, c, d = daemon._store.labels[:4]
        query = f"(({a},Zzz),({b},{c}),{d});"
        pending = daemon._parse(query)
        external = BFHStore.open(store_dir)
        ns = external.namespace()
        added = trees_from_string(f"(({a},Zed),({b},{c}),({d},Zzz));", ns)
        external.add_trees(added)
        daemon._refresh_store()
        [(values, stamp)] = daemon._score([pending])
        reference = trees_from_string(_text(collection), ns) + added
        assert values == bfhrf_average_rf(trees_from_string(query, ns),
                                          reference)
        assert stamp["reference_trees"] == len(collection) + 1
        assert stamp["epoch"] == daemon._epoch == 1


class TestConcurrentBatching:
    N_CLIENTS = 6

    def test_interleaved_clients_batch_and_stay_bitwise_exact(
            self, tmp_path, store_dir, collection):
        """N clients fire at once; the window coalesces them into shared
        probes and every client still gets the exact per-tree answers."""
        config = _config(tmp_path, batch_window_s=0.05)
        slices = [collection[i::self.N_CLIENTS]
                  for i in range(self.N_CLIENTS)]
        want = [bfhrf_average_rf(s, collection) for s in slices]
        results: list[list[float] | None] = [None] * self.N_CLIENTS
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.N_CLIENTS)

        with serving(store_dir, config) as daemon:
            def _one(i: int) -> None:
                try:
                    with ServeClient.connect(daemon.config.endpoints[0].path,
                                             retries=3) as client:
                        barrier.wait(timeout=10)
                        results[i] = client.query(_text(slices[i]))
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=_one, args=(i,))
                       for i in range(self.N_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                stats = client.stats()

        assert not errors
        assert results == want
        batches = stats["metrics"]["histograms"]["serve.batch_requests"]
        assert batches["max"] >= 2, "no batch ever coalesced >1 request"
        assert stats["metrics"]["counters"]["serve.batches"] < self.N_CLIENTS

    def test_shared_connection_sequential_requests(self, tmp_path, store_dir,
                                                   collection):
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                for tree in collection[:5]:
                    got = client.query(write_newick(tree))
                    assert got == bfhrf_average_rf([tree], collection)


class TestJournalTailing:
    def _wait_for_values(self, client, text, states, final,
                         deadline_s=10.0):
        """Poll until the daemon answers at ``final`` reference trees.

        ``states`` maps each reference-tree count the store passes
        through to ``bfhrf_average_rf`` there.  Every reply, the ones
        before the tail lands included, must equal the values of the
        state it reports.
        """
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            reply = client.request("query", trees=text)
            assert reply["values"] == states[reply["reference_trees"]], \
                f"values differ from bfhrf at {reply['reference_trees']} " \
                "reference trees"
            if reply["reference_trees"] == final:
                return reply
            time.sleep(0.02)
        raise AssertionError(
            f"daemon never reached {final} reference trees (last: "
            f"{reply['reference_trees']})")

    def test_external_add_visible_without_restart(self, tmp_path, store_dir,
                                                  collection):
        extra = make_collection(12, 3, seed=20260810)
        probe = _text(collection[:4])
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                before = client.query(probe)

                # Another process appends to the journal.
                external = BFHStore.open(store_dir)
                extra = trees_from_string(_text(extra),
                                          external.namespace())
                external.add_trees(extra)

                start = bfhrf_average_rf(collection[:4], collection)
                want = bfhrf_average_rf(collection[:4], collection + extra)
                assert before == start
                assert want != before  # the add must change the answers
                final = len(collection) + len(extra)
                reply = self._wait_for_values(
                    client, probe, {len(collection): start, final: want},
                    final)

        assert reply["values"] == want
        assert reply["epoch"] >= 1

    def test_external_remove_visible_without_restart(self, tmp_path,
                                                     store_dir, collection):
        probe = _text(collection[:4])
        states = {len(collection) - k: bfhrf_average_rf(
            collection[:4], collection[:len(collection) - k])
            for k in (0, 2)}
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                external = BFHStore.open(store_dir)
                external.remove_trees(collection[-2:])
                reply = self._wait_for_values(client, probe, states,
                                              len(collection) - 2)
        assert reply["values"] == states[len(collection) - 2]

    def test_replies_match_their_stamp_under_concurrent_writes(
            self, tmp_path, store_dir, collection):
        """Clients (more threads than cores) query while another process
        adds and removes trees and the daemon tails every step.  A reply
        scored on one state but stamped with another breaks this."""
        import sys

        extra = trees_from_string(_text(make_collection(12, 12, seed=11)),
                                  BFHStore.open(store_dir).namespace())
        probe = _text(collection[:6])
        # One tree per write: every state a tail can see is a prefix.
        states = {len(collection) + n: bfhrf_average_rf(
            collection[:6], collection + extra[:n]) for n in range(13)}
        errors: list[str] = []
        seen: set[int] = set()
        writing = threading.Event()
        writing.set()

        def _poll(path) -> None:
            try:
                with ServeClient.connect(path) as client:
                    while writing.is_set():
                        reply = client.request("query", trees=probe)
                        seen.add(reply["reference_trees"])
                        if reply["values"] != states.get(
                                reply["reference_trees"]):
                            errors.append(f"{reply['reference_trees']} "
                                          f"trees: {reply['values']}")
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(store_dir, _config(
                    tmp_path, tail_interval_s=0.005)) as daemon:
                path = daemon.config.endpoints[0].path
                pollers = [threading.Thread(target=_poll, args=(path,))
                           for _ in range(4)]
                for poller in pollers:
                    poller.start()
                writer = BFHStore.open(store_dir)
                for n in range(12):
                    writer.add_trees(extra[n:n + 1])
                    time.sleep(0.02)
                for n in reversed(range(12)):
                    writer.remove_trees(extra[n:n + 1])
                    time.sleep(0.02)
                writing.clear()
                for poller in pollers:
                    poller.join(timeout=30)
                assert not any(poller.is_alive() for poller in pollers)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert len(seen) > 1  # the pollers saw the store change


class TestGracefulShutdown:
    def test_shutdown_mid_stream_answers_pending_queries(
            self, tmp_path, store_dir, collection):
        """Queries queued behind a batch window are answered (not dropped)
        even when shutdown lands while they wait."""
        config = _config(tmp_path, batch_window_s=0.2)
        want = bfhrf_average_rf(collection[:4], collection)
        results: list[list[float]] = []
        errors: list[BaseException] = []

        daemon_ctx = serving(store_dir, config)
        daemon = daemon_ctx.__enter__()
        try:
            def _query() -> None:
                try:
                    with ServeClient.connect(daemon.config.endpoints[0].path,
                                             retries=3) as client:
                        results.append(client.query(_text(collection[:4])))
                except BaseException as exc:
                    errors.append(exc)

            thread = threading.Thread(target=_query)
            thread.start()
            time.sleep(0.05)  # query is in flight, sitting in the window
            daemon.request_shutdown()
            thread.join(timeout=30)
        finally:
            daemon_ctx.__exit__(None, None, None)

        assert not errors
        assert results == [want]

    def test_socket_unlinked_after_stop(self, tmp_path, store_dir):
        config = _config(tmp_path)
        with serving(store_dir, config):
            pass
        import os
        assert not os.path.exists(config.endpoints[0].path)

    def test_draining_daemon_refuses_new_queries(self, tmp_path, store_dir,
                                                 collection):
        from repro.util.errors import ServeRequestError

        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path) as client:
                client.request("shutdown")
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    try:
                        client.query(_text(collection[:1]))
                    except ServeRequestError as exc:
                        assert exc.type == "shutting-down"
                        break
                    except Exception:
                        break  # connection already torn down: also fine
                    time.sleep(0.01)


class TestTcpListener:
    """The tentpole parity bar: unix and TCP listeners on one daemon
    answer bitwise-identically."""

    def test_tcp_and_unix_serve_bitwise_identical(self, tmp_path, store_dir,
                                                  collection):
        config = _config(tmp_path, endpoints=["tcp://127.0.0.1:0"])
        want = bfhrf_average_rf(collection, collection)
        with serving(store_dir, config) as daemon:
            unix_ep, tcp_ep = daemon.bound_endpoints
            assert tcp_ep.port != 0  # ephemeral bind resolved
            with ServeClient.connect(unix_ep) as client:
                via_unix = client.query(_text(collection))
            with ServeClient.connect(tcp_ep) as client:
                via_tcp = client.query(_text(collection))
                stats = client.stats()
        assert via_unix == want
        assert via_tcp == want  # bitwise across transports
        counters = stats["metrics"]["counters"]
        assert counters["serve.connections.unix"] >= 1
        assert counters["serve.connections.tcp"] >= 1
        assert sorted(stats["listeners"]) == sorted(
            [str(unix_ep), str(tcp_ep)])

    def test_tcp_only_daemon(self, tmp_path, store_dir, collection):
        config = ServeConfig(endpoints=["tcp://127.0.0.1:0"],
                             tail_interval_s=0.05)
        assert all(ep.kind == "tcp" for ep in config.endpoints)  # no unix path
        with serving(store_dir, config) as daemon:
            (tcp_ep,) = daemon.bound_endpoints
            with ServeClient.connect(tcp_ep) as client:
                got = client.query(_text(collection[:2]))
        assert got == bfhrf_average_rf(collection[:2], collection)

    def test_tcp_url_string_connects(self, tmp_path, store_dir, collection):
        config = _config(tmp_path, endpoints=["tcp://127.0.0.1:0"])
        with serving(store_dir, config) as daemon:
            tcp_ep = daemon.bound_endpoints[1]
            with ServeClient.connect(str(tcp_ep)) as client:
                assert client.ping()


class TestReconnectBackoff:
    def test_client_wins_race_against_late_daemon(self, tmp_path, store_dir,
                                                  collection):
        """connect(retries=...) keeps dialing while the daemon is still
        starting — the socket path does not even exist yet
        (``FileNotFoundError``), which must count as retryable just like
        ``ConnectionRefusedError``."""
        config = _config(tmp_path)
        want = bfhrf_average_rf(collection[:2], collection)
        got: list[list[float]] = []
        errors: list[BaseException] = []

        def _connect_early() -> None:
            try:
                with ServeClient.connect(config.endpoints[0].path, retries=40,
                                         backoff_s=0.02,
                                         max_backoff_s=0.1) as client:
                    got.append(client.query(_text(collection[:2])))
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=_connect_early)
        thread.start()
        time.sleep(0.15)  # let the client burn a few not-found attempts
        with serving(store_dir, config):
            thread.join(timeout=30)
        assert not errors
        assert got == [want]

    def test_connection_refused_is_retried(self, tmp_path, store_dir,
                                           collection, monkeypatch):
        """A bound-but-not-yet-accepting daemon (ECONNREFUSED) is the
        other face of the startup race; backoff must cover it too."""
        real = Endpoint.create_connection
        calls = {"n": 0}

        def flaky(self, timeout):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionRefusedError("simulated not-listening")
            return real(self, timeout)

        monkeypatch.setattr(Endpoint, "create_connection", flaky)
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(daemon.config.endpoints[0].path, retries=5,
                                     backoff_s=0.01) as client:
                got = client.query(_text(collection[:1]))
        assert calls["n"] == 3  # two refusals retried, third connected
        assert got == bfhrf_average_rf(collection[:1], collection)

    def test_other_oserrors_fail_fast(self, monkeypatch):
        """Errors backoff cannot fix (permissions, unreachable hosts)
        must not burn the retry budget — fail on the first attempt."""
        from repro.util.errors import ServeConnectionError

        calls = {"n": 0}

        def denied(self, timeout):
            calls["n"] += 1
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Endpoint, "create_connection", denied)
        with pytest.raises(ServeConnectionError, match="cannot connect"):
            ServeClient.connect("/tmp/forbidden.sock", retries=10,
                                backoff_s=0.01)
        assert calls["n"] == 1

    def test_no_retries_fails_fast(self, tmp_path):
        from repro.util.errors import ServeConnectionError

        with pytest.raises(ServeConnectionError, match="cannot connect"):
            ServeClient.connect(tmp_path / "nobody-home.sock")


class TestMetricsExport:
    """The daemon records into its own registry only; a traced run hands
    that registry to the process one once, when ``serve()`` returns."""

    def test_traced_run_merges_its_registry_on_exit(self, tmp_path,
                                                    store_dir, collection):
        obs.reset()
        obs.enable(memory=False)
        try:
            with serving(store_dir, _config(tmp_path)) as daemon:
                with ServeClient.connect(
                        daemon.config.endpoints[0].path) as client:
                    client.query(_text(collection[:3]))
                    live = client.stats()["metrics"]
                # No second write path: nothing reaches the process
                # registry while the daemon runs.
                assert not any(name.startswith("serve.") for kind in
                               metrics_snapshot().values() for name in kind)
            private = daemon._metrics.snapshot()
            exported = metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert live["counters"]["serve.batches"] == 1
        for kind, values in private.items():
            for name, value in values.items():
                assert exported[kind][name] == value, name
        assert exported["counters"]["serve.requests"] == 2  # query + stats
        assert exported["histograms"]["serve.batch_trees"]["sum"] == 3

    def test_untraced_run_leaves_the_process_registry_alone(
            self, tmp_path, store_dir, collection):
        obs.reset()
        with serving(store_dir, _config(tmp_path)) as daemon:
            with ServeClient.connect(
                    daemon.config.endpoints[0].path) as client:
                client.query(_text(collection[:2]))
        assert metrics_snapshot() == {"counters": {}, "gauges": {},
                                      "histograms": {}}
        assert daemon._metrics.snapshot()["counters"]["serve.batches"] == 1
