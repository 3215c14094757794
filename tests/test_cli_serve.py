"""The ``bfhrf serve`` verb family: daemon in a thread, verbs in-process.

Mirrors the CI smoke test but assertable: start, query (output identical
to ``store query``), stats, stop — plus the argv error paths.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.serve import ServeConfig, ServeDaemon

NWK = ("((A,B),(C,D),E);\n((A,C),(B,D),E);\n"
       "((A,E),(B,C),D);\n((A,B),(C,E),D);\n")


@pytest.fixture
def trees_file(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text(NWK)
    return str(path)


@pytest.fixture
def store_dir(tmp_path, trees_file):
    path = tmp_path / "store"
    assert main(["store", "build", str(path), "-r", trees_file,
                 "--shards", "2", "--quiet"]) == 0
    return str(path)


@pytest.fixture
def daemon(tmp_path, store_dir):
    config = ServeConfig(endpoints=[str(tmp_path / "serve.sock")],
                         tail_interval_s=0.05)
    daemon = ServeDaemon(store_dir, config)
    handle = daemon.run_in_thread()
    try:
        yield daemon
    finally:
        try:
            handle.stop()
        except Exception:
            pass  # a stop-verb test already shut it down


class TestServeVerbs:
    def test_query_output_identical_to_store_query(self, daemon, store_dir,
                                                   trees_file, capsys):
        assert main(["serve", "query", daemon.config.endpoints[0].path,
                     trees_file, "--quiet"]) == 0
        via_daemon = capsys.readouterr().out
        assert main(["store", "query", store_dir, trees_file,
                     "--quiet"]) == 0
        via_store = capsys.readouterr().out
        assert via_daemon == via_store
        assert len(via_daemon.strip().splitlines()) == 4

    def test_stats_prints_json(self, daemon, capsys):
        assert main(["serve", "stats", daemon.config.endpoints[0].path,
                     "--quiet"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["server"] == "bfhrf-serve"
        assert "metrics" in stats and "store" in stats

    def test_stop_drains_the_daemon(self, daemon, capsys):
        handle_thread = [t for t in threading.enumerate()
                         if t.name == "bfhrf-serve"]
        assert handle_thread, "daemon thread not running"
        assert main(["serve", "stop", daemon.config.endpoints[0].path,
                     "--quiet"]) == 0
        handle_thread[0].join(timeout=15)
        assert not handle_thread[0].is_alive()

    def test_start_blocks_then_stop_unblocks(self, tmp_path, store_dir,
                                             capsys):
        socket_path = str(tmp_path / "cli-start.sock")
        rc: list[int] = []

        def _start() -> None:
            rc.append(main(["serve", "start", store_dir,
                            "--addr", f"unix://{socket_path}",
                            "--tail-interval", "0.05", "--quiet"]))

        thread = threading.Thread(target=_start, daemon=True)
        thread.start()
        assert main(["serve", "stop", socket_path, "--retries", "20",
                     "--quiet"]) == 0
        thread.join(timeout=15)
        assert rc == [0]

    def test_query_against_dead_socket_fails_cleanly(self, tmp_path,
                                                     trees_file, capsys):
        assert main(["serve", "query", str(tmp_path / "dead.sock"),
                     trees_file, "--quiet"]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_start_on_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["serve", "start", str(tmp_path / "no-store"),
                     "--quiet"]) == 2
        assert "not a BFH store" in capsys.readouterr().err


class TestEndpointAddressing:
    """The --addr surface: URL forms, bare paths, and TCP listeners, all
    mapped through the one Endpoint parser."""

    def test_query_via_addr_flag_matches_positional(self, daemon, trees_file,
                                                    capsys):
        assert main(["serve", "query", daemon.config.endpoints[0].path,
                     trees_file, "--quiet"]) == 0
        positional = capsys.readouterr().out
        assert main(["serve", "query", "--addr",
                     f"unix://{daemon.config.endpoints[0].path}", trees_file,
                     "--quiet"]) == 0
        assert capsys.readouterr().out == positional

    def test_tcp_daemon_query_identical_to_store_query(self, tmp_path,
                                                       store_dir, trees_file,
                                                       capsys):
        from repro.serve import ServeConfig, ServeDaemon

        config = ServeConfig(endpoints=[str(tmp_path / "tcp-test.sock"),
                                        "tcp://127.0.0.1:0"],
                             tail_interval_s=0.05)
        daemon = ServeDaemon(store_dir, config)
        handle = daemon.run_in_thread()
        try:
            tcp_addr = str(daemon.bound_endpoints[1])
            assert main(["serve", "query", tcp_addr, trees_file,
                         "--quiet"]) == 0
            via_tcp = capsys.readouterr().out
        finally:
            handle.stop()
        assert main(["store", "query", store_dir, trees_file,
                     "--quiet"]) == 0
        assert via_tcp == capsys.readouterr().out

    def test_stats_via_bare_path_addr_flag(self, daemon, capsys):
        assert main(["serve", "stats", "--addr",
                     daemon.config.endpoints[0].path, "--quiet"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["server"] == "bfhrf-serve"

    def test_start_addr_accepts_bare_path(self, tmp_path, store_dir):
        socket_path = str(tmp_path / "bare-start.sock")
        rc: list[int] = []

        def _start() -> None:
            rc.append(main(["serve", "start", store_dir,
                            "--addr", socket_path,
                            "--tail-interval", "0.05", "--quiet"]))

        thread = threading.Thread(target=_start, daemon=True)
        thread.start()
        assert main(["serve", "stop", socket_path, "--retries", "20",
                     "--quiet"]) == 0
        thread.join(timeout=15)
        assert rc == [0]

    def test_start_workers_flag_is_rejected(self, capsys):
        """``--procs`` is the one way to parallelize serving."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "start", "STORE", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_address_fails_cleanly(self, capsys):
        assert main(["serve", "stats", "--quiet"]) == 2
        assert "needs a daemon address" in capsys.readouterr().err

    def test_bad_scheme_fails_cleanly(self, trees_file, capsys):
        assert main(["serve", "query", "http://nope:80", trees_file,
                     "--quiet"]) == 2
        assert "unsupported endpoint scheme" in capsys.readouterr().err


class TestServeMetricsOut:
    def test_metrics_out_carries_serve_metrics(self, tmp_path, store_dir):
        from repro.serve import ServeClient

        socket_path = str(tmp_path / "metrics.sock")
        out = tmp_path / "serve.json"
        rc: list[int] = []

        def _start() -> None:
            rc.append(main(["serve", "start", store_dir,
                            "--addr", f"unix://{socket_path}",
                            "--tail-interval", "0.05",
                            "--metrics-out", str(out), "--quiet"]))

        thread = threading.Thread(target=_start, daemon=True)
        thread.start()
        with ServeClient.connect(socket_path, retries=20) as client:
            assert len(client.query(NWK)) == 4
            client.shutdown()
        thread.join(timeout=15)
        assert rc == [0]
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["counters"]["serve.batches"] == 1
        assert metrics["counters"]["serve.requests"] == 2  # query + shutdown
        assert metrics["histograms"]["serve.batch_trees"]["sum"] == 4
