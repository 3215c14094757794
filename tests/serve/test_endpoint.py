"""The ``Endpoint`` addressing layer: parsing, rendering, and the hello
frame round-tripping the listener a connection arrived on."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serve import Endpoint, ServeClient, ServeConfig, serving
from repro.store import build_store
from repro.util.errors import ServeConnectionError

from tests.conftest import make_collection

pytest.importorskip("numpy")


class TestParse:
    def test_unix_url_absolute_path(self):
        ep = Endpoint.parse("unix:///var/run/bfhrf.sock")
        assert (ep.kind, ep.path) == ("unix", "/var/run/bfhrf.sock")

    def test_unix_url_relative_path(self):
        ep = Endpoint.parse("unix://run/bfhrf.sock")
        assert (ep.kind, ep.path) == ("unix", "run/bfhrf.sock")

    def test_bare_path_is_legacy_unix(self):
        ep = Endpoint.parse("/tmp/serve.sock")
        assert (ep.kind, ep.path) == ("unix", "/tmp/serve.sock")

    def test_pathlike_is_unix(self):
        ep = Endpoint.parse(Path("/tmp/serve.sock"))
        assert (ep.kind, ep.path) == ("unix", "/tmp/serve.sock")

    def test_tcp_host_port(self):
        ep = Endpoint.parse("tcp://127.0.0.1:7654")
        assert (ep.kind, ep.host, ep.port) == ("tcp", "127.0.0.1", 7654)

    def test_tcp_hostname(self):
        ep = Endpoint.parse("tcp://localhost:0")
        assert (ep.kind, ep.host, ep.port) == ("tcp", "localhost", 0)

    def test_tcp_ipv6_brackets(self):
        ep = Endpoint.parse("tcp://[::1]:7654")
        assert (ep.kind, ep.host, ep.port) == ("tcp", "::1", 7654)

    def test_endpoint_passes_through(self):
        ep = Endpoint.tcp("127.0.0.1", 9)
        assert Endpoint.parse(ep) is ep

    def test_scheme_is_case_insensitive(self):
        assert Endpoint.parse("TCP://h:1").kind == "tcp"
        assert Endpoint.parse("UNIX:///s").kind == "unix"

    @pytest.mark.parametrize("bad", [
        "",                          # empty address
        "unix://",                   # no path
        "http://host:80",            # unsupported scheme
        "ftp:///x",                  # unsupported scheme
        "tcp://host",                # missing port
        "tcp://:123",                # missing host
        "tcp://host:",               # empty port
        "tcp://host:notaport",       # non-integer port
        "tcp://host:70000",          # port out of range
        "tcp://host:-1",             # negative port
        "tcp://[::1]",               # bracket host without port
        "tcp://[::1",                # unterminated bracket
        "tcp://[::1]8080",           # no colon after bracket
    ])
    def test_bad_addresses_raise_typed(self, bad):
        with pytest.raises(ServeConnectionError):
            Endpoint.parse(bad)

    def test_non_string_raises_typed(self):
        with pytest.raises(ServeConnectionError, match="int"):
            Endpoint.parse(1234)


class TestRendering:
    @pytest.mark.parametrize("url", [
        "unix:///var/run/bfhrf.sock",
        "unix://relative.sock",
        "tcp://127.0.0.1:7654",
        "tcp://[::1]:7654",
    ])
    def test_str_round_trips(self, url):
        ep = Endpoint.parse(url)
        assert str(ep) == url
        assert Endpoint.parse(str(ep)) == ep

    def test_describe_carries_kind_and_addr(self):
        assert Endpoint.parse("tcp://h:1").describe() == {
            "kind": "tcp", "addr": "tcp://h:1"}

    def test_with_port(self):
        ep = Endpoint.parse("tcp://127.0.0.1:0").with_port(4242)
        assert str(ep) == "tcp://127.0.0.1:4242"

    def test_frozen_and_hashable(self):
        a = Endpoint.parse("unix:///s")
        b = Endpoint.parse("unix:///s")
        assert a == b and hash(a) == hash(b)
        with pytest.raises(Exception):
            a.kind = "tcp"


class TestConfigEndpoints:
    def test_bare_path_parses_to_unix_endpoint(self, tmp_path):
        config = ServeConfig(endpoints=[str(tmp_path / "s.sock")])
        assert config.endpoints == (Endpoint.unix(str(tmp_path / "s.sock")),)

    def test_unix_url_path_reads_back(self, tmp_path):
        config = ServeConfig(endpoints=[f"unix://{tmp_path}/s.sock",
                                        "tcp://127.0.0.1:0"])
        assert config.endpoints[0].path == f"{tmp_path}/s.sock"
        assert len(config.endpoints) == 2

    def test_duplicate_endpoints_collapse(self, tmp_path):
        path = str(tmp_path / "s.sock")
        config = ServeConfig(endpoints=[path, f"unix://{path}", path])
        assert config.endpoints == (Endpoint.unix(path),)

    def test_no_endpoints_rejected(self):
        from repro.util.errors import ServeError

        with pytest.raises(ServeError, match="at least one endpoint"):
            ServeConfig()

    def test_queue_max_trees_defaults_to_batch_max(self):
        config = ServeConfig(endpoints=["/tmp/x.sock"], batch_max_trees=77)
        assert config.queue_max_trees == 77


class TestHelloListener:
    @pytest.fixture
    def store_dir(self, tmp_path):
        path = tmp_path / "store"
        build_store(path, make_collection(8, 6, seed=20260812), n_shards=1)
        return path

    def test_hello_round_trips_listener_kind(self, tmp_path, store_dir):
        config = ServeConfig(endpoints=[str(tmp_path / "serve.sock"),
                                        "tcp://127.0.0.1:0"],
                             tail_interval_s=0.05)
        with serving(store_dir, config) as daemon:
            unix_ep, tcp_ep = daemon.bound_endpoints
            assert unix_ep.kind == "unix" and tcp_ep.kind == "tcp"
            assert tcp_ep.port != 0, "ephemeral port must be resolved"
            with ServeClient.connect(unix_ep) as client:
                assert client.hello["listener"] == {
                    "kind": "unix", "addr": str(unix_ep)}
            with ServeClient.connect(tcp_ep) as client:
                assert client.hello["listener"] == {
                    "kind": "tcp", "addr": str(tcp_ep)}
                assert client.endpoint == tcp_ep
