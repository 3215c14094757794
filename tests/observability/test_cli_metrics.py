"""End-to-end CLI observability: --metrics-out, --trace, --quiet.

These encode the PR's acceptance criterion: ``bfhrf avg-rf Q --metrics-out
run.json`` must produce a JSON document whose spans include ``parse``,
``bfh.build`` and ``bfhrf.query`` (each with wall-time and peak-memory
fields) and whose counters cover trees parsed and bipartitions hashed.
"""

import json

import pytest

import repro.observability as obs
from repro.cli import main
from repro.observability.export import RunReport


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text("((A,B),(C,D));\n((A,C),(B,D));\n((A,B),(C,D));\n")
    return str(path)


@pytest.fixture(autouse=True)
def _clean_observability():
    yield
    obs.disable()
    obs.reset()


class TestMetricsOut:
    def test_avg_rf_writes_acceptance_report(self, quartet_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["avg-rf", quartet_file, "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        report = RunReport.from_dict(doc)

        # The default method is the registry's promoted fast path (shm),
        # whose query span is shmrf.query.
        for name in ("parse", "bfh.build", "shmrf.query"):
            spans = report.find_spans(name)
            assert spans, f"span {name!r} missing from report"
            for span in spans:
                assert span["wall_s"] is not None and span["wall_s"] >= 0
                assert span["peak_mb"] is not None and span["peak_mb"] >= 0

        assert report.counter("newick.trees_parsed") == 3
        assert report.counter("bfh.bipartitions_hashed") == 3
        # The shm fast path probes through the vectorized kernel, so the
        # query-side evidence is the batched-probe histograms rather than
        # the dict hash's hit/miss counters.
        probes = report.metrics["histograms"]["vectorized.probe_keys"]
        assert probes["count"] >= 1
        assert probes["sum"] >= 3  # every query tree's splits probed
        # stdout (the results) is untouched by observability
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_matrix_report(self, quartet_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["matrix", quartet_file, "--metrics-out", str(out)]) == 0
        report = RunReport.from_dict(json.loads(out.read_text()))
        assert report.find_spans("parse")
        assert report.find_spans("hashrf.matrix")
        assert report.counter("newick.trees_parsed") == 3
        assert report.find_spans("cli.matrix")

    def test_global_flag_accepted_before_subcommand(self, quartet_file, tmp_path,
                                                    capsys):
        out = tmp_path / "run.json"
        assert main(["--metrics-out", str(out), "avg-rf", quartet_file]) == 0
        assert json.loads(out.read_text())["command"] == "bfhrf avg-rf"

    def test_workers_merge_into_report(self, quartet_file, tmp_path, capsys):
        from repro.runtime import fork_available
        if not fork_available():
            pytest.skip("fork start method unavailable")
        out = tmp_path / "run.json"
        # Scanned Newick is scored in one pass; bfhrf parses and fans out.
        assert main(["avg-rf", quartet_file, "--workers", "2",
                     "--method", "bfhrf", "--metrics-out", str(out)]) == 0
        report = RunReport.from_dict(json.loads(out.read_text()))
        assert report.counter("parallel.tasks") >= 1
        hist = report.metrics["histograms"]["parallel.task_seconds"]
        assert hist["count"] == report.counter("parallel.tasks")

    def test_unwritable_path_fails_cleanly(self, quartet_file, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "run.json"
        assert main(["avg-rf", quartet_file, "--metrics-out", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot write run report" in captured.err
        # the analysis itself succeeded; its results still reach stdout
        assert len(captured.out.strip().splitlines()) == 3

    def test_observability_off_without_flags(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file]) == 0
        assert not obs.enabled()
        assert obs.finished_spans() == []


class TestTraceFlag:
    def test_trace_prints_span_tree(self, quartet_file, capsys):
        assert main(["--trace", "avg-rf", quartet_file]) == 0
        err = capsys.readouterr().err
        for name in ("cli.avg-rf", "parse", "bfh.build", "shmrf.query"):
            assert name in err

    def test_trace_survives_quiet(self, quartet_file, capsys):
        assert main(["--trace", "--quiet", "avg-rf", quartet_file]) == 0
        err = capsys.readouterr().err
        assert "shmrf.query" in err
        assert "wall time" not in err


class TestQuietFlag:
    def test_quiet_silences_stderr(self, quartet_file, capsys):
        assert main(["--quiet", "avg-rf", quartet_file]) == 0
        assert capsys.readouterr().err == ""

    def test_quiet_after_subcommand(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file, "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_default_still_reports_wall_time(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file]) == 0
        assert "wall time" in capsys.readouterr().err


class TestCProfileFlag:
    def test_cprofile_lands_in_run_report(self, tmp_path, capsys):
        trees = tmp_path / "trees.nwk"
        trees.write_text("((A,B),(C,D));\n((A,C),(B,D));\n")
        out = tmp_path / "report.json"
        rc = main(["--cprofile", "--metrics-out", str(out), "avg-rf",
                   str(trees)])
        assert rc == 0
        doc = json.loads(out.read_text())
        root = doc["spans"][0]
        assert root["name"] == "cli.avg-rf"
        profile = root["attrs"]["profile"]
        assert any("cumulative" in line for line in profile)

    def test_cprofile_alone_prints_to_stderr(self, tmp_path, capsys):
        trees = tmp_path / "trees.nwk"
        trees.write_text("((A,B),(C,D));\n((A,C),(B,D));\n")
        assert main(["--cprofile", "avg-rf", str(trees)]) == 0
        assert "cumulative" in capsys.readouterr().err
