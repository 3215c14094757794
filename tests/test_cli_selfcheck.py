"""The ``bfhrf selfcheck`` subcommand."""

from __future__ import annotations

import json

from repro.cli import main


def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--seed", "42", "--rounds", "5", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck PASS" in out
    assert "implementations exercised" in out
    for name in ("naive", "day", "hashrf", "bfhrf", "shm"):
        assert name in out


def test_selfcheck_fault_fails_and_writes_artifacts(tmp_path, capsys):
    rc = main(["selfcheck", "--seed", "42", "--rounds", "3", "--quiet",
               "--inject-fault", "bfh-count",
               "--artifacts", str(tmp_path / "art")])
    assert rc == 1
    assert "selfcheck FAIL" in capsys.readouterr().out
    artifacts = list((tmp_path / "art").iterdir())
    assert artifacts
    assert (artifacts[0] / "manifest.json").exists()
    assert (artifacts[0] / "query.newick").exists()


def test_selfcheck_replay(tmp_path, capsys):
    main(["selfcheck", "--seed", "42", "--rounds", "3", "--quiet",
          "--inject-fault", "bfh-count", "--artifacts", str(tmp_path / "art")])
    capsys.readouterr()
    artifact = next((tmp_path / "art").iterdir())
    # The fault is gone, so the reproducer now passes.
    assert main(["selfcheck", "--quiet", "--replay", str(artifact)]) == 0
    assert "bug fixed" in capsys.readouterr().out


def test_selfcheck_metrics_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["selfcheck", "--seed", "1", "--rounds", "4", "--quiet",
               "--metrics-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    counters = report["metrics"]["counters"]
    assert counters["selfcheck.rounds"] == 4
    assert counters["selfcheck.checks"] > 0
    assert "selfcheck.failures" not in counters or counters["selfcheck.failures"] == 0
