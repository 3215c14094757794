"""The selfcheck round loop, fault injection, and reproducer artifacts."""

from __future__ import annotations

import json

import pytest

from repro.runtime import fork_available
from repro.testing import (
    CASE_CHECKS,
    FAULT_KINDS,
    SelfCheck,
    inject_fault,
    load_artifact,
    replay_artifact,
)


class TestSelfCheck:
    def test_quick_run_passes(self, tmp_path):
        result = SelfCheck(42, rounds=10, profile="quick",
                           artifact_dir=str(tmp_path)).run()
        assert result.ok, result.summary()
        assert len(result.rounds) == 10
        assert result.checks_run == 10 * (len(CASE_CHECKS) + 1)
        expected = {"naive", "bfhrf", "shm", "day", "hashrf"}
        if fork_available():
            expected.add("bfhrf-fork")
        assert expected <= result.implementations
        assert not list(tmp_path.iterdir())  # no artifacts on a clean run

    def test_deterministic_across_runs(self, tmp_path):
        a = SelfCheck(7, rounds=5, artifact_dir=str(tmp_path / "a")).run()
        b = SelfCheck(7, rounds=5, artifact_dir=str(tmp_path / "b")).run()
        assert [r.seed for r in a.rounds] == [r.seed for r in b.rounds]
        assert [r.strategy for r in a.rounds] == [r.strategy for r in b.rounds]

    @pytest.mark.parametrize("fault", FAULT_KINDS)
    def test_fault_is_caught_and_minimized(self, tmp_path, fault):
        result = SelfCheck(42, rounds=10, profile="quick",
                           artifact_dir=str(tmp_path), fault=fault).run()
        assert not result.ok
        assert result.artifacts
        root = result.artifacts[0]
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["shrunk"] is True
        assert manifest["failures"]
        assert (root / "query.newick").exists()
        # Same master seed, same fault: the failing round seeds replay.
        again = SelfCheck(42, rounds=10, profile="quick",
                          artifact_dir=str(tmp_path / "again"), fault=fault).run()
        assert [r.index for r in again.rounds if not r.ok] == \
               [r.index for r in result.rounds if not r.ok]

    def test_artifact_roundtrip_and_replay(self, tmp_path):
        result = SelfCheck(42, rounds=5, artifact_dir=str(tmp_path),
                           fault="bfh-count").run()
        root = result.artifacts[0]
        case, check = load_artifact(root)
        assert check == "differential-rf"
        assert len(case.query) >= 1
        # Without the fault the saved reproducer passes — i.e. "fixed".
        assert replay_artifact(root) == []
        # With the fault re-injected it fails again — a real reproducer.
        with inject_fault("bfh-count"):
            assert replay_artifact(root)

    def test_crash_becomes_minimized_artifact(self, tmp_path, monkeypatch):
        """A check that raises (not just disagrees) still yields a
        shrunk reproducer instead of killing the run — how the fuzzer
        reported the splitless-reference IndexError in vectorized.py."""
        from repro.testing import harness as harness_module

        def crashing(case):
            raise IndexError("boom")

        monkeypatch.setitem(harness_module.CASE_CHECKS, "crashing", crashing)
        result = SelfCheck(3, rounds=1, artifact_dir=str(tmp_path)).run()
        assert not result.ok
        assert result.rounds[0].failed_check == "crashing"
        manifest = json.loads(
            (result.artifacts[0] / "manifest.json").read_text())
        assert manifest["shrunk"] is True
        assert "IndexError" in manifest["failures"][0]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            with inject_fault("no-such-fault"):
                pass

    def test_summary_mentions_failures(self, tmp_path):
        result = SelfCheck(42, rounds=3, artifact_dir=str(tmp_path),
                           fault="bfh-count").run()
        text = result.summary()
        assert "FAIL" in text
        assert "differential-rf" in text
        assert "reproducer:" in text
