"""Differential runner aggregation and analytic oracle behaviour."""

from __future__ import annotations

import pytest

from repro.runtime import fork_available
from repro.testing import generate_case, inject_fault, run_differential
from repro.testing.oracles import (
    check_caterpillar_max_rf,
    check_differential_weighted,
    check_self_rf_zero,
    check_store_roundtrip,
    check_symmetry,
    check_triangle,
    check_weighted_linearity,
)


class TestDifferentialRunner:
    @pytest.mark.parametrize("seed", range(8))
    def test_clean_cases_agree(self, seed):
        case = generate_case(seed, "quick")
        report = run_differential(case)
        assert report.ok, [str(f) for f in report.failures]
        assert {"naive", "bfhrf", "shm"} <= report.implementations

    def test_all_implementations_reachable(self):
        exercised = set()
        for seed in range(20):
            exercised |= run_differential(generate_case(seed, "quick")).implementations
        expected = {"naive", "bfhrf", "shm", "day", "hashrf"}
        if fork_available():
            expected.add("bfhrf-fork")
        assert expected <= exercised

    def test_applicability_gating(self):
        for seed in range(20):
            case = generate_case(seed, "quick")
            report = run_differential(case)
            if not case.same_collection:
                assert "hashrf" not in report.implementations
            coverages = {t.leaf_mask() for t in case.query + case.reference}
            if len(coverages) > 1:
                assert "day" not in report.implementations

    def test_fault_produces_attributed_failures(self):
        with inject_fault("bfh-count"):
            for seed in range(10):
                report = run_differential(generate_case(seed, "quick"))
                if report.failures:
                    break
            else:
                pytest.fail("bfh-count fault never detected in 10 cases")
        f = report.failures[0]
        assert f.check == "differential-rf"
        assert f.implementation in {"bfhrf", "bfhrf-fork", "shm"}
        assert f.index is not None
        assert f.implementation in str(f)

    def test_weighted_fault_detected(self):
        with inject_fault("weighted-total"):
            for seed in range(10):
                case = generate_case(seed, "quick")
                if case.weighted and check_differential_weighted(case):
                    return
        pytest.fail("weighted-total fault never detected in 10 cases")


class TestAnalyticOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_metric_axioms_hold(self, seed):
        case = generate_case(seed, "quick")
        assert check_self_rf_zero(case) == []
        assert check_symmetry(case) == []
        assert check_triangle(case) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_checks_hold(self, seed):
        case = generate_case(seed, "quick")
        assert check_differential_weighted(case) == []
        assert check_weighted_linearity(case) == []

    @pytest.mark.parametrize("n", [4, 5, 7, 10, 16])
    def test_caterpillar_max_rf(self, n):
        assert check_caterpillar_max_rf(n) == []


class TestStoreOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_clean_cases_pass(self, seed):
        case = generate_case(seed, "quick")
        assert check_store_roundtrip(case) == [], \
            [str(f) for f in check_store_roundtrip(case)]

    def test_deterministic_in_the_case(self):
        """Same case → same op interleaving → same verdict (the property
        the shrinker relies on)."""
        case = generate_case(11, "quick")
        assert check_store_roundtrip(case) == check_store_roundtrip(case)

    def test_store_fault_detected_and_attributed(self):
        with inject_fault("store-count"):
            failures = check_store_roundtrip(generate_case(0, "quick"))
        assert failures
        assert failures[0].check == "store-roundtrip"
        assert "fresh build" in failures[0].detail

    def test_store_fault_invisible_to_other_checks(self):
        """store-count corrupts only the persistent path, so only the
        store oracle can catch it — the reason it must be registered."""
        case = generate_case(0, "quick")
        with inject_fault("store-count"):
            assert run_differential(case).ok
            assert check_self_rf_zero(case) == []
