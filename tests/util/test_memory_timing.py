"""Unit tests for repro.util.memory and repro.util.timing."""

import math
import time

import pytest

from repro.util.memory import _read_vm_hwm_mb, rss_peak_mb, trace_peak
from repro.util.timing import Stopwatch, estimate_total_seconds, format_seconds, stopwatch


class TestTracePeak:
    def test_detects_allocation(self):
        with trace_peak() as sample:
            block = [0] * 2_000_000  # ~16 MB of pointers
            del block
        assert sample.peak_mb > 5.0
        assert sample.current_mb < sample.peak_mb

    def test_retained_allocation(self):
        with trace_peak() as sample:
            keep = bytearray(8_000_000)
        assert sample.current_mb > 5.0
        del keep

    def test_nested(self):
        with trace_peak() as outer:
            with trace_peak() as inner:
                data = bytearray(4_000_000)
            del data
        assert inner.peak_mb > 2.0
        assert outer.peak_mb >= inner.peak_mb - 0.5

    def test_no_allocation_near_zero(self):
        with trace_peak() as sample:
            pass
        assert sample.peak_mb < 1.0


class TestRssPeak:
    def test_positive(self):
        assert rss_peak_mb() > 1.0

    def test_monotone(self):
        a = rss_peak_mb()
        b = rss_peak_mb()
        assert b >= a


class TestVmHwm:
    def test_read_matches_rss_peak(self):
        hwm = _read_vm_hwm_mb()
        if hwm is None:
            pytest.skip("/proc/self/status unavailable")
        assert hwm > 1.0
        assert rss_peak_mb() == pytest.approx(hwm, rel=0.5)


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first >= 0.01

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_context_helper(self):
        with stopwatch() as sw:
            time.sleep(0.005)
        assert sw.elapsed >= 0.005

    def test_running_property(self):
        sw = Stopwatch()
        assert not sw.running
        sw.start()
        assert sw.running
        sw.stop()
        assert not sw.running

    def test_reset_zeroes_and_stops(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.002)
        sw.start()
        sw.reset()
        assert sw.elapsed == 0.0
        assert not sw.running
        sw.start()  # usable again after reset mid-run
        sw.stop()


class TestEstimate:
    def test_linear_extrapolation(self):
        assert estimate_total_seconds(10.0, 5, 50) == 100.0

    def test_identity_when_complete(self):
        assert estimate_total_seconds(7.0, 10, 10) == 7.0

    def test_rejects_zero_done(self):
        with pytest.raises(ValueError):
            estimate_total_seconds(1.0, 0, 10)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            estimate_total_seconds(1.0, 10, 5)


class TestFormatSeconds:
    @pytest.mark.parametrize("value,expected", [
        (0.0042, "4.2ms"),
        (3.25, "3.25s"),
        (312, "5.20m"),
        (0.999, "999.0ms"),
        (3599, "59.98m"),
        (3600, "1.00h"),
        (7200, "2.00h"),
        (5400, "1.50h"),
    ])
    def test_rendering(self, value, expected):
        assert format_seconds(value) == expected
