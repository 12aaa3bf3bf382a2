"""Short-mode soak runs (see docs/INVARIANTS.md and tests/soak_harness.py).

These are seconds-long versions of the CI soak: enough wall time for every
family to cycle a few times (and, with faults, for kills/retries/fallbacks
to fire), short enough for the regular suite.  ``SOAK_SECONDS`` lengthens
them without code changes.
"""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import ServiceStats
from repro.engine.faults import aggressive_plan
from repro.engine.soak import (
    _MONOTONE_STATS,
    SoakReport,
    default_soak_config,
    run_soak,
)
from repro.obs import MetricsRegistry, counter_regressions

from soak_harness import soak_seconds


class TestCounterRegressions:
    def test_clean_growth_is_empty(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        before = registry.snapshot()
        counter.inc()
        after = registry.snapshot()
        assert counter_regressions(before, after) == []

    def test_shrunk_counter_reported(self):
        a = MetricsRegistry()
        a.counter("c").inc(5)
        before = a.snapshot()
        b = MetricsRegistry()
        b.counter("c").inc(2)
        after = b.snapshot()
        findings = counter_regressions(before, after)
        assert findings and "c" in findings[0]

    def test_vanished_series_reported(self):
        a = MetricsRegistry()
        a.counter("gone").inc()
        before = a.snapshot()
        after = MetricsRegistry().snapshot()
        findings = counter_regressions(before, after)
        assert findings and "gone" in findings[0]


class TestSoakReport:
    def test_assert_ok_lists_every_problem(self):
        report = SoakReport(seconds=1.0, drift=2, leaked_shm=["psm_dead"])
        with pytest.raises(AssertionError) as excinfo:
            report.assert_ok()
        message = str(excinfo.value)
        assert "non-bit-identical" in message
        assert "psm_dead" in message

    def test_deadline_failures_allowed_only_with_job_timeout(self):
        failing = SoakReport(
            seconds=1.0, jobs_ok=1, failures={"DeadlineExceeded": 3}
        )
        assert failing.problems()
        allowed = SoakReport(
            seconds=1.0, jobs_ok=1, failures={"DeadlineExceeded": 3}, job_timeout=0.5
        )
        assert allowed.problems() == []

    def test_rejects_non_positive_seconds(self):
        with pytest.raises(ValueError, match="seconds"):
            run_soak(0)

    def test_monotone_stats_are_service_stats_fields(self):
        # The soak reads each of these from ServiceStats.as_dict(): a name
        # the stats no longer carry would end the soak in a KeyError.
        stats = ServiceStats(
            workers=2, jobs=0, tasks=0, installs=0, reinstalls=0, worker_restarts=0
        )
        assert set(_MONOTONE_STATS) <= set(stats.as_dict())


class _StalledService:
    """A service whose futures never finish."""

    def __init__(self, config, registry=None):
        self.jobs = 0

    def submit(self, program, inputs, **kwargs):
        self.jobs += 1
        return Future()

    def stats(self):
        return ServiceStats(
            workers=2, jobs=self.jobs, tasks=0, installs=0, reinstalls=0,
            worker_restarts=0,
        )

    def close(self, wait=True, timeout=None):
        pass


class TestLiveness:
    def test_stalled_service_reports_within_bound(self, monkeypatch):
        # Each future's wait ends result_timeout after its own submit, and
        # the first stalled future stops submissions: the soak returns in
        # about seconds + result_timeout, not result_timeout per future.
        import repro.engine.soak as soak

        monkeypatch.setattr(soak, "EvaluationService", _StalledService)
        seconds, result_timeout = 2.0, 1.0
        start = time.monotonic()
        report = run_soak(seconds, result_timeout=result_timeout, max_in_flight=8)
        elapsed = time.monotonic() - start
        assert report.jobs_ok == 0 and report.drift == 0
        assert report.jobs_failed == 8
        assert report.failures == {"TimeoutError": 8}
        # Building the families (five compiles and their references) takes
        # well under the slack; waiting in turn would take 8 s or more.
        assert elapsed < seconds + result_timeout + 3.0, elapsed


class TestShortSoaks:
    def test_clean_soak(self):
        report = run_soak(soak_seconds(default=1.5), seed=1)
        report.assert_ok()
        assert report.jobs_ok > 0
        assert len(report.families) == 5
        # One family keeps node values, so both result shapes stay covered.
        assert "parity6-sparse-nodes" in report.families
        assert report.final_stats["jobs"] >= report.jobs_ok

    def test_aggressive_soak(self):
        report = run_soak(
            soak_seconds(default=3.0), fault_plan=aggressive_plan(), seed=2
        )
        report.assert_ok()
        stats = report.final_stats
        # The plan must actually have bitten: every recovery family fires.
        assert stats["worker_restarts"] >= 1
        assert stats["retries"] >= 1
        assert stats["protocol_errors"] >= 1

    def test_degradation_soak(self):
        # Constant kills with no respawn budget: the pool retires early in
        # the run and everything still completes serially, bit-identically.
        from repro.engine.faults import FaultPlan

        config = default_soak_config(service_respawn_budget=0)
        report = run_soak(
            soak_seconds(default=1.5),
            config=config,
            fault_plan=FaultPlan(kill_before_task=1),
            seed=3,
        )
        report.assert_ok()
        assert report.final_stats["degraded"] is True
        assert report.final_stats["workers"] == 0
        assert report.final_stats["degraded_jobs"] >= 1
