"""Tests for sensitivity analysis (scaling factors, slacks)."""

import math

import pytest

from repro.analysis import (
    analyze,
    critical_scaling_factor,
    delay_slack,
    rate_slack,
)
from repro.analysis.sensitivity import bisect_monotone
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms.linear import DedicatedPlatform


class TestBisectMonotone:
    def test_threshold_found(self):
        x = bisect_monotone(lambda v: v <= 3.25, 0.0, 10.0, tol=1e-6)
        assert x == pytest.approx(3.25, abs=1e-5)

    def test_all_true_returns_hi(self):
        assert bisect_monotone(lambda v: True, 0.0, 5.0) == 5.0

    def test_all_false_returns_lo(self):
        assert bisect_monotone(lambda v: False, 2.0, 5.0) == 2.0


class TestCriticalScaling:
    def test_paper_example_has_margin(self):
        factor = critical_scaling_factor(sensor_fusion_system(), tol=1e-3)
        assert factor > 1.0

    def test_scaled_to_critical_is_schedulable(self):
        system = sensor_fusion_system()
        factor = critical_scaling_factor(system, tol=1e-3)
        from repro.analysis.sensitivity import _scaled_system

        assert analyze(_scaled_system(system, factor)).schedulable
        assert not analyze(_scaled_system(system, factor * 1.05)).schedulable

    def test_unschedulable_system_factor_below_one(self):
        t1 = Transaction(period=10.0, tasks=[Task(wcet=8.0, platform=0, priority=2)])
        t2 = Transaction(period=10.0, tasks=[Task(wcet=8.0, platform=0, priority=1)])
        s = TransactionSystem(transactions=[t1, t2], platforms=[DedicatedPlatform()])
        assert critical_scaling_factor(s, tol=1e-3) < 1.0

    def test_search_stays_within_resolvable_time_scale(self):
        # Scaled by the 1e-6 floor of the search, this period/cost ratio of
        # 1e4 would leave the range TransactionSystem.validate accepts.
        t1 = Transaction(period=10.0, tasks=[Task(wcet=4.0, platform=0, priority=2)])
        t2 = Transaction(period=1e4, tasks=[Task(wcet=1.0, platform=0, priority=1)])
        s = TransactionSystem(transactions=[t1, t2], platforms=[DedicatedPlatform()])
        assert s.time_ratio() == pytest.approx(1e4)
        assert 2.0 < critical_scaling_factor(s, tol=1e-3) < 2.5


class TestSlacks:
    def test_rate_slack_below_current(self):
        system = sensor_fusion_system()
        needed = rate_slack(system, 2, tol=1e-3)  # Pi3
        assert needed <= 0.2 + 1e-6
        assert needed > 0.0

    def test_rate_slack_feasible_at_result(self):
        system = sensor_fusion_system()
        needed = rate_slack(system, 2, tol=1e-3)
        from repro.platforms.linear import LinearSupplyPlatform

        platforms = list(system.platforms)
        platforms[2] = LinearSupplyPlatform(needed + 1e-3, 2.0, 1.0)
        trimmed = TransactionSystem(
            transactions=system.transactions, platforms=platforms
        )
        assert analyze(trimmed).schedulable

    def test_delay_slack_above_current(self):
        system = sensor_fusion_system()
        max_delay = delay_slack(system, 2, tol=1e-3)
        assert max_delay >= 2.0

    def test_delay_slack_tight(self):
        system = sensor_fusion_system()
        max_delay = delay_slack(system, 2, tol=1e-3)
        from repro.platforms.linear import LinearSupplyPlatform

        platforms = list(system.platforms)
        platforms[2] = LinearSupplyPlatform(0.2, max_delay * 1.1 + 0.5, 1.0)
        worse = TransactionSystem(
            transactions=system.transactions, platforms=platforms
        )
        assert not analyze(worse).schedulable

    def test_delay_slack_infeasible_reports_minus_inf(self):
        t1 = Transaction(period=10.0, tasks=[Task(wcet=9.0, platform=0, priority=1)])
        s = TransactionSystem(
            transactions=[t1],
            platforms=[DedicatedPlatform()],
        )
        # Already needs nearly the whole period; any delay over 1 fails, and
        # delay_slack starts from the current delay (0), so it succeeds.
        assert delay_slack(s, 0, tol=1e-3) >= 0.0

    def test_rate_slack_infeasible_reports_inf(self):
        t1 = Transaction(period=10.0, tasks=[Task(wcet=20.0, platform=0, priority=1)])
        s = TransactionSystem(transactions=[t1], platforms=[DedicatedPlatform()])
        assert math.isinf(rate_slack(s, 0))
