"""Direct unit tests of the per-scenario busy-period solver."""

import math
from dataclasses import asdict

import pytest

from repro.analysis._scenario import ScenarioOutcome, solve_scenario
from repro.analysis.busy import AnalyzedTask
from repro.util.fixedpoint import fixed_point_stats


def analyzed(
    *,
    period=50.0,
    phi=0.0,
    jitter=0.0,
    cost=5.0,
    blocking=0.0,
    delay=2.0,
    deadline=50.0,
):
    return AnalyzedTask(
        txn=0,
        idx=0,
        period=period,
        deadline=deadline,
        phi=phi,
        jitter=jitter,
        cost=cost,
        blocking=blocking,
        delay=delay,
        priority=1,
        platform=0,
    )


class TestNoInterference:
    def test_single_job(self):
        # Self-started scenario: phase = period, p0 = 0, one job.
        out = solve_scenario(
            analyzed(), phi_ab=50.0, interference=lambda t: 0.0, bound=1e6
        )
        assert out.response == pytest.approx(7.0)  # delay + cost
        assert out.worst_job == 0
        assert out.jobs_checked == 1

    def test_blocking_added(self):
        out = solve_scenario(
            analyzed(blocking=3.0), phi_ab=50.0,
            interference=lambda t: 0.0, bound=1e6,
        )
        assert out.response == pytest.approx(10.0)

    def test_jitter_extends_response(self):
        # J=19, phi=5 (the tau_1_4 endgame): R = 7 + 5 + 19 = 31.
        out = solve_scenario(
            analyzed(phi=5.0, jitter=19.0), phi_ab=31.0,
            interference=lambda t: 0.0, bound=1e6,
        )
        assert out.response == pytest.approx(31.0)


class TestInterference:
    def test_constant_interference(self):
        out = solve_scenario(
            analyzed(), phi_ab=50.0,
            interference=lambda t: 5.0, bound=1e6,
        )
        assert out.response == pytest.approx(12.0)

    def test_step_interference_converges(self):
        # One interfering job of cost 2.5 arriving at t=5.
        def interf(t):
            return 2.5 if t > 5.0 else 0.0

        out = solve_scenario(
            analyzed(cost=4.9, delay=1.0), phi_ab=50.0,
            interference=interf, bound=1e6,
        )
        # w: 1 + 4.9 = 5.9 > 5 -> +2.5 -> 8.4 stable.
        assert out.response == pytest.approx(8.4)

    def test_multiple_jobs_in_busy_period(self):
        # Dense period: cost 6 per job, period 10 -> two jobs pile up under
        # heavy interference in the first window.
        def interf(t):
            return 5.0 if t > 0 else 0.0

        out = solve_scenario(
            analyzed(period=10.0, cost=6.0, delay=0.0, deadline=100.0),
            phi_ab=10.0,
            interference=interf,
            bound=1e6,
        )
        # L = 5 + k*6 with arrivals at 10, 20, ...: L=11 -> 2 jobs -> 17 ->
        # 2 jobs (ceil((17-10)/10)=1 -> p_L=1) -> L=17.
        # Job p=0: w=11, R=11-(10-10)=11; p=1: w=17, R=17-10=7.
        assert out.busy_length == pytest.approx(17.0)
        assert out.jobs_checked == 2
        assert out.response == pytest.approx(11.0)
        assert out.worst_job == 0

    def test_scenario_without_own_job(self):
        # Foreign-started busy period that closes before the analyzed
        # task's first arrival: nothing to check.
        out = solve_scenario(
            analyzed(cost=1.0, delay=0.0), phi_ab=45.0,
            interference=lambda t: 2.0 if t > 0 else 0.0, bound=1e6,
        )
        assert out.response == float("-inf")
        assert out.jobs_checked == 0


class TestDivergence:
    def test_busy_period_divergence(self):
        out = solve_scenario(
            analyzed(period=5.0, cost=6.0), phi_ab=5.0,
            interference=lambda t: 0.0, bound=1e4,
        )
        assert math.isinf(out.response)
        assert out.response > 0

    def test_interference_divergence(self):
        out = solve_scenario(
            analyzed(), phi_ab=50.0,
            interference=lambda t: t * 1.1, bound=1e4,
        )
        assert math.isinf(out.response)

    def test_exact_divergent_busy_period_accounting_pinned(self):
        """Exact mode (no ceiling) runs the busy-length loop to its bound
        before any completion solve.  A body that solved completions as
        the diverging window widened would charge 3,347 evaluations,
        951 solves and 950 warm starts here instead."""
        task = analyzed(period=10.0, deadline=10.0, cost=1.0, delay=0.0)
        step = 10.0 * 1.005 - 1.0  # the util=1.005 saturated scenario

        def interference(t):
            return step * math.ceil(max(t, 0.0) / 10.0)

        before = fixed_point_stats()
        out = solve_scenario(task, 0.0, interference, bound=1e4)
        delta = asdict(fixed_point_stats().delta(before))
        assert out == ScenarioOutcome(
            response=math.inf, worst_job=None, busy_length=math.inf,
            jobs_checked=0, evaluations=457,
        )
        assert delta == {
            **{name: 0 for name in delta},
            "evaluations": 457, "solves": 1, "diverged": 1,
        }
