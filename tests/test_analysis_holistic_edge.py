"""Edge cases of the holistic outer iteration and its configuration."""

import math
import sys

import pytest

from repro.analysis import AnalysisConfig, analyze
from repro.analysis.interfaces import UNSCHEDULABLE
from repro.io import system_from_dict
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms.linear import DedicatedPlatform, LinearSupplyPlatform

from system_edits import paper_dict_with


def chain_system(*, deadline=50.0, wcets=(6.0, 6.0)):
    tr1 = Transaction(
        period=10.0, deadline=deadline, name="heavy",
        tasks=[Task(wcet=wcets[0], platform=0, priority=2)],
    )
    tr2 = Transaction(
        period=10.0, deadline=deadline, name="victim",
        tasks=[Task(wcet=wcets[1], platform=0, priority=1)],
    )
    return TransactionSystem(
        transactions=[tr1, tr2], platforms=[DedicatedPlatform()]
    )


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            AnalysisConfig(method="psychic")

    def test_bad_best_case(self):
        with pytest.raises(ValueError):
            AnalysisConfig(best_case="wish")

    def test_bad_iteration_cap(self):
        with pytest.raises(ValueError):
            AnalysisConfig(max_outer_iterations=0)

    def test_bad_busy_bound(self):
        with pytest.raises(ValueError):
            AnalysisConfig(busy_bound_factor=0.0)


class TestStopOnMiss:
    def test_stops_early_without_changing_verdict(self):
        # A multi-task chain that misses: the full iteration and the early
        # stop agree on the verdict.
        tr = Transaction(
            period=30.0, deadline=8.0, name="tight",
            tasks=[
                Task(wcet=3.0, platform=0, priority=1),
                Task(wcet=3.0, platform=1, priority=1),
            ],
        )
        noise = Transaction(
            period=10.0, name="noise",
            tasks=[Task(wcet=4.0, platform=0, priority=2)],
        )
        system = TransactionSystem(
            transactions=[tr, noise],
            platforms=[DedicatedPlatform(), LinearSupplyPlatform(0.5, 1.0)],
        )
        full = analyze(system)
        fast = analyze(system, config=AnalysisConfig(stop_on_miss=True))
        assert not full.schedulable
        assert not fast.schedulable
        assert fast.outer_iterations <= full.outer_iterations


class TestIterationCap:
    def test_cap_reported_as_not_converged(self):
        # A converging system with an absurdly small cap.
        result = analyze(
            sensor_fusion_system(),
            config=AnalysisConfig(max_outer_iterations=1),
        )
        assert not result.converged
        assert result.outer_iterations == 1
        # The returned responses are a valid (optimistic) first iterate,
        # not the fixed point: Gamma_1's final value is larger.
        full = analyze(sensor_fusion_system())
        assert result.wcrt(0, 3) <= full.wcrt(0, 3)


class TestDivergenceShapes:
    def test_overload_reports_inf_and_verdict(self):
        result = analyze(
            chain_system(), config=AnalysisConfig(busy_bound_factor=30)
        )
        assert not result.schedulable
        assert math.isinf(result.transaction_wcrt[1])
        assert result.transaction_wcrt[0] < UNSCHEDULABLE

    def test_trace_contains_inf_row(self):
        result = analyze(
            chain_system(),
            config=AnalysisConfig(busy_bound_factor=30),
            trace=True,
        )
        last = result.iterations[-1]
        assert any(math.isinf(v) for v in last.responses.values())

    def test_misses_listed(self):
        result = analyze(
            chain_system(), config=AnalysisConfig(busy_bound_factor=30)
        )
        assert result.misses() == [1]


class TestOverflowingSums:
    """Finite values whose sums or job counts overflow: a busy iterate or
    a job count reaching inf is divergence, and a first iterate that is
    already inf is a load error."""

    def test_modes_agree_or_load_rejects(self, overflowing_system):
        data, text = overflowing_system
        if text is not None:
            with pytest.raises(ValueError) as info:
                system_from_dict(data)
            assert text in str(info.value)
            return
        verdicts = {
            mode: analyze(system_from_dict(data), mode=mode).schedulable
            for mode in ("exact", "verdict")
        }
        assert verdicts == {"exact": False, "verdict": False}

    def test_busy_bound_is_capped_at_the_largest_float(self):
        system = chain_system(deadline=1e306)
        assert AnalysisConfig().busy_bound(system) == sys.float_info.max

    def test_finite_busy_bound_unchanged(self):
        config = AnalysisConfig(busy_bound_factor=30)
        assert config.busy_bound(chain_system()) == 30 * 50.0
        assert AnalysisConfig().busy_bound(sensor_fusion_system()) == (
            1000.0 * 70.0
        )


class TestJobCountCeiling:
    @pytest.mark.parametrize("deadline_of", [1, 2])
    def test_busy_period_past_max_job_count_diverges(self, deadline_of,
                                                      within):
        """A 2**63 blocking term beside a 2**63 deadline (which lifts the
        busy bound) closes a busy period of ~6e17 period-15 jobs: it counts
        as divergence in both modes instead of being enumerated job by
        job (exact mode, and verdict mode with both edits on transaction
        1, had not answered after 5 s)."""
        data = paper_dict_with(("transactions", 1, "tasks", 0, "blocking"),
                               2**63)
        data["transactions"][deadline_of]["deadline"] = 2**63
        with within(5.0):
            results = [
                analyze(system_from_dict(data), mode=mode)
                for mode in ("exact", "verdict")
            ]
        assert [r.schedulable for r in results] == [False, False]
        assert all(math.isinf(r.transaction_wcrt[1]) for r in results)


class TestInputPreservation:
    def test_input_system_not_mutated(self):
        system = sensor_fusion_system()
        before = [
            (t.offset, t.jitter)
            for tr in system.transactions
            for t in tr.tasks
        ]
        analyze(system)
        after = [
            (t.offset, t.jitter)
            for tr in system.transactions
            for t in tr.tasks
        ]
        assert before == after

    def test_first_task_offset_respected(self):
        # A designer-specified release offset on the first task survives.
        tr = Transaction(
            period=20.0,
            tasks=[
                Task(wcet=1.0, platform=0, priority=1, offset=5.0),
            ],
        )
        system = TransactionSystem(transactions=[tr], platforms=[DedicatedPlatform()])
        result = analyze(system)
        assert result.tasks[(0, 0)].offset == 5.0
        # Response measured from the transaction activation includes it.
        assert result.wcrt(0, 0) == pytest.approx(6.0)
