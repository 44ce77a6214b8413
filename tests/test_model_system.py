"""Unit tests for TransactionSystem."""

import pytest

from repro.analysis import AnalysisConfig, analyze
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms.linear import DedicatedPlatform, LinearSupplyPlatform


def simple_system(n_platforms=2):
    platforms = [DedicatedPlatform() for _ in range(n_platforms)]
    t1 = Transaction(
        period=10.0,
        tasks=[
            Task(wcet=1.0, platform=0, priority=2),
            Task(wcet=2.0, platform=1, priority=1),
        ],
        name="G1",
    )
    t2 = Transaction(
        period=20.0, tasks=[Task(wcet=4.0, platform=0, priority=1)], name="G2"
    )
    return TransactionSystem(transactions=[t1, t2], platforms=platforms)


class TestConstruction:
    def test_valid(self):
        s = simple_system()
        assert len(s) == 2
        assert s.total_tasks() == 3

    def test_rejects_out_of_range_platform(self):
        with pytest.raises(ValueError, match="platform"):
            simple_system(n_platforms=1)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError, match="at least one transaction"):
            TransactionSystem(transactions=[], platforms=[DedicatedPlatform()])

    def test_rejects_platform_without_triple(self):
        t = Transaction(period=1.0, tasks=[Task(wcet=0.5, platform=0, priority=1)])
        with pytest.raises(TypeError, match="rate"):
            TransactionSystem(transactions=[t], platforms=[object()])

    def test_rejects_non_transaction(self):
        with pytest.raises(TypeError):
            TransactionSystem(transactions=[42], platforms=[DedicatedPlatform()])


def paper_with_gamma1_period(period: float) -> TransactionSystem:
    """The paper example with Gamma1's period raised from 50 to *period*."""
    system = sensor_fusion_system()
    g1 = system.transactions[0]
    return TransactionSystem(
        transactions=[
            Transaction(
                period=period, deadline=g1.deadline, name=g1.name,
                tasks=g1.tasks,
            ),
            *system.transactions[1:],
        ],
        platforms=system.platforms,
    )


class TestTimeScale:
    """Job counts snap ``(t - phi)/T`` at the absolute EPS, so a period-T
    transaction is resolved only to ``EPS * T``."""

    def test_accepts_paper_example_while_resolvable(self):
        # Shortest C/alpha is 2.5, so the ratio is 4e8 -- and both methods
        # still give Gamma1 its WCRT of 31.
        system = paper_with_gamma1_period(1e9)
        assert system.time_ratio() == pytest.approx(4e8)
        for method in ("reduced", "exact"):
            result = analyze(system, config=AnalysisConfig(method=method))
            assert result.transaction_wcrt[0] == 31.0

    @pytest.mark.parametrize("period", [2e9, 3e9, 5e9, 1e12])
    def test_rejects_unresolvable_time_scale(self, period):
        # Unchecked, 2e9 and 3e9 gave Gamma1 an unsound 26.0 and 5e9 an
        # AssertionError.
        with pytest.raises(ValueError, match="Gamma1: period"):
            paper_with_gamma1_period(period)

    def test_accepts_the_generators_extreme(self):
        # random_system floors WCETs at 1e-6, with rates below 0.8 and
        # periods up to 500.
        tr = Transaction(
            period=500.0, tasks=[Task(wcet=1e-6, platform=0, priority=1)]
        )
        system = TransactionSystem(
            transactions=[tr], platforms=[LinearSupplyPlatform(rate=0.8)]
        )
        assert system.time_ratio() == pytest.approx(4e8)

    def test_generated_systems_validate(self):
        pytest.importorskip("numpy")
        from repro.gen import RandomSystemSpec, random_system, wide_view_spec

        specs = (
            wide_view_spec(0.05),
            RandomSystemSpec(n_platforms=3, n_transactions=4,
                             tasks_per_transaction=(2, 4), utilization=0.05),
        )
        for spec in specs:
            for seed in range(100):
                assert random_system(spec, seed=seed).time_ratio() <= 4e8


class TestQueries:
    def test_tasks_on(self):
        s = simple_system()
        on0 = s.tasks_on(0)
        assert [(i, j) for i, j, _ in on0] == [(0, 0), (1, 0)]
        assert all(t.platform == 0 for _, _, t in on0)

    def test_utilization_dedicated(self):
        s = simple_system()
        # platform 0: 1/10 + 4/20 = 0.3; platform 1: 2/10 = 0.2
        assert s.utilization(0) == pytest.approx(0.3)
        assert s.utilization(1) == pytest.approx(0.2)
        assert s.utilizations() == pytest.approx([0.3, 0.2])

    def test_utilization_scales_with_rate(self):
        platforms = [LinearSupplyPlatform(0.5), DedicatedPlatform()]
        t = Transaction(period=10.0, tasks=[Task(wcet=1.0, platform=0, priority=1)])
        s = TransactionSystem(transactions=[t], platforms=platforms)
        assert s.utilization(0) == pytest.approx(0.2)

    def test_iteration_and_indexing(self):
        s = simple_system()
        assert s[0].name == "G1"
        assert [tr.name for tr in s] == ["G1", "G2"]

    def test_hyperperiod_hint_positive(self):
        assert simple_system().hyperperiod_hint() >= 20.0


class TestCopy:
    def test_copy_with_jitters_reset(self):
        s = simple_system()
        s.transactions[0].tasks[0].jitter = 4.0
        s.transactions[0].tasks[0].offset = 2.0
        c = s.copy_with_jitters_reset()
        assert c.transactions[0].tasks[0].jitter == 0.0
        assert c.transactions[0].tasks[0].offset == 0.0
        # original untouched
        assert s.transactions[0].tasks[0].jitter == 4.0
