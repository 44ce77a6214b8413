"""Verdict-mode parity: ``mode="verdict"`` verdicts == ``mode="exact"``.

The verdict pipeline (ISSUE 4) buys its ~3x campaign throughput from three
places -- deadline-ceiling early exits inside the inner fixed points,
pre-filters that classify easy systems without the holistic loop, and
monotone level pruning along utilization-scaled sweep chains.  None of them
may ever flip a verdict.  This suite pins that contract:

* a property sweep over 200+ generated systems asserting verdict equality
  (``analyze`` and ``is_schedulable``) across shapes, depths and levels;
* the two structural properties the early exits lean on, asserted on the
  exact analysis itself: worst-case response times are non-decreasing
  along every precedence chain, and verdicts are monotone along a
  utilization-scaled chain;
* campaign-level parity through the pruning/bisection path, the sharded
  path and a rerun of a truncated run against its result store
  (including the inferred-verdict provenance extras);
* pins that exact-mode accounting is unchanged from PR 3 (the verdict
  machinery must be invisible when ``mode="exact"``).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    AnalysisConfig,
    analyze,
    is_schedulable,
    utilization_prefilter,
)
from repro.batch import (
    Campaign,
    CampaignSpec,
    linspace_levels,
    merge_campaign_results,
    resolve_method,
)
from repro.gen import RandomSystemSpec, random_system
from repro.gen.random_transactions import scale_system_utilization
from repro.util.fixedpoint import (
    FixedPointCeilingHit,
    fixed_point_stats,
    iterate_fixed_point,
)

GS = AnalysisConfig(method="reduced", update="gauss_seidel")
GS_VERDICT = AnalysisConfig(
    method="reduced", update="gauss_seidel", mode="verdict"
)


def _systems():
    """200+ generated systems spanning shapes, depths and utilizations."""
    out = []
    for seed in range(30):
        base = random_system(
            RandomSystemSpec(
                n_platforms=3,
                n_transactions=4,
                tasks_per_transaction=(2, 4),
                utilization=0.3,
            ),
            seed=seed,
        )
        for level in (0.35, 0.6, 0.85, 1.05):
            out.append(scale_system_utilization(base, level / 0.3))
    for seed in range(30):
        base = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 3),
                utilization=0.4,
            ),
            seed=seed,
        )
        for level in (0.4, 0.75, 0.95):
            out.append(scale_system_utilization(base, level / 0.4))
    return out


class TestVerdictParityProperty:
    def test_verdicts_identical_over_200_systems(self):
        systems = _systems()
        assert len(systems) >= 200
        mismatches = [
            i
            for i, system in enumerate(systems)
            if analyze(system, config=GS_VERDICT).schedulable
            != analyze(system, config=GS).schedulable
        ]
        assert mismatches == []

    def test_is_schedulable_delegates_to_verdict_pipeline(self):
        system = _systems()[0]
        before = fixed_point_stats()
        verdict = is_schedulable(system)
        after = fixed_point_stats().delta(before)
        # The verdict pipeline fingerprint: either a pre-filter classified
        # the system or an early-exit/holistic verdict run happened; in
        # every case the answer matches the exact analysis.
        assert verdict == analyze(system, config=GS).schedulable
        assert (
            after.prefilter_accepts
            + after.prefilter_rejects
            + after.solves
        ) > 0

    def test_is_schedulable_respects_explicit_exact_config(self):
        """An explicit exact-mode config must not be silently flipped to
        the verdict pipeline (its pre-filters/early exits would skew any
        cost A/B run through this API)."""
        # Shape where the verdict pipeline's fingerprint is unmistakable:
        # single-task transactions are always pre-filter-classified.
        system = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 1),
                utilization=0.3,
            ),
            seed=1,
        )
        before = fixed_point_stats()
        assert is_schedulable(system, config=GS)
        delta = fixed_point_stats().delta(before)
        assert delta.prefilter_accepts == 0
        assert delta.prefilter_rejects == 0
        assert delta.ceiling_exits == 0
        # And an explicit mode on top of a config still wins.
        before = fixed_point_stats()
        assert is_schedulable(system, config=GS, mode="verdict")
        assert fixed_point_stats().delta(before).prefilter_accepts == 1

    def test_is_schedulable_rejects_unknown_kwargs(self):
        system = _systems()[0]
        with pytest.raises(TypeError, match="metod"):
            is_schedulable(system, metod="exact")

    def test_jacobi_and_exact_method_verdict_parity(self):
        """Verdict mode composes with the other config axes too."""
        for seed in (0, 1, 2, 3):
            base = random_system(
                RandomSystemSpec(
                    n_platforms=2,
                    n_transactions=2,
                    tasks_per_transaction=(1, 2),
                    utilization=0.5,
                ),
                seed=seed,
            )
            for level in (0.5, 0.9, 1.2):
                system = scale_system_utilization(base, level / 0.5)
                for kw in (
                    {"method": "reduced", "update": "jacobi"},
                    {"method": "exact", "update": "gauss_seidel"},
                ):
                    exact = analyze(system, config=AnalysisConfig(**kw))
                    fast = analyze(
                        system, config=AnalysisConfig(mode="verdict", **kw)
                    )
                    assert fast.schedulable == exact.schedulable, (seed, level, kw)


class TestStructuralProperties:
    """The two monotonicity facts the early exits are sound because of."""

    def test_wcrt_non_decreasing_along_chains(self):
        for system in _systems()[:60]:
            result = analyze(system, config=GS)
            for i, tr in enumerate(system.transactions):
                for j in range(1, len(tr.tasks)):
                    lo, hi = result.wcrt(i, j - 1), result.wcrt(i, j)
                    assert hi >= lo - 1e-9 or (
                        math.isinf(lo) and math.isinf(hi)
                    ), (i, j)

    def test_verdict_monotone_along_utilization_chain(self):
        for seed in range(15):
            base = random_system(
                RandomSystemSpec(
                    n_platforms=3,
                    n_transactions=4,
                    tasks_per_transaction=(2, 4),
                    utilization=0.3,
                ),
                seed=seed,
            )
            verdicts = [
                analyze(
                    scale_system_utilization(base, level / 0.3), config=GS
                ).schedulable
                for level in (0.3, 0.5, 0.7, 0.9, 1.1)
            ]
            # Once unschedulable, never schedulable again at higher levels.
            assert verdicts == sorted(verdicts, reverse=True), (seed, verdicts)


class TestPrefilters:
    def test_utilization_reject_matches_exact_verdict(self):
        base = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 3),
                utilization=0.5,
            ),
            seed=7,
        )
        overloaded = scale_system_utilization(base, 4.0)
        assert utilization_prefilter(overloaded) is not None
        before = fixed_point_stats()
        result = analyze(overloaded, config=GS_VERDICT)
        delta = fixed_point_stats().delta(before)
        assert result.prefilter == "utilization"
        assert not result.schedulable
        assert delta.prefilter_rejects == 1
        assert delta.solves == 0  # no fixed point was ever iterated
        assert not analyze(overloaded, config=GS).schedulable

    def test_bound_accept_matches_exact_verdict(self):
        # Single-task transactions: the capped-jitter round is exact, so
        # the sufficient filter classifies every schedulable system.
        system = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 1),
                utilization=0.3,
            ),
            seed=1,
        )
        before = fixed_point_stats()
        result = analyze(system, config=GS_VERDICT)
        delta = fixed_point_stats().delta(before)
        assert result.prefilter == "bound"
        assert result.schedulable
        assert delta.prefilter_accepts == 1
        assert analyze(system, config=GS).schedulable
        assert result.outer_iterations == 0

    def test_huge_deadline_declined_not_enumerated(
        self, huge_deadline_system, within
    ):
        """A 1e30 deadline caps transaction 0's derived jitters at ~2e28
        periods.  The bound filter declines such a cap (beyond
        ``MAX_JOB_COUNT``) instead of solving one completion per
        collapsed job, and the verdict still equals exact mode's."""
        import copy

        from repro.analysis.schedulability import response_bound_prefilter
        from repro.io import system_from_dict

        system = system_from_dict(huge_deadline_system)
        with within(5.0):
            assert response_bound_prefilter(
                copy.deepcopy(system), GS_VERDICT
            ) is None
            verdict = analyze(system, mode="verdict")
        assert verdict.schedulable == analyze(system, mode="exact").schedulable

    def test_prefilters_off_still_correct(self):
        config = AnalysisConfig(
            method="reduced", update="gauss_seidel", mode="verdict",
            prefilters=False,
        )
        for system in _systems()[:40]:
            assert (
                analyze(system, config=config).schedulable
                == analyze(system, config=GS).schedulable
            )

    def test_independent_tasks_preset_is_the_prefilter_regime(self):
        """The ``independent_tasks_spec`` preset pin: with single-task
        transactions the sufficient pre-filter classifies every
        schedulable draw without the holistic loop.  (Inside a pruned
        *campaign* the bisection deliberately probes near-threshold
        levels, where the filter is inconclusive by design -- the
        filter's payoff is at the single-verdict API level.)"""
        from repro.gen import independent_tasks_spec

        before = fixed_point_stats()
        for seed in range(12):
            for u in (0.2, 0.3, 0.4):
                system = random_system(independent_tasks_spec(u), seed=seed)
                fast = analyze(system, config=GS_VERDICT)
                assert (
                    fast.schedulable
                    == analyze(system, config=GS).schedulable
                )
        delta = fixed_point_stats().delta(before)
        assert delta.prefilter_accepts >= 10

    def test_verdict_trace_rows_are_complete_and_renderable(self):
        """A mid-round abort must not leave holes in the trace rows:
        render_table3/text_report index every (i, j) of every row."""
        from repro.analysis.report import text_report
        from repro.paper import render_table3

        system = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(2, 3),
                utilization=0.9,
            ),
            seed=0,
        )
        result = analyze(system, config=GS_VERDICT, trace=True)
        assert not result.schedulable  # the abort path really engaged
        keys = set(result.tasks)
        for row in result.iterations:
            assert set(row.responses) == keys
        for i, tr in enumerate(system.transactions):
            if len(tr.tasks) > 1:
                render_table3(result, transaction=i)  # must not raise
        text_report(system, result, include_trace=True)

    def test_trace_request_bypasses_prefilters(self):
        """``--mode verdict --trace`` must yield an iteration table even
        for systems a pre-filter would classify."""
        base = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 3),
                utilization=0.5,
            ),
            seed=7,
        )
        overloaded = scale_system_utilization(base, 4.0)
        traced = analyze(overloaded, config=GS_VERDICT, trace=True)
        assert not traced.schedulable
        assert traced.prefilter is None
        assert traced.iterations  # the holistic loop ran and recorded rows
        easy = random_system(
            RandomSystemSpec(
                n_platforms=2,
                n_transactions=3,
                tasks_per_transaction=(1, 1),
                utilization=0.3,
            ),
            seed=1,
        )
        traced = analyze(easy, config=GS_VERDICT, trace=True)
        assert traced.schedulable
        assert traced.prefilter is None
        assert traced.iterations

    def test_ceiling_exits_counted_separately_from_divergence(self):
        before = fixed_point_stats()
        for system in _systems():
            analyze(system, config=GS_VERDICT)
        delta = fixed_point_stats().delta(before)
        assert delta.ceiling_exits > 0


class TestBusyLengthCeiling:
    """ISSUE 5 satellite: the busy-period *length* loop aborts under a
    verdict ceiling too.

    Near-saturated levels used to pay the whole busy-length solve before
    the first completion iterate could imply a miss; the verdict path now
    solves completions incrementally as busy iterates widen the window,
    so the first-job miss aborts the scenario almost immediately.  A long
    busy period alone proves nothing (late interference can stretch it
    with every deadline met), which is why the abort still rides on
    completion iterates -- these pins check the counters, the soundness
    direction and the evaluation savings.
    """

    @staticmethod
    def _scenario(util: float):
        from repro.analysis._scenario import solve_scenario
        from repro.analysis.busy import AnalyzedTask

        analyzed = AnalyzedTask(
            txn=0, idx=0, period=10.0, deadline=10.0, phi=0.0, jitter=0.0,
            cost=1.0, blocking=0.0, delay=0.0, priority=1, platform=0,
        )
        step = 10.0 * util - 1.0  # own task contributes 0.1

        def interference(t: float) -> float:
            return step * math.ceil(max(t, 0.0) / 10.0)

        return solve_scenario, analyzed, interference

    def test_saturated_scenario_aborts_before_busy_converges(self):
        solve, analyzed, interference = self._scenario(util=1.005)
        before = fixed_point_stats()
        exact = solve(analyzed, 0.0, interference, bound=1e4)
        d_exact = fixed_point_stats().delta(before)
        assert exact.response == float("inf")
        assert d_exact.diverged == 1  # exact pays the walk to the bound
        assert exact.evaluations > 100

        before = fixed_point_stats()
        fast = solve(
            analyzed, 0.0, interference, bound=1e4, response_ceiling=10.0
        )
        delta = fixed_point_stats().delta(before)
        assert fast.response == float("inf")  # same verdict
        assert delta.ceiling_exits == 1
        assert delta.diverged == 0  # a ceiling exit is not a divergence
        # The counter pin: the whole scenario costs a handful of
        # evaluations instead of the 100+ busy-length walk above.
        assert fast.evaluations < 10

    def test_schedulable_scenario_identical_to_exact(self):
        solve, analyzed, interference = self._scenario(util=0.5)
        exact = solve(analyzed, 0.0, interference, bound=1e4)
        fast = solve(
            analyzed, 0.0, interference, bound=1e4, response_ceiling=10.0
        )
        assert exact.response <= 10.0
        # No abort fires, and the interleaved order solves the same jobs
        # through the same iterate sequences: outcome identical.
        assert fast == exact

    def test_interference_stretched_busy_period_keeps_parity(self):
        """The unsound shortcut this satellite must NOT take: a busy
        period stretched past the deadline horizon purely by *later*
        interference, while the single own job is long done.  The verdict
        path must still report the exact (schedulable) response."""
        from repro.analysis._scenario import solve_scenario
        from repro.analysis.busy import AnalyzedTask

        analyzed = AnalyzedTask(
            txn=0, idx=0, period=1000.0, deadline=100.0, phi=0.0,
            jitter=0.0, cost=1.0, blocking=0.0, delay=0.0, priority=1,
            platform=0,
        )

        def interference(t: float) -> float:
            # A burst at t=2 (after the own job completed at 1.0) chains
            # the busy period out to ~90: longer than deadline+response
            # yet perfectly schedulable.
            total = 0.0
            for arrival in (2.0, 30.0, 60.0):
                if t > arrival:
                    total += 29.0
            return total

        exact = solve_scenario(analyzed, 0.0, interference, bound=1e6)
        fast = solve_scenario(
            analyzed, 0.0, interference, bound=1e6, response_ceiling=100.0
        )
        assert exact.response == 1.0  # the own job finished long before
        assert fast == exact  # no false miss from the long busy period


class TestIterateCeiling:
    """The generalized ceiling of the shared fixed-point iterator."""

    def test_ceiling_aborts_before_bound(self):
        before = fixed_point_stats()
        with pytest.raises(FixedPointCeilingHit) as err:
            iterate_fixed_point(lambda x: x + 1.0, 0.0, bound=1e9, ceiling=10.0)
        delta = fixed_point_stats().delta(before)
        assert err.value.iterations < 15
        assert delta.ceiling_exits == 1
        assert delta.diverged == 0  # a ceiling exit is not a divergence

    def test_no_ceiling_reproduces_exact_fixed_point(self):
        res = iterate_fixed_point(lambda x: 0.5 * x + 1.0, 0.0)
        res2 = iterate_fixed_point(lambda x: 0.5 * x + 1.0, 0.0, ceiling=100.0)
        assert res.value == res2.value
        assert res.iterations == res2.iterations


CAMPAIGN_KW = dict(
    grid={"utilization": linspace_levels(0.3, 0.95, 14)},
    base={"n_platforms": 3, "n_transactions": 4,
          "tasks_per_transaction": (2, 4)},
    systems_per_cell=4,
    seed=3,
)


def _cell_key(cell):
    frozen = tuple(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in sorted(cell.params.items())
    )
    return frozen, cell.seed


def _verdict_map(result):
    return {_cell_key(c): c.schedulable for c in result.cells}


class TestCampaignPruning:
    def test_verdict_method_is_registered_monotone(self):
        assert resolve_method("verdict").verdict_monotone
        assert not resolve_method("gauss_seidel").verdict_monotone

    def test_mixed_spec_verdict_equals_exact_per_cell(self):
        """One spec, both methods: the bisected verdict cells must agree
        with the fully-solved gauss_seidel cells on every (system, level)."""
        result = Campaign(
            CampaignSpec(methods=("gauss_seidel", "verdict"), **CAMPAIGN_KW)
        ).run(workers=1)
        exact = {
            _cell_key(c): c.schedulable
            for c in result.cells
            if c.method == "gauss_seidel"
        }
        fast = {
            _cell_key(c): c.schedulable
            for c in result.cells
            if c.method == "verdict"
        }
        assert exact == fast
        inferred = [
            c for c in result.cells
            if c.extras.get("verdict_inferred")
        ]
        assert inferred, "the pruning path never engaged"
        for c in inferred:
            assert c.method == "verdict"
            assert c.evaluations == 0
            assert c.extras["inference"] == "monotone_utilization"
            assert c.extras["from_level"] in CAMPAIGN_KW["grid"]["utilization"]

    def test_sharded_union_bit_identical(self):
        campaign = Campaign(
            CampaignSpec(methods=("verdict",), **CAMPAIGN_KW)
        )
        full = campaign.run(workers=1)
        for n in (2, 3):
            shards = [
                campaign.run(workers=1, shard=(k, n)) for k in range(n)
            ]
            merged = merge_campaign_results(shards)
            assert merged.metrics() == full.metrics()

    def test_truncate_resume_verdicts_identical(self, tmp_path):
        """A run truncated after ``cut`` cells left those cells in its
        store; the rerun against it agrees with the full run on every
        verdict -- and on every other field but ``time_s``, since a
        served probe steers the bisection exactly as its solve did."""
        from repro.batch.campaign import chain_store_digests

        spec = CampaignSpec(methods=("verdict",), **CAMPAIGN_KW)
        campaign = Campaign(spec)
        full = campaign.run(workers=1)
        digests = [
            d for chain in spec.chains()
            for d in chain_store_digests(spec, chain)
        ]
        n = len(full.cells)
        store = tmp_path / "store"
        for cut in (3, n // 3, n // 2, n - 5):
            campaign.run(workers=1, store=store)
            for digest in digests[cut:]:
                (store / digest[:2] / f"{digest}.json").unlink()
            resumed = campaign.run(workers=1, store=store)
            assert _verdict_map(resumed) == _verdict_map(full), cut
            assert resumed.metrics() == full.metrics(), cut
            assert resumed.store_misses > 0

    def test_pool_and_inline_agree_on_pruned_cells(self):
        campaign = Campaign(
            CampaignSpec(methods=("verdict",), **CAMPAIGN_KW)
        )
        inline = campaign.run(workers=1)
        pooled = campaign.run(workers=2)
        assert pooled.metrics() == inline.metrics()
        # Provenance extras (verdict_inferred/from_level) included.
        assert any(c.extras.get("verdict_inferred") for c in pooled.cells)
        assert [c.extras for c in pooled.cells] == [
            c.extras for c in inline.cells
        ]


class TestExactModeUnchanged:
    """PR 3 cost-model pins: verdict machinery invisible in exact mode."""

    #: Captured on the PR 3 tree (pre-verdict-pipeline) for this exact
    #: spec; exact mode must keep reproducing them byte for byte.
    PR3_PINS = {
        "evaluations_total": 2632,
        "outer_iterations_total": 95,
        "fp_solves": 1308,
        "fp_task_solves": 445,
        "fp_task_skips": 105,
        "schedulable": 26,
        "n": 40,
    }

    def test_exact_mode_counters_pinned(self):
        spec = CampaignSpec(
            grid={"utilization": linspace_levels(0.3, 0.9, 5)},
            base={"n_platforms": 2, "n_transactions": 3,
                  "tasks_per_transaction": (1, 3)},
            methods=("gauss_seidel", "reduced"),
            systems_per_cell=4,
            seed=11,
        )
        result = Campaign(spec).run(workers=1)
        acc = result.accounting()
        measured = {
            "evaluations_total": acc["evaluations_total"],
            "outer_iterations_total": acc["outer_iterations_total"],
            "fp_solves": sum(c.extras["fp_solves"] for c in result.cells),
            "fp_task_solves": sum(
                c.extras["fp_task_solves"] for c in result.cells
            ),
            "fp_task_skips": sum(
                c.extras["fp_task_skips"] for c in result.cells
            ),
            "schedulable": sum(c.schedulable for c in result.cells),
            "n": len(result.cells),
        }
        assert measured == self.PR3_PINS

    def test_exact_mode_extras_carry_no_verdict_keys(self):
        system = _systems()[0]
        from repro.batch.methods import resolve_method as rm

        outcome = rm("gauss_seidel").fn(system, None)
        assert "fp_ceiling_exits" not in outcome.extras
        assert "fp_prefilter" not in outcome.extras
        verdict_outcome = rm("verdict").fn(system, None)
        assert "fp_ceiling_exits" in verdict_outcome.extras

    def test_exact_mode_never_touches_verdict_counters(self):
        before = fixed_point_stats()
        for system in _systems()[:30]:
            analyze(system, config=GS)
        delta = fixed_point_stats().delta(before)
        assert delta.ceiling_exits == 0
        assert delta.prefilter_accepts == 0
        assert delta.prefilter_rejects == 0
