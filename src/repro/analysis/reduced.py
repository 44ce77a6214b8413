"""Reduced-scenario response-time analysis (paper Sec. 3.1.2).

Tindell's observation: the contribution of a *foreign* transaction can be
upper-bounded by maximizing over its candidate starters (Eq. 15,
:func:`repro.analysis.busy.w_transaction_star`), collapsing the exponential
scenario product to the :math:`N_a(\\tau_{a,b}) + 1` scenarios of the
analyzed task's own transaction (Eq. 16).  The result is a safe upper bound
on the exact analysis -- the property-based tests assert
``reduced >= exact`` on random systems.

This is the analysis the paper's worked example (Table 3) runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis._scenario import solve_scenario
from repro.analysis.busy import (
    HPTask,
    build_views,
    compile_w_rows,
    compile_w_transaction_star,
    scenario_rows,
    starter_phase_of_analyzed,
)
from repro.analysis.interfaces import AnalysisConfig
from repro.model.system import TransactionSystem

__all__ = ["ReducedResult", "response_time_reduced"]


@dataclass(frozen=True)
class ReducedResult:
    """Outcome of the reduced analysis for one task."""

    wcrt: float
    scenarios_evaluated: int
    #: Task index (within the analyzed transaction) of the starter attaining
    #: the worst case; ``-1`` when the analyzed task itself starts.
    worst_starter: int | None
    #: Inner fixed-point evaluations spent, divergent solves included.
    evaluations: int = 0


def _busy_bound(system: TransactionSystem, config: AnalysisConfig) -> float:
    longest = max(
        max(tr.period, float(tr.deadline)) for tr in system.transactions
    )
    return config.busy_bound_factor * longest


def response_time_reduced(
    system: TransactionSystem,
    a: int,
    b: int,
    *,
    config: AnalysisConfig | None = None,
    views: tuple | None = None,
    bound: float | None = None,
    compile_cache: dict | None = None,
    star_cache: dict | None = None,
    ceiling: float = float("inf"),
) -> ReducedResult:
    """Upper bound on the worst-case response time of task ``(a, b)`` (Eq. 16).

    ``views`` optionally supplies a pre-projected ``(analyzed, own,
    others)`` triple (from a cached :class:`~repro.analysis.busy.ViewProjector`)
    so the outer holistic rounds skip re-projection; ``bound`` an already
    computed divergence bound; ``compile_cache`` a per-task dict the outer
    rounds thread through so compiled scenario closures are rebuilt only
    when the jitters they bake in actually moved; ``star_cache`` a dict
    shared by every task of one analysis that maps a projected foreign
    view to its compiled W* (views compare by value, so tasks seeing the
    same transaction at the same jitters share one closure); ``ceiling``
    the verdict-mode response ceiling (``wcrt`` is reported as ``inf`` as
    soon as any scenario proves the response exceeds it -- see
    :func:`repro.analysis._scenario.solve_scenario`).
    """
    config = config or AnalysisConfig()
    analyzed, own, others = views if views is not None else build_views(system, a, b)
    if bound is None:
        bound = _busy_bound(system, config)
    kernel = config.kernel

    candidates: list[HPTask | None] = list(own.tasks) + [None]
    # Foreign transactions contribute W* regardless of the own-transaction
    # starter.  A view with a single interfering task degenerates (Eq. 15's
    # max over one candidate is the identity) into flat W rows that merge
    # with the own-view rows into one compiled closure per scenario; views
    # with several starters keep their W*, compiled once per distinct view
    # when a star cache is shared (phases and carries depend on nothing but
    # the view, which carries the jitters).
    single = [v for v in others if len(v.tasks) == 1]
    multi = [v for v in others if len(v.tasks) > 1]
    if star_cache is None:
        multi_w = tuple(
            compile_w_transaction_star(view, kernel=kernel) for view in multi
        )
    else:
        multi_list = []
        for view in multi:
            fn = star_cache.get(view)
            if fn is None:
                fn = star_cache[view] = compile_w_transaction_star(
                    view, kernel=kernel
                )
            multi_list.append(fn)
        multi_w = tuple(multi_list)

    worst = float("-inf")
    worst_starter: int | None = None
    evaluated = 0
    evaluations = 0

    # State baked into each scenario closure: the analyzed task's jitter
    # (anchor of the self-started scenario and its siblings' phases), the
    # own-view jitters and the merged single-starter foreign jitters.
    scenario_state = (
        (analyzed.jitter,)
        + tuple(hp.jitter for hp in own.tasks)
        + tuple(v.tasks[0].jitter for v in single)
    )
    shared_rows: tuple | None = None  # built on the first cache miss

    for starter in candidates:
        phi_ab = starter_phase_of_analyzed(analyzed, starter)
        starter_idx = starter.index if starter is not None else -1
        scenario_key = ("scenario", starter_idx)
        hit = (
            compile_cache.get(scenario_key)
            if compile_cache is not None
            else None
        )
        if hit is not None and hit[0] == scenario_state:
            scenario_w = hit[1]
        else:
            if shared_rows is None:
                shared_rows = ()
                for v in single:
                    row_key = ("rows", v.index)
                    row_hit = (
                        compile_cache.get(row_key)
                        if compile_cache is not None
                        else None
                    )
                    jit = v.tasks[0].jitter
                    if row_hit is not None and row_hit[0] == jit:
                        shared_rows += row_hit[1]
                    else:
                        v_rows = scenario_rows(v, v.tasks[0])
                        if compile_cache is not None:
                            compile_cache[row_key] = (jit, v_rows)
                        shared_rows += v_rows
            rows = (
                scenario_rows(
                    own, starter,
                    starter_phi=analyzed.phi, starter_jitter=analyzed.jitter,
                )
                + shared_rows
            )
            scenario_w = compile_w_rows(rows, kernel=kernel)
            if compile_cache is not None:
                compile_cache[scenario_key] = (scenario_state, scenario_w)

        # solve_scenario memoizes the interference per scenario (its busy
        # and completion fixed points revisit the same time points); here
        # only the raw sum is assembled -- with no multi-starter views the
        # merged closure is passed through without any wrapper.
        if multi_w:
            def interference(t: float, scenario_w=scenario_w) -> float:
                total = scenario_w(t)
                for w_star in multi_w:
                    total += w_star(t)
                return total
        else:
            interference = scenario_w

        outcome = solve_scenario(
            analyzed, phi_ab, interference, bound=bound, tol=config.tol,
            chain_jobs=config.driver_cache, memoize=config.driver_cache,
            response_ceiling=ceiling,
        )
        evaluated += 1
        evaluations += outcome.evaluations
        if outcome.response > worst:
            worst = outcome.response
            worst_starter = starter_idx
        if worst == float("inf"):
            break

    if worst == float("-inf"):
        raise AssertionError(
            f"no scenario constrained task ({a},{b}); "
            "the self-started scenario must always contain job p=p0"
        )
    return ReducedResult(
        wcrt=worst, scenarios_evaluated=evaluated, worst_starter=worst_starter,
        evaluations=evaluations,
    )
