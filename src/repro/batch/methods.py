"""Registry of named analysis methods for campaign experiments.

A *method* maps a transaction system to a :class:`MethodOutcome`: the
schedulability verdict plus the accounting the campaign report aggregates
(outer rounds, inner fixed-point evaluations, warm-start usage).  The
built-in entries cover the paper's comparison axes:

``reduced``
    The holistic analysis with the reduced per-task bound (Sec. 3.1.2) and
    the paper's Jacobi outer update -- the method Table 3 traces.
``gauss_seidel``
    Same fixed point, Gauss-Seidel outer update: each fresh response feeds
    its successor within the round, converging in fewer (but individually
    costlier) rounds.  Runs the chain-aware dirty-set fast path: once a
    precedence chain's upstream prefix stabilizes, its tasks stop being
    re-solved (``fp_task_skips`` in the extras counts the savings).
``gauss_seidel_full``
    The same Gauss-Seidel fixed point without the dirty set -- every round
    re-solves every task (the PR 1 behavior, kept as the A/B reference for
    the campaign benchmarks).
``verdict``
    The verdict-mode pipeline (``AnalysisConfig(mode="verdict")``) over the
    incremental Gauss-Seidel analysis: deadline-ceiling early exits, cheap
    pre-filters, most-constrained-first sweeps.  Verdicts are identical to
    ``gauss_seidel`` (and ``reduced``); per-task accounting is not.  Marked
    *verdict-monotone*: along a utilization-scaled warm-start chain, a miss
    at one level implies a miss at every higher level, which lets the
    campaign engine bisect the sweep instead of solving every cell.
``exact``
    The holistic analysis with the exact scenario enumeration (Sec. 3.1.1);
    guard the combinatorics with small systems.
``dedicated``
    The classical special case :math:`(\\alpha, \\Delta, \\beta) = (1,0,0)`:
    every platform replaced by a dedicated full-speed processor (the
    optimistic baseline of benchmark E9/E16).
``compositional``
    The prior-art per-component admission ([12], [7] in the paper): each
    platform-local task set tested in isolation with
    :func:`repro.analysis.compositional.fp_component_schedulable`, blind to
    cross-platform offsets and jitters (benchmark E13's baseline).

Custom methods register with :func:`register_method`; under the default
``fork`` start method of the process pool, registrations made before
``Campaign.run`` are visible to the workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.analysis import AnalysisConfig, analyze, analyze_dedicated
from repro.analysis.compositional import LocalTask, fp_component_schedulable
from repro.analysis.interfaces import SystemAnalysis
from repro.model.system import TransactionSystem
from repro.util.fixedpoint import fixed_point_stats, reseed_scope

__all__ = [
    "MethodInfo",
    "MethodOutcome",
    "available_methods",
    "holistic_method",
    "register_method",
    "reseed_jitters",
    "resolve_method",
]


@dataclass
class MethodOutcome:
    """What one method reports for one generated system."""

    #: The method's acceptance verdict.
    schedulable: bool
    #: Whether the method's iteration converged (always True for
    #: non-iterative methods).
    converged: bool = True
    #: Outer (dynamic-offset) rounds performed.
    outer_iterations: int = 0
    #: Inner fixed-point evaluations, divergent solves included.
    evaluations: int = 0
    #: Largest ``wcrt / deadline`` over the transactions (inf when some
    #: busy period failed to close; NaN when the method has no such notion).
    max_wcrt_ratio: float = float("nan")
    #: Whether the analysis resumed from a warm-start jitter vector.
    warm_started: bool = False
    #: Final jitter vector for warm-start chaining along a sweep; never
    #: serialized into cell results.
    jitters: dict[tuple[int, int], float] | None = None
    #: Method-specific extra scalars, copied verbatim into the cell result.
    extras: dict[str, Any] = field(default_factory=dict)


MethodFn = Callable[
    [TransactionSystem, "dict[tuple[int, int], float] | None"], MethodOutcome
]


class MethodInfo(NamedTuple):
    """Registry entry of one campaign method."""

    fn: MethodFn
    #: Whether the method accepts (and benefits from) a warm-start jitter
    #: vector chained along the sweep axis.
    supports_warm_start: bool
    #: Whether the method's verdict is monotone along a utilization-scaled
    #: sweep chain (unschedulable at level *u* implies unschedulable at
    #: every higher level).  Verdict-mode holistic methods set this; the
    #: campaign engine then bisects the sweep for the method's chains and
    #: infers the remaining verdicts instead of solving them.
    verdict_monotone: bool = False


def outcome_from_analysis(result: SystemAnalysis) -> MethodOutcome:
    """Convert a :class:`SystemAnalysis` into a :class:`MethodOutcome`."""
    ratio = max(
        (r / d if d > 0 else float("inf"))
        for r, d in zip(result.transaction_wcrt, result.transaction_deadline)
    )
    jitters = result.final_jitters()
    # A pre-filter-classified result carries cap/zero jitters, not the
    # converged least fixed point -- the caps sit *above* it, so handing
    # them to the next sweep level as a warm start would be unsound.
    usable_warm = (
        result.converged
        and result.prefilter is None
        and all(math.isfinite(v) for v in jitters.values())
    )
    return MethodOutcome(
        schedulable=result.schedulable,
        converged=result.converged,
        outer_iterations=result.outer_iterations,
        evaluations=result.evaluations,
        max_wcrt_ratio=ratio,
        warm_started=result.warm_started,
        jitters=jitters if usable_warm else None,
    )


def holistic_method(config: AnalysisConfig, *, dedicated: bool = False) -> MethodFn:
    """Build a campaign method running the holistic analysis with *config*.

    Exposed so benchmarks and experiments can register ad-hoc variants
    (kernel/update/incremental axes) with :func:`register_method`.
    """
    def run(
        system: TransactionSystem,
        warm_start: dict[tuple[int, int], float] | None,
    ) -> MethodOutcome:
        before = fixed_point_stats()
        if dedicated:
            # analyze_dedicated shares the input's transaction list with
            # its platform-swapped clone, so it must not mutate.
            result = analyze_dedicated(
                system, config=config, warm_start=warm_start
            )
        else:
            # Campaign generators produce a fresh system per cell (the
            # registry contract), so the defensive clone is skipped; the
            # derived offset/jitter fields are recomputed per analysis,
            # which keeps repeated method runs on one cell independent.
            result = analyze(
                system, config=config, warm_start=warm_start, in_place=True
            )
        stats = fixed_point_stats().delta(before)
        outcome = outcome_from_analysis(result)
        # Cross-checkable accounting: the driver-level counters must agree
        # with the per-result evaluations threaded up through the analyses.
        outcome.extras["fp_solves"] = stats.solves
        outcome.extras["fp_diverged"] = stats.diverged
        outcome.extras["fp_evaluations"] = stats.evaluations
        outcome.extras["fp_task_solves"] = result.task_solves
        outcome.extras["fp_task_skips"] = result.task_skips
        if config.mode == "verdict":
            # Verdict-layer accounting only exists in verdict mode; keeping
            # the keys out of exact-mode extras preserves the PR 3 cell
            # payload byte for byte.
            outcome.extras["fp_ceiling_exits"] = stats.ceiling_exits
            outcome.extras["fp_prefilter"] = result.prefilter or ""
        return outcome

    return run


def _compositional_method(
    system: TransactionSystem,
    warm_start: dict[tuple[int, int], float] | None,
) -> MethodOutcome:
    del warm_start  # per-component admission has no outer fixed point
    verdicts = []
    for m, platform in enumerate(system.platforms):
        local = [
            LocalTask(
                wcet=task.wcet,
                period=system.transactions[i].period,
                priority=task.priority,
                name=task.name,
            )
            for i, _j, task in system.tasks_on(m)
        ]
        verdicts.append(bool(fp_component_schedulable(local, platform)))
    return MethodOutcome(
        schedulable=all(verdicts),
        extras={"platforms_accepted": sum(verdicts), "platforms": len(verdicts)},
    )


#: name -> MethodInfo(fn, supports warm-start chaining, verdict-monotone)
_METHODS: dict[str, MethodInfo] = {
    "reduced": MethodInfo(
        holistic_method(AnalysisConfig(method="reduced")), True
    ),
    "gauss_seidel": MethodInfo(
        holistic_method(AnalysisConfig(method="reduced", update="gauss_seidel")),
        True,
    ),
    "gauss_seidel_full": MethodInfo(
        holistic_method(
            AnalysisConfig(
                method="reduced", update="gauss_seidel", incremental=False
            )
        ),
        True,
    ),
    "verdict": MethodInfo(
        holistic_method(
            AnalysisConfig(
                method="reduced", update="gauss_seidel", mode="verdict"
            )
        ),
        True,
        verdict_monotone=True,
    ),
    "exact": MethodInfo(holistic_method(AnalysisConfig(method="exact")), True),
    "dedicated": MethodInfo(
        holistic_method(AnalysisConfig(), dedicated=True), True
    ),
    "compositional": MethodInfo(_compositional_method, False),
}


def register_method(
    name: str,
    fn: MethodFn,
    *,
    supports_warm_start: bool = False,
    verdict_monotone: bool = False,
) -> None:
    """Register (or replace) a campaign method under *name*.

    Methods of one cell run in spec order on a *shared* system object.
    The built-in holistic methods analyze it in place, overwriting the
    Eq. 18-derived offset/jitter fields of non-first tasks (re-analysis is
    unaffected -- those fields are recomputed from scratch every run, which
    is why the built-ins can skip the defensive clone).  A custom method
    that reads raw task offsets/jitters should either be listed before the
    holistic methods or treat those fields as derived state.

    ``verdict_monotone`` declares the method's verdict monotone along a
    utilization-scaled sweep chain (see :class:`MethodInfo`); only set it
    for methods whose verdict can never flip back to schedulable as
    utilization grows -- the campaign engine will *infer* pruned verdicts
    from it.
    """
    _METHODS[name] = MethodInfo(fn, supports_warm_start, verdict_monotone)


def resolve_method(name: str) -> MethodInfo:
    """Look up a method; raises :class:`KeyError` with the known names."""
    try:
        return _METHODS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign method {name!r}; "
            f"known methods: {', '.join(sorted(_METHODS))}"
        ) from None


def available_methods() -> list[str]:
    """Sorted names of every registered method."""
    return sorted(_METHODS)


def reseed_jitters(
    name: str, system: TransactionSystem
) -> dict[tuple[int, int], float] | None:
    """Recover the warm-start jitter vector of *system* under method *name*.

    The chain runners call this for a sweep level served from the result
    store whose successor must be solved: the converged jitters are the
    least fixed point of that level's outer iteration, which is
    independent of the starting vector, so a cold re-solve reproduces
    exactly the jitters the original (possibly warm-started) run handed
    to the next level.
    Returns ``None`` for methods without warm-start support, or when the
    re-solve did not converge to a finite jitter vector (matching what the
    original run would have chained).

    The re-solve's cost is charged to the ``reseed_*`` counters of
    :mod:`repro.util.fixedpoint` instead of any reported cell.
    """
    info = resolve_method(name)
    if not info.supports_warm_start:
        return None
    with reseed_scope():
        outcome = info.fn(system, None)
    return outcome.jitters
