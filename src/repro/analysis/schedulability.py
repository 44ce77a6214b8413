"""One-call public schedulability API and the verdict-mode pre-filters.

``analyze(system)`` runs the full pipeline of the paper -- best-case bounds,
dynamic-offset fixed point, per-task worst-case response times -- and
returns a :class:`~repro.analysis.interfaces.SystemAnalysis` whose
``schedulable`` flag implements the paper's acceptance criterion: the last
task of every transaction meets the end-to-end deadline
(:math:`R_{i,n_i} \\le D_i`).

Under ``AnalysisConfig(mode="verdict")`` two cheap pre-filters classify
easy systems before the holistic loop is entered at all, without ever
changing a verdict:

* **necessary utilization test** -- a platform whose rate-scaled demand
  exceeds its supply rate makes some busy period grow without bound, so
  the holistic analysis would report the system unschedulable; the filter
  reports it directly (:func:`utilization_prefilter`).
* **sufficient response-time upper bound** -- one round of per-task solves
  with every derived jitter *capped* at its deadline-implied maximum
  (:math:`J_{i,j} = D_i - R^{best}_{i,j-1}`).  If every response computed
  at the caps stays within its deadline, the jitter map :math:`G`
  satisfies :math:`G(J^{cap}) \\le J^{cap}`, so the least fixed point lies
  below the caps and its responses below the computed ones -- the system
  is schedulable without iterating (:func:`response_bound_prefilter`).

Both classifications are counted in
:class:`~repro.util.fixedpoint.FixedPointStats` (``prefilter_rejects`` /
``prefilter_accepts``) separately from regular solves.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.bestcase import best_case_response_times
from repro.analysis.busy import ViewProjector
from repro.analysis.holistic import _clone, holistic_analysis
from repro.analysis.interfaces import (
    AnalysisConfig,
    SystemAnalysis,
    TaskAnalysis,
    UNSCHEDULABLE,
)
from repro.analysis.reduced import response_time_reduced
from repro.model.system import TransactionSystem
from repro.util.fixedpoint import note_prefilter
from repro.util.math import MAX_JOB_COUNT

__all__ = [
    "analyze",
    "is_schedulable",
    "response_bound_prefilter",
    "utilization_prefilter",
]

#: Relative slack of the utilization reject: a platform is rejected only
#: when its demand exceeds supply by more than this margin, so systems at
#: *exactly* full utilization (which can still converge -- e.g. one task
#: with C = T on a unit-rate platform) always reach the full analysis.
#: Misclassifying a barely-overloaded platform as "inconclusive" merely
#: costs the full analysis; the converse would be unsound.
_UTILIZATION_MARGIN = 1e-9


def utilization_prefilter(system: TransactionSystem) -> int | None:
    """Index of a provably over-utilized platform, or ``None``.

    A platform whose total rate-scaled demand strictly exceeds 1 cannot
    sustain its long-run load: the busy period of its lowest-priority task
    never closes, the holistic analysis diverges there and the system is
    unschedulable -- in exact mode just as in verdict mode, which is what
    makes this reject verdict-preserving.
    """
    for m in range(len(system.platforms)):
        if system.utilization(m) > 1.0 + _UTILIZATION_MARGIN:
            return m
    return None


def _reject_result(
    system: TransactionSystem, platform: int
) -> SystemAnalysis:
    """Synthetic unschedulable result for a utilization-rejected system."""
    tasks = {
        (i, j): TaskAnalysis(
            wcrt=UNSCHEDULABLE,
            bcrt=0.0,
            offset=task.offset,
            jitter=task.jitter,
            name=task.name,
        )
        for i, tr in enumerate(system.transactions)
        for j, task in enumerate(tr.tasks)
    }
    del platform  # which platform tripped the reject is in the stats only
    return SystemAnalysis(
        tasks=tasks,
        transaction_wcrt=[UNSCHEDULABLE] * len(system.transactions),
        transaction_deadline=[float(tr.deadline) for tr in system.transactions],
        schedulable=False,
        outer_iterations=0,
        converged=True,
        evaluations=0,
        prefilter="utilization",
    )


def response_bound_prefilter(
    work: TransactionSystem, config: AnalysisConfig
) -> SystemAnalysis | None:
    """Sufficient schedulability test: one solve round at capped jitters.

    Mutates *work* (derived offsets and jitters of non-first tasks), so the
    caller must own it -- :func:`analyze` clones first.  Returns a
    schedulable :class:`SystemAnalysis` (``prefilter="bound"``, per-task
    ``wcrt`` values are the *upper bounds* computed at the caps, not exact
    response times) or ``None`` when inconclusive.

    Soundness: with offsets fixed at :math:`R^{best}_{i,j-1}` (their final
    values), the outer iteration is the least fixed point of the monotone
    jitter map :math:`G(J)_{i,j} = R_{i,j-1}(J) - R^{best}_{i,j-1}`.  If
    every response computed at the cap vector
    :math:`J^{cap}_{i,j} = D_i - R^{best}_{i,j-1}` satisfies
    :math:`R_{i,j}(J^{cap}) \\le D_i`, then
    :math:`G(J^{cap}) \\le J^{cap}`, hence ``lfp(G) <= Jcap`` and the final
    responses are below the computed ones -- every deadline holds.  The
    reduced analysis is used regardless of ``config.method`` (it upper
    bounds the exact one, so the argument covers both).

    A cap spanning more than :data:`~repro.util.math.MAX_JOB_COUNT`
    periods is declined as well: the solves would enumerate that many
    collapsed jobs one by one (a ``1e30`` deadline ran for minutes), and
    job counts that large no longer snap at EPS anyway.
    """
    best = best_case_response_times(work, method=config.best_case)
    for i, tr in enumerate(work.transactions):
        deadline = float(tr.deadline)
        for j in range(1, len(tr.tasks)):
            cap = deadline - best[(i, j - 1)]
            if cap < 0.0:
                return None  # cannot cap below zero: inconclusive
            if cap > MAX_JOB_COUNT * tr.period:
                return None  # too many jobs to enumerate: inconclusive
            tr.tasks[j].offset = best[(i, j - 1)]
            tr.tasks[j].jitter = cap
    bound = config.busy_bound(work)
    platform_index = ViewProjector.build_platform_index(work)
    evaluations = 0
    responses: dict[tuple[int, int], float] = {}
    for i, tr in enumerate(work.transactions):
        ceiling = float(tr.deadline) + config.tol
        for j in range(len(tr.tasks)):
            views = ViewProjector(work, i, j, platform_index).views()
            res = response_time_reduced(
                work, i, j, config=config, views=views, bound=bound,
                ceiling=ceiling,
            )
            evaluations += res.evaluations
            if res.wcrt > float(tr.deadline):
                return None  # bound above the deadline: inconclusive
            responses[(i, j)] = res.wcrt
    tasks = {
        (i, j): TaskAnalysis(
            wcrt=responses[(i, j)],
            bcrt=best[(i, j)],
            offset=task.offset,
            jitter=task.jitter,
            name=task.name,
        )
        for i, tr in enumerate(work.transactions)
        for j, task in enumerate(tr.tasks)
    }
    return SystemAnalysis(
        tasks=tasks,
        transaction_wcrt=[
            responses[(i, len(tr.tasks) - 1)]
            for i, tr in enumerate(work.transactions)
        ],
        transaction_deadline=[float(tr.deadline) for tr in work.transactions],
        schedulable=True,
        outer_iterations=0,
        converged=True,
        evaluations=evaluations,
        prefilter="bound",
    )


def analyze(
    system: TransactionSystem,
    *,
    method: str = "reduced",
    best_case: str = "simple",
    trace: bool = False,
    config: AnalysisConfig | None = None,
    warm_start: dict[tuple[int, int], float] | None = None,
    in_place: bool = False,
    mode: str | None = None,
) -> SystemAnalysis:
    """Analyze *system* and return response times plus the verdict.

    Parameters
    ----------
    system:
        The transaction system (use :mod:`repro.components` to derive one
        from a component assembly, or build it directly).
    method:
        ``"reduced"`` (default; Sec. 3.1.2) or ``"exact"`` (Sec. 3.1.1).
    best_case:
        ``"simple"`` (the paper's bound) or ``"iterative"`` (refined).
    trace:
        Record the per-iteration (J, R) table -- the shape of the paper's
        Table 3.
    config:
        Full configuration object; overrides *method*/*best_case* when given.
    warm_start:
        Initial jitter vector for the outer fixed point (see
        :func:`repro.analysis.holistic.holistic_analysis`); used by the
        campaign engine when sweeping a parameter upward.
    in_place:
        Analyze without cloning, mutating the derived offset/jitter
        fields of non-first tasks (see
        :func:`repro.analysis.holistic.holistic_analysis`).  Only for
        callers that own *system* and do not read those fields.
    mode:
        ``"exact"`` or ``"verdict"`` (see
        :class:`~repro.analysis.interfaces.AnalysisConfig`); overrides the
        config's mode when given.  In verdict mode the ``schedulable``
        flag is identical to exact mode, but per-task response times may
        be partial or upper bounds once the verdict is decided.

    Examples
    --------
    >>> from repro.paper import sensor_fusion_system
    >>> result = analyze(sensor_fusion_system())
    >>> result.schedulable
    True
    """
    if config is None:
        config = AnalysisConfig(
            method=method, best_case=best_case, mode=mode or "exact"
        )
    elif mode is not None and mode != config.mode:
        config = replace(config, mode=mode)
    # A trace request wants the outer iteration table; a pre-filter-
    # classified result has no iterations to show (render_table3 would
    # refuse it), so tracing runs the holistic loop -- still in verdict
    # mode, whose early exits keep every recorded row complete.
    if config.mode == "verdict" and config.prefilters and not trace:
        reject = utilization_prefilter(system)
        if reject is not None:
            note_prefilter(accepted=False)
            return _reject_result(system, reject)
        work = system if in_place else _clone(system)
        accepted = response_bound_prefilter(work, config)
        if accepted is not None:
            note_prefilter(accepted=True)
            return accepted
        # Inconclusive: fall through to the holistic loop on the same
        # clone (it re-derives every offset/jitter the filter touched).
        return holistic_analysis(
            work, config=config, trace=trace, warm_start=warm_start,
            in_place=True,
        )
    return holistic_analysis(
        system, config=config, trace=trace, warm_start=warm_start,
        in_place=in_place,
    )


def is_schedulable(
    system: TransactionSystem,
    *,
    method: str = "reduced",
    best_case: str = "simple",
    config: AnalysisConfig | None = None,
    mode: str | None = None,
    **unknown,
) -> bool:
    """Shorthand: the schedulability verdict of *system*, nothing else.

    With no *config* and no *mode*, delegates to the verdict-mode
    pipeline (early-exit solves plus pre-filters) -- the verdict is
    identical to ``mode="exact"``, only cheaper, which is exactly what a
    bool-returning API wants.  An explicit *mode* or a *config* carrying
    one is respected as given (``mode="exact"``, or an exact-mode
    config, forces the full analysis).

    Unknown keyword arguments raise :class:`TypeError` (this function
    used to take ``**kwargs`` and forward them, which silently accepted
    misspelled options whenever they happened to collide with ``analyze``
    parameters that change no verdict).
    """
    if unknown:
        raise TypeError(
            "is_schedulable() got unexpected keyword argument(s): "
            + ", ".join(sorted(unknown))
        )
    if mode is None and config is None:
        mode = "verdict"
    return analyze(
        system, method=method, best_case=best_case, config=config, mode=mode
    ).schedulable
