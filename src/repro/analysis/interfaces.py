"""Result and configuration types shared by all analyses."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

__all__ = [
    "UNSCHEDULABLE",
    "AnalysisConfig",
    "TaskAnalysis",
    "IterationRow",
    "SystemAnalysis",
]

#: Response time reported when a busy period fails to close (deadline
#: certainly missed or utilization over 1); compares greater than any
#: deadline, so verdict code needs no special casing.
UNSCHEDULABLE: float = float("inf")


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the holistic analysis.

    Parameters
    ----------
    method:
        ``"reduced"`` (Sec. 3.1.2, default -- what the paper's example uses)
        or ``"exact"`` (Sec. 3.1.1 scenario enumeration).
    best_case:
        ``"simple"`` (the paper's published summation bound -- what Table 3
        is computed with), ``"sound"`` (the envelope-correct variant; use
        this when validating against simulation) or ``"iterative"``
        (Redell-style refinement of the sound bound).
    max_outer_iterations:
        Cap on the dynamic-offset (jitter) fixed point of Sec. 3.2.
    max_exact_scenarios:
        Guard for the exact analysis: abort with :class:`ValueError` if
        Eq. 12 exceeds this count (the combinatorial explosion the reduced
        analysis exists to avoid).
    busy_bound_factor:
        The inner busy-period iteration is declared divergent (response time
        :data:`UNSCHEDULABLE`) once it exceeds ``busy_bound_factor`` times
        the largest period-or-deadline in the system (see
        :meth:`busy_bound`).
    tol:
        Convergence tolerance of all fixed points.
    stop_on_miss:
        Stop the outer iteration as soon as some end-to-end deadline is
        missed (the jitter fixed point can only grow, so the verdict is
        already final).  Off by default to reproduce full paper traces.
    update:
        Outer-iteration scheme: ``"jacobi"`` (all jitters refreshed from
        the *previous* round's responses -- the scheme whose trace the
        paper's Table 3 shows) or ``"gauss_seidel"`` (each task's fresh
        response feeds its successor within the same round; converges to
        the same least fixed point in fewer rounds).
    kernel:
        Interference-evaluation backend: ``"scalar"`` (the reference
        Python closures), ``"vector"`` (flat W rows as one NumPy
        reduction; Eq. 15 as an exact step envelope over the view's
        sorted phases, a few scalar operations per call) or ``"auto"``
        (default -- per closure, vector once it covers at least
        :data:`~repro.analysis.busy.VECTOR_MIN_JOBS` jobs; scalar
        otherwise or when NumPy is missing).  Both kernels produce
        identical job counts; sums may differ in the last ulp.
    incremental:
        Enable the chain-aware dirty-set fast path of the
        ``"gauss_seidel"`` outer update: a task is re-solved in a round
        only when a jitter it can observe moved by more than ``tol``.
        Ignored under ``"jacobi"``, whose full-round trace is the paper's.
    driver_cache:
        Enable the driver-level caches and warm chains that never change a
        converged value: projection reuse across outer rounds, compiled-W
        reuse while jitters are unchanged, per-scenario interference
        memoization and job-chained completion warm starts.  Off, every
        solve recomputes from scratch -- the PR 1 cost model, kept so the
        campaign benchmark can A/B the driver work honestly.
    mode:
        ``"exact"`` (default) computes exact worst-case response times for
        every task -- the full PR 3 cost model, byte for byte.
        ``"verdict"`` computes only the schedulability *verdict*, spending
        as little as possible on everything else: inner solves abort at a
        deadline ceiling the moment an iterate proves a miss, the outer
        sweep visits the most-constrained transactions first and stops as
        soon as any task provably misses, and cheap pre-filters (see
        :mod:`repro.analysis.schedulability`) classify easy systems without
        entering the holistic loop at all.  Verdicts are identical to exact
        mode; per-task response times are NOT (they may be partial, upper
        bounds, or :data:`UNSCHEDULABLE` once the verdict is decided).
    prefilters:
        Verdict mode only: enable the necessary utilization test and the
        sufficient response-time upper bound.  Off, verdict mode still
        early-exits but always runs the holistic loop (for A/B accounting).
    """

    method: str = "reduced"
    best_case: str = "simple"
    max_outer_iterations: int = 200
    max_exact_scenarios: int = 200_000
    busy_bound_factor: float = 1_000.0
    tol: float = 1e-9
    stop_on_miss: bool = False
    update: str = "jacobi"
    kernel: str = "auto"
    incremental: bool = True
    driver_cache: bool = True
    mode: str = "exact"
    prefilters: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "verdict"):
            raise ValueError(
                f"mode must be 'exact' or 'verdict', got {self.mode!r}"
            )
        if self.method not in ("reduced", "exact"):
            raise ValueError(f"method must be 'reduced' or 'exact', got {self.method!r}")
        if self.best_case not in ("simple", "sound", "iterative"):
            raise ValueError(
                "best_case must be 'simple', 'sound' or 'iterative', "
                f"got {self.best_case!r}"
            )
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        if self.busy_bound_factor <= 0:
            raise ValueError("busy_bound_factor must be positive")
        if self.update not in ("jacobi", "gauss_seidel"):
            raise ValueError(
                f"update must be 'jacobi' or 'gauss_seidel', got {self.update!r}"
            )
        if self.kernel not in ("auto", "vector", "scalar"):
            raise ValueError(
                f"kernel must be 'auto', 'vector' or 'scalar', got {self.kernel!r}"
            )

    def busy_bound(self, system) -> float:
        """Divergence bound of the inner busy-period solves of *system*.

        ``busy_bound_factor`` times the largest period-or-deadline, capped
        at the largest finite float: past ~1.8e305 the product overflows,
        and an ``inf`` bound would let an iterate reach ``inf`` instead of
        counting as divergent.  Every finite bound is left as it is.
        """
        longest = max(
            max(tr.period, float(tr.deadline)) for tr in system.transactions
        )
        return min(self.busy_bound_factor * longest, sys.float_info.max)


@dataclass
class TaskAnalysis:
    """Per-task outcome of the holistic analysis.

    ``wcrt``/``bcrt`` are measured from the *activation of the transaction*
    (not of the task), as in the paper; ``offset``/``jitter`` are the final
    Eq. 18 values the worst case was computed with.
    """

    wcrt: float
    bcrt: float
    offset: float
    jitter: float
    name: str = ""

    @property
    def response_span(self) -> float:
        """Width of the response-time interval ``wcrt - bcrt``."""
        return self.wcrt - self.bcrt


@dataclass(frozen=True)
class IterationRow:
    """One outer iteration: the ``(J, R)`` pairs of Table 3.

    ``jitters[(i, j)]`` and ``responses[(i, j)]`` are keyed by
    (transaction index, task index).
    """

    index: int
    jitters: dict[tuple[int, int], float]
    responses: dict[tuple[int, int], float]
    #: Tasks the dirty-set scheduler did not re-solve this round (their
    #: ``responses`` entries are carried over); empty under Jacobi or when
    #: the incremental fast path is off.
    skipped: tuple[tuple[int, int], ...] = ()


@dataclass
class SystemAnalysis:
    """Full outcome of :func:`repro.analysis.schedulability.analyze`."""

    #: Per-task results keyed by (transaction index, task index).
    tasks: dict[tuple[int, int], TaskAnalysis]
    #: End-to-end worst-case response time per transaction (last task's wcrt).
    transaction_wcrt: list[float]
    #: Deadline of each transaction, for convenience.
    transaction_deadline: list[float]
    #: Whether every transaction meets its end-to-end deadline.
    schedulable: bool
    #: Outer-iteration trace (Table 3); empty unless tracing was requested.
    iterations: list[IterationRow] = field(default_factory=list)
    #: Number of outer iterations performed until convergence (or cap).
    outer_iterations: int = 0
    #: True when the outer fixed point converged within the iteration cap.
    converged: bool = True
    #: Total inner fixed-point evaluations across every outer round,
    #: including the evaluations of divergent (unschedulable) solves.
    evaluations: int = 0
    #: True when the outer iteration was seeded from a warm-start jitter
    #: vector instead of the cold J = 0 start.
    warm_started: bool = False
    #: Per-task response-time solves actually performed across the outer
    #: rounds, and solves the dirty-set scheduler skipped because no input
    #: jitter had moved.  ``task_solves + task_skips == rounds x tasks``.
    task_solves: int = 0
    task_skips: int = 0
    #: Verdict mode: the pre-filter that classified the system without
    #: running the holistic loop (``"utilization"`` for the necessary
    #: utilization reject, ``"bound"`` for the sufficient response-time
    #: upper-bound accept), or ``None`` when the holistic analysis ran.
    #: When set, per-task values in ``tasks`` are filter artifacts (upper
    #: bounds, or :data:`UNSCHEDULABLE`), not exact response times.
    prefilter: str | None = None

    def final_jitters(self) -> dict[tuple[int, int], float]:
        """The converged jitter vector, usable as a warm start for the
        analysis of a nearby system (e.g. the next cell of a sweep)."""
        return {key: t.jitter for key, t in self.tasks.items()}

    def wcrt(self, i: int, j: int) -> float:
        """Worst-case response time of task ``(i, j)``."""
        return self.tasks[(i, j)].wcrt

    def slack(self, i: int) -> float:
        """End-to-end slack of transaction *i* (negative when missed)."""
        return self.transaction_deadline[i] - self.transaction_wcrt[i]

    def misses(self) -> list[int]:
        """Indices of transactions whose end-to-end deadline is missed."""
        return [
            i
            for i, (r, d) in enumerate(
                zip(self.transaction_wcrt, self.transaction_deadline)
            )
            if r > d
        ]
