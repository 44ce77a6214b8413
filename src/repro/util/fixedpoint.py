"""Fixed-point iteration drivers.

Every response-time quantity in the paper is the least fixed point of a
monotone non-decreasing function: the job-completion recurrence (Eq. 13 and
Eq. 16), the busy-period length and the outer "dynamic offset" jitter
iteration of Section 3.2.  Centralizing the iteration gives uniform
convergence criteria, divergence detection (unschedulable systems make the
recurrences grow without bound) and iteration accounting for the benchmark
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.util.math import EPS

__all__ = [
    "FixedPointCeilingHit",
    "FixedPointDiverged",
    "FixedPointResult",
    "FixedPointStats",
    "fixed_point_stats",
    "iterate_fixed_point",
    "iterate_monotone",
    "note_ceiling_exit",
    "note_outer_tasks",
    "note_prefilter",
    "note_solve",
    "note_solves",
    "reset_fixed_point_stats",
]


@dataclass
class FixedPointStats:
    """Process-wide evaluation accounting of the iteration drivers.

    The counters include *divergent* solves: a busy period that fails to
    close still costs its evaluations, and the campaign engine charges them
    to the analysis that triggered them (historically the counts carried by
    :class:`FixedPointDiverged` were discarded by every caller, making
    aggregate iteration reports undercount unschedulable cells).
    """

    #: Total evaluations of iterated maps (convergent and divergent solves).
    evaluations: int = 0
    #: Number of completed solves (convergent or divergent).
    solves: int = 0
    #: Number of solves that ended in :class:`FixedPointDiverged`.
    diverged: int = 0
    #: Number of solves that began from a caller-supplied warm start.
    warm_started: int = 0
    #: Outer-round task response-time solves performed / skipped by the
    #: chain-aware dirty-set scheduler (see ``analysis.holistic``).  A skip
    #: is a whole per-task solve the incremental Gauss-Seidel round proved
    #: redundant -- the savings the campaign accounting reports.
    outer_task_solves: int = 0
    outer_task_skips: int = 0
    #: Verdict-mode accounting (``AnalysisConfig.mode="verdict"``), all zero
    #: in exact mode: solves abandoned at a caller's deadline ceiling (the
    #: iterate provably passed the deadline, so the exact fixed point is no
    #: longer needed), systems the necessary utilization pre-filter rejected
    #: and systems the sufficient response-bound pre-filter accepted without
    #: running the holistic outer iteration.
    ceiling_exits: int = 0
    prefilter_rejects: int = 0
    prefilter_accepts: int = 0

    def snapshot(self) -> "FixedPointStats":
        # Positional construction: dataclasses.replace() re-introspects the
        # field list on every call, and the campaign engine snapshots the
        # stats several times per analyzed cell -- measurable at hot-path
        # campaign throughput.
        return FixedPointStats(
            self.evaluations,
            self.solves,
            self.diverged,
            self.warm_started,
            self.outer_task_solves,
            self.outer_task_skips,
            self.ceiling_exits,
            self.prefilter_rejects,
            self.prefilter_accepts,
        )

    def delta(self, before: "FixedPointStats") -> "FixedPointStats":
        """Counters accumulated since *before* was snapshotted."""
        return FixedPointStats(
            evaluations=self.evaluations - before.evaluations,
            solves=self.solves - before.solves,
            diverged=self.diverged - before.diverged,
            warm_started=self.warm_started - before.warm_started,
            outer_task_solves=self.outer_task_solves - before.outer_task_solves,
            outer_task_skips=self.outer_task_skips - before.outer_task_skips,
            ceiling_exits=self.ceiling_exits - before.ceiling_exits,
            prefilter_rejects=self.prefilter_rejects - before.prefilter_rejects,
            prefilter_accepts=self.prefilter_accepts - before.prefilter_accepts,
        )


#: Module-global accounting; per-process (each campaign worker owns its own).
_STATS = FixedPointStats()


def fixed_point_stats() -> FixedPointStats:
    """A snapshot of the process-wide iteration counters."""
    return _STATS.snapshot()


def reset_fixed_point_stats() -> None:
    """Zero the process-wide iteration counters."""
    _STATS.evaluations = 0
    _STATS.solves = 0
    _STATS.diverged = 0
    _STATS.warm_started = 0
    _STATS.outer_task_solves = 0
    _STATS.outer_task_skips = 0
    _STATS.ceiling_exits = 0
    _STATS.prefilter_rejects = 0
    _STATS.prefilter_accepts = 0


def note_outer_tasks(solved: int, skipped: int) -> None:
    """Charge one outer round's per-task solve/skip counts to the stats."""
    _STATS.outer_task_solves += solved
    _STATS.outer_task_skips += skipped


def note_ceiling_exit() -> None:
    """Charge one verdict-mode deadline-ceiling abort to the stats.

    Distinct from :attr:`FixedPointStats.diverged`: the recurrence did not
    blow past the divergence bound, the *caller* proved it no longer needs
    the exact fixed point (the iterate already implies a deadline miss).
    """
    _STATS.ceiling_exits += 1


def note_prefilter(*, accepted: bool) -> None:
    """Charge one verdict-mode pre-filter classification to the stats."""
    if accepted:
        _STATS.prefilter_accepts += 1
    else:
        _STATS.prefilter_rejects += 1


def note_solve(
    evaluations: int, *, diverged: bool = False, warm_started: bool = False
) -> None:
    """Charge one externally-iterated solve to the process-wide stats.

    For hot paths that hand-inline the fixed-point loop (the scenario
    solver) but must stay indistinguishable from :func:`iterate_fixed_point`
    in the accounting the campaign engine reports.
    """
    _STATS.evaluations += evaluations
    _STATS.solves += 1
    if diverged:
        _STATS.diverged += 1
    if warm_started:
        _STATS.warm_started += 1


def note_solves(
    evaluations: int, solves: int, *, warm_started: int = 0
) -> None:
    """Batched :func:`note_solve` for several convergent solves at once."""
    _STATS.evaluations += evaluations
    _STATS.solves += solves
    _STATS.warm_started += warm_started


class FixedPointDiverged(RuntimeError):
    """Raised when a monotone iteration exceeds its bound or iteration cap.

    For response-time recurrences this signals an unschedulable (or not
    provably schedulable) configuration: the busy period never closes.
    Callers that interpret divergence as "deadline miss" catch this and
    report an infinite response time instead of propagating the error.
    """

    def __init__(self, message: str, last_value: float, iterations: int):
        super().__init__(message)
        #: Value of the iterate when divergence was declared.
        self.last_value = last_value
        #: Number of iterations performed before giving up.
        self.iterations = iterations


class FixedPointCeilingHit(FixedPointDiverged):
    """Raised when an iterate crosses the caller's *ceiling* (not *bound*).

    The verdict-mode generalization of the divergence ceiling: iterating
    from below a monotone map, every iterate is a lower bound on the least
    fixed point, so an iterate above the caller's ceiling proves the fixed
    point lies above it too.  Callers that only need "is the fixed point at
    most the ceiling?" (a deadline check) can abort the solve there --
    hundreds of evaluations before either convergence or the much larger
    divergence bound would fire.  Subclasses :class:`FixedPointDiverged`
    so existing handlers keep treating it as "no useful fixed point".
    """


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a convergent fixed-point iteration."""

    #: The fixed point reached.
    value: float
    #: Number of evaluations of the iterated function.
    iterations: int

    def __float__(self) -> float:  # pragma: no cover - trivial
        return self.value


def iterate_fixed_point(
    func: Callable[[float], float],
    start: float,
    *,
    bound: float = float("inf"),
    max_iterations: int = 100_000,
    tol: float = EPS,
    warm_start: float | None = None,
    ceiling: float | None = None,
) -> FixedPointResult:
    """Iterate ``x <- func(x)`` from *start* until two iterates agree.

    Parameters
    ----------
    func:
        The iterated map.  For the schedulability recurrences it is monotone
        non-decreasing in its argument, which guarantees that iterating from
        below converges to the *least* fixed point when one exists.
    start:
        Initial iterate (``0`` for completion-time recurrences).
    bound:
        Declare divergence as soon as an iterate exceeds this value.  The
        analyses pass the transaction deadline plus one period: a busy period
        extending past that proves a deadline miss, so there is no reason to
        keep iterating.
    max_iterations:
        Safety cap independent of *bound*.
    tol:
        Absolute convergence tolerance between successive iterates.
    warm_start:
        Optional better initial iterate, typically the fixed point of a
        nearby problem (the previous cell of a parameter sweep).  Iteration
        begins from ``max(start, warm_start)``; for a monotone map this
        converges to the same least fixed point as starting from *start*
        whenever ``warm_start`` does not exceed that fixed point.
    ceiling:
        Optional verdict ceiling, typically far below *bound*: abort with
        :class:`FixedPointCeilingHit` as soon as an iterate exceeds it.
        Sound whenever the caller only needs to compare the least fixed
        point against the ceiling (iterates from below are lower bounds on
        the fixed point) -- the verdict-mode deadline test.

    Raises
    ------
    FixedPointCeilingHit
        If an iterate exceeds *ceiling* (charged to ``ceiling_exits``, not
        to ``diverged``).
    FixedPointDiverged
        If an iterate exceeds *bound* or the iteration cap is hit.
    """
    x = start
    if warm_start is not None and warm_start > start:
        x = warm_start
        _STATS.warm_started += 1
    for n in range(1, max_iterations + 1):
        nxt = func(x)
        # Checked after the bound below mirrors the inlined scenario
        # solver: an iterate exceeding *both* counts as a divergence, not
        # a ceiling exit, so the stats stay consistent across the two
        # implementations.
        if ceiling is not None and nxt > ceiling and nxt <= bound:
            _STATS.evaluations += n
            _STATS.solves += 1
            _STATS.ceiling_exits += 1
            raise FixedPointCeilingHit(
                f"fixed-point iterate passed the verdict ceiling {ceiling!r} "
                f"after {n} iterations (last value {nxt!r})",
                last_value=nxt,
                iterations=n,
            )
        if nxt > bound:
            _STATS.evaluations += n
            _STATS.solves += 1
            _STATS.diverged += 1
            raise FixedPointDiverged(
                f"fixed-point iteration exceeded bound {bound!r} "
                f"after {n} iterations (last value {nxt!r})",
                last_value=nxt,
                iterations=n,
            )
        if abs(nxt - x) <= tol:
            _STATS.evaluations += n
            _STATS.solves += 1
            return FixedPointResult(value=nxt, iterations=n)
        x = nxt
    _STATS.evaluations += max_iterations
    _STATS.solves += 1
    _STATS.diverged += 1
    raise FixedPointDiverged(
        f"fixed-point iteration did not converge within {max_iterations} "
        f"iterations (last value {x!r})",
        last_value=x,
        iterations=max_iterations,
    )


def iterate_monotone(
    func: Callable[[float], float],
    start: float,
    *,
    bound: float = float("inf"),
    max_iterations: int = 100_000,
    tol: float = EPS,
    warm_start: float | None = None,
    ceiling: float | None = None,
) -> FixedPointResult:
    """Like :func:`iterate_fixed_point` but verifies monotonicity.

    The schedulability equations are monotone by construction; a decreasing
    step indicates a modelling bug (e.g. a W-function that is not
    non-decreasing in ``t``).  This variant is used by the test suite and by
    debug runs; production code paths call :func:`iterate_fixed_point`
    directly to avoid the extra comparison.  The monotonicity check is
    relative to the *cold* start: a warm start above the least fixed point
    would make the first step decrease, so the check also guards warm-start
    misuse.
    """
    x = start
    if warm_start is not None and warm_start > start:
        x = warm_start
        _STATS.warm_started += 1
    for n in range(1, max_iterations + 1):
        nxt = func(x)
        if nxt < x - tol:
            raise AssertionError(
                f"monotone iteration decreased from {x!r} to {nxt!r}; "
                "the iterated map is not monotone non-decreasing"
            )
        # Same ordering contract as iterate_fixed_point: the divergence
        # bound takes precedence over the verdict ceiling.
        if ceiling is not None and nxt > ceiling and nxt <= bound:
            _STATS.evaluations += n
            _STATS.solves += 1
            _STATS.ceiling_exits += 1
            raise FixedPointCeilingHit(
                f"monotone iterate passed the verdict ceiling {ceiling!r} "
                f"after {n} iterations (last value {nxt!r})",
                last_value=nxt,
                iterations=n,
            )
        if nxt > bound:
            _STATS.evaluations += n
            _STATS.solves += 1
            _STATS.diverged += 1
            raise FixedPointDiverged(
                f"monotone iteration exceeded bound {bound!r} "
                f"after {n} iterations (last value {nxt!r})",
                last_value=nxt,
                iterations=n,
            )
        if abs(nxt - x) <= tol:
            _STATS.evaluations += n
            _STATS.solves += 1
            return FixedPointResult(value=nxt, iterations=n)
        x = nxt
    _STATS.evaluations += max_iterations
    _STATS.solves += 1
    _STATS.diverged += 1
    raise FixedPointDiverged(
        f"monotone iteration did not converge within {max_iterations} "
        f"iterations (last value {x!r})",
        last_value=x,
        iterations=max_iterations,
    )
