"""Per-scenario busy-period solver shared by the exact and reduced analyses.

A *scenario* fixes which task's maximally-delayed activation starts the busy
period in each transaction (the vector :math:`\\nu` of Sec. 3.1.1).  Given
the resulting interference function
:math:`I(t) = \\sum_i W^{\\nu(i)}_i(\\tau_{a,b}, t)` and the phase of the
analyzed task, this module solves Eq. 13/14: the busy-period length, the job
range :math:`p_0 \\dots p_L` and the per-job completion times, and returns
the scenario's worst response time.

The monotone fixed-point loops are hand-inlined here rather than routed
through :func:`repro.util.fixedpoint.iterate_fixed_point`: the scenario
solves are the innermost hot path of every campaign, and the inlining
removes two Python call layers per evaluation.  Convergence, divergence and
accounting semantics are kept bit-for-bit (:func:`repro.util.fixedpoint.note_solve`
charges the same counters the shared driver would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.busy import AnalyzedTask
from repro.util.fixedpoint import note_ceiling_exit, note_solve, note_solves
from repro.util.math import EPS, MAX_JOB_COUNT, ceil_div, floor_div

__all__ = ["ScenarioOutcome", "overflowed_scenario", "solve_scenario"]

#: Safety cap mirroring ``iterate_fixed_point``'s default.
_MAX_ITERATIONS = 100_000

_INF = float("inf")


@dataclass(frozen=True)
class ScenarioOutcome:
    """Worst response time found in one scenario.

    ``response`` is ``-inf`` when no job of the analyzed task falls inside
    the scenario's busy period (the scenario constrains nothing) and
    ``+inf`` when the busy period failed to close within the divergence
    bound, holds more than :data:`~repro.util.math.MAX_JOB_COUNT` jobs of
    the analyzed task or overflowed a job count
    (:func:`overflowed_scenario`).  ``evaluations`` counts every
    evaluation of the iterated maps, *including* those of divergent
    solves: the iteration counts carried by divergent solves used to be
    dropped on the unschedulable path, so aggregate accounting
    undercounted exactly the expensive cells.
    """

    response: float
    worst_job: int | None
    busy_length: float
    jobs_checked: int
    evaluations: int = 0


def solve_scenario(
    analyzed: AnalyzedTask,
    phi_ab: float,
    interference: Callable[[float], float],
    *,
    bound: float,
    tol: float = 1e-9,
    chain_jobs: bool = True,
    memoize: bool = True,
    response_ceiling: float = float("inf"),
) -> ScenarioOutcome:
    """Solve one scenario for the analyzed task.

    Parameters
    ----------
    analyzed:
        The task under analysis (rate-scaled cost, platform delay, ...).
    phi_ab:
        Phase :math:`\\varphi^{\\nu(a)}_{a,b}` of the analyzed task for this
        scenario (Eq. 10 relative to the scenario's own-transaction starter).
    interference:
        Total higher-priority interference :math:`I(t)` for this scenario,
        already rate-scaled and platform-restricted.
    bound:
        Divergence bound for the inner fixed points; exceeding it makes the
        scenario report an infinite response time.
    response_ceiling:
        Verdict-mode deadline ceiling (mirrors ``ceiling`` of
        :func:`repro.util.fixedpoint.iterate_fixed_point` for this inlined
        loop): abort with an infinite response as soon as any job's
        completion iterate *implies* a response above it.  Sound because
        completion iterates grow from below toward the least fixed point,
        so the implied response is a lower bound on the job's final
        response, itself a lower bound on the scenario's worst response --
        callers that only compare the response against a deadline already
        have their answer.  ``inf`` (default) restores exact behavior.

        A finite ceiling also interleaves the completion solves into the
        busy-period *length* loop.  Every busy iterate lower-bounds the
        busy length, so each own job activated inside the current window
        is already known to lie in the busy period: its completion is
        solved (and its ceiling abort taken) before the length loop goes
        on, and a first-job deadline miss near saturation aborts without
        paying the whole length solve.  A long busy iterate alone proves
        nothing -- interference released after a job completes can
        stretch the busy period with every deadline met -- so the abort
        still rides on completion iterates.  Under an infinite ceiling
        the length loop runs to convergence first: interleaving there
        only costs, because a diverging busy period would solve one
        completion for every job its widening window passes.  Either
        order solves the same jobs through the same iterate sequences.
    chain_jobs:
        Warm-start each job's completion fixed point from the previous
        job's completion (sound: the completion map of job ``p+1``
        dominates job ``p``'s pointwise, so its least fixed point is at or
        above job ``p``'s).  Disabled by the benchmark reference mode.
    memoize:
        Cache ``interference`` on exact *t* across this scenario's busy
        and completion solves (they revisit the same time points: shared
        iterate prefixes, job-chained warm starts).  The dict operations
        are inlined in the loops, so a hit costs one lookup instead of the
        whole interference sum.  Disabled by the benchmark reference mode.

    Accounting: closed solves are batched through ``note_solves``; an
    aborting solve goes through ``note_solve`` (plus ``note_ceiling_exit``
    for a ceiling abort), and evaluations spent on a busy solve still open
    at abort time are charged without a closing solve count.
    """
    T = analyzed.period
    base = analyzed.delay + analyzed.blocking
    cost = analyzed.cost
    ceil_ = math.ceil
    memo: dict[float, float] | None = {} if memoize else None
    interleave = response_ceiling != _INF

    # Eq. 13: p0 indexes the earliest job whose jittered activation can
    # coincide with the busy-period start.
    p0 = 1 - floor_div(analyzed.jitter + phi_ab, T)

    # Busy-period length (Eq. between 13 and 14): own jobs present in [0, L)
    # are p0 .. ceil((L - phi)/T); their count is clamped at zero for
    # scenarios the analyzed task never joins.  The epsilon-snapped ceiling
    # (util.math.ceil_div) is inlined in the loop.
    shift = 1 - p0
    start = base + cost

    evaluations = 0  # of closed solves
    solves = 0
    warm_solves = 0
    busy_evals = 0  # of the busy solve while it is still open
    worst = -_INF
    worst_job: int | None = None
    checked = 0
    prev_completion: float | None = None
    next_p = p0  # next own job awaiting its completion solve
    p_hi = p0 - 1  # last own job known to lie in the busy period
    L = _INF  # busy length, once the length loop has converged
    x = start
    while True:
        while True:
            xx = (x - phi_ab) / T
            nearest = round(xx)
            own_jobs = (
                nearest if abs(xx - nearest) <= EPS else ceil_(xx)
            ) + shift
            if own_jobs < 0:
                own_jobs = 0
            if interleave and own_jobs > next_p - p0:
                # New own jobs entered the window: solve them first.
                p_hi = p0 + own_jobs - 1
                break
            busy_evals += 1
            if memo is None:
                inter = interference(x)
            else:
                inter = memo.get(x)
                if inter is None:
                    inter = memo[x] = interference(x)
            nxt = base + own_jobs * cost + inter
            if nxt > bound:
                return _abort(
                    evaluations, solves, warm_solves, busy_evals,
                    diverged=True, checked=checked,
                )
            if -tol <= nxt - x <= tol:
                L = nxt
                evaluations += busy_evals
                busy_evals = 0
                solves += 1
                p_hi = ceil_div(L - phi_ab, T)  # Eq. 14
                break
            if busy_evals >= _MAX_ITERATIONS:
                return _abort(
                    evaluations, solves, warm_solves, busy_evals,
                    diverged=True, checked=checked,
                )
            x = nxt

        if p_hi - p0 + 1 > MAX_JOB_COUNT:
            # More own jobs than an EPS-snapped count tells apart, and far
            # more than one solve should enumerate: divergence, like a
            # busy iterate past the bound (a 2**63 blocking term beside a
            # 2**63 deadline spans ~6e17 period-15 jobs).
            return _abort(
                evaluations, solves, warm_solves, busy_evals,
                diverged=True, checked=checked,
            )
        # Job-chained warm start: the completion map of job p+1 dominates
        # job p's pointwise (one more own job), so its least fixed point is
        # at or above job p's -- iterating from the previous completion
        # reaches the same fixed point in fewer steps.
        for p in range(next_p, p_hi + 1):
            done = base + (p - p0 + 1) * cost
            # Activation instant of job p measured from the transaction
            # activation (phi + (p-1)T - phi_bar); a completion iterate
            # above ``response_ceiling + act`` implies a response past the
            # ceiling.
            act = phi_ab + (p - 1) * T - analyzed.phi
            limit = response_ceiling + act
            warm = (
                chain_jobs
                and prev_completion is not None
                and prev_completion > start
            )
            w = prev_completion if warm else start
            evals = 0
            while True:
                evals += 1
                if memo is None:
                    inter = interference(w)
                else:
                    inter = memo.get(w)
                    if inter is None:
                        inter = memo[w] = interference(w)
                nxt = done + inter
                if nxt > bound:
                    return _abort(
                        evaluations + busy_evals, solves, warm_solves, evals,
                        diverged=True, warm=warm, job=p, busy_length=L,
                        checked=checked,
                    )
                if nxt > limit:
                    # Verdict-mode early exit: the iterate is a lower bound
                    # on this job's response, which lower-bounds the
                    # scenario's worst response -- the miss is proven.
                    note_ceiling_exit()
                    return _abort(
                        evaluations + busy_evals, solves, warm_solves, evals,
                        diverged=False, warm=warm, job=p, busy_length=L,
                        checked=checked,
                    )
                if -tol <= nxt - w <= tol:
                    break
                if evals >= _MAX_ITERATIONS:
                    return _abort(
                        evaluations + busy_evals, solves, warm_solves, evals,
                        diverged=True, warm=warm, job=p, busy_length=L,
                        checked=checked,
                    )
                w = nxt
            evaluations += evals
            solves += 1
            if warm:
                warm_solves += 1
            prev_completion = nxt
            # Response measured from the transaction activation that
            # released job p (see ``act`` above).
            r = nxt - act
            checked += 1
            if r > worst:
                worst = r
                worst_job = p
        next_p = p_hi + 1

        if L != _INF:
            break

    # With no job of the analyzed task inside the busy period (p_hi < p0)
    # the response stays -inf: the scenario constrains nothing.
    note_solves(evaluations, solves, warm_started=warm_solves)
    return ScenarioOutcome(
        response=worst, worst_job=worst_job, busy_length=L, jobs_checked=checked,
        evaluations=evaluations,
    )


def overflowed_scenario() -> ScenarioOutcome:
    """Outcome of a :func:`solve_scenario` call that raised
    ``OverflowError``: a job count ``(t - phi) / T`` left the float range
    (a period below 1 beside a busy iterate near the float maximum, or a
    first iterate beyond the float maximum times a short period).  That is
    divergence, like a busy period holding more than ``MAX_JOB_COUNT``
    jobs; the evaluations spent before the overflow go uncharged."""
    note_solve(0, diverged=True)
    return ScenarioOutcome(
        response=_INF, worst_job=None, busy_length=_INF, jobs_checked=0,
    )


def _abort(
    evaluations: int,
    solves: int,
    warm_solves: int,
    evals: int,
    *,
    diverged: bool,
    warm: bool = False,
    job: int | None = None,
    busy_length: float = _INF,
    checked: int = 0,
) -> ScenarioOutcome:
    """Charge the closed solves plus the aborted one (*evals* evaluations);
    the scenario's response is infinite."""
    note_solves(evaluations, solves, warm_started=warm_solves)
    note_solve(evals, diverged=diverged, warm_started=warm)
    return ScenarioOutcome(
        response=_INF, worst_job=job, busy_length=busy_length,
        jobs_checked=checked, evaluations=evaluations + evals,
    )
