"""Sensitivity analysis: scaling factors and platform slacks.

The paper's closing discussion asks how platform parameters could be
*derived* rather than assumed; sensitivity analysis is the measuring stick
for that search (used by :mod:`repro.opt`): how much can execution demand
grow, a platform rate shrink, or a platform delay grow, before the system
stops being schedulable?  All three are monotone properties, so plain
bisection is exact up to the requested tolerance.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.interfaces import AnalysisConfig
from repro.analysis.schedulability import analyze
from repro.model.system import TransactionSystem
from repro.model.transaction import Transaction
from repro.platforms.linear import LinearSupplyPlatform
from repro.util.math import MAX_TIME_RATIO

__all__ = ["critical_scaling_factor", "rate_slack", "delay_slack", "bisect_monotone"]


def bisect_monotone(
    predicate: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-4,
    max_steps: int = 200,
) -> float:
    """Largest ``x`` in ``[lo, hi]`` with ``predicate(x)`` true.

    *predicate* must be monotone non-increasing in ``x`` (true below the
    threshold, false above).  Returns *lo* if even ``predicate(lo)`` fails
    and *hi* if ``predicate(hi)`` holds.
    """
    if predicate(hi):
        return hi
    if not predicate(lo):
        return lo
    steps = 0
    while hi - lo > tol and steps < max_steps:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo


def _scaled_system(system: TransactionSystem, factor: float) -> TransactionSystem:
    """Copy of *system* with every task's wcet/bcet scaled by *factor*."""
    return TransactionSystem(
        transactions=[
            Transaction(
                period=tr.period,
                deadline=tr.deadline,
                name=tr.name,
                tasks=[
                    t.with_updates(wcet=t.wcet * factor, bcet=t.bcet * factor)
                    for t in tr.tasks
                ],
            )
            for tr in system.transactions
        ],
        platforms=list(system.platforms),
        name=system.name,
    )


def critical_scaling_factor(
    system: TransactionSystem,
    *,
    config: AnalysisConfig | None = None,
    hi: float = 16.0,
    tol: float = 1e-4,
) -> float:
    """Largest uniform execution-time scaling keeping the system schedulable.

    A value above 1 measures robustness margin; below 1 the system is
    already unschedulable and the value measures how much it must shrink.
    """
    def ok(factor: float) -> bool:
        return analyze(_scaled_system(system, factor), config=config).schedulable

    # Scaling costs down raises the period/cost ratio; stay well inside the
    # range TransactionSystem.validate accepts.
    lo = max(1e-6, 2.0 * system.time_ratio() / MAX_TIME_RATIO)
    return bisect_monotone(ok, lo, hi, tol=tol)


def _with_platform(
    system: TransactionSystem, index: int, platform: LinearSupplyPlatform
) -> TransactionSystem:
    platforms = list(system.platforms)
    platforms[index] = platform
    return TransactionSystem(
        transactions=system.transactions, platforms=platforms, name=system.name
    )


def rate_slack(
    system: TransactionSystem,
    platform_index: int,
    *,
    config: AnalysisConfig | None = None,
    tol: float = 1e-4,
) -> float:
    """Smallest rate of platform *platform_index* keeping the system schedulable.

    Keeps the platform's delay and burstiness fixed.  The returned rate is
    the bandwidth the component actually *needs* -- the quantity the paper's
    future-work optimization would assign.
    """
    base = system.platforms[platform_index]

    def ok_at(rate: float) -> bool:
        candidate = LinearSupplyPlatform(
            rate=rate,
            delay=base.delay,
            burstiness=base.burstiness,
            allow_superunit=True,
        )
        return analyze(
            _with_platform(system, platform_index, candidate), config=config
        ).schedulable

    # Monotone: larger rate => easier. Find the smallest feasible rate.
    hi = base.rate
    if not ok_at(hi):
        return float("inf")  # infeasible even at the current rate
    lo_bound = 1e-6
    # bisect on the *negated* axis: predicate(x) := ok_at(hi + lo_bound - x)
    best = bisect_monotone(lambda x: ok_at(hi + lo_bound - x), lo_bound, hi, tol=tol)
    return hi + lo_bound - best


def delay_slack(
    system: TransactionSystem,
    platform_index: int,
    *,
    config: AnalysisConfig | None = None,
    hi: float = 1e4,
    tol: float = 1e-4,
) -> float:
    """Largest delay of platform *platform_index* keeping the system schedulable."""
    base = system.platforms[platform_index]

    def ok_at(delay: float) -> bool:
        candidate = LinearSupplyPlatform(
            rate=base.rate,
            delay=delay,
            burstiness=base.burstiness,
            allow_superunit=True,
        )
        return analyze(
            _with_platform(system, platform_index, candidate), config=config
        ).schedulable

    if not ok_at(base.delay):
        return float("-inf")  # already infeasible at the current delay
    return bisect_monotone(ok_at, base.delay, hi, tol=tol)
