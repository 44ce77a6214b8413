"""Robust scalar arithmetic for schedulability analysis.

Response-time analysis evaluates expressions such as ``ceil((t - phi) / T)``
at points where ``t - phi`` is an *exact* multiple of ``T`` -- the busy-period
boundaries.  With plain floating point, ``math.ceil(0.30000000000000004 /
0.1)`` returns 4 instead of 3 and the analysis becomes non-deterministic in
the last bit.  All quantities in this library therefore go through the
epsilon-guarded helpers below.

The guard :data:`EPS` is an *absolute* tolerance, far above the accumulated
rounding error of the handful of additions a single fixed-point iteration
performs.  Job counts snap ``(t - phi) / T`` at ``EPS``, so a transaction of
period ``T`` is resolved only to ``EPS * T`` time units: what bounds the
safe range is the *ratio* of time scales within one system, not their
magnitude.  :meth:`repro.model.system.TransactionSystem.validate` rejects a
system whose longest period exceeds :data:`MAX_TIME_RATIO` times its shortest
rate-scaled execution time.
"""

from __future__ import annotations

import math

__all__ = [
    "EPS",
    "MAX_TIME_RATIO",
    "ceil_div",
    "floor_div",
    "fceil",
    "ffloor",
    "fmod_pos",
    "is_close",
    "is_integer_multiple",
    "phase_in_period",
    "safe_div",
]

#: Absolute tolerance used by every epsilon-guarded comparison in the library.
EPS: float = 1e-9

#: Largest ratio of a system's longest period to its shortest rate-scaled
#: execution time (C / alpha) the analysis accepts: a period-T transaction
#: is resolved to ``EPS * T``, which the bound keeps at half the shortest
#: execution time or finer.  The random generators stay below it by
#: construction (1e-6 WCET floor, rates <= 0.8, periods <= 500: 4e8).
MAX_TIME_RATIO: float = 0.5 / EPS


def fceil(x: float) -> int:
    """Ceiling of *x* robust to floating-point noise.

    Values within :data:`EPS` below an integer are snapped to that integer,
    so ``fceil(3.0000000001) == 3`` while ``fceil(3.1) == 4``.
    """
    nearest = round(x)
    if abs(x - nearest) <= EPS:
        return int(nearest)
    return int(math.ceil(x))


def ffloor(x: float) -> int:
    """Floor of *x* robust to floating-point noise (dual of :func:`fceil`)."""
    nearest = round(x)
    if abs(x - nearest) <= EPS:
        return int(nearest)
    return int(math.floor(x))


def ceil_div(num: float, den: float) -> int:
    """``ceil(num / den)`` with epsilon snapping; *den* must be positive."""
    if den <= 0:
        raise ValueError(f"ceil_div requires a positive denominator, got {den!r}")
    return fceil(num / den)


def floor_div(num: float, den: float) -> int:
    """``floor(num / den)`` with epsilon snapping; *den* must be positive."""
    if den <= 0:
        raise ValueError(f"floor_div requires a positive denominator, got {den!r}")
    return ffloor(num / den)


def fmod_pos(x: float, period: float) -> float:
    """Mathematical modulo in ``[0, period)`` with epsilon snapping.

    Unlike ``math.fmod``, the result is always non-negative, and values that
    are within :data:`EPS` of ``0`` or ``period`` are snapped to ``0``.  This
    is the reduction used for task offsets (``phi mod T``, Section 2.4 of the
    paper).
    """
    if period <= 0:
        raise ValueError(f"fmod_pos requires a positive period, got {period!r}")
    r = math.fmod(x, period)
    if r < 0:
        r += period
    if r >= period - EPS or r <= EPS:
        # Snap both boundaries to zero: x was an exact multiple of period.
        if abs(r) <= EPS or abs(r - period) <= EPS:
            return 0.0
    return r


def phase_in_period(x: float, period: float) -> float:
    """Phase ``period - (x mod period)`` taken in the half-open set ``(0, period]``.

    This is the convention of Eq. (7)/(10) in the paper: when ``x`` is an
    exact multiple of the period the phase is ``period`` (the first
    activation inside the busy period happens one full period after its
    start), *not* zero.  Pinned by hand-verification against Table 3.
    """
    r = fmod_pos(x, period)
    return period - r if r > 0.0 else period


def is_close(a: float, b: float, tol: float = EPS) -> bool:
    """Absolute-tolerance equality used for convergence tests."""
    return abs(a - b) <= tol


def is_integer_multiple(x: float, base: float) -> bool:
    """True when *x* is an integer multiple of *base* up to :data:`EPS`."""
    if base <= 0:
        raise ValueError(f"is_integer_multiple requires base > 0, got {base!r}")
    return fmod_pos(x, base) == 0.0


def safe_div(num: float, den: float, *, what: str = "value") -> float:
    """Division raising :class:`ZeroDivisionError` with a useful message."""
    if den == 0:
        raise ZeroDivisionError(f"division by zero while computing {what}")
    return num / den
