"""The periodic server platform of Figure 3: :math:`Q` cycles every :math:`P`.

This is the reference reservation mechanism of the paper (and of the
periodic resource model of Shih & Lee).  The exact supply functions are
piecewise linear:

* **Worst case** (``zmin``): an interval begins right after a quantum ended,
  and the next quantum is delayed as much as possible -- a blackout of
  :math:`2(P-Q)` followed by alternating full-rate quanta
  ``[Q service | P-Q gap]``.  The tight linear lower bound has
  :math:`\\Delta = 2(P-Q)` and slope :math:`\\alpha = Q/P`.
* **Best case** (``zmax``): the interval begins exactly when a quantum
  placed at the *end* of its period starts, immediately followed by the next
  period's quantum at its *start* -- a double hit of :math:`2Q` back-to-back,
  then quanta at every subsequent period start.  The tight linear upper
  bound has :math:`\\beta = 2Q(P-Q)/P`.

Both closed forms are verified against brute-force sliding-window
computation in the test suite.
"""

from __future__ import annotations

from repro.platforms.base import AbstractPlatform
from repro.util.validation import check_positive

__all__ = ["PeriodicServer"]


class PeriodicServer(AbstractPlatform):
    """A reservation of *budget* cycles every *period* time units.

    Parameters
    ----------
    budget:
        The guaranteed service :math:`Q` per period (cycles; the server is
        assumed to run on a unit-speed processor so cycles equal time while
        the server executes).
    period:
        The budget refill period :math:`P`; must satisfy ``budget <= period``.
    """

    def __init__(self, budget: float, period: float, *, name: str = "") -> None:
        check_positive(budget, "budget")
        check_positive(period, "period")
        if budget > period:
            raise ValueError(
                f"budget ({budget!r}) must not exceed period ({period!r})"
            )
        self.budget = float(budget)
        self.period = float(period)
        self.name = name

    # -- exact supply --------------------------------------------------------------

    def zmin(self, t: float) -> float:
        """Worst-case supply: blackout :math:`2(P-Q)`, then ``[Q | P-Q]`` pattern."""
        q, p = self.budget, self.period
        gap = p - q
        u = t - 2.0 * gap
        if u <= 0.0:
            return 0.0
        k = int(u // p)
        rem = u - k * p
        return k * q + min(rem, q)

    def zmax(self, t: float) -> float:
        """Best-case supply: double hit of :math:`2Q`, then period-start quanta."""
        q, p = self.budget, self.period
        if t <= 0.0:
            return 0.0
        if t <= q:
            return t
        # After the first quantum (delivered at the end of its period), every
        # following period delivers its quantum at the period start: the v-th
        # time unit past the first quantum sees early-supply(v).
        v = t - q
        k = int(v // p)
        rem = v - k * p
        return q + k * q + min(rem, q)

    # -- linear abstraction ----------------------------------------------------------

    @property
    def rate(self) -> float:
        """:math:`\\alpha = Q/P`."""
        return self.budget / self.period

    @property
    def delay(self) -> float:
        """:math:`\\Delta = 2(P - Q)` -- the maximal blackout."""
        return 2.0 * (self.period - self.budget)

    @property
    def burstiness(self) -> float:
        """:math:`\\beta = 2Q(P-Q)/P` -- slack of the double hit over the rate line."""
        return 2.0 * self.budget * (self.period - self.budget) / self.period

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"PeriodicServer{label}(Q={self.budget:g}, P={self.period:g}; "
            f"alpha={self.rate:g}, delta={self.delay:g}, beta={self.burstiness:g})"
        )
