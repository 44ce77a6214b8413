"""Budget/period reservation servers: polling, deferrable, CBS.

The paper names "an aperiodic server algorithm like Polling Server, CBS or
similar" as the canonical realization of an abstract platform.  At the level
of *guaranteed supply bounds* -- which is all the analysis of Section 3
consumes -- every budget/period reservation shares the periodic-server
envelope: :math:`Q` cycles guaranteed per period :math:`P`, worst-case
blackout :math:`2(P-Q)`, best-case double hit :math:`2Q`.  The policies
differ in *average-case* behavior and in how they interfere with the rest of
the physical platform, which is modeled by the simulator
(:mod:`repro.sim.platform_runtime`), not by the supply abstraction.

:class:`ReservationServer` therefore extends
:class:`~repro.platforms.periodic_server.PeriodicServer` with a ``policy``
tag consumed by the simulator, and the three concrete classes pin the tag.
"""

from __future__ import annotations

from repro.platforms.periodic_server import PeriodicServer

__all__ = ["ReservationServer", "PollingServer", "DeferrableServer", "CBSServer"]


class ReservationServer(PeriodicServer):
    """A budget/period reservation with an explicit budget-refill policy.

    Parameters
    ----------
    budget, period:
        The reservation :math:`(Q, P)`, as for
        :class:`~repro.platforms.periodic_server.PeriodicServer`.
    policy:
        One of ``"polling"``, ``"deferrable"``, ``"cbs"`` (extensible).  The
        supply bounds are policy-independent; the simulator dispatches on
        this tag to reproduce each policy's budget dynamics.
    """

    KNOWN_POLICIES = ("polling", "deferrable", "cbs")

    def __init__(
        self, budget: float, period: float, policy: str, *, name: str = ""
    ) -> None:
        if policy not in self.KNOWN_POLICIES:
            raise ValueError(
                f"unknown reservation policy {policy!r}; "
                f"expected one of {self.KNOWN_POLICIES}"
            )
        super().__init__(budget, period, name=name)
        self.policy = policy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"{type(self).__name__}{label}(Q={self.budget:g}, P={self.period:g}, "
            f"policy={self.policy!r})"
        )


class PollingServer(ReservationServer):
    """Polling server: unused budget is lost at each polling point.

    The simulator replenishes the budget at every period start and discards
    whatever remains when the server has no pending work.
    """

    def __init__(self, budget: float, period: float, *, name: str = "") -> None:
        super().__init__(budget, period, "polling", name=name)


class DeferrableServer(ReservationServer):
    """Deferrable server: budget is preserved across idle intervals.

    Work arriving mid-period can still consume the remaining budget, which
    produces the classical back-to-back (double hit) pattern -- exactly the
    :math:`2Q` burst the ``zmax`` envelope accounts for.
    """

    def __init__(self, budget: float, period: float, *, name: str = "") -> None:
        super().__init__(budget, period, "deferrable", name=name)


class CBSServer(ReservationServer):
    """Constant Bandwidth Server (hard reservation variant).

    Budget is replenished to :math:`Q` and the deadline postponed by
    :math:`P` whenever the budget is exhausted; the hard variant also caps
    the service to :math:`Q` per period, matching the periodic envelope.
    """

    def __init__(self, budget: float, period: float, *, name: str = "") -> None:
        super().__init__(budget, period, "cbs", name=name)
