"""The analyzable system: transactions + abstract platforms.

:class:`TransactionSystem` is the object consumed by every analysis in
:mod:`repro.analysis` and by the simulator in :mod:`repro.sim`.  It couples
the transaction set of Section 2.4 with the list of abstract computing
platforms of Section 2.3 (anything exposing ``rate``/``delay``/``burstiness``
is accepted -- see :class:`PlatformLike`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.util.math import EPS, MAX_TIME_RATIO

__all__ = ["PlatformLike", "TransactionSystem"]


@runtime_checkable
class PlatformLike(Protocol):
    """Structural type of an abstract computing platform.

    The analysis only needs the linear supply-bound triple
    :math:`(\\alpha, \\Delta, \\beta)` of Definitions 3-5 in the paper.
    Concrete platforms in :mod:`repro.platforms` additionally expose the
    exact supply functions ``zmin``/``zmax``.
    """

    @property
    def rate(self) -> float: ...  # noqa: E704  (protocol stub)

    @property
    def delay(self) -> float: ...  # noqa: E704

    @property
    def burstiness(self) -> float: ...  # noqa: E704


@dataclass
class TransactionSystem:
    """A set of transactions scheduled over a set of abstract platforms.

    Parameters
    ----------
    transactions:
        The transaction set :math:`\\{\\Gamma_1, \\dots\\}`.
    platforms:
        The platform list :math:`\\{\\Pi_1, \\dots, \\Pi_M\\}`; every task's
        ``platform`` index must address this list.
    name:
        Optional label used in reports.
    """

    transactions: list[Transaction]
    platforms: list[PlatformLike]
    name: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.transactions, Sequence):
            raise TypeError("transactions must be a sequence of Transaction")
        if not isinstance(self.platforms, Sequence):
            raise TypeError("platforms must be a sequence of platforms")
        self.transactions = list(self.transactions)
        self.platforms = list(self.platforms)
        for i, tr in enumerate(self.transactions):
            if not isinstance(tr, Transaction):
                raise TypeError(f"transactions[{i}] is not a Transaction: {tr!r}")
        for j, p in enumerate(self.platforms):
            for attr in ("rate", "delay", "burstiness"):
                if not hasattr(p, attr):
                    raise TypeError(
                        f"platforms[{j}] ({p!r}) lacks required attribute {attr!r}"
                    )
        self.validate()

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check the structure and the time scale of the system.

        Raises :class:`ValueError` when there is no transaction, when a task
        addresses a platform outside the platform list, when a task's
        rate-scaled WCET, or the first busy-period iterate built from it
        (platform delay + blocking + WCET/rate), overflows to infinity, or
        when the longest period exceeds
        :data:`~repro.util.math.MAX_TIME_RATIO` times the
        shortest rate-scaled execution time (:meth:`time_ratio`): the
        analysis resolves a period-T transaction only to ``EPS * T``, and
        beyond the bound its bounds silently turn unsound.  Over-utilized
        platforms are legal (the analysis will simply find the system
        unschedulable).
        """
        if not self.transactions:
            raise ValueError("a system needs at least one transaction")
        rates = [p.rate for p in self.platforms]
        m = len(rates)
        for tr in self.transactions:
            for k, task in enumerate(tr.tasks):
                if task.platform >= m:
                    raise ValueError(
                        f"{tr.name or 'transaction'} task {k} maps to platform "
                        f"{task.platform} but only {m} platforms are defined"
                    )
                cost = task.wcet / rates[task.platform]
                if math.isinf(cost):
                    raise ValueError(
                        f"{tr.name or 'transaction'} task {k}: wcet "
                        f"{task.wcet:g} on a rate-{rates[task.platform]:g} "
                        "platform takes an infinite execution time"
                    )
                delay = self.platforms[task.platform].delay
                if math.isinf(delay + task.blocking + cost):
                    raise ValueError(
                        f"{tr.name or 'transaction'} task {k}: platform delay "
                        f"{delay:g} + blocking {task.blocking:g} + wcet/rate "
                        f"{cost:g} overflows to an infinite response time"
                    )
        ratio = self.time_ratio()
        if ratio > MAX_TIME_RATIO:
            i, tr = max(enumerate(self.transactions), key=lambda it: it[1].period)
            raise ValueError(
                f"{tr.name or f'transaction {i}'}: period {tr.period:g} is "
                f"{ratio:.3g} times the shortest execution time (wcet/rate) "
                f"of the system, above the {MAX_TIME_RATIO:g} the analysis "
                f"resolves (job counts snap at {EPS:g} x period)"
            )

    def time_ratio(self) -> float:
        """Longest period over the shortest rate-scaled execution time."""
        rates = [p.rate for p in self.platforms]
        shortest = min(
            t.wcet / rates[t.platform] for tr in self.transactions for t in tr
        )
        return max(tr.period for tr in self.transactions) / shortest

    # -- container conveniences ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    # -- derived quantities ---------------------------------------------------------

    def tasks_on(self, platform: int) -> list[tuple[int, int, Task]]:
        """All tasks mapped to *platform* as ``(txn_index, task_index, task)``."""
        out: list[tuple[int, int, Task]] = []
        for i, tr in enumerate(self.transactions):
            for j, task in enumerate(tr.tasks):
                if task.platform == platform:
                    out.append((i, j, task))
        return out

    def utilization(self, platform: int) -> float:
        """Utilization of *platform*: demanded time over period, normalized.

        The demand of each task in cycles is converted to time through the
        platform rate; a value above 1.0 means the platform cannot sustain
        the long-run load and the system is certainly unschedulable.
        """
        rate = self.platforms[platform].rate
        return sum(
            tr.utilization_on(platform, rate) for tr in self.transactions
        )

    def utilizations(self) -> list[float]:
        """Per-platform utilizations, index-aligned with ``platforms``."""
        return [self.utilization(m) for m in range(len(self.platforms))]

    def total_tasks(self) -> int:
        """Total number of tasks across all transactions."""
        return sum(len(tr) for tr in self.transactions)

    def hyperperiod_hint(self) -> float:
        """Product-free upper bound used to size simulations.

        Computing the true hyperperiod of arbitrary float periods is
        ill-posed; simulations instead run for a multiple of the largest
        period times the number of transactions, which this helper returns.
        """
        if not self.transactions:
            return 0.0
        return max(tr.period for tr in self.transactions) * max(
            4, len(self.transactions)
        )

    def copy_with_jitters_reset(self) -> "TransactionSystem":
        """Deep-copy with all offsets/jitters zeroed (analysis start state)."""
        new_txns = [
            Transaction(
                period=tr.period,
                deadline=tr.deadline,
                name=tr.name,
                meta=dict(tr.meta),
                tasks=[t.with_updates(offset=0.0, jitter=0.0) for t in tr.tasks],
            )
            for tr in self.transactions
        ]
        return TransactionSystem(
            transactions=new_txns,
            platforms=list(self.platforms),
            name=self.name,
            meta=dict(self.meta),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionSystem({self.name or 'unnamed'}: "
            f"{len(self.transactions)} transactions, "
            f"{len(self.platforms)} platforms, {self.total_tasks()} tasks)"
        )
