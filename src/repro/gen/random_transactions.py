"""Random transaction systems with controlled per-platform utilization.

Generation recipe (the usual one for holistic-analysis papers, adapted to
abstract platforms):

1. draw platform triples: rates in ``rate_range``, delays in
   ``delay_range``, burstiness in ``burst_range``;
2. draw transaction periods log-uniformly in ``period_range``; deadlines
   equal periods times ``deadline_factor``;
3. assign each task of each transaction a platform (uniformly);
4. draw per-platform task utilizations with UUniFast at ``utilization``
   (interpreted *relative to the platform rate*, i.e. a platform of rate
   0.4 at utilization 0.8 carries demand 0.32 of a unit processor);
5. set ``wcet = u * rate * T`` and ``bcet = bcet_ratio * wcet``;
6. assign deadline-monotonic priorities per platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gen.uunifast import uunifast
from repro.model.priorities import assign_deadline_monotonic
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.platforms.linear import LinearSupplyPlatform

__all__ = ["RandomSystemSpec", "random_system", "scale_system_utilization"]


@dataclass(frozen=True)
class RandomSystemSpec:
    """Parameters of :func:`random_system`."""

    n_platforms: int = 3
    n_transactions: int = 4
    tasks_per_transaction: tuple[int, int] = (1, 4)
    utilization: float = 0.5  # per platform, relative to its rate
    period_range: tuple[float, float] = (20.0, 500.0)
    deadline_factor: float = 1.0
    rate_range: tuple[float, float] = (0.2, 0.8)
    delay_range: tuple[float, float] = (0.0, 4.0)
    burst_range: tuple[float, float] = (0.0, 2.0)
    bcet_ratio: float = 0.6

    def __post_init__(self) -> None:
        if self.n_platforms < 1 or self.n_transactions < 1:
            raise ValueError("need at least one platform and one transaction")
        lo, hi = self.tasks_per_transaction
        if lo < 1 or hi < lo:
            raise ValueError(f"bad tasks_per_transaction {self.tasks_per_transaction!r}")
        if not (0.0 < self.utilization):
            raise ValueError("utilization must be positive")
        if not (0.0 < self.bcet_ratio <= 1.0):
            raise ValueError("bcet_ratio must lie in (0, 1]")


def random_system(
    spec: RandomSystemSpec | None = None,
    *,
    seed: int | np.random.Generator = 0,
) -> TransactionSystem:
    """Draw one random transaction system according to *spec*."""
    spec = spec or RandomSystemSpec()
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )

    # Batched draws (one RNG call per parameter family, not one per value):
    # campaign sweeps generate hundreds of systems per second and the
    # per-call dispatch of tiny numpy draws dominated generation time.
    rates = rng.uniform(*spec.rate_range, spec.n_platforms)
    delays = rng.uniform(*spec.delay_range, spec.n_platforms)
    bursts = rng.uniform(*spec.burst_range, spec.n_platforms)
    platforms = [
        LinearSupplyPlatform(
            rate=float(rates[m]),
            delay=float(delays[m]),
            burstiness=float(bursts[m]),
            name=f"Pi{m + 1}",
        )
        for m in range(spec.n_platforms)
    ]

    periods = np.exp(
        rng.uniform(
            np.log(spec.period_range[0]),
            np.log(spec.period_range[1]),
            spec.n_transactions,
        )
    )
    lo, hi = spec.tasks_per_transaction
    sizes = rng.integers(lo, hi + 1, spec.n_transactions)

    # Pre-assign platforms so per-platform UUniFast can size the demand.
    flat_assignment = rng.integers(0, spec.n_platforms, int(sizes.sum()))
    assignment: list[list[int]] = []
    pos = 0
    for i in range(spec.n_transactions):
        n_i = int(sizes[i])
        assignment.append([int(m) for m in flat_assignment[pos:pos + n_i]])
        pos += n_i

    # Per platform: the list of (txn, pos) slots mapped to it.
    slots: dict[int, list[tuple[int, int]]] = {m: [] for m in range(spec.n_platforms)}
    for i, plat_list in enumerate(assignment):
        for j, m in enumerate(plat_list):
            slots[m].append((i, j))

    wcet: dict[tuple[int, int], float] = {}
    for m, slot_list in slots.items():
        if not slot_list:
            continue
        utils = uunifast(len(slot_list), spec.utilization, rng)
        rate = platforms[m].rate
        for (i, j), u in zip(slot_list, utils):
            # Demand in cycles: utilization is relative to the platform rate.
            wcet[(i, j)] = max(1e-6, float(u) * rate * float(periods[i]))

    transactions = []
    for i in range(spec.n_transactions):
        tasks = []
        for j in range(int(sizes[i])):
            c = wcet[(i, j)]
            # Values are valid by construction (wcet > 0 via the 1e-6
            # floor, bcet = ratio * wcet <= wcet with ratio in (0, 1]).
            tasks.append(
                Task.unchecked(
                    wcet=c,
                    bcet=spec.bcet_ratio * c,
                    platform=assignment[i][j],
                    priority=1,  # replaced by deadline-monotonic below
                    name=f"tau_{i + 1}_{j + 1}",
                )
            )
        transactions.append(
            Transaction(
                period=float(periods[i]),
                deadline=spec.deadline_factor * float(periods[i]),
                name=f"Gamma{i + 1}",
                tasks=tasks,
            )
        )

    system = TransactionSystem(
        transactions=transactions, platforms=platforms, name="random"
    )
    return assign_deadline_monotonic(system)


def scale_system_utilization(
    system: TransactionSystem, factor: float
) -> TransactionSystem:
    """*system* with every execution time scaled by *factor*.

    UUniFast is exactly linear in its total (``sums = total * factors``),
    so for a fixed seed the system :func:`random_system` draws at
    utilization ``u2`` equals the one drawn at ``u1`` with all wcet/bcet
    multiplied by ``u2/u1`` -- periods, platforms, offsets and priorities
    are utilization-independent.  Campaign sweep chains (and their shard
    and store-key replays, which must reproduce the chain's systems bit
    for bit) exploit this to generate each chain's system once and scale
    per level instead of re-drawing.  Scaling applies the generator's own
    1e-6 wcet floor, and a demand that crosses it keeps the task's
    bcet/wcet ratio, so a downscaled system matches the regenerated one
    (up to a rounding ulp in the floored bcet); the only residual
    deviation is a task whose demand was *already* floored at the base
    utilization, which a drawn task essentially never hits.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor!r}")
    transactions = []
    for tr in system.transactions:
        tasks = []
        for t in tr.tasks:
            c = t.unvalidated_copy()
            scaled = t.wcet * factor
            if scaled >= 1e-6:
                c.wcet = scaled
                c.bcet = t.bcet * factor
            else:
                # Demand crossed the generator's floor: re-apply it and
                # keep the bcet/wcet ratio, matching what random_system
                # draws at the target utilization (bcet = ratio * wcet).
                c.wcet = 1e-6
                c.bcet = 1e-6 * (t.bcet / t.wcet) if t.wcet > 0 else 0.0
            tasks.append(c)
        transactions.append(
            Transaction(
                period=tr.period,
                deadline=tr.deadline,
                name=tr.name,
                meta=dict(tr.meta),
                tasks=tasks,
            )
        )
    return TransactionSystem(
        transactions=transactions,
        platforms=list(system.platforms),
        name=system.name,
        meta=dict(system.meta),
    )
