"""The campaign driver: grids, chunked parallel dispatch, structured results.

A campaign is the cross-product of

* a *generator* (named in :data:`GENERATORS`) drawing one transaction
  system from ``(params, seed)``,
* a parameter *grid* (axis name -> value list) over the generator params,
* a list of *methods* (named in :mod:`repro.batch.methods`), and
* ``systems_per_cell`` replicates with deterministic per-cell seeds.

Execution model
---------------
Cells are grouped into *chains*: one chain holds all values of the sweep
axis for a fixed (grid point, replicate).  The chain is the unit of
sequential execution because consecutive sweep cells share their random
seed -- the generators scale monotonically along the sweep (UUniFast draws
are scale-invariant in the total utilization), so the converged jitter
vector of cell *k* is a valid warm start for cell *k+1* (it lies below the
new least fixed point, hence the outer iteration converges to the same
fixed point in fewer rounds).  Chains are chunked and dispatched to a
``ProcessPoolExecutor``; per-cell seeds derive from
``numpy.random.SeedSequence`` so results are identical for any worker
count, and cells are re-sorted into canonical order on collection.

Chains of *verdict-monotone* methods (``verdict`` -- see
:mod:`repro.batch.methods`) exploit the same scaling monotonicity the
warm starts rest on: a level that misses its deadline implies every
higher level does too, so the chain bisects the sweep for the threshold
level and emits the remaining cells with *inferred* verdicts
(``verdict_inferred``/``from_level`` provenance extras) instead of
solving them -- see :func:`_run_chain_pruned`.

Distributed execution
---------------------
The chain is also the unit of *distributed* work.  ``run(shard=(k, n))``
executes only the chains a deterministic cell-seed-hash partition assigns
to shard ``k`` of ``n`` (see :func:`shard_chains`): shard assignments
depend only on the spec, every chain lands in exactly one shard, and the
union of all shard results is bit-identical to the unsharded run.
:func:`merge_campaign_results` (CLI ``python -m repro campaign-merge``)
reassembles shard JSONs into one canonical-order result, rejecting
incompatible specs and overlapping cells.

Recovery
--------
A run given a result store (``run(store=...)``, see
:mod:`repro.batch.store`) writes one entry per chain, holding every cell
of the chain, as the chain finishes.  Rerunning the same command after
a crash serves every stored chain whole and solves only the rest, so a
kill loses at most the chains in flight; the cells equal those of an
uninterrupted run in every field but ``time_s``.  A run without a store
keeps nothing between attempts and solves everything again.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.busy import clear_phase_cache, phase_cache_stats
from repro.batch.canonical import campaign_config_hash, system_hash
from repro.batch.faults import WorkerFaults
from repro.batch.methods import resolve_method
from repro.batch.store import ResultStore, StoreKey
from repro.gen.random_transactions import RandomSystemSpec, random_system
from repro.io.spec import read_json
from repro.model.system import TransactionSystem
from repro.viz.csvout import write_csv
from repro.viz.tables import format_table

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "CellResult",
    "StreamingMerger",
    "available_generators",
    "chain_cost_estimates",
    "chain_store_digest",
    "linspace_levels",
    "load_cost_manifest",
    "lpt_shard_chains",
    "merge_campaign_results",
    "parse_shard",
    "partition_chains",
    "register_generator",
    "run_campaign",
    "shard_chains",
    "store_reachable_digests",
]

#: Decimal places of the stable grid sweep levels are rounded to.  Floats
#: like ``0.30000000000000004`` (binary accumulation noise from naive
#: ``start + k * step`` generation) collapse onto their intended decimal
#: value, so grid keys, JSON exports and CSV columns stay clean, and cells
#: from different runs of the same spec compare equal.
LEVEL_DECIMALS = 10


def linspace_levels(
    start: float, stop: float, count: int, *, decimals: int = LEVEL_DECIMALS
) -> tuple[float, ...]:
    """``count`` evenly spaced sweep levels on a stable decimal grid.

    Levels are generated from integer steps and rounded to ``decimals``
    places -- the float-drift-free way to build a sweep axis.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if count == 1:
        return (round(float(start), decimals),)
    step = (float(stop) - float(start)) / (count - 1)
    return tuple(
        round(float(start) + k * step, decimals) for k in range(count)
    )


# --------------------------------------------------------------------------
# Generator registry
# --------------------------------------------------------------------------

GeneratorFn = Callable[[dict, int], TransactionSystem]


def _gen_random_system(params: dict, seed: int) -> TransactionSystem:
    kwargs = dict(params)
    tpt = kwargs.get("tasks_per_transaction")
    if isinstance(tpt, list):  # JSON round trips tuples as lists
        kwargs["tasks_per_transaction"] = tuple(tpt)
    return random_system(RandomSystemSpec(**kwargs), seed=seed)


def _gen_paper(params: dict, seed: int) -> TransactionSystem:
    del params, seed  # the example is fixed; grid axes select methods only
    from repro.paper import sensor_fusion_system

    return sensor_fusion_system()


GENERATORS: dict[str, GeneratorFn] = {
    "random_system": _gen_random_system,
    "paper": _gen_paper,
}

#: Optional per-generator sweep scalers:
#: ``fn(base_system, axis, base_value, new_value) -> TransactionSystem | None``.
#: When the only parameter differing along a chain is the sweep axis, the
#: chain generates its system once at the first level and derives the other
#: levels through the scaler instead of re-drawing -- ``None`` falls back to
#: full generation.  ``random_system`` scales exactly (UUniFast is linear in
#: the total utilization).
SweepScalerFn = Callable[[TransactionSystem, str, Any, Any], "TransactionSystem | None"]


def _scale_random_system(
    base: TransactionSystem, axis: str, base_value: Any, new_value: Any
) -> TransactionSystem | None:
    if axis != "utilization":
        return None
    try:
        factor = float(new_value) / float(base_value)
    except (TypeError, ZeroDivisionError):
        return None
    if factor <= 0:
        # Non-positive target utilization: fall through to the generator,
        # which reports the invalid parameter with its own message.
        return None
    from repro.gen.random_transactions import scale_system_utilization

    return scale_system_utilization(base, factor)


GENERATOR_SWEEP_SCALERS: dict[str, SweepScalerFn] = {
    "random_system": _scale_random_system,
}


def register_generator(
    name: str, fn: GeneratorFn, *, sweep_scaler: SweepScalerFn | None = None
) -> None:
    """Register (or replace) a system generator under *name*.

    With the default ``fork`` start method, generators registered before
    ``Campaign.run`` are inherited by the pool workers.  ``sweep_scaler``
    optionally derives the system at a new sweep level from the chain's
    base system (see :data:`GENERATOR_SWEEP_SCALERS`).
    """
    GENERATORS[name] = fn
    if sweep_scaler is not None:
        GENERATOR_SWEEP_SCALERS[name] = sweep_scaler
    else:
        GENERATOR_SWEEP_SCALERS.pop(name, None)


def available_generators() -> list[str]:
    """Sorted names of every registered generator."""
    return sorted(GENERATORS)


# --------------------------------------------------------------------------
# Specification and result types
# --------------------------------------------------------------------------


def _jsonify(value: Any) -> Any:
    """Tuples -> lists, recursively, so params survive a JSON round trip."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one campaign.

    Parameters
    ----------
    grid:
        Axis name -> list of values, cross-multiplied over the generator
        params.  The sweep axis (see *sweep_axis*) is sorted ascending.
    base:
        Fixed generator params merged under every grid point.
    methods:
        Names from :mod:`repro.batch.methods`.
    systems_per_cell:
        Replicates per grid cell; each replicate has its own seed.
    seed:
        Campaign master seed.  Per-cell seeds derive deterministically from
        ``(seed, grid point index, replicate)`` -- the sweep axis is
        excluded on purpose, so every sweep level sees the *same* systems
        (paired samples, and the precondition for warm-start chaining).
    generator:
        Name from :func:`available_generators`.
    sweep_axis:
        The grid axis that forms warm-start chains; defaults to
        ``"utilization"`` when that axis is present, else no chaining.
    warm_start:
        Chain the converged jitter vector along the sweep axis into the
        next cell's analysis (methods that support it only).
    """

    grid: dict[str, tuple] = field(default_factory=dict)
    base: dict[str, Any] = field(default_factory=dict)
    methods: tuple[str, ...] = ("reduced",)
    systems_per_cell: int = 1
    seed: int = 0
    generator: str = "random_system"
    sweep_axis: str | None = None
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.systems_per_cell < 1:
            raise ValueError("systems_per_cell must be >= 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        # Snap float grid values onto the stable decimal grid (see
        # LEVEL_DECIMALS) so equivalent sweeps produce identical cell keys.
        def stable(v: Any) -> Any:
            return round(v, LEVEL_DECIMALS) if isinstance(v, float) else v

        object.__setattr__(
            self,
            "grid",
            {k: tuple(stable(v) for v in vs) for k, vs in self.grid.items()},
        )
        object.__setattr__(self, "methods", tuple(self.methods))
        for axis, values in self.grid.items():
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")
        sweep = self.sweep_axis
        if sweep is None and "utilization" in self.grid:
            sweep = "utilization"
        if sweep is not None and sweep not in self.grid:
            raise ValueError(f"sweep_axis {sweep!r} is not a grid axis")
        object.__setattr__(self, "sweep_axis", sweep)
        if sweep is not None:
            object.__setattr__(
                self,
                "grid",
                {
                    k: tuple(sorted(v)) if k == sweep else tuple(v)
                    for k, v in self.grid.items()
                },
            )

    # -- planning ---------------------------------------------------------

    def points(self) -> list[dict[str, Any]]:
        """Cross product of the non-sweep axes, in grid insertion order."""
        axes = [a for a in self.grid if a != self.sweep_axis]
        points: list[dict[str, Any]] = [{}]
        for axis in axes:
            points = [
                {**p, axis: v} for p in points for v in self.grid[axis]
            ]
        return points

    def sweep_values(self) -> tuple:
        return self.grid[self.sweep_axis] if self.sweep_axis else (None,)

    def n_cells(self) -> int:
        return len(self.points()) * len(self.sweep_values()) * self.systems_per_cell

    def n_analyses(self) -> int:
        return self.n_cells() * len(self.methods)

    def cell_seed(self, point_index: int, replicate: int) -> int:
        """Deterministic seed shared by every sweep level of a chain."""
        ss = np.random.SeedSequence((self.seed, point_index, replicate))
        return int(ss.generate_state(1)[0])

    def chains(self) -> list[dict]:
        """The planned chains (sequential units of execution and sharding).

        Pure spec-level planning -- requires no generator/method registry,
        so result mergers can reconstruct the canonical cell order from a
        deserialized spec alone.
        """
        chains: list[dict] = []
        for p_idx, point in enumerate(self.points()):
            for rep in range(self.systems_per_cell):
                chains.append(
                    {
                        "index": len(chains),
                        "point": point,
                        "replicate": rep,
                        "seed": self.cell_seed(p_idx, rep),
                    }
                )
        return chains

    def to_dict(self) -> dict:
        return {
            "grid": {k: _jsonify(list(v)) for k, v in self.grid.items()},
            "base": _jsonify(self.base),
            "methods": list(self.methods),
            "systems_per_cell": self.systems_per_cell,
            "seed": self.seed,
            "generator": self.generator,
            "sweep_axis": self.sweep_axis,
            "warm_start": self.warm_start,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        return cls(
            grid={k: tuple(v) for k, v in data.get("grid", {}).items()},
            base=dict(data.get("base", {})),
            methods=tuple(data.get("methods", ("reduced",))),
            systems_per_cell=int(data.get("systems_per_cell", 1)),
            seed=int(data.get("seed", 0)),
            generator=data.get("generator", "random_system"),
            sweep_axis=data.get("sweep_axis"),
            warm_start=bool(data.get("warm_start", True)),
        )


# --------------------------------------------------------------------------
# Sharding
# --------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _shard_key(seed: int) -> int:
    """SplitMix64 finalizer of a chain's cell seed.

    Decorrelates the shard partition from the raw ``SeedSequence`` output:
    chains are ranked by this key, so the partition is a property of the
    spec's seeds alone -- independent of grid insertion order, of which
    host computes it, and of how many other shards exist.
    """
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``k/n`` shard designator (0-based: ``0/2``, ``1/2``)."""
    k_text, sep, n_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise ValueError(
            f"shard must look like K/N (e.g. 0/2), got {text!r}"
        ) from None
    if n < 1 or not 0 <= k < n:
        raise ValueError(
            f"shard index must satisfy 0 <= K < N, got {text!r}"
        )
    return k, n


def shard_chains(chains: Sequence[dict], shard: tuple[int, int]) -> list[dict]:
    """The chains the deterministic seed-hash partition assigns to *shard*.

    Chains are ranked by :func:`_shard_key` of their cell seed (ties broken
    by the chain index, itself a pure function of the spec) and shard ``k``
    of ``n`` takes every ``n``-th rank.  Consequences:

    * every chain belongs to exactly one shard, so concatenating all shard
      results reproduces the unsharded campaign bit for bit;
    * shard sizes are balanced within one chain of each other regardless of
      how adversarial the seed values are;
    * the assignment is computable on any host from the spec alone.

    Chains are returned in their original (canonical) execution order.
    """
    k, n = shard
    if n < 1 or not 0 <= k < n:
        raise ValueError(f"shard index must satisfy 0 <= k < n, got {k}/{n}")
    ranked = sorted(
        range(len(chains)),
        key=lambda i: (_shard_key(chains[i]["seed"]), chains[i]["index"]),
    )
    mine = set(ranked[k::n])
    return [c for i, c in enumerate(chains) if i in mine]


def chain_cost_estimates(
    spec: CampaignSpec,
    chains: Sequence[dict],
    manifest: dict[int, float] | None = None,
) -> list[float]:
    """Per-chain cost estimates driving the ``lpt`` partition.

    With a *manifest* (chain index -> recorded wall seconds, as every
    campaign result now stores under ``chain_costs``), the recorded wall
    is the cost; chains absent from the manifest (a grid/replicate
    extension) get the mean recorded cost, the neutral guess.  Without a
    manifest the estimate falls back to the size proxy ``sweep levels x
    expected tasks per system``: analysis cost grows with both, and for a
    homogeneous grid the proxy degrades LPT into plain count balancing --
    never worse than the hash partition's contract.
    """
    if manifest:
        fallback = sum(manifest.values()) / len(manifest)
        return [
            float(manifest.get(chain["index"], fallback)) for chain in chains
        ]
    levels = len(spec.sweep_values())
    out = []
    for chain in chains:
        params = {**spec.base, **chain["point"]}
        n_transactions = params.get("n_transactions", 1)
        tpt = params.get("tasks_per_transaction", 1)
        if isinstance(tpt, (list, tuple)) and tpt:
            tasks = sum(float(v) for v in tpt) / len(tpt)
        else:
            try:
                tasks = float(tpt)
            except (TypeError, ValueError):
                tasks = 1.0
        try:
            n_tasks = float(n_transactions) * tasks
        except (TypeError, ValueError):
            n_tasks = 1.0
        out.append(levels * max(n_tasks, 1.0))
    return out


def lpt_shard_chains(
    chains: Sequence[dict],
    shard: tuple[int, int],
    costs: Sequence[float],
) -> list[dict]:
    """Cost-aware longest-processing-time partition of the chains.

    Chains are taken in descending cost order (ties broken by chain
    index) and greedily assigned to the least-loaded shard (ties broken
    by shard index) -- the classic LPT makespan heuristic.  Like
    :func:`shard_chains` the assignment is a pure function of its inputs:
    every shard computing it from the same spec and cost table derives
    the same disjoint partition, so the union stays bit-identical to the
    unsharded run.  Chains are returned in canonical execution order.
    """
    k, n = shard
    if n < 1 or not 0 <= k < n:
        raise ValueError(f"shard index must satisfy 0 <= k < n, got {k}/{n}")
    if len(costs) != len(chains):
        raise ValueError(
            f"got {len(costs)} costs for {len(chains)} chains"
        )
    ranked = sorted(
        range(len(chains)), key=lambda i: (-float(costs[i]), chains[i]["index"])
    )
    heap = [(0.0, s) for s in range(n)]  # already heap-ordered
    mine: set[int] = set()
    for i in ranked:
        load, s = heapq.heappop(heap)
        if s == k:
            mine.add(i)
        heapq.heappush(heap, (load + float(costs[i]), s))
    return [c for i, c in enumerate(chains) if i in mine]


def partition_chains(
    spec: CampaignSpec,
    chains: Sequence[dict],
    shard: tuple[int, int],
    *,
    partition: str = "hash",
    cost_manifest: dict[int, float] | None = None,
) -> list[dict]:
    """The chains *shard* owns under the chosen partition strategy.

    ``"hash"`` is the seed-hash interleave of :func:`shard_chains`
    (balances chain counts); ``"lpt"`` balances estimated chain *costs*
    (:func:`chain_cost_estimates` + :func:`lpt_shard_chains`).  Both are
    deterministic functions of ``(spec, shard, cost_manifest)``, so every
    host computes the same disjoint partition.
    """
    if partition == "hash":
        return shard_chains(chains, shard)
    if partition == "lpt":
        costs = chain_cost_estimates(spec, chains, cost_manifest)
        return lpt_shard_chains(chains, shard, costs)
    raise ValueError(
        f"partition must be 'hash' or 'lpt', got {partition!r}"
    )


def load_cost_manifest(path: str | Path) -> dict[int, float]:
    """Read a chain-cost manifest for ``partition="lpt"``.

    Accepts either a campaign result JSON (its ``chain_costs`` block --
    the natural workflow: point ``--cost-manifest`` at a previous run of
    the same spec) or a bare ``{chain index: cost}`` mapping.
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"cost manifest {path} is not a JSON object")
    table = data.get("chain_costs", data)
    if not isinstance(table, dict):
        raise ValueError(f"cost manifest {path} has no usable chain_costs")
    try:
        return {int(k): float(v) for k, v in table.items()}
    except (TypeError, ValueError):
        raise ValueError(
            f"cost manifest {path} must map chain indices to seconds"
        ) from None


def _chain_point_params(
    spec: CampaignSpec, point: dict[str, Any], step: int
) -> dict[str, Any]:
    """Raw generator params of one chain cell (base + point + sweep value).

    The single construction point for cell params: the chain runners,
    the store walk and the merger all derive params through this helper,
    which is what makes their cells bit-identical.
    """
    params = dict(spec.base)
    params.update(point)
    if spec.sweep_axis is not None:
        params[spec.sweep_axis] = spec.sweep_values()[step]
    return params


@dataclass
class CellResult:
    """One (generated system, method) outcome."""

    #: Full generator params of the cell (base + grid point + sweep value).
    params: dict[str, Any]
    seed: int
    replicate: int
    method: str
    schedulable: bool
    converged: bool
    outer_iterations: int
    evaluations: int
    warm_started: bool
    max_wcrt_ratio: float
    time_s: float
    phase_cache_hits: int
    phase_cache_misses: int
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields as a new dict, with new ``params`` and ``extras``.

        Nested values are shared, not deep-copied as ``asdict`` would:
        every caller only reads them, and the copy was most of a shard's
        result encoding.
        """
        data = dict(self.__dict__)
        data["params"] = dict(self.params)
        data["extras"] = dict(self.extras)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(**data)


#: CellResult fields compared by the determinism tests and the CSV export;
#: wall-clock timing is intentionally excluded.
CELL_METRIC_FIELDS = (
    "schedulable",
    "converged",
    "outer_iterations",
    "evaluations",
    "warm_started",
    "max_wcrt_ratio",
    "phase_cache_hits",
    "phase_cache_misses",
)


def _cell_identity(params: dict, seed: int, method: str) -> tuple:
    """Hashable identity of one cell: frozen params + seed + method.

    This is the key merges match cells by (the cell seed plus the full
    parameter point, including the sweep value).
    """
    return (
        tuple(sorted((k, _freeze(v)) for k, v in params.items())),
        seed,
        method,
    )


@dataclass
class CampaignResult:
    """Everything a campaign produced, with aggregation and export."""

    spec: dict
    cells: list[CellResult]
    workers: int
    wall_time_s: float
    #: Cells appended to a streaming CSV while the campaign ran.
    streamed_cells: int = 0
    #: ``[k, n]`` when this result holds shard ``k`` of an ``n``-way
    #: partition (see :func:`shard_chains`); ``None`` for a full run or a
    #: merged union.
    shard: list[int] | None = None
    #: Cells served from / solved past the content-addressed result store
    #: (:mod:`repro.batch.store`).  Both stay 0 when no store was passed;
    #: with a store, ``store_hits + store_misses`` covers every cell of
    #: the run.
    store_hits: int = 0
    store_misses: int = 0
    #: True for a partial result cut short before its plan was done.
    #: Runs of this version always finish their plan; the flag survives
    #: for result files written by earlier versions, which the merge and
    #: the dispatcher's completeness check still read.
    truncated: bool = False
    #: Recorded wall seconds per chain index (sum of cell ``time_s`` over
    #: the chain's collected cells) -- the cost manifest a later
    #: ``partition="lpt"`` run (or the dispatcher) feeds back into
    #: :func:`chain_cost_estimates`.  Empty under ``collect=False``.
    chain_costs: dict[int, float] = field(default_factory=dict)

    # -- aggregate views --------------------------------------------------

    @property
    def n_analyses(self) -> int:
        return len(self.cells)

    @property
    def n_systems(self) -> int:
        """Distinct generated systems (cells / methods)."""
        methods = len(self.spec.get("methods", [])) or 1
        return len(self.cells) // methods

    @property
    def systems_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return float("inf")
        return self.n_systems / self.wall_time_s

    @property
    def analyses_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return float("inf")
        return self.n_analyses / self.wall_time_s

    def _cell_point_key(self, cell: CellResult) -> tuple:
        axes = list(self.spec.get("grid", {}))
        return tuple((a, _freeze(cell.params.get(a))) for a in axes)

    def acceptance(self) -> list[dict[str, Any]]:
        """Acceptance ratio and mean accounting per (grid cell, method).

        Rows are ordered by grid point then method, ready for tabulation or
        :func:`repro.viz.csvout.write_csv`.
        """
        groups: dict[tuple, list[CellResult]] = {}
        order: list[tuple] = []
        for cell in self.cells:
            key = (self._cell_point_key(cell), cell.method)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell)
        rows = []
        for point, method in order:
            cells = groups[(point, method)]
            n = len(cells)
            accepted = sum(c.schedulable for c in cells)
            rows.append(
                {
                    **{axis: value for axis, value in point},
                    "method": method,
                    "n": n,
                    "accepted": accepted,
                    "ratio": accepted / n,
                    "mean_outer_iterations": sum(
                        c.outer_iterations for c in cells
                    ) / n,
                    "mean_evaluations": sum(c.evaluations for c in cells) / n,
                    "mean_time_s": sum(c.time_s for c in cells) / n,
                }
            )
        return rows

    def accounting(self) -> dict[str, Any]:
        """Iteration/evaluation accounting, split warm vs cold.

        The warm/cold split is the campaign's own speedup report: warm
        cells resumed the outer fixed point from the previous sweep level's
        jitters, cold cells started from ``J = 0``.
        """
        warm = [c for c in self.cells if c.warm_started]
        cold = [c for c in self.cells if not c.warm_started]

        def bucket(cells: list[CellResult]) -> dict[str, float]:
            n = len(cells)
            if n == 0:
                return {
                    "cells": 0,
                    "evaluations": 0,
                    "outer_iterations": 0,
                    "mean_evaluations": 0.0,
                    "mean_outer_iterations": 0.0,
                    "time_s": 0.0,
                }
            return {
                "cells": n,
                "evaluations": sum(c.evaluations for c in cells),
                "outer_iterations": sum(c.outer_iterations for c in cells),
                "mean_evaluations": sum(c.evaluations for c in cells) / n,
                "mean_outer_iterations": sum(
                    c.outer_iterations for c in cells
                ) / n,
                "time_s": sum(c.time_s for c in cells),
            }

        hits = sum(c.phase_cache_hits for c in self.cells)
        misses = sum(c.phase_cache_misses for c in self.cells)
        return {
            "analyses": self.n_analyses,
            "systems": self.n_systems,
            "wall_time_s": self.wall_time_s,
            "systems_per_second": self.systems_per_second,
            "analyses_per_second": self.analyses_per_second,
            "evaluations_total": sum(c.evaluations for c in self.cells),
            "outer_iterations_total": sum(
                c.outer_iterations for c in self.cells
            ),
            "warm": bucket(warm),
            "cold": bucket(cold),
            "store": {
                "hits": self.store_hits,
                "misses": self.store_misses,
            },
            "phase_cache": {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            },
        }

    def metrics(self) -> list[tuple]:
        """Canonical tuple view of every cell, without wall-clock timing --
        what determinism comparisons should use.  NaN metric values are
        mapped to ``None`` so that equal runs compare equal."""
        def norm(v: Any) -> Any:
            if isinstance(v, float) and math.isnan(v):
                return None
            return v

        return [
            (
                tuple(sorted((k, _freeze(v)) for k, v in c.params.items())),
                c.seed,
                c.replicate,
                c.method,
            )
            + tuple(norm(getattr(c, f)) for f in CELL_METRIC_FIELDS)
            for c in self.cells
        ]

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "streamed_cells": self.streamed_cells,
            "shard": self.shard,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "truncated": self.truncated,
            "chain_costs": {str(k): v for k, v in self.chain_costs.items()},
            "cells": [c.to_dict() for c in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        # Counters earlier versions wrote (``reseed_*``, ``shm_*``) are
        # ignored, so their files still load and merge.
        shard = data.get("shard")
        return cls(
            spec=data["spec"],
            cells=[CellResult.from_dict(c) for c in data["cells"]],
            workers=int(data.get("workers", 1)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            streamed_cells=int(data.get("streamed_cells", 0)),
            shard=[int(shard[0]), int(shard[1])] if shard else None,
            store_hits=int(data.get("store_hits", 0)),
            store_misses=int(data.get("store_misses", 0)),
            truncated=bool(data.get("truncated", False)),
            chain_costs={
                int(k): float(v)
                for k, v in data.get("chain_costs", {}).items()
            },
        )

    def save_json(self, path: str | Path) -> Path:
        """Write the result as compact JSON, atomically (write-then-rename).

        A kill between open and close must never leave a half-written
        JSON at *path*: the dispatcher and ``campaign-merge`` treat
        whatever sits there as a result.  The temp file is flushed and
        fsynced *before* the rename -- without that, a crash after
        ``os.replace`` but before the data hits disk could leave an
        empty-but-renamed file at *path*.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            # No ``indent``: only then does ``json.dumps`` run the C
            # encoder, one pass instead of the pure-Python one.
            handle.write(json.dumps(self.to_dict()))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load_json(cls, path: str | Path) -> "CampaignResult":
        return cls.from_dict(read_json(path))

    def write_cells_csv(self, path: str | Path) -> Path:
        """Flat per-cell CSV: one row per (system, method) analysis."""
        param_keys = sorted({k for c in self.cells for k in c.params})
        header = (
            param_keys
            + ["seed", "replicate", "method"]
            + list(CELL_METRIC_FIELDS)
            + ["time_s"]
        )
        rows = [
            [_csv_value(c.params.get(k)) for k in param_keys]
            + [c.seed, c.replicate, c.method]
            + [_csv_value(getattr(c, f)) for f in CELL_METRIC_FIELDS]
            + [c.time_s]
            for c in self.cells
        ]
        return write_csv(path, header, rows)

    def write_acceptance_csv(self, path: str | Path) -> Path:
        rows = self.acceptance()
        if not rows:
            return write_csv(path, [], [])
        header = list(rows[0].keys())
        return write_csv(
            path, header, [[_csv_value(r[h]) for h in header] for r in rows]
        )

    def format_summary(self) -> str:
        """Human-readable acceptance table plus the accounting footer."""
        rows = self.acceptance()
        if not rows:
            return "(empty campaign)"
        axes = [k for k in rows[0] if k not in (
            "method", "n", "accepted", "ratio",
            "mean_outer_iterations", "mean_evaluations", "mean_time_s",
        )]
        header = axes + ["method", "n", "ratio", "outer", "evals", "ms"]
        body = [
            [f"{r[a]:g}" if isinstance(r[a], float) else str(r[a]) for a in axes]
            + [
                r["method"],
                str(r["n"]),
                f"{r['ratio']:.2f}",
                f"{r['mean_outer_iterations']:.1f}",
                f"{r['mean_evaluations']:.0f}",
                f"{r['mean_time_s'] * 1e3:.2f}",
            ]
            for r in rows
        ]
        acc = self.accounting()
        footer = (
            f"\n{acc['systems']} systems x {len(self.spec.get('methods', []))} "
            f"method(s) = {acc['analyses']} analyses in "
            f"{acc['wall_time_s']:.2f}s "
            f"({acc['systems_per_second']:.1f} systems/s, "
            f"workers={self.workers})\n"
            f"evaluations: {acc['evaluations_total']} total; warm cells "
            f"{acc['warm']['cells']} @ {acc['warm']['mean_evaluations']:.0f} "
            f"evals/cell vs cold {acc['cold']['cells']} @ "
            f"{acc['cold']['mean_evaluations']:.0f}\n"
            f"phase cache: {acc['phase_cache']['hits']} hits / "
            f"{acc['phase_cache']['misses']} misses "
            f"(hit ratio {acc['phase_cache']['hit_ratio']:.2f})"
        )
        if self.store_hits or self.store_misses:
            footer += (
                f"\nresult store: {self.store_hits} cells served, "
                f"{self.store_misses} solved and stored"
            )
        title = (
            f"campaign: generator={self.spec.get('generator')} "
            f"seed={self.spec.get('seed')}"
        )
        if self.shard:
            title += f" shard={self.shard[0]}/{self.shard[1]}"
        return format_table(header, body, title=title) + footer


def _freeze(value: Any) -> Any:
    """Hashable view of a params value (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _tagged_chain_costs(tagged: Sequence[dict]) -> dict[int, float]:
    """Recorded wall seconds per chain index over a batch of tagged cells."""
    costs: dict[int, float] = {}
    for item in tagged:
        idx = item["order"][0]
        costs[idx] = costs.get(idx, 0.0) + float(item["cell"]["time_s"])
    return dict(sorted(costs.items()))


def _csv_value(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, tuple)):
        return "x".join(str(v) for v in value)
    if value is None:
        return ""
    return value


class StreamingMerger:
    """Incremental union of shard (or partial) results of one spec.

    The dispatcher folds each shard result in as the shard completes and
    drops the shard object immediately, so dispatched peak memory is the
    accumulated cell index plus *one* shard JSON -- not every shard JSON
    at once.  :func:`merge_campaign_results` is the convenience wrapper
    folding a ready-made sequence through the same machinery.

    Validation semantics match the historical batch merge: every added
    result must carry the identical spec dict (any difference raises
    :class:`ValueError`), sharded inputs must agree on the shard count
    and not repeat an index, and no cell identity may appear twice.
    :meth:`finish` reorders the union into the canonical chain-plan
    order and rejects leftovers that belong to no cell of the spec.
    The fold is order-insensitive: ``wall_time_s``/``workers`` are
    running maxima (the concurrent-hosts reading: shards run side by
    side, the union is ready when the slowest shard is), counters are
    running sums, and the canonical order is recomputed at the end --
    so shards may arrive in any completion order.
    """

    def __init__(self, spec: dict | None = None):
        #: Locked on construction or by the first :meth:`add`.
        self._spec: dict | None = dict(spec) if spec is not None else None
        self._index: dict[tuple, CellResult] = {}
        self._shards: list[tuple[int, int]] = []
        self._added = 0
        self._workers = 0
        self._wall = 0.0
        self._streamed = 0
        self._store_hits = 0
        self._store_misses = 0
        self._truncated = False
        self._chain_costs: dict[int, float] = {}

    def add(self, result: CampaignResult) -> None:
        """Fold one result into the union (validating spec and overlap)."""
        if self._spec is None:
            self._spec = result.spec
        elif result.spec != self._spec:
            differing = sorted(
                k
                for k in set(self._spec) | set(result.spec)
                if self._spec.get(k) != result.spec.get(k)
            )
            raise ValueError(
                f"result {self._added} has an incompatible spec: "
                f"{', '.join(differing)} differ"
            )
        if result.shard:
            k, n = int(result.shard[0]), int(result.shard[1])
            counts = {n0 for _, n0 in self._shards} | {n}
            if len(counts) > 1:
                raise ValueError(f"shard counts differ: {sorted(counts)}")
            if any(k0 == k for k0, _ in self._shards):
                raise ValueError(
                    f"duplicate shard index {k} among the inputs"
                )
            self._shards.append((k, n))
        for c in result.cells:
            key = _cell_identity(c.params, c.seed, c.method)
            if key in self._index:
                raise ValueError(
                    f"overlapping cell in merge: seed={c.seed} "
                    f"method={c.method!r} params={c.params!r}"
                )
            self._index[key] = c
        self._added += 1
        self._workers = max(self._workers, result.workers)
        self._wall = max(self._wall, result.wall_time_s)
        self._streamed += result.streamed_cells
        self._store_hits += result.store_hits
        self._store_misses += result.store_misses
        self._truncated = self._truncated or result.truncated
        for idx, cost in result.chain_costs.items():
            self._chain_costs[idx] = self._chain_costs.get(idx, 0.0) + cost

    def finish(self) -> CampaignResult:
        """The merged result, cells in canonical chain-plan order."""
        if self._spec is None:
            raise ValueError("need at least one result to merge")
        # Canonical order comes from the spec's chain plan alone (no
        # registry lookups, so results of custom generators merge in any
        # process).  Missing cells are allowed: ``campaign-merge``
        # reports them, and a merge of an incomplete shard set merges on.
        merged_spec = CampaignSpec.from_dict(self._spec)
        index = self._index
        ordered: list[CellResult] = []
        for chain in merged_spec.chains():
            for step in range(len(merged_spec.sweep_values())):
                params = _jsonify(
                    _chain_point_params(merged_spec, chain["point"], step)
                )
                for name in merged_spec.methods:
                    cell = index.pop(
                        _cell_identity(params, chain["seed"], name), None
                    )
                    if cell is not None:
                        ordered.append(cell)
        if index:
            raise ValueError(
                f"{len(index)} cells do not belong to the merged spec "
                "(stale grid values or a foreign result file?)"
            )
        return CampaignResult(
            spec=self._spec,
            cells=ordered,
            workers=self._workers,
            wall_time_s=self._wall,
            streamed_cells=self._streamed,
            shard=None,
            store_hits=self._store_hits,
            store_misses=self._store_misses,
            truncated=self._truncated
            and len(ordered) < merged_spec.n_analyses(),
            chain_costs=dict(sorted(self._chain_costs.items())),
        )


def merge_campaign_results(
    results: Sequence[CampaignResult],
) -> CampaignResult:
    """Union shard (or partial) results of one spec into a single result.

    All inputs must carry the *identical* spec dict -- merging results from
    different generators, seeds, grids or method lists would silently mix
    incomparable cells, so any difference raises :class:`ValueError`, as
    does a duplicated shard index or any overlapping cell (the same
    ``(params, seed, method)`` identity appearing in two inputs).  Cells
    are returned in the canonical order of the spec's chain plan; missing
    cells are allowed (a merge of an incomplete shard set is itself a
    valid merge input).

    ``wall_time_s``/``workers`` are the maxima over the inputs (the
    concurrent-hosts reading: shards run side by side, the union is ready
    when the slowest shard is); the counter fields are summed.  This is
    the batch wrapper over :class:`StreamingMerger`, which the dispatcher
    uses directly to fold shard results one at a time.
    """
    if not results:
        raise ValueError("need at least one result to merge")
    merger = StreamingMerger()
    for result in results:
        merger.add(result)
    return merger.finish()


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def _analyze_cell(
    spec: CampaignSpec,
    chain: dict,
    step: int,
    m_idx: int,
    name: str,
    fn,
    system: TransactionSystem,
    warm_vector: dict | None,
) -> tuple[Any, dict]:
    """Run one (system, method) analysis and tag the resulting cell dict."""
    hits0, misses0 = phase_cache_stats()
    t0 = time.perf_counter()
    outcome = fn(system, warm_vector)
    dt = time.perf_counter() - t0
    hits1, misses1 = phase_cache_stats()
    return outcome, {
        "order": (chain["index"], step, m_idx),
        "cell": {
            "params": _jsonify(_chain_point_params(spec, chain["point"], step)),
            "seed": chain["seed"],
            "replicate": chain["replicate"],
            "method": name,
            "schedulable": bool(outcome.schedulable),
            "converged": bool(outcome.converged),
            "outer_iterations": int(outcome.outer_iterations),
            "evaluations": int(outcome.evaluations),
            "warm_started": bool(outcome.warm_started),
            "max_wcrt_ratio": float(outcome.max_wcrt_ratio),
            "time_s": dt,
            "phase_cache_hits": hits1 - hits0,
            "phase_cache_misses": misses1 - misses0,
            "extras": _jsonify(outcome.extras),
        },
    }


def _inferred_cell(
    spec: CampaignSpec,
    chain: dict,
    step: int,
    m_idx: int,
    name: str,
    schedulable: bool,
    witness_level: Any,
) -> dict:
    """Tagged cell whose verdict is *inferred* from monotone level pruning.

    ``witness_level`` is the sweep value of the solved level whose verdict
    implies this one (a schedulable level above, or an unschedulable level
    below) -- the provenance trail of the inference.
    """
    return {
        "order": (chain["index"], step, m_idx),
        "cell": {
            "params": _jsonify(_chain_point_params(spec, chain["point"], step)),
            "seed": chain["seed"],
            "replicate": chain["replicate"],
            "method": name,
            "schedulable": schedulable,
            "converged": True,
            "outer_iterations": 0,
            "evaluations": 0,
            "warm_started": False,
            "max_wcrt_ratio": float("nan"),
            "time_s": 0.0,
            "phase_cache_hits": 0,
            "phase_cache_misses": 0,
            "extras": {
                "verdict_inferred": True,
                "inference": "monotone_utilization",
                "from_level": witness_level,
            },
        },
    }


#: Cell fields a chain entry stores per cell (everything of a tagged cell
#: except the identity fields the chain plan already determines).
_STORED_CELL_FIELDS = (
    "schedulable",
    "converged",
    "outer_iterations",
    "evaluations",
    "warm_started",
    "max_wcrt_ratio",
    "time_s",
    "phase_cache_hits",
    "phase_cache_misses",
    "extras",
)


def _chain_systems(
    spec: CampaignSpec, chain: dict
) -> tuple[list[TransactionSystem], bool]:
    """The systems one chain analyzes, in sweep order.

    A level derives from the last freshly generated one through the
    generator's sweep scaler when it has one and the scaler accepts the
    level; otherwise the level is generated afresh.  The flag says
    whether every level derives from the first through the scaler -- the
    premise of monotone level pruning (see :func:`_run_chain_pruned`).
    """
    scaler = (
        GENERATOR_SWEEP_SCALERS.get(spec.generator)
        if spec.sweep_axis is not None
        else None
    )
    systems: list[TransactionSystem] = []
    one_base = scaler is not None
    base_system: TransactionSystem | None = None
    base_value: Any = None
    for step, sweep_value in enumerate(spec.sweep_values()):
        system = None
        if scaler is not None and base_system is not None:
            system = scaler(
                base_system, spec.sweep_axis, base_value, sweep_value
            )
        if system is None:
            system = GENERATORS[spec.generator](
                _chain_point_params(spec, chain["point"], step), chain["seed"]
            )
            base_system, base_value = system, sweep_value
            one_base = one_base and step == 0
        systems.append(system)
    return systems, one_base


def _chain_key(
    spec: CampaignSpec, systems: Sequence[TransactionSystem]
) -> StoreKey:
    """The one store key of a chain of *spec* analyzing *systems*.

    Its identity holds the campaign config hash and, in sweep order, the
    hash of every system the chain analyzes.  A one-shot key holds a
    single system hash, so the two kinds never share an identity.
    """
    return StoreKey(
        tuple(system_hash(system) for system in systems),
        campaign_config_hash(spec),
        None,
        "chain",
    )


def chain_store_digest(spec: CampaignSpec, chain: dict) -> str:
    """Digest of the one store entry a chain of *spec* reads and writes."""
    return _chain_key(spec, _chain_systems(spec, chain)[0]).digest()


def store_reachable_digests(spec: CampaignSpec) -> set[str]:
    """Digests of every store entry a run of *spec* would consult.

    One per chain of the plan: the reachability set ``store-gc --spec``
    keeps, so pruning everything else leaves the store exactly warm for
    that spec.  Generation is cheap relative to analysis (O(tasks) per
    cell, no fixed points), but the walk still touches every chain, so
    expect seconds, not milliseconds, on big grids.
    """
    return {chain_store_digest(spec, chain) for chain in spec.chains()}


def _served_chain(
    spec: CampaignSpec, chain: dict, value: dict | None
) -> list[dict] | None:
    """Tagged cells of *chain* rebuilt from its store entry, or ``None``.

    An entry serves whole or not at all: it must hold one cell per
    (step, method) in canonical order, each with every stored field.
    Identity fields (params/seed/replicate/method) come from the chain
    plan, not the entry -- the key only guarantees *content* identity,
    and the canonical identity must match this spec's cells bit for bit.
    """
    stored = value.get("cells") if value is not None else None
    n_methods = len(spec.methods)
    if not isinstance(stored, list) or len(stored) != (
        len(spec.sweep_values()) * n_methods
    ):
        return None
    out: list[dict] = []
    for i, fields in enumerate(stored):
        if not isinstance(fields, dict) or any(
            f not in fields for f in _STORED_CELL_FIELDS
        ):
            return None
        step, m_idx = divmod(i, n_methods)
        params = _chain_point_params(spec, chain["point"], step)
        cell = {
            "params": _jsonify(params),
            "seed": chain["seed"],
            "replicate": chain["replicate"],
            "method": spec.methods[m_idx],
        }
        cell.update((f, fields[f]) for f in _STORED_CELL_FIELDS)
        out.append({"order": (chain["index"], step, m_idx), "cell": cell})
    return out


def _run_chain_sweep(
    spec: CampaignSpec, chain: dict, systems: Sequence[TransactionSystem]
) -> list[dict]:
    """The ascending warm-start walk over one chain's sweep levels."""
    warm: dict[str, Any] = {m: None for m in spec.methods}
    out: list[dict] = []
    for step, system in enumerate(systems):
        # A fresh cache per step keeps per-cell hit/miss accounting
        # independent of which worker ran the previous chain.
        clear_phase_cache()
        for m_idx, name in enumerate(spec.methods):
            info = resolve_method(name)
            warm_vector = None
            if spec.warm_start and info.supports_warm_start:
                warm_vector = warm[name]
            outcome, tagged = _analyze_cell(
                spec, chain, step, m_idx, name, info.fn, system, warm_vector
            )
            warm[name] = outcome.jitters
            out.append(tagged)
    return out


def _run_chain_pruned(
    spec: CampaignSpec, chain: dict, systems: Sequence[TransactionSystem]
) -> list[dict]:
    """Monotone-level-pruned execution of one chain (verdict methods).

    Along a warm-start chain every sweep level is the *same* drawn system
    with all execution times scaled by the utilization ratio, and response
    times are monotone in the execution times -- so once a level is
    unschedulable, every higher level is too, and once a level is
    schedulable, every lower level is too.  Methods flagged
    ``verdict_monotone`` therefore *bisect* the sweep for the lowest
    unschedulable level (~log2 solves) and emit the remaining cells with
    inferred verdicts carrying provenance extras (``verdict_inferred``,
    ``from_level``); other methods in the same spec run the plain
    ascending walk.

    The caller takes this path only when every level derives from the
    first through the registered sweep scaler (see
    :func:`_chain_systems`) and the sweep axis is ``"utilization"``: the
    inference needs ascending levels to scale *demand up* (higher level
    => responses can only grow).  A custom scaler on some other axis --
    say a deadline factor, where larger values make systems easier --
    would invert the direction and the bisection invariant with it, so
    any other axis runs the ascending walk.
    """
    sweep_values = spec.sweep_values()
    n_steps = len(systems)
    out: list[dict] = []
    for m_idx, name in enumerate(spec.methods):
        info = resolve_method(name)
        use_warm = spec.warm_start and info.supports_warm_start

        def solve(step: int, warm_vector: dict | None) -> tuple[Any, dict]:
            clear_phase_cache()
            return _analyze_cell(
                spec, chain, step, m_idx, name, info.fn, systems[step],
                warm_vector,
            )

        warm: Any = None
        if not info.verdict_monotone:
            for step in range(n_steps):
                outcome, tagged = solve(step, warm if use_warm else None)
                warm = outcome.jitters
                out.append(tagged)
            continue

        # Bisect [0, n_steps) for the lowest unschedulable level.  Warm
        # starts flow only upward: a schedulable probe's converged jitters
        # seed higher probes (they lie below the higher level's fixed
        # point); unschedulable probes never seed anything (all later
        # probes are below them).
        solved: dict[int, dict] = {}
        lo, hi = 0, n_steps
        while lo < hi:
            mid = (lo + hi) // 2
            outcome, tagged = solve(mid, warm if use_warm else None)
            solved[mid] = tagged
            if tagged["cell"]["schedulable"]:
                if outcome.jitters is not None:
                    warm = outcome.jitters
                lo = mid + 1
            else:
                hi = mid
        threshold = lo
        for step in range(n_steps):
            if step in solved:
                out.append(solved[step])
                continue
            # A level below the threshold is inferred schedulable from the
            # probed pass just under it, one above it unschedulable from
            # the probed miss at it.
            schedulable = step < threshold
            witness = sweep_values[threshold - 1 if schedulable else threshold]
            out.append(
                _inferred_cell(
                    spec, chain, step, m_idx, name, schedulable, witness
                )
            )
    # Canonical (step, method) order: the streaming CSV, the fault
    # harness's cell boundaries and the chain's store entry then see
    # whole levels complete in sweep order, exactly like the ascending
    # walk.
    out.sort(key=lambda item: item["order"])
    return out


def _run_chain(
    spec: CampaignSpec, chain: dict, store: ResultStore | None = None
) -> dict:
    """Execute one warm-start chain.

    Returns ``{"cells": [tagged cell dicts], "store_hits": int,
    "store_misses": int}``.  Chains whose spec includes a
    verdict-monotone method take the pruned path
    (:func:`_run_chain_pruned`) when every sweep level derives from one
    base system; everything else runs the ascending walk
    (:func:`_run_chain_sweep`).

    With a *store*, the chain is the unit of reuse: one entry, filed
    under :func:`_chain_key`, holds every cell of the chain.  An entry
    that validates serves the whole chain (``store_hits``); otherwise the
    chain is solved as without a store and its cells are stored with one
    ``put`` (``store_misses``).  Without a store both stay 0.
    """
    systems, one_base = _chain_systems(spec, chain)
    key = None
    if store is not None:
        key = _chain_key(spec, systems)
        served = _served_chain(spec, chain, store.get(key))
        if served is not None:
            return {"cells": served, "store_hits": len(served),
                    "store_misses": 0}
    if (
        one_base
        and spec.sweep_axis == "utilization"
        and any(resolve_method(name).verdict_monotone for name in spec.methods)
    ):
        cells = _run_chain_pruned(spec, chain, systems)
    else:
        cells = _run_chain_sweep(spec, chain, systems)
    if key is None:
        return {"cells": cells, "store_hits": 0, "store_misses": 0}
    store.put(key, {"cells": [
        {f: item["cell"][f] for f in _STORED_CELL_FIELDS} for item in cells
    ]})
    return {"cells": cells, "store_hits": 0, "store_misses": len(cells)}


def _run_chunk(payload: tuple[dict, list[dict], str | None]) -> dict:
    """Worker entry point: a chunk is a list of chains.

    Finished cells and the chains' store counters return through the
    executor's pickle channel.  ``store_root`` (a path, not a live
    object -- each worker opens its own handle) enables the
    content-addressed result store for the chunk's chains.
    """
    spec_dict, chains, store_root = payload
    spec = CampaignSpec.from_dict(spec_dict)
    store = ResultStore(store_root) if store_root else None
    cells: list[dict] = []
    store_hits = 0
    store_misses = 0
    for chain in chains:
        chain_out = _run_chain(spec, chain, store)
        cells.extend(chain_out["cells"])
        store_hits += chain_out["store_hits"]
        store_misses += chain_out["store_misses"]
    return {
        "cells": cells,
        "store_hits": store_hits,
        "store_misses": store_misses,
    }


class _CellCsvStream:
    """Appends finished cells to a CSV as their chains complete.

    The column set is fixed upfront (``base`` keys plus grid axes) so rows
    can be written without buffering the campaign; rows appear in chunk
    completion order, which is the canonical cell order for a single
    worker and chunk order under a pool (``Executor.map`` preserves it).
    """

    def __init__(self, path: str | Path, spec: CampaignSpec):
        self.param_keys = sorted(set(spec.base) | set(spec.grid))
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(
            self.param_keys
            + ["seed", "replicate", "method"]
            + list(CELL_METRIC_FIELDS)
            + ["time_s"]
        )

    def write(self, part: list[dict]) -> None:
        for item in part:
            c = item["cell"]
            params = c["params"]
            self._writer.writerow(
                [_csv_value(params.get(k)) for k in self.param_keys]
                + [c["seed"], c["replicate"], c["method"]]
                + [_csv_value(c[f]) for f in CELL_METRIC_FIELDS]
                + [c["time_s"]]
            )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class _HeartbeatWriter:
    """Atomically publish a liveness file from a daemon thread.

    The file is a single JSON object ``{"cells": N, "seq": K, "time": T,
    "pid": P}``: ``cells`` is the monotonic count of cells this run has
    consumed, ``seq`` bumps on *every* write.  The split lets a
    dispatcher distinguish *stalled* (seq advances, cells frozen -- the
    process is alive but wedged inside a solve) from *dead* (nothing
    advances -- killed, or silently hung with its threads).

    Writes are write-then-rename so a reader never sees a torn file, but
    deliberately *not* fsynced: a heartbeat is advisory, and losing the
    last beat on power failure costs one relaunch, not correctness.  Any
    error while beating -- ENOSPC, EACCES on the temp file, a vanished
    parent directory -- is swallowed for the same reason: the beat is
    skipped and retried at the next interval, and the daemon thread
    keeps running, because a worker must never *look* dead (or actually
    die) just because the disk hiccuped.  ``seq`` advances only when a
    beat actually lands, so a published sequence never skips numbers and
    a failed write is indistinguishable from no write, which is exactly
    what it is to the reader.  ``failed_beats`` counts the skips for
    observability.

    The periodic beat runs on a daemon thread, so it keeps beating while
    the main thread is stuck inside a long solve (a *healthy* slow cell
    looks stalled-but-alive, which is exactly the signal the dispatcher
    needs to not shoot it -- and a SIGKILL or interpreter wedge stops the
    thread too, which is what makes silence mean *dead*).
    """

    def __init__(self, path: str | Path, interval: float):
        self.path = Path(path)
        self.interval = float(interval)
        self._cells = 0
        self._seq = 0
        self._dropped = False
        self.failed_beats = 0
        self._stop = threading.Event()
        self._kick = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            # An unwritable parent fails every beat too -- each one is
            # skipped and retried; the campaign itself must keep running.
            self.failed_beats += 1
        self._write()
        self._thread = threading.Thread(
            target=self._loop, name="heartbeat", daemon=True
        )
        self._thread.start()

    def bump(self, cells: int) -> None:
        """Record progress and request an immediate beat."""
        self._cells = int(cells)
        self._kick.set()

    def drop(self) -> None:
        """Stop publishing (fault injection: simulate a silent wedge)."""
        self._dropped = True

    def stop(self) -> None:
        self._stop.set()
        self._kick.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._write()  # flush the final count

    def _loop(self) -> None:
        while True:
            self._kick.wait(self.interval)
            if self._stop.is_set():
                return
            self._kick.clear()
            try:
                self._write()
            except Exception:
                # _write already absorbs OSError; this is the belt to
                # that suspender -- nothing may kill the beat thread.
                self.failed_beats += 1

    def _write(self) -> None:
        if self._dropped:
            return
        payload = json.dumps(
            {
                "cells": self._cells,
                "seq": self._seq + 1,
                "time": time.time(),
                "pid": os.getpid(),
            }
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(payload)
            os.replace(tmp, self.path)
        except FileNotFoundError:
            # The parent vanished (remount, aggressive cleanup): try to
            # recreate it so a later beat can land, skip this one.
            self.failed_beats += 1
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError:
                pass
        except OSError:
            self.failed_beats += 1
        else:
            # Published beats carry consecutive sequence numbers; a
            # failed write bumps nothing, exactly like no write at all.
            self._seq += 1


class Campaign:
    """A configured campaign, ready to run.

    >>> from repro.batch import Campaign, CampaignSpec
    >>> spec = CampaignSpec(
    ...     grid={"utilization": (0.3, 0.6)},
    ...     base={"n_platforms": 2, "n_transactions": 2,
    ...           "tasks_per_transaction": (1, 2)},
    ...     methods=("reduced",),
    ...     systems_per_cell=2,
    ... )
    >>> result = Campaign(spec).run(workers=1)
    >>> result.n_systems
    4
    """

    def __init__(self, spec: CampaignSpec):
        if spec.generator not in GENERATORS:
            raise KeyError(
                f"unknown generator {spec.generator!r}; "
                f"known: {', '.join(available_generators())}"
            )
        for name in spec.methods:
            resolve_method(name)  # raises on unknown names
        self.spec = spec

    def chains(self) -> list[dict]:
        """The planned chains (sequential units of execution)."""
        return self.spec.chains()

    def run(
        self,
        *,
        workers: int = 1,
        chunk_size: int | None = None,
        stream_csv: str | Path | None = None,
        collect: bool = True,
        shard: tuple[int, int] | None = None,
        partition: str = "hash",
        cost_manifest: dict[int, float] | None = None,
        store: ResultStore | str | Path | None = None,
        chain_indices: Sequence[int] | None = None,
        heartbeat: str | Path | None = None,
        heartbeat_interval: float = 1.0,
        executor: ProcessPoolExecutor | None = None,
    ) -> CampaignResult:
        """Execute the campaign and return a :class:`CampaignResult`.

        ``workers == 1`` runs inline (same code path as the pool workers);
        any worker count produces identical metrics for the same spec.

        Parameters
        ----------
        chunk_size:
            Chains per pool task (>= 1); ``None`` picks
            ``ceil(chains / (4 x workers))``.
        stream_csv:
            Append each finished cell to this CSV as its chain completes,
            instead of waiting for the whole campaign.
        collect:
            ``True`` (default) keeps every cell in the result; ``False``
            (requires *stream_csv*) keeps none, for arbitrarily large
            streamed sweeps.  Pool workers return their cells through the
            executor either way.
        shard:
            ``(k, n)`` runs only the chains of shard ``k`` of a
            deterministic ``n``-way partition (see :func:`shard_chains`);
            the union of all shards equals the unsharded run bit for bit,
            and :func:`merge_campaign_results` reassembles the pieces.
        partition:
            Shard partition strategy: ``"hash"`` (seed-hash interleave,
            balances chain counts) or ``"lpt"`` (longest processing time
            over per-chain cost estimates, balances recorded/estimated
            cost -- see :func:`partition_chains`).  Every shard of one
            deployment must use the same strategy and cost manifest.
        cost_manifest:
            Chain index -> recorded wall seconds (the ``chain_costs``
            block of a previous result, see :func:`load_cost_manifest`)
            driving the ``"lpt"`` partition; ``None`` falls back to the
            ``levels x n_tasks`` size proxy.
        store:
            A :class:`~repro.batch.store.ResultStore` (or its root
            directory) memoizing solved chains *across* runs by content
            hash: a chain whose execution context and systems were
            solved before -- by this run, an earlier run, or another
            shard sharing the store -- is served whole from its one
            entry, and a freshly solved chain is written back as one
            entry.  A store-warmed rerun is bit-identical to a cold run
            (same cells, same canonical order); only ``store_hits``/
            ``store_misses`` differ.  This is also the crash-recovery
            path: rerunning a killed run against its store solves only
            the chains the killed run had not stored.
        chain_indices:
            Run only the chains with these plan indices (see
            :meth:`chains`), in canonical plan order.  This is the
            dispatcher's elastic-split primitive: any disjoint cover of
            the chain indices unions bit-identically to the full run,
            exactly like ``shard`` -- but the subset is explicit instead
            of derived from a ``k/n`` partition.  Mutually exclusive
            with ``shard``.
        heartbeat:
            Atomically rewrite a small liveness JSON here (monotonic
            cells-consumed counter + beat sequence + wall timestamp) on
            every progress event and at least every *heartbeat_interval*
            seconds, from a daemon thread (see :class:`_HeartbeatWriter`).
            A dispatcher polls it to tell *progressing* from *stalled*
            from *dead* without trusting the child's exit status.
        heartbeat_interval:
            Maximum seconds between heartbeat writes (must be > 0).
        executor:
            An externally owned :class:`~concurrent.futures.\
ProcessPoolExecutor` to run chain chunks on instead of creating (and
            shutting down) a private pool.  The executor *outlives* the
            call -- this is the analysis service's persistent-pool seam:
            worker processes keep their driver caches (compiled-W
            closures, phase memos) warm across campaigns.  ``workers``
            then only shapes chunking and should match the executor's
            worker count; results are identical either way.  Ignored on
            the inline path (``workers == 1`` or a single chain).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not isinstance(collect, bool):
            raise ValueError(f"collect must be True or False, got {collect!r}")
        if not collect and stream_csv is None:
            raise ValueError("collect=False requires stream_csv")
        if partition not in ("hash", "lpt"):
            raise ValueError(
                f"partition must be 'hash' or 'lpt', got {partition!r}"
            )
        if isinstance(store, ResultStore):
            store_obj: ResultStore | None = store
        elif store is not None:
            store_obj = ResultStore(store)
        else:
            store_obj = None
        store_root = str(store_obj.root) if store_obj is not None else None
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        chains = self.chains()
        if chain_indices is not None:
            if shard is not None:
                raise ValueError(
                    "chain_indices and shard are mutually exclusive: a "
                    "chain subset is already an explicit partition"
                )
            wanted = {int(i) for i in chain_indices}
            unknown = wanted - {c["index"] for c in chains}
            if unknown:
                raise ValueError(
                    f"unknown chain indices {sorted(unknown)}; the plan "
                    f"has {len(chains)} chain(s)"
                )
            chains = [c for c in chains if c["index"] in wanted]
        elif shard is not None:
            chains = partition_chains(
                self.spec, chains, shard,
                partition=partition, cost_manifest=cost_manifest,
            )
        spec_dict = self.spec.to_dict()
        t0 = time.perf_counter()

        stream = (
            _CellCsvStream(stream_csv, self.spec)
            if stream_csv is not None
            else None
        )
        worker_faults = WorkerFaults.from_env()
        beat = (
            _HeartbeatWriter(heartbeat, heartbeat_interval)
            if heartbeat is not None
            else None
        )
        tagged: list[dict] = []
        streamed = 0
        consumed = 0
        store_hits = 0
        store_misses = 0

        def consume(part: dict) -> None:
            """Account one chain's (or chunk's) finished cells."""
            nonlocal streamed, consumed, store_hits, store_misses
            store_hits += part["store_hits"]
            store_misses += part["store_misses"]
            cells = part["cells"]
            if worker_faults is not None:
                # Injected cell faults land on exact cell boundaries, not
                # wherever a chain/chunk batch edge happens to fall.
                cells = worker_faults.clip(cells, consumed)
            consumed += len(cells)
            if stream is not None:
                stream.write(cells)
                streamed += len(cells)
            if collect:
                tagged.extend(cells)
            if beat is not None:
                beat.bump(consumed)
            if worker_faults is not None:
                # After the heartbeat so the injected crash leaves exactly
                # the on-disk state a real one would.
                worker_faults.fire(consumed, beat)

        try:
            if beat is not None:
                beat.start()
            if worker_faults is not None:
                worker_faults.fire(0, beat)  # a fault at cell 0: no work yet
            if workers == 1 or len(chains) <= 1:
                for chain in chains:
                    consume(_run_chain(self.spec, chain, store_obj))
            else:
                if chunk_size is None:
                    chunk_size = max(1, math.ceil(len(chains) / (workers * 4)))
                chunks = [
                    chains[i:i + chunk_size]
                    for i in range(0, len(chains), chunk_size)
                ]
                pool = (
                    executor
                    if executor is not None
                    else ProcessPoolExecutor(max_workers=workers)
                )
                futures: list = []
                try:
                    futures = [
                        pool.submit(_run_chunk, (spec_dict, chunk, store_root))
                        for chunk in chunks
                    ]
                    for future in futures:
                        consume(future.result())
                finally:
                    if executor is None:
                        pool.shutdown(wait=True, cancel_futures=True)
                    else:
                        # A borrowed executor must survive the call;
                        # cancel what never started so a failed chunk
                        # does not leave queued chunks burning pool slots
                        # behind our back.
                        for future in futures:
                            future.cancel()
        finally:
            if stream is not None:
                stream.close()
            if beat is not None:
                beat.stop()

        items = sorted(tagged, key=lambda item: item["order"])
        return CampaignResult(
            spec=spec_dict,
            cells=[CellResult.from_dict(item["cell"]) for item in items],
            workers=workers,
            wall_time_s=time.perf_counter() - t0,
            streamed_cells=streamed,
            shard=list(shard) if shard is not None else None,
            store_hits=store_hits,
            store_misses=store_misses,
            chain_costs=_tagged_chain_costs(items),
        )


def run_campaign(
    spec: CampaignSpec, *, workers: int = 1, chunk_size: int | None = None
) -> CampaignResult:
    """Convenience one-call front end to :class:`Campaign`."""
    return Campaign(spec).run(workers=workers, chunk_size=chunk_size)
