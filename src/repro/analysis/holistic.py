"""The dynamic-offset outer fixed point (paper Sec. 3.2).

Tasks of a transaction are released by the completion of their predecessor,
so their offsets and jitters are not free parameters: Eq. 18 ties them to
the predecessor's best/worst-case response times,

.. math:: \\phi_{i,j} = R^{best}_{i,j-1}, \\qquad
          J_{i,j} = R_{i,j-1} - R^{best}_{i,j-1}.

The "static offset" analyses of Sec. 3.1 are iterated at a higher level:
starting from :math:`J_{i,j} = 0`, each round recomputes every response time
with the current jitters and then refreshes the jitters from the new
responses (a Jacobi iteration -- exactly the scheme whose trace the paper
reports in Table 3).  Monotonicity of response times in the jitters
guarantees convergence to the least fixed point when the busy periods close.

Two driver optimizations sit on top of the paper's scheme, neither of which
moves a single converged value:

* the Eq. 17 projection of every task is built once per analysis (offsets
  and priorities are fixed after initialization; only jitters move) and
  re-snapshotted per solve through a cached
  :class:`~repro.analysis.busy.ViewProjector`;
* under ``update="gauss_seidel"`` with ``incremental=True`` the rounds run
  a *chain-aware dirty set*: tasks are visited in precedence order and a
  task is re-solved only when some jitter it can observe (its own, or that
  of an interfering task on its platform) moved by more than the
  convergence tolerance in the meantime.  Re-solving a task whose inputs
  are unchanged returns the identical response, so skipping it is exact --
  deep chains stop paying full-system sweeps once their upstream prefixes
  stabilize.  Jacobi never skips: its full-round trace is the paper's.
"""

from __future__ import annotations

import math

from repro.analysis.bestcase import best_case_response_times
from repro.analysis.busy import ViewProjector
from repro.analysis.interfaces import (
    AnalysisConfig,
    IterationRow,
    SystemAnalysis,
    TaskAnalysis,
    UNSCHEDULABLE,
)
from repro.analysis.reduced import response_time_reduced
from repro.analysis.static_offsets import response_time_exact
from repro.model.system import TransactionSystem
from repro.model.transaction import Transaction
from repro.util.fixedpoint import note_outer_tasks

__all__ = ["holistic_analysis"]


def _clone(system: TransactionSystem) -> TransactionSystem:
    """Deep-copy transactions (tasks included) so the input stays pristine."""
    return TransactionSystem(
        transactions=[
            Transaction(
                period=tr.period,
                deadline=tr.deadline,
                name=tr.name,
                meta=dict(tr.meta),
                tasks=[t.unvalidated_copy() for t in tr.tasks],
            )
            for tr in system.transactions
        ],
        platforms=list(system.platforms),
        name=system.name,
        meta=dict(system.meta),
    )


def _jitter_dependents(
    work: TransactionSystem,
) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Static interference-dependency map for the dirty-set scheduler.

    ``dependents[(i, j)]`` lists every task whose response-time solve reads
    the jitter of task ``(i, j)``: the Eq. 17 projection of task ``(a, b)``
    contains ``(i, j)`` iff both share a platform and ``(i, j)`` has
    priority at least ``(a, b)``'s -- and every task additionally reads its
    own jitter (Eq. 13's ``p0`` and the starter phases).  Platforms and
    priorities are fixed for the whole analysis, so the map is built once.
    """
    keys = [
        ((i, j), t.platform, t.priority)
        for i, tr in enumerate(work.transactions)
        for j, t in enumerate(tr.tasks)
    ]
    dependents: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for key, platform, priority in keys:
        dependents[key] = tuple(
            other
            for other, o_platform, o_priority in keys
            if o_platform == platform and o_priority <= priority
        )
    return dependents


def holistic_analysis(
    system: TransactionSystem,
    *,
    config: AnalysisConfig | None = None,
    trace: bool = True,
    warm_start: dict[tuple[int, int], float] | None = None,
    in_place: bool = False,
) -> SystemAnalysis:
    """Run the full dynamic-offset analysis on *system*.

    Parameters
    ----------
    system:
        The transaction system.  Offsets/jitters of non-first tasks are
        *derived* (Eq. 18) and any input values for them are ignored; the
        first task of each transaction keeps its input offset and jitter.
    in_place:
        Skip the defensive clone and iterate directly on *system*,
        mutating the derived offsets/jitters of non-first tasks.  Sound
        for callers that own the system and never read those fields (the
        campaign engine analyzes each generated system once and discards
        it); re-analyzing a mutated system gives identical results, since
        the derived fields are recomputed from scratch every run.
    config:
        Analysis knobs; defaults to the reduced method with the paper's
        simple best-case bound.
    trace:
        Record the per-iteration ``(J, R)`` table (Table 3 of the paper).
    warm_start:
        Optional initial jitter vector keyed like
        :meth:`SystemAnalysis.final_jitters`, typically the converged
        jitters of a *nearby* system (the previous cell of an ascending
        utilization sweep, whose jitters are componentwise below the new
        least fixed point).  Entries for first tasks and infinite entries
        are ignored.  The outer Jacobi iteration then resumes from that
        vector instead of ``J = 0`` and converges to the same least fixed
        point in fewer rounds.

    Returns
    -------
    SystemAnalysis
        Final response times, verdict, and (optionally) the iteration trace.
    """
    config = config or AnalysisConfig()
    work = system if in_place else _clone(system)
    n_txn = len(work.transactions)
    all_keys = [
        (i, j)
        for i, tr in enumerate(work.transactions)
        for j in range(len(tr.tasks))
    ]
    verdict = config.mode == "verdict"

    # Round visit order.  In verdict mode the most-constrained transactions
    # (highest rate-scaled demand relative to their end-to-end deadline) go
    # first, so a provable miss aborts the round before the easy
    # transactions are paid for; precedence order is preserved within each
    # transaction (the in-round Eq. 18 refresh needs predecessors first)
    # and any visit order converges to the same least fixed point.
    order = all_keys
    if verdict:
        def _txn_pressure(i: int) -> float:
            tr = work.transactions[i]
            demand = sum(
                t.wcet / work.platforms[t.platform].rate for t in tr.tasks
            )
            dl = float(tr.deadline)
            return demand / dl if dl > 0 else math.inf

        txn_order = sorted(range(n_txn), key=lambda i: (-_txn_pressure(i), i))
        order = [
            (i, j)
            for i in txn_order
            for j in range(len(work.transactions[i].tasks))
        ]
    # Per-transaction verdict ceiling for the inner solves: a response
    # iterate past ``deadline + tol`` proves the end-to-end miss (responses
    # are non-decreasing along a precedence chain, and outer rounds
    # approach the fixed point from below), so the solve aborts there.
    txn_ceiling = (
        [float(tr.deadline) + config.tol for tr in work.transactions]
        if verdict
        else None
    )

    best = best_case_response_times(work, method=config.best_case)

    # Initial state: phi_{i,j} = Rbest_{i,j-1}, J = 0 (paper Sec. 3.2),
    # unless a warm-start jitter vector resumes the sweep.
    warm_used = False
    for i, tr in enumerate(work.transactions):
        for j in range(1, len(tr.tasks)):
            tr.tasks[j].offset = best[(i, j - 1)]
            jit = 0.0
            if warm_start is not None:
                guess = warm_start.get((i, j), 0.0)
                if guess > 0.0 and math.isfinite(guess):
                    jit = guess
                    warm_used = True
            tr.tasks[j].jitter = jit

    # Offsets are final now; the Eq. 17 projections are structurally fixed
    # for the rest of the analysis and only re-snapshot jitters per solve.
    projectors: dict[tuple[int, int], ViewProjector] = {}
    compile_caches: dict[tuple[int, int], dict] = {}
    # Compiled W* closures of foreign views, shared by every task of this
    # call: tasks that see one transaction at the same jitters project
    # equal views.  Per call, not per process, so accounting never depends
    # on what ran before.
    star_cache: dict | None = {} if config.driver_cache else None
    platform_index = (
        ViewProjector.build_platform_index(work) if config.driver_cache else None
    )
    busy_bound = config.busy_bound(work)

    evaluations = 0
    task_solves = 0
    task_skips = 0

    def compute_one(i: int, j: int) -> float:
        nonlocal evaluations, task_solves
        task_solves += 1
        if math.isinf(work.transactions[i].tasks[j].jitter):
            return UNSCHEDULABLE
        ceiling = txn_ceiling[i] if txn_ceiling is not None else math.inf
        if config.driver_cache:
            projector = projectors.get((i, j))
            if projector is None:
                projector = projectors[(i, j)] = ViewProjector(
                    work, i, j, platform_index
                )
                compile_caches[(i, j)] = {}
            views = projector.views()
            cache = compile_caches[(i, j)]
        else:
            views = ViewProjector(work, i, j).views()
            cache = None
        if config.method == "exact":
            res = response_time_exact(
                work, i, j, config=config, views=views, bound=busy_bound,
                ceiling=ceiling,
            )
        else:
            res = response_time_reduced(
                work, i, j, config=config, views=views, bound=busy_bound,
                compile_cache=cache, star_cache=star_cache,
                ceiling=ceiling,
            )
        evaluations += res.evaluations
        return res.wcrt

    incremental = config.update == "gauss_seidel" and config.incremental
    dependents = _jitter_dependents(work) if incremental else {}
    # Visit rank for the "already visited this round?" test of the dirty
    # marking; only needed when the verdict ordering departs from the
    # canonical key order (where tuple comparison is the rank).
    rank = (
        {key: pos for pos, key in enumerate(order)}
        if incremental and verdict
        else None
    )
    # Tasks whose inputs may have moved since their last solve.  Everything
    # is dirty before the first round; Jacobi and the full Gauss-Seidel
    # sweep simply re-dirty everything each round.
    dirty: set[tuple[int, int]] = set(all_keys)
    next_dirty: set[tuple[int, int]] = set()
    # Jitter value each task's dependents last re-solved against.  The
    # re-dirty test compares against *this* (not the per-round snapshot):
    # a jitter creeping by sub-tolerance steps over many rounds still
    # crosses the baseline by more than tol eventually, so observers can
    # never go stale by unbounded accumulation of skipped sub-tol moves.
    dirty_baseline: dict[tuple[int, int], float] = (
        {
            (i, j): tr.tasks[j].jitter
            for i, tr in enumerate(work.transactions)
            for j in range(1, len(tr.tasks))
        }
        if incremental
        else {}
    )

    def compute_round(
        prev: dict[tuple[int, int], float],
    ) -> tuple[dict[tuple[int, int], float], list[tuple[int, int]], bool]:
        """One outer round.

        Jacobi: plain sweep with the jitters of the previous round.
        Gauss-Seidel: each freshly computed response immediately refreshes
        its successor's jitter before that successor is analyzed -- same
        least fixed point (monotone map), fewer rounds.  The incremental
        variant additionally skips tasks that are not dirty, carrying their
        previous response; a jitter assignment that moves by more than the
        tolerance re-dirties every dependent task (in this round when it
        has not been visited yet, else in the next).

        In verdict mode an infinite response (deadline-ceiling abort or
        divergence) short-circuits the round: the verdict is already
        final, so the returned ``aborted`` flag tells the outer loop to
        stop without finishing the sweep (the round's remaining responses
        stay uncomputed).
        """
        nonlocal task_skips
        out: dict[tuple[int, int], float] = {}
        skipped: list[tuple[int, int]] = []
        for key in order:
            i, j = key
            tr = work.transactions[i]
            if incremental and key not in dirty:
                out[key] = prev[key]
                skipped.append(key)
                task_skips += 1
            else:
                out[key] = compute_one(i, j)
                if verdict and math.isinf(out[key]):
                    return out, skipped, True
            if (
                config.update == "gauss_seidel"
                and j + 1 < len(tr.tasks)
                and not math.isinf(out[key])
            ):
                succ = tr.tasks[j + 1]
                new_jit = max(succ.jitter, out[key] - best[key])
                if (
                    incremental
                    and new_jit - dirty_baseline[(i, j + 1)] > config.tol
                ):
                    # (i, j+1) itself is visited later in this same
                    # round; interference dependents positioned at or
                    # before the current task re-solve next round.
                    dirty_baseline[(i, j + 1)] = new_jit
                    for dep in dependents[(i, j + 1)]:
                        later = (
                            dep > key if rank is None else rank[dep] > rank[key]
                        )
                        if later:
                            dirty.add(dep)
                        else:
                            next_dirty.add(dep)
                succ.jitter = new_jit
        return out, skipped, False

    rows: list[IterationRow] = []
    responses: dict[tuple[int, int], float] = {}
    converged = False
    outer = 0
    diverged = False

    for outer in range(config.max_outer_iterations):
        if incremental and outer > 0 and not dirty:
            # Confirming round with nothing dirty: every response carries
            # over, the Eq. 18 refresh reproduces the current jitters, and
            # the round converges -- record it without running the sweep.
            note_outer_tasks(0, len(all_keys))
            task_skips += len(all_keys)
            if trace:
                rows.append(
                    IterationRow(
                        index=outer,
                        jitters={
                            (i, j): work.transactions[i].tasks[j].jitter
                            for i in range(n_txn)
                            for j in range(len(work.transactions[i].tasks))
                        },
                        responses=dict(responses),
                        skipped=tuple(all_keys),
                    )
                )
            converged = True
            break
        # Jitter vector the round starts from.  The convergence test below
        # must compare against *this* snapshot: the Gauss-Seidel scheme
        # updates jitters mid-round, and comparing the refresh targets with
        # those already-updated values declared convergence after a single
        # round even though tasks analyzed early in the round never saw the
        # later jitter growth (an unsound under-estimate).
        start_jitters = {
            (i, j): tr.tasks[j].jitter
            for i, tr in enumerate(work.transactions)
            for j in range(1, len(tr.tasks))
        }
        responses, skipped, aborted = compute_round(responses)
        note_outer_tasks(len(responses) - len(skipped), len(skipped))
        if aborted:
            # The short-circuited round left the remaining responses
            # uncomputed; the verdict is final, so report them as
            # UNSCHEDULABLE right away -- trace rows and the result tables
            # below then always carry every task key.
            for key in all_keys:
                responses.setdefault(key, UNSCHEDULABLE)
        if trace:
            rows.append(
                IterationRow(
                    index=outer,
                    jitters={
                        (i, j): work.transactions[i].tasks[j].jitter
                        for i in range(n_txn)
                        for j in range(len(work.transactions[i].tasks))
                    },
                    responses=dict(responses),
                    skipped=tuple(skipped),
                )
            )
        if aborted or any(math.isinf(r) for r in responses.values()):
            diverged = True
            converged = True  # the fixed point is +inf; no point iterating
            break

        # Refresh of the jitters (Eq. 18).  Under Gauss-Seidel the in-round
        # updates already equal these targets (jitters only grow), so the
        # assignment is shared; only the change test needs the snapshot.
        changed = False
        for i, tr in enumerate(work.transactions):
            for j in range(1, len(tr.tasks)):
                new_j = max(0.0, responses[(i, j - 1)] - best[(i, j - 1)])
                if abs(new_j - start_jitters[(i, j)]) > config.tol:
                    changed = True
                if incremental and abs(new_j - dirty_baseline[(i, j)]) > config.tol:
                    # The refresh moved this jitter away from the value the
                    # dependents last solved against -- either lowered below
                    # the in-round value (warm start seeded above the
                    # refresh target) or drifted past the baseline through
                    # accumulated sub-tolerance steps the in-round marking
                    # ignored individually.  Re-solve every observer.
                    dirty_baseline[(i, j)] = new_j
                    next_dirty.update(dependents[(i, j)])
                tr.tasks[j].jitter = new_j
        if not changed:
            converged = True
            break
        if incremental:
            dirty = next_dirty
            next_dirty = set()
        if config.stop_on_miss and any(
            responses[(i, len(tr.tasks) - 1)] > tr.deadline + config.tol
            for i, tr in enumerate(work.transactions)
        ):
            break

    # Propagate divergence down each chain: a successor of an unbounded task
    # is unbounded too.  (A verdict-mode mid-round abort already filled its
    # uncomputed responses with UNSCHEDULABLE above -- verdict mode gives
    # up exact per-task response times once the verdict is decided.)
    if diverged:
        for i, tr in enumerate(work.transactions):
            dead = False
            for j in range(len(tr.tasks)):
                if math.isinf(responses.get((i, j), 0.0)):
                    dead = True
                if dead:
                    responses[(i, j)] = UNSCHEDULABLE

    tasks: dict[tuple[int, int], TaskAnalysis] = {}
    for i, tr in enumerate(work.transactions):
        for j, task in enumerate(tr.tasks):
            tasks[(i, j)] = TaskAnalysis(
                wcrt=responses[(i, j)],
                bcrt=best[(i, j)],
                offset=task.offset,
                jitter=task.jitter,
                name=task.name,
            )

    txn_wcrt = [responses[(i, len(tr.tasks) - 1)] for i, tr in enumerate(work.transactions)]
    txn_dead = [float(tr.deadline) for tr in work.transactions]
    schedulable = all(r <= d + config.tol for r, d in zip(txn_wcrt, txn_dead))

    return SystemAnalysis(
        tasks=tasks,
        transaction_wcrt=txn_wcrt,
        transaction_deadline=txn_dead,
        schedulable=schedulable,
        iterations=rows,
        outer_iterations=outer + 1,
        converged=converged,
        evaluations=evaluations,
        warm_started=warm_used,
        task_solves=task_solves,
        task_skips=task_skips,
    )
