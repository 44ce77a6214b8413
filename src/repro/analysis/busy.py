"""Interference machinery: phases and W functions (Eqs. 7-11, 15, 17).

Everything here operates on *views*: per analyzed task
:math:`\\tau_{a,b}`, the system is projected onto the task's platform
(Eq. 17 -- only tasks with ``priority >= p(a,b)`` *and* the same platform
interfere) with execution times pre-scaled by the platform rate
:math:`1/\\alpha` (Sec. 3.1).  The projection is done once per response-time
query; the inner fixed-point iterations then touch only small flat lists.

Conventions pinned by hand-verification against the paper's Table 3 (see
DESIGN.md Section 4):

* offsets are reduced modulo the transaction period;
* phases :math:`\\varphi` live in the half-open set ``(0, T]`` -- an exact
  multiple maps to ``T``, not ``0``;
* for ``t >= 0`` the bracket of Eq. 8 is never negative, but it is clamped
  to zero anyway for numerical robustness.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.model.system import TransactionSystem
from repro.util.math import EPS, ceil_div, floor_div, fmod_pos, phase_in_period

try:  # The vector kernel is optional: everything falls back to scalar.
    import numpy as _np
except ImportError:  # pragma: no cover - the test image ships numpy
    _np = None

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "HPTask",
    "TransactionView",
    "AnalyzedTask",
    "VECTOR_MIN_JOBS",
    "ViewProjector",
    "build_views",
    "clear_phase_cache",
    "compile_w_rows",
    "compile_w_transaction_k",
    "compile_w_transaction_star",
    "phase",
    "scenario_rows",
    "phase_cache_stats",
    "resolve_kernel",
    "set_phase_cache_enabled",
    "w_task",
    "w_transaction_k",
    "w_transaction_star",
]

#: Quantization step of the phase-cache key.  Jitters from successive outer
#: rounds that agree to within this quantum share one cache entry; the
#: quantum sits three orders of magnitude below every tolerance in the
#: library (EPS = 1e-9), so sharing never moves a result past a tolerance.
PHASE_QUANTUM = 1e-12

#: Reset threshold: the cache is dropped wholesale once it holds this many
#: starter vectors (long campaigns would otherwise grow it without bound).
_PHASE_CACHE_MAX = 1 << 14

# Maps (platform, period, starter phi, starter jitter, interferer offsets),
# all quantized, to the tuple of Eq. 10 phases of the view's tasks.  The
# phases depend only on these inputs -- not on the time argument t of the W
# functions -- yet the seed code recomputed them at every evaluation of
# every inner fixed point.
_PHASE_CACHE: dict[tuple, tuple[float, ...]] = {}
_PHASE_HITS = 0
_PHASE_MISSES = 0
_PHASE_CACHE_ENABLED = True


def _q(x: float) -> int:
    """Quantize a time value for cache keying."""
    return round(x / PHASE_QUANTUM)


def set_phase_cache_enabled(enabled: bool) -> bool:
    """Toggle the phase cache (on by default); returns the previous state.

    The off switch exists for benchmarking the memoization itself -- there
    is no correctness reason to disable it.
    """
    global _PHASE_CACHE_ENABLED
    previous = _PHASE_CACHE_ENABLED
    _PHASE_CACHE_ENABLED = enabled
    if not enabled:
        _PHASE_CACHE.clear()
    return previous


def phase_cache_stats() -> tuple[int, int]:
    """``(hits, misses)`` of the per-process phase cache."""
    return _PHASE_HITS, _PHASE_MISSES


def clear_phase_cache() -> None:
    """Drop every cached phase vector and zero the hit/miss counters."""
    global _PHASE_HITS, _PHASE_MISSES
    _PHASE_CACHE.clear()
    _PHASE_HITS = 0
    _PHASE_MISSES = 0


def _phases_for(
    view: TransactionView, s_phi: float, s_jit: float
) -> tuple[float, ...]:
    """Phases of every task in *view* for the given starter, cached.

    The value is computed from the exact (unquantized) inputs of the first
    occupant of the key, so single-computation results are bit-identical to
    the uncached code path; a second starter landing on the same key differs
    from the occupant by less than :data:`PHASE_QUANTUM`, far inside EPS.
    """
    global _PHASE_HITS, _PHASE_MISSES
    # For one- or two-task views computing the phases outright is cheaper
    # than building the cache key; the cache pays off on wide views (and
    # its entries are shared across every task analyzing the same
    # transaction).  Compiled-closure caching upstream already removes the
    # repeated compiles that the cache originally served.  The phase
    # arithmetic (Eq. 10 with the fmod_pos/phase_in_period conventions) is
    # inlined -- this is the innermost compile loop.
    if not _PHASE_CACHE_ENABLED or len(view.tasks) <= 2:
        period = view.period
        fmod = math.fmod
        origin = s_phi + s_jit
        out = []
        for hp in view.tasks:
            r = fmod(origin - hp.phi, period)
            if r < 0:
                r += period
            if (r >= period - EPS or r <= EPS) and (
                abs(r) <= EPS or abs(r - period) <= EPS
            ):
                r = 0.0
            out.append(period - r if r > 0.0 else period)
        return tuple(out)
    tag = view.cache_tag
    if len(tag) != 3:
        tag = (
            view.platform,
            _q(view.period),
            tuple(_q(hp.phi) for hp in view.tasks),
        )
    key = (tag, _q(s_phi), _q(s_jit))
    cached = _PHASE_CACHE.get(key)
    if cached is not None:
        _PHASE_HITS += 1
        return cached
    _PHASE_MISSES += 1
    if len(_PHASE_CACHE) >= _PHASE_CACHE_MAX:
        _PHASE_CACHE.clear()
    phases = tuple(
        phase(s_phi, s_jit, hp.phi, view.period) for hp in view.tasks
    )
    _PHASE_CACHE[key] = phases
    return phases


@dataclass(frozen=True)
class HPTask:
    """A higher-priority task projected onto the analyzed platform.

    ``phi`` is the reduced offset, ``jitter`` the current jitter and
    ``cost`` the execution time already scaled by the analyzed platform's
    rate (:math:`C_{i,j}/\\alpha`).
    """

    phi: float
    jitter: float
    cost: float
    index: int  # task index within its transaction, for reporting


@dataclass(frozen=True)
class TransactionView:
    """One transaction as seen from the analyzed task (Eq. 17 projection)."""

    period: float
    tasks: tuple[HPTask, ...]
    index: int  # transaction index within the system, for reporting
    platform: int = -1  # analyzed platform the view was projected onto
    #: Precomputed phase-cache key prefix: (platform, q(period), q(phi)...).
    #: Built once per projection so per-evaluation key construction is a
    #: tuple concatenation; empty for hand-built views (computed lazily).
    cache_tag: tuple = ()


@dataclass(frozen=True)
class AnalyzedTask:
    """The task under analysis with its platform parameters resolved."""

    txn: int
    idx: int
    period: float
    deadline: float
    phi: float  # reduced offset
    jitter: float
    cost: float  # C / alpha
    blocking: float
    delay: float  # platform Delta
    priority: int
    platform: int


class ViewProjector:
    """Cached Eq. 17 projection of *system* onto the platform of task ``(a, b)``.

    The platform/priority filtering, the reduced offsets and the rate
    scaling are invariant across the outer rounds of the holistic analysis
    -- only the jitters move (Eq. 18).  The projector computes the static
    skeleton once; :meth:`views` then snapshots the current jitters into
    fresh view objects, skipping the per-round re-filtering that dominated
    ``build_views`` in campaign profiles.

    The projector holds references to the live task objects, so it must be
    rebuilt if the system's *structure* (offsets, priorities, platforms,
    costs) changes -- the holistic driver only ever mutates jitters.

    ``platform_index`` optionally supplies the output of
    :meth:`build_platform_index` so repeated projections of one system (the
    holistic driver projects every task) scan only same-platform tasks.
    """

    def __init__(
        self,
        system: TransactionSystem,
        a: int,
        b: int,
        platform_index: dict | None = None,
    ):
        txn = system.transactions[a]
        task = txn.tasks[b]
        platform = system.platforms[task.platform]
        alpha = platform.rate
        priority = task.priority

        self._task = task
        # Positional AnalyzedTask prefix/suffix around the live jitter
        # (field order of the dataclass); snapshotting runs once per solve.
        self._pre = (
            a, b, txn.period, float(txn.deadline),
            fmod_pos(task.offset, txn.period),
        )
        self._post = (
            task.wcet / alpha, task.blocking, platform.delay,
            priority, task.platform,
        )

        if platform_index is None:
            platform_index = self.build_platform_index(system)
        # Per transaction: qualifying (task, phi, cost, index) rows, in task
        # order (the platform index is (i, j)-sorted).
        buckets: dict[int, list] = {}
        for i, j, t, period, phi in platform_index.get(task.platform, ()):
            if t.priority >= priority and not (i == a and j == b):
                buckets.setdefault(i, []).append((t, phi, t.wcet / alpha, j))

        def skeleton(i: int) -> tuple:
            rows = tuple(buckets.get(i, ()))
            period = system.transactions[i].period
            # The phase cache only engages for views wider than two tasks
            # (see _phases_for); smaller views never read the tag.
            cache_tag = (
                (
                    task.platform,
                    _q(period),
                    tuple(_q(phi) for _t, phi, _c, _j in rows),
                )
                if len(rows) > 2
                else ()
            )
            return period, rows, i, cache_tag

        self._own = skeleton(a)
        self._others = tuple(
            skel
            for i in sorted(buckets)
            if i != a and (skel := skeleton(i))[1]
        )

    @staticmethod
    def build_platform_index(system: TransactionSystem) -> dict:
        """``platform -> [(i, j, task, period, reduced offset), ...]`` in
        ``(i, j)`` order; shareable across every projector of *system*."""
        index: dict[int, list] = {}
        for i, tr in enumerate(system.transactions):
            period = tr.period
            for j, t in enumerate(tr.tasks):
                index.setdefault(t.platform, []).append(
                    (i, j, t, period, fmod_pos(t.offset, period))
                )
        return index

    @staticmethod
    def _snapshot(skel: tuple, platform: int) -> TransactionView:
        period, rows, index, cache_tag = skel
        return TransactionView(
            period=period,
            tasks=tuple(
                HPTask(phi=phi, jitter=src.jitter, cost=cost, index=j)
                for src, phi, cost, j in rows
            ),
            index=index,
            platform=platform,
            cache_tag=cache_tag,
        )

    def views(self) -> tuple[AnalyzedTask, TransactionView, list[TransactionView]]:
        """``(analyzed, own, others)`` with the current jitter values."""
        analyzed = AnalyzedTask(*self._pre, self._task.jitter, *self._post)
        platform = analyzed.platform
        own = self._snapshot(self._own, platform)
        others = [self._snapshot(skel, platform) for skel in self._others]
        return analyzed, own, others


def build_views(
    system: TransactionSystem, a: int, b: int
) -> tuple[AnalyzedTask, TransactionView, list[TransactionView]]:
    """Project *system* onto the platform of task ``(a, b)``.

    Returns ``(analyzed, own, others)`` where ``own`` is the view of the
    analyzed task's transaction (the set :math:`hp_a(\\tau_{a,b})`,
    excluding the task itself) and ``others`` the views of every other
    transaction with a non-empty interfering set.  Repeated projections of
    the same task (the outer holistic rounds) should go through a cached
    :class:`ViewProjector` instead.
    """
    return ViewProjector(system, a, b).views()


def phase(starter_phi: float, starter_jitter: float, phi_j: float, period: float) -> float:
    """Phase :math:`\\varphi^k_{i,j}` of Eq. 10, in ``(0, T]``.

    *starter* is the task :math:`\\tau_{i,k}` whose maximally-delayed
    activation coincides with the start of the busy period; the returned
    phase is the first activation of :math:`\\tau_{i,j}` after that instant.
    """
    return phase_in_period(starter_phi + starter_jitter - phi_j, period)


def w_task(phi_k_j: float, jitter_j: float, cost_j: float, period: float, t: float) -> float:
    """Contribution :math:`W_{i,j}` of one interfering task (Eq. 8).

    ``phi_k_j`` is the task's phase for the current scenario; ``cost_j`` is
    already rate-scaled.  The first term counts jobs whose jittered
    activation collapses onto the busy-period start; the second counts
    periodic arrivals inside ``[0, t)``.
    """
    jobs = floor_div(jitter_j + phi_k_j, period) + ceil_div(t - phi_k_j, period)
    return max(0, jobs) * cost_j


def w_transaction_k(view: TransactionView, starter: HPTask | None, t: float,
                    starter_phi: float | None = None,
                    starter_jitter: float | None = None) -> float:
    """Contribution :math:`W^k_i` of a whole transaction (Eq. 11).

    The busy period is assumed to start with the maximally-delayed
    activation of *starter*.  The starter may be a task that is **not** in
    the view (the analyzed task itself starting its own transaction's
    scenario); pass its reduced offset and jitter explicitly in that case.
    """
    if starter is not None:
        s_phi, s_jit = starter.phi, starter.jitter
    else:
        if starter_phi is None or starter_jitter is None:
            raise ValueError("either starter or (starter_phi, starter_jitter) required")
        s_phi, s_jit = starter_phi, starter_jitter
    phases = _phases_for(view, s_phi, s_jit)
    total = 0.0
    for hp, ph in zip(view.tasks, phases):
        total += w_task(ph, hp.jitter, hp.cost, view.period, t)
    return total


def w_transaction_star(view: TransactionView, t: float) -> float:
    """Tindell's upper bound :math:`W^*_i` (Eq. 15): max over starters.

    Evaluated lazily per *t*; note that the maximizing starter may change
    with *t*, which is exactly why :math:`W^*_i(t)` remains an upper bound
    (it dominates every individual :math:`W^k_i`).
    """
    best = 0.0
    for starter in view.tasks:
        best = max(best, w_transaction_k(view, starter, t))
    return best


#: ``kernel="auto"`` switches a closure to the vector kernel once one
#: evaluation covers at least this many jobs (rows, or (starter, task)
#: pairs for W*).  For flat rows it is the measured crossover against
#: NumPy's per-call dispatch overhead; the W* step envelope already wins
#: from 4 jobs (``BENCH_layers.json``), but views of up to 4 tasks keep
#: the scalar reference.
VECTOR_MIN_JOBS = 24


def resolve_kernel(kernel: str, batch_jobs: int) -> str:
    """Resolve an :class:`AnalysisConfig` kernel name to scalar/vector.

    ``batch_jobs`` is the number of (starter, task) pairs one evaluation of
    the candidate closure touches: ``len(view.tasks)`` for :math:`W^k_i`,
    ``len(view.tasks)**2`` for :math:`W^*_i` (every starter, every task).
    """
    if kernel == "scalar" or _np is None:
        return "scalar"
    if kernel == "vector":
        return "vector"
    if kernel == "auto":
        return "vector" if batch_jobs >= VECTOR_MIN_JOBS else "scalar"
    raise ValueError(
        f"kernel must be 'auto', 'vector' or 'scalar', got {kernel!r}"
    )


def _starter_params(
    starter: HPTask | None,
    starter_phi: float | None,
    starter_jitter: float | None,
) -> tuple[float, float]:
    if starter is not None:
        return starter.phi, starter.jitter
    if starter_phi is None or starter_jitter is None:
        raise ValueError("either starter or (starter_phi, starter_jitter) required")
    return starter_phi, starter_jitter


def _snapped_ceil(x):
    """Vectorized :func:`repro.util.math.fceil`: identical snapping rule.

    ``np.rint`` and Python's ``round`` both round half to even, and the
    division feeding *x* uses the same IEEE operation as the scalar path, so
    the job counts are bit-identical between the two kernels.
    """
    nearest = _np.rint(x)
    return _np.where(_np.abs(x - nearest) <= EPS, nearest, _np.ceil(x))


def scenario_rows(
    view: TransactionView,
    starter: HPTask | None,
    starter_phi: float | None = None,
    starter_jitter: float | None = None,
) -> tuple[tuple[float, int, float, float], ...]:
    """Flat ``(phase, carry, cost, period)`` rows of :math:`W^k_i` (Eq. 11).

    One row per interfering job source: the phase for the scenario's
    starter, the jitter carry ``floor((J_j + phi)/T)`` of Eq. 8, the
    rate-scaled cost and the view period.  The carry is kept *outside* the
    per-evaluation ceiling on purpose: folding it (or the :data:`EPS` snap
    guard) into the phase perturbs the snap boundary by a few ulp and
    breaks exact agreement with the interpreted :func:`w_task` at
    boundary-distance-exactly-EPS points.  Rows from different views can
    be concatenated into a single closure (:func:`compile_w_rows`) because
    each row carries its own period.
    """
    s_phi, s_jit = _starter_params(starter, starter_phi, starter_jitter)
    period = view.period
    phases = _phases_for(view, s_phi, s_jit)
    rows = []
    for hp, ph in zip(view.tasks, phases):
        # Inlined floor_div (epsilon-snapped floor, util.math).
        x = (hp.jitter + ph) / period
        nearest = round(x)
        carry = (
            int(nearest) if abs(x - nearest) <= EPS else int(math.floor(x))
        )
        rows.append((ph, carry, hp.cost, period))
    return tuple(rows)


def compile_w_rows(rows: tuple, *, kernel: str = "scalar"):
    """Compile flat W rows into a closure summing every row's Eq. 8 term.

    ``kernel`` selects the backend (see :func:`resolve_kernel`): the vector
    closure evaluates all rows as one NumPy reduction, the scalar one runs
    the reference Python loop (specialized for the very common one-row
    case).
    """
    if not rows:
        return _w_zero
    if resolve_kernel(kernel, len(rows)) == "vector":
        ph = _np.array([r[0] for r in rows], dtype=float)
        carry = _np.array([r[1] for r in rows], dtype=float)
        cost = _np.array([r[2] for r in rows], dtype=float)
        period = _np.array([r[3] for r in rows], dtype=float)
        maximum, zeros = _np.maximum, _np.zeros(len(rows))

        def w_rows_vec(t: float) -> float:
            jobs = carry + _snapped_ceil((t - ph) / period)
            return float(maximum(jobs, zeros) @ cost)

        return w_rows_vec

    ceil_ = math.ceil

    def threshold(row: tuple) -> float:
        # Largest t at which the row is *guaranteed* to contribute zero
        # jobs: jobs <= 0 iff (t - ph)/T <= -carry + EPS.  The margin makes
        # the guard strictly conservative against the fp rounding of the
        # threshold itself -- a row past its guard is still evaluated in
        # full, so the guard can only skip certainly-zero work.
        ph, carry, _cost, period = row
        return ph + (EPS - carry) * period - 1e-7 * period

    if len(rows) == 1:
        ph0, carry0, cost0, period0 = rows[0]
        thr0 = threshold(rows[0])

        def w_row1(t: float) -> float:
            if t <= thr0:
                return 0.0
            # Inlined ceil_div (epsilon-snapped ceiling, util.math).
            x = (t - ph0) / period0
            nearest = round(x)
            jobs = carry0 + (
                int(nearest) if abs(x - nearest) <= EPS else int(ceil_(x))
            )
            return jobs * cost0 if jobs > 0 else 0.0

        return w_row1

    # Ascending activation thresholds: once a threshold exceeds t, every
    # remaining row is zero and the loop breaks.
    ordered = tuple(
        (threshold(row),) + row for row in sorted(rows, key=threshold)
    )

    def w_rows(t: float) -> float:
        total = 0.0
        for thr, ph, carry, cost, period in ordered:
            if t <= thr:
                break
            x = (t - ph) / period
            nearest = round(x)
            jobs = carry + (
                int(nearest) if abs(x - nearest) <= EPS else int(ceil_(x))
            )
            if jobs > 0:
                total += jobs * cost
        return total

    return w_rows


def _w_zero(t: float) -> float:
    """W of an empty interfering set."""
    return 0.0


def compile_w_transaction_k(
    view: TransactionView,
    starter: HPTask | None,
    starter_phi: float | None = None,
    starter_jitter: float | None = None,
    *,
    kernel: str = "scalar",
):
    """Precompiled :math:`W^k_i` closure, equal to
    ``lambda t: w_transaction_k(view, starter, t, ...)``.

    The inner fixed points evaluate the W functions hundreds of times per
    scenario with only *t* varying, yet everything except the
    ``ceil((t - phi)/T)`` term is constant per (view, starter): the phases
    (memoized in the phase cache) and the jitter carry
    ``floor((J_j + phi)/T)`` of Eq. 8.  Resolving them once turns each
    evaluation into one guarded ceiling per interfering task.

    ``kernel`` selects the evaluation backend (see :func:`resolve_kernel`):
    the ``"vector"`` closure reduces over all interfering jobs with one
    NumPy expression; ``"scalar"`` is the reference Python loop.
    """
    return compile_w_rows(
        scenario_rows(view, starter, starter_phi, starter_jitter),
        kernel=kernel,
    )


def compile_w_transaction_star(view: TransactionView, *, kernel: str = "scalar"):
    """Precompiled :math:`W^*_i` closure, equal to
    ``lambda t: w_transaction_star(view, t)`` (Eq. 15).

    The scalar kernel maximizes over one compiled :math:`W^k_i` closure per
    candidate starter.  The vector kernel evaluates the exact step envelope
    of :func:`_compile_star_envelope` instead: a few scalar operations per
    call, however wide the view.
    """
    rows = tuple(scenario_rows(view, s) for s in view.tasks)
    n = len(rows)
    if n and resolve_kernel(kernel, n * n) == "vector":
        return _compile_star_envelope(view.period, rows)
    return _max_of(tuple(compile_w_rows(r, kernel=kernel) for r in rows))


def _max_of(fns: tuple):
    """Pointwise maximum of the non-negative W closures *fns* (0 if none)."""
    if len(fns) == 1:
        # A single candidate starter: the maximization is the identity
        # (the common shape in generated systems -- skip the wrapper).
        return fns[0]

    def w_star(t: float) -> float:
        best = 0.0
        for fn in fns:
            v = fn(t)
            if v > best:
                best = v
        return best

    return w_star


def _compile_star_envelope(period: float, rows: tuple):
    """Eq. 15 over the per-starter :func:`scenario_rows` *rows* of one view.

    All (starter, task) entries share the view period and ``(t - phi)/T``
    is monotone in ``phi``, so at any *t* the entries' snapped job counts
    are ``hi`` up to one cut in the sorted phase list and ``lo`` after it,
    with ``hi - lo <= 1`` but at rounding edges.  While ``lo`` keeps every
    ``carry + jobs`` non-negative, ``W*(t) = lo * sum(C) + E[cut]``, ``E``
    being the prefix-max over the sorted entries of each starter's
    ``sum(carry * C)`` plus its costs before the cut.  ``lo``, ``hi`` and
    the cut use the scalar closures' snapped ceiling (``bisect`` only
    seeds the cut, the exact expression confirms it on both neighbours);
    outside that regime -- ``t`` within about ``EPS * T`` of the start, or
    a wider spread -- the scalar :math:`W^k` closures answer.
    """
    ceil_ = math.ceil
    total = sum(cost for _ph, _carry, cost, _period in rows[0])
    entries = [
        (ph, k, cost)
        for k, row in enumerate(rows)
        for ph, _carry, cost, _period in row
    ]
    entries.sort(key=lambda entry: entry[0])
    level = [sum(carry * cost for _ph, carry, cost, _p in row) for row in rows]
    best = max(level)
    envelope = [best]
    for _ph, k, cost in entries:
        v = level[k] = level[k] + cost
        if v > best:
            best = v
        envelope.append(best)
    phases = [ph for ph, _k, _cost in entries]
    first, last, m = phases[0], phases[-1], len(phases)
    min_carry = min(carry for row in rows for _ph, carry, _c, _p in row)
    scalar: list = []  # the scalar W* closure, compiled on first need

    def jobs(t: float, ph: float) -> int:
        x = (t - ph) / period
        nearest = round(x)
        return nearest if abs(x - nearest) <= EPS else ceil_(x)

    def w_star_envelope(t: float) -> float:
        x = (t - last) / period
        nearest = round(x)
        lo = nearest if abs(x - nearest) <= EPS else ceil_(x)
        x = (t - first) / period
        nearest = round(x)
        hi = nearest if abs(x - nearest) <= EPS else ceil_(x)
        if lo + min_carry >= 0:
            if hi == lo:
                return lo * total + envelope[0]
            if hi == lo + 1:
                cut = bisect_left(phases, t - (lo + EPS) * period)
                while cut and jobs(t, phases[cut - 1]) == lo:
                    cut -= 1
                while cut < m and jobs(t, phases[cut]) == hi:
                    cut += 1
                return lo * total + envelope[cut]
        if not scalar:
            scalar.append(
                _max_of(tuple(compile_w_rows(r, kernel="scalar") for r in rows))
            )
        return scalar[0](t)

    return w_star_envelope


def starter_phase_of_analyzed(
    analyzed: AnalyzedTask, starter: HPTask | None
) -> float:
    """Phase :math:`\\varphi^{\\nu(a)}_{a,b}` of the analyzed task itself.

    When the analyzed task starts its own busy period (*starter* ``None``)
    its phase is the full period (Eq. 10 with ``k = (a,b)``).
    """
    if starter is None:
        return phase(analyzed.phi, analyzed.jitter, analyzed.phi, analyzed.period)
    return phase(starter.phi, starter.jitter, analyzed.phi, analyzed.period)
