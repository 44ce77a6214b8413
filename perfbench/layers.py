"""Per-layer metrics folded from the traced passes of a run.

Counters come from the program's own accounting
(``repro.util.fixedpoint.fixed_point_stats`` deltas, campaign results);
times come from the spans :mod:`perfbench.tracing` recorded around each
layer's entry point.  Every percentile is stored with its sample count.
"""

from __future__ import annotations

from perfbench import tracing as tr
from perfbench.common import median, percentile


class LayerMetrics:
    """Metric name -> value, plus the sample count behind each percentile."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def set(self, name: str, value: float, samples: int | None = None):
        self.values[name] = float(value)
        if samples is not None:
            self.samples[name] = samples

    def pct(self, name: str, values: list[float], q: float, scale: float):
        self.set(name, percentile(values, q) * scale, len(values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fold(tracer: tr.Tracer, results: list) -> LayerMetrics:
    """Analysis, campaign and store layers of the traced passes.

    *results* are the campaign results the passes produced.
    """
    m = LayerMetrics()
    fp_delta = tracer.fp
    spans = tracer.by_name()
    analyses = spans.get(tr.CELL, []) + spans.get(tr.REQUEST_ANALYZE, [])
    attrs = [s[6] or {} for s in analyses]

    # analysis.busy
    m.set("busy.evals", fp_delta.evaluations)
    hits = sum(a.get("phase_hits", 0) for a in attrs)
    misses = sum(a.get("phase_misses", 0) for a in attrs)
    m.set("busy.phase_cache_hit_ratio", ratio(hits, hits + misses))
    m.set("busy.vector_closures", tracer.counts.get("vector", 0))
    m.set("busy.scalar_closures", tracer.counts.get("scalar", 0))

    # analysis.reduced
    m.set("reduced.solves", fp_delta.solves)
    m.set("reduced.evals_per_solve",
          ratio(fp_delta.evaluations, fp_delta.solves))
    m.set("reduced.diverged", fp_delta.diverged)
    m.set("reduced.ceiling_exits", fp_delta.ceiling_exits)
    solve = tracer.durations(tr.REDUCED)
    m.pct("reduced.solve_us_p50", solve, 50, 1e6)
    m.pct("reduced.solve_us_p99", solve, 99, 1e6)

    # analysis.holistic
    holistic = spans.get(tr.HOLISTIC, [])
    h_attrs = [s[6] or {} for s in holistic]
    solves = sum(a.get("task_solves", 0) for a in h_attrs)
    skips = sum(a.get("task_skips", 0) for a in h_attrs)
    m.set("holistic.outer_rounds", sum(a.get("outer_rounds", 0) for a in h_attrs))
    m.set("holistic.task_solves", solves)
    m.set("holistic.task_skips", skips)
    m.set("holistic.skip_ratio", ratio(skips, solves + skips))
    calls = [(s[4] - s[3]) / 1e9 for s in holistic]
    m.pct("holistic.call_ms_p50", calls, 50, 1e3)
    m.pct("holistic.call_ms_p99", calls, 99, 1e3)
    inner = tracer.child_time({tr.HOLISTIC}, {tr.REDUCED})
    own = [(s[4] - s[3]) / 1e9 - inner.get(s[0], 0.0) for s in holistic]
    m.set("holistic.self_ms_p50", median(own) * 1e3, len(own))

    # analysis.schedulability
    accepts, rejects = fp_delta.prefilter_accepts, fp_delta.prefilter_rejects
    verdict = sum(1 for a in attrs if a.get("mode") == "verdict")
    m.set("schedulability.prefilter_accepts", accepts)
    m.set("schedulability.prefilter_rejects", rejects)
    m.set("schedulability.prefilter_ratio", ratio(accepts + rejects, verdict))
    filters = tracer.child_time(
        {tr.CELL, tr.REQUEST_ANALYZE}, {tr.UTIL_PREFILTER, tr.BOUND_PREFILTER}
    )
    m.pct("schedulability.prefilter_us_p50", list(filters.values()), 50, 1e6)
    analyze = [(s[4] - s[3]) / 1e9 for s in analyses]
    m.pct("schedulability.analyze_ms_p50", analyze, 50, 1e3)
    m.pct("schedulability.analyze_ms_p99", analyze, 99, 1e3)

    # batch.campaign
    cells = [c for r in results for c in r.cells]
    m.set("campaign.cells", len(cells))
    m.set("campaign.inferred_ratio", ratio(
        sum(1 for c in cells if c.extras.get("verdict_inferred")), len(cells)
    ))
    m.set("campaign.warm_ratio",
          ratio(sum(1 for c in cells if c.warm_started), len(cells)))
    cell_s = tracer.durations(tr.CELL)
    m.pct("campaign.cell_ms_p50", cell_s, 50, 1e3)
    m.pct("campaign.cell_ms_p99", cell_s, 99, 1e3)

    # batch.store
    gets = spans.get(tr.STORE_GET, [])
    get_s = [(s[4] - s[3]) / 1e9 for s in gets]
    put_s = tracer.durations(tr.STORE_PUT)
    m.pct("store.get_us_p50", get_s, 50, 1e6)
    m.pct("store.get_us_p99", get_s, 99, 1e6)
    m.pct("store.put_us_p50", put_s, 50, 1e6)
    m.pct("store.put_us_p99", put_s, 99, 1e6)
    m.set("store.hit_ratio", ratio(
        sum(1 for s in gets if (s[6] or {}).get("hit")), len(gets)
    ))
    return m


def overhead_ratio(results: list) -> float:
    """``1 - sum(cell time_s) / (workers x wall)`` over campaign results."""
    busy = sum(c.time_s for r in results for c in r.cells)
    capacity = sum(r.workers * r.wall_time_s for r in results)
    return 1.0 - ratio(busy, capacity)


def run_counters(results: list) -> dict:
    """Machine-independent counters of campaign results (recorded beside
    every wall)."""
    cells = [c for r in results for c in r.cells]
    return {
        "busy.evals": sum(c.evaluations for c in cells),
        "reduced.solves": sum(c.extras.get("fp_solves", 0) for c in cells),
        "holistic.task_solves": sum(
            c.extras.get("fp_task_solves", 0) for c in cells
        ),
        "campaign.cells": len(cells),
        "store.hits": sum(r.store_hits for r in results),
        "store.misses": sum(r.store_misses for r in results),
    }
