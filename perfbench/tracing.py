"""In-memory spans around the program's public entry points.

The traced run wraps module attributes of the program (nothing under
``src/`` is edited) so that every call records a span: name, start, end,
parent span and a correlation id.  A campaign cell (one
``repro.batch.methods.analyze`` call) and a service request each open a
new correlation id that their nested spans inherit.  Spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

_FAILED = object()

#: Span names, one per wrapped entry point.
CELL = "methods.analyze"
REQUEST_ANALYZE = "app.analyze"
UTIL_PREFILTER = "schedulability.utilization_prefilter"
BOUND_PREFILTER = "schedulability.response_bound_prefilter"
HOLISTIC = "holistic.holistic_analysis"
REDUCED = "reduced.response_time_reduced"
STORE_GET = "store.get"
STORE_PUT = "store.put"
PARSE = "serve.parse"
HASH = "serve.hash"
CAMPAIGN_RUN = "campaign.run"
DISPATCH_RUN = "dispatch.run"
REQUEST = "serve.request"


class Tracer:
    """Collects spans and kernel-choice counts while installed."""

    def __init__(self) -> None:
        #: ``(id, parent, name, start_ns, end_ns, correlation, attrs)``.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Return values of ``Campaign.run`` / ``CampaignDispatcher.run``.
        self.results: list = []
        #: Fixed-point accounting accumulated while installed.
        self.fp = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, unit=False, before=None, after=None):
        """*fn* recording a span per call.

        ``unit`` opens a new correlation id; ``before(args, kwargs)``
        returns state handed to ``after(args, kwargs, result, state)``,
        whose return value becomes the span's attributes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            corr = sid if unit or parent is None else parent[1]
            state = before(args, kwargs) if before is not None else None
            stack.append((sid, corr))
            result = _FAILED
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                attrs = None
                if after is not None and result is not _FAILED:
                    attrs = after(args, kwargs, result, state)
                elif result is _FAILED:
                    attrs = {"error": True}
                tracer.spans.append(
                    (sid, parent[0] if parent else None, name, t0, t1, corr,
                     attrs)
                )

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` in a span with its own correlation id."""
        return self.wrap(name, fn, unit=True)(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Wrap the program's entry points for the duration of the block,
        adding the block's ``fixed_point_stats()`` delta to :attr:`fp`."""
        from repro.util.fixedpoint import fixed_point_stats

        patches = _patches(self)
        saved = []
        before = fixed_point_stats()
        try:
            for owner, attr, new in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)
            delta = fixed_point_stats().delta(before)
            if self.fp is None:
                self.fp = delta
            else:
                for f in dataclasses.fields(delta):
                    setattr(self.fp, f.name, getattr(self.fp, f.name)
                            + getattr(delta, f.name))

    # -- views -------------------------------------------------------------

    def by_name(self) -> dict[str, list[tuple]]:
        groups: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            groups[span[2]].append(span)
        return groups

    def durations(self, *names: str) -> list[float]:
        """Durations in seconds of every span with one of *names*."""
        wanted = set(names)
        return [
            (s[4] - s[3]) / 1e9 for s in self.spans if s[2] in wanted
        ]

    def child_time(self, parents: set[str], children: set[str]) -> dict:
        """Parent span id -> summed seconds of its direct *children*."""
        parent_ids = {s[0] for s in self.spans if s[2] in parents}
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2] in children and s[1] in parent_ids:
                out[s[1]] += (s[4] - s[3]) / 1e9
        return out

    def dump(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, t0, t1, corr, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "correlation": corr,
                            "attrs": attrs,
                        }
                    )
                )
                handle.write("\n")
        return len(self.spans)


def _analyze_before(args, kwargs):
    from repro.analysis.busy import phase_cache_stats

    return phase_cache_stats()


def _analyze_after(args, kwargs, result, state):
    from repro.analysis.busy import phase_cache_stats

    hits, misses = phase_cache_stats()
    config = kwargs.get("config")
    mode = getattr(config, "mode", None) or kwargs.get("mode") or "exact"
    attrs = {"mode": mode, "prefilter": result.prefilter}
    # The campaign engine clears the phase cache before each cell; a
    # concurrent clear (service runner thread) shows up as a negative
    # delta and is left out.
    if hits >= state[0] and misses >= state[1]:
        attrs["phase_hits"] = hits - state[0]
        attrs["phase_misses"] = misses - state[1]
    return attrs


def _holistic_after(args, kwargs, result, state):
    return {
        "outer_rounds": result.outer_iterations,
        "task_solves": result.task_solves,
        "task_skips": result.task_skips,
    }


def _store_get_after(args, kwargs, result, state):
    return {"hit": result is not None}


def _patches(tracer: Tracer) -> list[tuple]:
    """``(owner, attribute, replacement)`` for every wrapped entry point."""
    import repro.analysis.busy as busy
    import repro.analysis.holistic as holistic
    import repro.analysis.schedulability as schedulability
    import repro.batch.methods as methods
    import repro.serve.app as app
    from repro.batch.campaign import Campaign
    from repro.batch.dispatch import CampaignDispatcher
    from repro.batch.store import ResultStore
    from repro.serve.schemas import AnalyzeRequest

    w = tracer.wrap
    resolve = busy.resolve_kernel

    def counted_resolve(kernel, batch_jobs):
        choice = resolve(kernel, batch_jobs)
        tracer.counts[choice] += 1
        return choice

    def keep_result(args, kwargs, result, state):
        tracer.results.append(result)
        return None

    parse = AnalyzeRequest.__dict__["parse"].__func__
    return [
        (methods, "analyze", w(CELL, methods.analyze, unit=True,
                               before=_analyze_before, after=_analyze_after)),
        (app, "analyze", w(REQUEST_ANALYZE, app.analyze,
                           before=_analyze_before, after=_analyze_after)),
        (schedulability, "utilization_prefilter",
         w(UTIL_PREFILTER, schedulability.utilization_prefilter)),
        (schedulability, "response_bound_prefilter",
         w(BOUND_PREFILTER, schedulability.response_bound_prefilter)),
        (schedulability, "holistic_analysis",
         w(HOLISTIC, schedulability.holistic_analysis,
           after=_holistic_after)),
        (holistic, "response_time_reduced",
         w(REDUCED, holistic.response_time_reduced)),
        (ResultStore, "get",
         w(STORE_GET, ResultStore.get, after=_store_get_after)),
        (ResultStore, "put", w(STORE_PUT, ResultStore.put)),
        (AnalyzeRequest, "parse", classmethod(w(PARSE, parse))),
        (app, "system_hash", w(HASH, app.system_hash)),
        (app, "analysis_config_hash", w(HASH, app.analysis_config_hash)),
        (Campaign, "run",
         w(CAMPAIGN_RUN, Campaign.run, after=keep_result)),
        (CampaignDispatcher, "run",
         w(DISPATCH_RUN, CampaignDispatcher.run, after=keep_result)),
        (busy, "resolve_kernel", counted_resolve),
    ]
