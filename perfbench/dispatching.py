"""``dispatch_verdict``: the dispatcher over a half-warm result store.

``CampaignDispatcher`` runs the ``verdict`` method on the reference
shape with 2 local subprocess slots and 4 shards.  Set-up fills a
template store with the cells of the first half of the replicates; every
dispatch starts from a fresh copy of it (copied outside the timed
region), so the store serves reads and takes writes in each dispatch.
Verdict pruning keeps the analysis cheap, so the wall is dominated by
what each shard pays before and after analyzing: spawn, ``import
repro``, spec parse, checkpoint and heartbeat files, polling and merge.
Each dispatch wall is scaled to reference speed by the mean speed of all
CPUs (see :mod:`perfbench.speed`), since its shards may run on any.
"""

from __future__ import annotations

import shutil
import time

from perfbench import layers, speed
from perfbench.common import (
    WORK,
    Deadline,
    Outcome,
    Tally,
    derive_seed,
    median,
    peak_rss_mb,
    percentile,
    repeated_setup,
    setup_seconds,
)
from perfbench.oracle import campaign_mismatch

SLOTS = 2
SHARDS = 4
REPLICATES = 24
TRACED_SHARE = 0.3
#: Fixed poll cadence.  The default adaptive poll doubles while nothing
#: happens, up to the 1 s heartbeat interval, so a shard that runs 0.8 s
#: is noticed at 1.55 s but one that runs 0.74 s at 0.75 s: dispatch
#: walls would jump between two modes on a few percent of shard time.
POLL_S = 0.05


def _spec(seed: int, replicates: int = REPLICATES):
    from repro.batch import CampaignSpec, linspace_levels

    return CampaignSpec(
        grid={"utilization": linspace_levels(0.30, 0.95, 14)},
        base={
            "n_platforms": 3,
            "n_transactions": 4,
            "tasks_per_transaction": (2, 4),
        },
        methods=("verdict",),
        systems_per_cell=replicates,
        seed=derive_seed(seed, "dispatch_verdict"),
    )


def _template(seed: int, i: int):
    """A store holding the cells of the first half of the replicates."""
    from repro.batch import Campaign

    template = WORK / f"template_{i}"
    Campaign(_spec(seed, REPLICATES // 2)).run(workers=1, store=template)
    return template


def _setup(seed: int):
    return repeated_setup(
        lambda i: _template(seed, i),
        lambda t: shutil.rmtree(t, ignore_errors=True),
        "repro",
    )


def _fresh_store(template, name: str):
    store = WORK / name
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(template, store)
    return store


def _dispatch(spec, template, k: int):
    """One timed dispatch over a fresh store copy; ``((t0, t1, wall),
    report)``."""
    from repro.batch import CampaignDispatcher

    store = _fresh_store(template, f"store_{k}")
    work_dir = WORK / f"wd_{k}"
    t0 = time.perf_counter()
    report = CampaignDispatcher(
        spec, shards=SHARDS, workers=SLOTS, work_dir=work_dir,
        store=str(store), poll_interval=POLL_S, poll_max=POLL_S,
    ).run()
    t1 = time.perf_counter()
    shutil.rmtree(work_dir, ignore_errors=True)
    shutil.rmtree(store, ignore_errors=True)
    return (t0, t1, t1 - t0), report


def _check_report(report, spec, k: int, tally: Tally) -> None:
    for shard in report.shards:
        for outcome in shard.attempt_outcomes:
            tally.check(outcome == "completed",
                        f"dispatch {k} shard {shard.shard}: {outcome}")
    if len(report.result.cells) != spec.n_analyses():
        tally.fail(f"dispatch {k}: merged result incomplete", attempted=False)


def _solved_here(cell) -> bool:
    """Cells analyzed by this dispatch (not served from the template)."""
    return (
        cell.replicate >= REPLICATES // 2
        and not cell.extras.get("verdict_inferred")
    )


def run(seed: int, seconds: float) -> Outcome:
    """The untraced run: dispatches back to back for *seconds* of wall."""
    from repro.batch import Campaign

    spec = _spec(seed)
    reference = Campaign(spec).run(workers=1)
    tally = Tally()
    spans, systems = [], []
    counters: dict[str, int] = {"dispatch.attempts": 0}
    with speed.Probes(speed.cpus()) as probes:
        template, setup_spans = _setup(seed)
        while not spans or sum(w for _t0, _t1, w in spans) < seconds:
            k = len(spans)
            span, report = _dispatch(spec, template, k)
            spans.append(span)
            tally.ok()
            _check_report(report, spec, k, tally)
            note = campaign_mismatch(report.result, reference, exact=False)
            if note is not None:
                tally.fail(f"dispatch {k}: {note}", attempted=False)
            systems.append(report.result.n_systems)
            for name, value in layers.run_counters([report.result]).items():
                counters[name] = counters.get(name, 0) + value
            counters["dispatch.attempts"] += sum(
                s.attempts for s in report.shards
            )

    setup_s, setup_walls = setup_seconds(probes, setup_spans)
    walls = [w for _t0, _t1, w in spans]
    factors = [probes.factor(t0, t1) for t0, t1, _w in spans]
    scaled = [w * f for w, f in zip(walls, factors)]
    rates = [n / w for n, w in zip(systems, scaled)]
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "systems_per_s": median(rates),
            "latency_p50_ms": median(scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        samples={"systems_per_s": len(rates), "latency_p50_ms": len(walls)},
        context={
            "sizes": {
                "dispatches": len(walls),
                "systems_per_dispatch": systems[0],
                "shards": SHARDS,
                "slots": SLOTS,
                "replicates": REPLICATES,
                "prefilled_replicates": REPLICATES // 2,
                "poll_s": POLL_S,
                "timed_s": sum(walls),
            },
            "raw": {
                "systems_per_s": median(
                    n / w for n, w in zip(systems, walls)
                ),
                "latency_p50_ms": median(walls) * 1e3,
            },
            "speed": {
                "cpus": probes.cpus,
                "factors": factors,
            },
            "setup_walls_s": setup_walls,
            "counters": counters,
        },
    )


def _dispatch_layer(m, reports, walls) -> None:
    """The dispatch layer of *reports*, medians over dispatches."""
    attempt_walls = [
        w for r in reports for s in r.shards for w in s.attempt_walls
    ]
    busy = [
        sum(w for s in r.shards for w in s.attempt_walls) for r in reports
    ]
    m.set("dispatch.shards", median(len(r.shards) for r in reports))
    m.set("dispatch.attempts",
          median(sum(s.attempts for s in r.shards) for r in reports))
    m.set("dispatch.relaunches", median(r.relaunches for r in reports))
    m.set("dispatch.shard_wall_s_p50", percentile(attempt_walls, 50),
          len(attempt_walls))
    m.set("dispatch.shard_wall_s_max", max(attempt_walls))
    m.set("dispatch.slot_busy_ratio",
          median(b / (SLOTS * w) for b, w in zip(busy, walls)))
    m.set("dispatch.idle_s",
          median(w - b / SLOTS for b, w in zip(busy, walls)))


def run_traced(seed: int, seconds: float) -> Outcome:
    """The traced run: dispatch-layer numbers from ``DispatchReport`` and
    the fixed-cost probe; analysis and store layers from the same
    campaign run inline over a fresh store copy."""
    from repro.batch import Campaign, ResultStore

    from perfbench.probes import fresh_import_s, shard_fixed_s
    from perfbench.tracing import Tracer

    template = _template(seed, 0)
    spec = _spec(seed)
    tally = Tally()
    tracer = Tracer()

    walls, reports = [], []
    with tracer.installed():
        while not walls or sum(walls) < seconds * TRACED_SHARE:
            (_t0, _t1, wall), report = _dispatch(spec, template, len(walls))
            tally.ok()
            _check_report(report, spec, len(walls), tally)
            walls.append(wall)
            reports.append(report)
    tracer.results.clear()  # the inline passes below feed the layers

    def inline(k: int):
        store = _fresh_store(template, f"inline_{k}")
        t0 = time.perf_counter()
        result = Campaign(spec).run(workers=1, store=store)
        return time.perf_counter() - t0, result, store

    # Untraced and traced inline runs over fresh store copies,
    # interleaved so drift and warm-up hit both sides alike.
    untraced, t_untraced, t_traced = [], 0.0, 0.0
    deadline = Deadline(2 * seconds * TRACED_SHARE)
    while not untraced or not deadline.expired():
        wall, result, store = inline(2 * len(untraced))
        shutil.rmtree(store, ignore_errors=True)
        t_untraced += wall
        untraced.append(result)
        with tracer.installed():
            wall, _result, store = inline(2 * len(untraced) + 1)
        t_traced += wall
    disk = ResultStore(store).stats()
    shutil.rmtree(store, ignore_errors=True)
    traced = list(tracer.results)

    reference = Campaign(spec).run(workers=1)
    for k, result in enumerate(traced + untraced):
        tally.check(campaign_mismatch(result, reference, exact=False) is None,
                    f"inline campaign {k} differs from the storeless run")
    for k, report in enumerate(reports):
        note = campaign_mismatch(report.result, reference, exact=False)
        if note is not None:
            tally.fail(f"dispatch {k}: {note}", attempted=False)

    m = layers.fold(tracer, traced)
    m.set("store.entries", disk.entries)
    m.set("store.bytes", disk.bytes)
    _dispatch_layer(m, reports, walls)
    busy_cells = sum(
        c.time_s for r in reports for c in r.result.cells if _solved_here(c)
    )
    m.set("campaign.overhead_ratio",
          1.0 - busy_cells / (SLOTS * sum(walls)))
    m.set("dispatch.import_s",
          median(fresh_import_s("repro") for _ in range(3)))
    fixed, ok = shard_fixed_s(WORK / "probe", _spec(seed, 1).to_dict())
    tally.check(ok, "one-chain shard probe failed")
    m.set("dispatch.shard_fixed_s", fixed)
    m.set("trace.overhead_ratio", t_traced / t_untraced)
    counters = layers.run_counters(traced)
    counters["dispatch.attempts"] = sum(
        s.attempts for r in reports for s in r.shards
    )
    return Outcome(
        metrics=m.values,
        tally=tally,
        samples=m.samples,
        context={
            "sizes": {
                "dispatches": len(reports),
                "inline_campaigns": len(traced),
                "untraced_s": t_untraced,
                "traced_s": t_traced,
            },
            "counters": counters,
        },
        tracer=tracer,
    )
