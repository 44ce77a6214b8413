"""``sweep_narrow`` and ``sweep_wide``: exact utilization sweeps.

Both run the exact ``gauss_seidel`` method with warm-start chaining over
a utilization ladder.  ``sweep_narrow`` uses the reference shape (3
platforms, 4 transactions of 2-4 tasks) on a 2-worker pool, where
``kernel="auto"`` keeps the scalar interference kernel; ``sweep_wide``
uses ``wide_view_spec`` (1 platform, 3 transactions of 10-14 tasks)
inline, where it selects the NumPy vector kernel.  Every campaign of a
run draws fresh systems from a seed derived from the workload seed.

Each campaign wall is scaled to reference CPU speed (see
:mod:`perfbench.speed`): the inline sweep runs pinned to one CPU and is
scaled by that CPU's speed, the pooled sweep by the mean speed of all.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from perfbench import layers, speed
from perfbench.common import (
    Deadline,
    Outcome,
    Tally,
    derive_seed,
    median,
    peak_rss_mb,
    repeated_setup,
    setup_seconds,
)
from perfbench.oracle import campaign_mismatch

#: Campaigns of a run whose cells are re-derived by the reference, drawn
#: from the first ORACLE_POOL campaigns (every run completes those).
ORACLE_SAMPLE = 2
ORACLE_POOL = 4
#: Share of ``--seconds`` the traced run spends on each in-process pass.
TRACED_SHARE = 0.3


@dataclass(frozen=True)
class Sweep:
    name: str
    base: dict
    levels: tuple
    replicates: int
    workers: int
    #: Reference method: the same fixed point on the scalar kernel (wide)
    #: or the same method inline (narrow).
    reference_method: str
    #: WCRT agreement required of the reference: bit-identical for the
    #: same kernel, the analysis tolerance across kernels.
    reference_rel_tol: float = 0.0


def narrow() -> Sweep:
    from repro.batch import linspace_levels

    return Sweep(
        name="sweep_narrow",
        base={
            "n_platforms": 3,
            "n_transactions": 4,
            "tasks_per_transaction": (2, 4),
        },
        levels=linspace_levels(0.30, 0.95, 14),
        replicates=12,
        workers=2,
        reference_method="gauss_seidel",
    )


def wide() -> Sweep:
    from repro.batch import linspace_levels
    from repro.gen import campaign_base, wide_view_spec

    return Sweep(
        name="sweep_wide",
        base=campaign_base(wide_view_spec()),
        levels=linspace_levels(0.30, 0.40, 2),
        replicates=8,
        workers=1,
        reference_method=_scalar_reference_method(),
        reference_rel_tol=1e-9,
    )


def _scalar_reference_method() -> str:
    """Register the exact ``gauss_seidel`` fixed point on the scalar kernel."""
    from repro.analysis import AnalysisConfig
    from repro.batch import holistic_method, register_method

    name = "perfbench_gauss_seidel_scalar"
    register_method(
        name,
        holistic_method(
            AnalysisConfig(method="reduced", update="gauss_seidel",
                           kernel="scalar")
        ),
        supports_warm_start=True,
    )
    return name


def _spec(sweep: Sweep, seed: int, k: int, method: str = "gauss_seidel"):
    from repro.batch import CampaignSpec

    return CampaignSpec(
        grid={"utilization": sweep.levels},
        base=sweep.base,
        methods=(method,),
        systems_per_cell=sweep.replicates,
        seed=derive_seed(seed, sweep.name, k),
    )


def _run(spec, workers: int):
    from repro.batch import Campaign

    t0 = time.perf_counter()
    result = Campaign(spec).run(workers=workers)
    return time.perf_counter() - t0, result


def _check_against_reference(sweep, seed, indices, results, tally) -> None:
    for k in indices:
        _wall, ref = _run(_spec(sweep, seed, k, sweep.reference_method), 1)
        note = campaign_mismatch(results[k], ref, exact=True,
                                 rel_tol=sweep.reference_rel_tol)
        if note is not None:
            tally.fail(f"campaign {k}: {note}", attempted=False)


def _setup(sweep_factory):
    def build(_i):
        return sweep_factory()

    return repeated_setup(build, lambda _s: None, "repro")


def run(sweep_factory, seed: int, seconds: float) -> Outcome:
    """The untraced run: campaigns back to back for *seconds*.

    Only the results the oracle re-derives are kept, so memory does not
    grow with the number of campaigns a run fits in.
    """
    picks = sorted(random.Random(seed).sample(range(ORACLE_POOL), ORACLE_SAMPLE))
    tally = Tally()
    spans, systems, kept = [], [], {}
    counters: dict[str, int] = {}
    with speed.Probes(speed.cpus()) as probes:
        sweep, setup_spans = _setup(sweep_factory)
        op_cpus = probes.cpus
        if sweep.workers == 1:
            op_cpus = op_cpus[:1]
            speed.pin(op_cpus)
        deadline = Deadline(seconds)
        while len(spans) < ORACLE_POOL or not deadline.expired():
            k = len(spans)
            spec = _spec(sweep, seed, k)
            t0 = time.perf_counter()
            wall, result = _run(spec, sweep.workers)
            spans.append((t0, time.perf_counter(), wall))
            tally.check(len(result.cells) == spec.n_analyses(),
                        f"campaign {k}: incomplete")
            systems.append(result.n_systems)
            for name, value in layers.run_counters([result]).items():
                counters[name] = counters.get(name, 0) + value
            if k in picks:
                kept[k] = result
        timed = time.perf_counter() - deadline.start
    _check_against_reference(sweep, seed, picks, kept, tally)

    setup_s, setup_walls = setup_seconds(probes, setup_spans)
    walls = [w for _t0, _t1, w in spans]
    factors = [probes.factor(t0, t1, op_cpus) for t0, t1, _w in spans]
    scaled = [w * f for w, f in zip(walls, factors)]
    # Campaigns differ in cost (fresh systems each), so the rate is the
    # run's total over its total scaled wall, not a median of rates.
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "systems_per_s": sum(systems) / sum(scaled),
            "latency_p50_ms": median(scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        samples={"systems_per_s": sum(systems), "latency_p50_ms": len(walls)},
        context={
            "sizes": {
                "campaigns": len(walls),
                "systems_per_campaign": systems[0],
                "levels": list(sweep.levels),
                "replicates": sweep.replicates,
                "workers": sweep.workers,
                "timed_s": timed,
                "oracle_campaigns": picks,
            },
            "raw": {
                "systems_per_s": sum(systems) / sum(walls),
                "latency_p50_ms": median(walls) * 1e3,
            },
            "speed": {
                "cpus": op_cpus,
                "factors": factors,
            },
            "setup_walls_s": setup_walls,
            "counters": counters,
        },
    )


def run_traced(sweep_factory, seed: int, seconds: float) -> Outcome:
    """The traced run: per-layer numbers from in-process passes."""
    from perfbench.tracing import Tracer

    sweep = sweep_factory()
    tally = Tally()

    # Workload-shaped pass (pool for the narrow sweep): collection and
    # chaining overhead only shows with the real worker count.
    shaped = []
    deadline = Deadline(seconds * TRACED_SHARE)
    while not shaped or not deadline.expired():
        shaped.append(_run(_spec(sweep, seed, len(shaped)), sweep.workers)[1])

    # Untraced and traced inline runs of the same campaigns, interleaved
    # so drift and warm-up hit both sides alike.
    tracer = Tracer()
    untraced, t_untraced, t_traced = [], 0.0, 0.0
    deadline = Deadline(2 * seconds * TRACED_SHARE)
    while not untraced or not deadline.expired():
        spec = _spec(sweep, seed, len(untraced))
        wall, result = _run(spec, 1)
        t_untraced += wall
        untraced.append(result)
        with tracer.installed():
            t_traced += _run(spec, 1)[0]
    traced = list(tracer.results)

    for k, (a, b) in enumerate(zip(traced, untraced)):
        tally.check(campaign_mismatch(a, b, exact=True) is None,
                    f"traced campaign {k} differs from untraced")
    for k, (a, b) in enumerate(zip(shaped, untraced)):
        tally.check(campaign_mismatch(a, b, exact=True) is None,
                    f"{sweep.workers}-worker campaign {k} differs from inline")

    m = layers.fold(tracer, traced)
    m.set("campaign.overhead_ratio", layers.overhead_ratio(shaped))
    m.set("trace.overhead_ratio", t_traced / t_untraced)
    return Outcome(
        metrics=m.values,
        tally=tally,
        samples=m.samples,
        context={
            "sizes": {
                "shaped_campaigns": len(shaped),
                "traced_campaigns": len(traced),
                "workers_shaped": sweep.workers,
                "workers_traced": 1,
                "untraced_s": t_untraced,
                "traced_s": t_traced,
            },
            "counters": layers.run_counters(traced),
        },
        tracer=tracer,
    )
