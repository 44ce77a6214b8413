"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_narrow --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
its timings scaled to reference CPU speed (:mod:`perfbench.speed`) with
the unscaled ones beside them; ``--trace 1`` runs the workload's traced
variant and prints every per-layer metric (unscaled).  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are a readable table.  The full record of the run (seed, sizes, sample
counts, counters, the workload's reason, failure notes) is written to
``.perfbench_out/<workload>.trace<0|1>.json`` and a traced run's spans
to ``.perfbench_out/<workload>.spans.jsonl``.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    from perfbench import dispatching, serving, sweeps

    return {
        "sweep_narrow": (
            lambda seed, s: sweeps.run(sweeps.narrow, seed, s),
            lambda seed, s: sweeps.run_traced(sweeps.narrow, seed, s),
        ),
        "sweep_wide": (
            lambda seed, s: sweeps.run(sweeps.wide, seed, s),
            lambda seed, s: sweeps.run_traced(sweeps.wide, seed, s),
        ),
        "dispatch_verdict": (dispatching.run, dispatching.run_traced),
        "serve_mixed": (serving.run, serving.run_traced),
    }


def _unit_of(name: str) -> str:
    """Unit of a recorded secondary figure, read off its name."""
    words = name.split("_")
    for word, unit in (("per", "req/s"), ("ms", "ms"), ("s", "s"),
                       ("ratio", "ratio")):
        if word in words:
            return unit
    return "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    # Import perfbench as a package, not its files as top-level modules.
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, schema

    catalog = schema.load(ROOT / "BENCHMARK.json")
    whys = {w["name"]: w["why"] for w in catalog["workloads"]}
    workloads = _workloads()
    if args.workload not in whys or args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(whys)}", file=sys.stderr)
        return 2

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2

    common.fresh_work_dir()
    os.environ["PYTHONPATH"] = str(common.SRC)
    outcome = workloads[args.workload][args.trace](args.seed, args.seconds)
    if args.trace:
        from perfbench.probes import kernel_crossover

        probe, outcome.context["kernel_probe"] = kernel_crossover(
            common.derive_seed(args.seed, "kernel")
        )
        outcome.metrics.update(probe)

    section = catalog["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer a workload does not exercise reports 0 with no samples.
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    tally = outcome.tally
    correct = tally.failed == 0 and tally.attempted > 0
    stem = f"{args.workload}.trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_ratio": tally.failed / max(tally.attempted, 1),
        "failure_notes": tally.notes,
        "metrics": {
            name: {**m, "samples": outcome.samples.get(name)}
            for name, m in metrics.items()
        },
        **outcome.context,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
    }
    if outcome.tracer is not None:
        spans = common.OUT / f"{args.workload}.spans.jsonl"
        record["spans"] = {
            "path": str(spans.relative_to(ROOT)),
            "count": outcome.tracer.dump(spans),
        }
    (common.OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    shutil.rmtree(common.WORK, ignore_errors=True)

    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {whys[args.workload]}")
    for name, m in metrics.items():
        n = outcome.samples.get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}{tail}")
    for name, value in record.get("raw", {}).items():
        print(f"  {'unscaled ' + name:<36} {value:>16.6g} {units[name]}")
    for name, value in record.get("service", {}).items():
        if not isinstance(value, dict):
            print(f"  {name:<36} {value:>16.6g} {_unit_of(name)}")
    print(f"  {'error_ratio':<36} {record['error_ratio']:>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"  failure: {note}")
    print(f"  record: {(common.OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
