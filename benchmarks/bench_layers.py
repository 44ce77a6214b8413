"""Layer-by-layer cost of the analysis hot path: the interference layer.

The inner fixed points of every analysis evaluate the interference
functions of Eqs. 8/10/15 through compiled closures
(``repro.analysis.busy``).  This benchmark times that layer on its own and
then the campaign it feeds:

* ``interference.rows`` -- ``compile_w_rows`` closures of 4..128 rows
  (one row per interfering job source);
* ``interference.star`` -- ``compile_w_transaction_star`` (Eq. 15)
  closures of views of 2..14 tasks, i.e. 4..196 (starter, task) jobs;
* for both, the scalar and the vector kernel: ns per evaluation (median
  of repeats over fixed time points) and us per compile (phase cache
  cleared before each compile, as for a fresh view);
* ``interference.crossover_jobs`` -- the smallest job count from which the
  vector kernel stays faster, next to ``VECTOR_MIN_JOBS``, the threshold
  ``kernel="auto"`` compares against;
* ``campaign`` -- an exact Gauss-Seidel sweep over ``wide_view_spec``
  (views of 10-14 tasks) under each kernel: wall, systems/s, the
  evaluation and outer-iteration totals, and the number of W* closures
  compiled (counted at ``repro.analysis.reduced``).

Each tree is measured in fresh subprocesses, ``ROUNDS`` of them (one with
``--quick``), and every figure is the median over the rounds.
``--baseline DIR`` measures another checkout's ``DIR/src`` the same way,
its rounds interleaved with the current tree's so both sample the same
machine phases, and records it beside the current numbers with the
speedups.  The counters (evaluations, outer iterations, W* compiles)
repeat exactly and are machine-independent; the walls are not.

Run:  python benchmarks/bench_layers.py [--quick] [--baseline DIR]
Writes ``BENCH_layers.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_layers.json"

#: Interleaved fresh-process measurements per tree (odd: the median of a
#: counter or a crossover is one of the measured values).
ROUNDS = 3
KERNELS = ("scalar", "vector")
ROW_LADDER = (4, 8, 16, 24, 32, 64, 128)
STAR_TASKS = (2, 3, 4, 5, 6, 8, 10, 12, 14)
T_POINTS = 32


def _eval_ns(fn, points, repeats: int) -> float:
    """Median over *repeats* of the mean ns per call over *points*."""
    loops = 1
    while True:  # size the batch to >= 2 ms
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for t in points:
                fn(t)
        elapsed = time.perf_counter_ns() - t0
        if elapsed >= 2_000_000 or loops >= 1 << 14:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for t in points:
                fn(t)
        samples.append((time.perf_counter_ns() - t0) / (loops * len(points)))
    return statistics.median(samples)


def _compile_us(compile_fn, repeats: int) -> float:
    """Median us per compile, the phase cache cleared before each one."""
    from repro.analysis.busy import clear_phase_cache

    samples = []
    for _ in range(repeats):
        clear_phase_cache()
        t0 = time.perf_counter_ns()
        compile_fn()
        samples.append((time.perf_counter_ns() - t0) / 1e3)
    return statistics.median(samples)


def _crossover(ladder: list[int], ns: dict) -> int:
    """Smallest job count from which vector stays faster (2x the largest
    ladder value when it never wins)."""
    best = 2 * ladder[-1]
    for jobs in reversed(ladder):
        if ns["vector"][jobs] < ns["scalar"][jobs]:
            best = jobs
        else:
            break
    return best


def measure_interference(quick: bool) -> dict:
    from repro.analysis.busy import (
        VECTOR_MIN_JOBS,
        HPTask,
        TransactionView,
        compile_w_rows,
        compile_w_transaction_star,
    )

    repeats = 3 if quick else 7
    rng = random.Random(2006)
    rows_out = {k: {} for k in KERNELS}
    rows_ns = {k: {} for k in KERNELS}
    for jobs in ROW_LADDER[:3] if quick else ROW_LADDER:
        rows = []
        for _ in range(jobs):
            period = rng.uniform(20.0, 500.0)
            rows.append((rng.uniform(0.0, period), rng.randint(0, 1),
                         rng.uniform(0.1, 5.0), period))
        rows = tuple(rows)
        horizon = 2.0 * max(r[3] for r in rows)
        points = [horizon * (i + 0.5) / T_POINTS for i in range(T_POINTS)]
        for kernel in KERNELS:
            ns = _eval_ns(compile_w_rows(rows, kernel=kernel), points, repeats)
            rows_ns[kernel][jobs] = ns
            rows_out[kernel][str(jobs)] = {
                "jobs": jobs,
                "eval_ns": ns,
                "compile_us": _compile_us(
                    lambda: compile_w_rows(rows, kernel=kernel), repeats
                ),
            }

    star_out = {k: {} for k in KERNELS}
    star_ns = {k: {} for k in KERNELS}
    tasks_ladder = STAR_TASKS[:4] if quick else STAR_TASKS
    for n in tasks_ladder:
        period = rng.uniform(20.0, 500.0)
        view = TransactionView(
            period=period,
            tasks=tuple(
                HPTask(phi=rng.uniform(0.0, period),
                       jitter=rng.uniform(0.0, 0.5 * period),
                       cost=rng.uniform(0.1, 5.0), index=j)
                for j in range(n)
            ),
            index=0,
            platform=0,
        )
        points = [4.0 * period * (i + 0.5) / T_POINTS for i in range(T_POINTS)]
        for kernel in KERNELS:
            ns = _eval_ns(
                compile_w_transaction_star(view, kernel=kernel), points, repeats
            )
            star_ns[kernel][n * n] = ns
            star_out[kernel][str(n)] = {
                "jobs": n * n,
                "eval_ns": ns,
                "compile_us": _compile_us(
                    lambda: compile_w_transaction_star(view, kernel=kernel),
                    repeats,
                ),
            }

    return {
        "rows": rows_out,
        "star": star_out,
        "crossover_jobs": {
            "rows": _crossover(sorted(rows_ns["scalar"]), rows_ns),
            "star": _crossover(sorted(star_ns["scalar"]), star_ns),
        },
        "VECTOR_MIN_JOBS": VECTOR_MIN_JOBS,
        "evaluation_points": T_POINTS,
        "repeats": repeats,
    }


def measure_campaign(quick: bool) -> dict:
    import repro.analysis.reduced as reduced
    from repro.analysis import AnalysisConfig
    from repro.batch import (
        Campaign,
        CampaignSpec,
        holistic_method,
        linspace_levels,
        register_method,
    )
    from repro.gen import campaign_base, wide_view_spec

    levels = linspace_levels(0.30, 0.40, 2 if quick else 3)
    systems = 2 if quick else 8
    compile_star = reduced.compile_w_transaction_star
    compiles = 0

    def counting(view, *, kernel):
        nonlocal compiles
        compiles += 1
        return compile_star(view, kernel=kernel)

    out = {
        "spec": {
            "preset": "wide_view_spec",
            "levels": list(levels),
            "systems_per_cell": systems,
            "method": "reduced, update=gauss_seidel, warm-start chains",
        }
    }
    reduced.compile_w_transaction_star = counting
    try:
        for kernel in KERNELS:
            name = f"bench_layers_gs_{kernel}"
            register_method(
                name,
                holistic_method(AnalysisConfig(
                    method="reduced", update="gauss_seidel", kernel=kernel
                )),
                supports_warm_start=True,
            )
            spec = CampaignSpec(
                grid={"utilization": levels},
                base=campaign_base(wide_view_spec()),
                methods=(name,),
                systems_per_cell=systems,
                seed=2006,
            )
            compiles = 0
            result = Campaign(spec).run(workers=1)
            acc = result.accounting()
            out[kernel] = {
                "wall_time_s": result.wall_time_s,
                "systems": result.n_systems,
                "systems_per_second": result.systems_per_second,
                "evaluations_total": acc["evaluations_total"],
                "outer_iterations_total": acc["outer_iterations_total"],
                "star_compiles": compiles,
            }
    finally:
        reduced.compile_w_transaction_star = compile_star
    out["vector_vs_scalar"] = (
        out["scalar"]["wall_time_s"] / out["vector"]["wall_time_s"]
    )
    return out


def _measure(quick: bool) -> dict:
    import numpy

    return {
        "numpy": numpy.__version__,
        "interference": measure_interference(quick),
        "campaign": measure_campaign(quick),
    }


def _median(records: list):
    """Leaf-wise median of equally shaped measurement records."""
    first = records[0]
    if isinstance(first, dict):
        return {key: _median([r[key] for r in records]) for key in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(records)
    return first


def measure(trees: dict[str, Path], quick: bool) -> dict[str, dict]:
    """``tree -> record``, medians over interleaved rounds."""
    runs: dict[str, list] = {tree: [] for tree in trees}
    for _ in range(1 if quick else ROUNDS):
        for tree, src in trees.items():
            runs[tree].append(_run_tree(src, quick))
    return {tree: _median(records) for tree, records in runs.items()}


def _run_tree(src: Path, quick: bool) -> dict:
    """Measure the tree whose package lives in *src*, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, __file__, "--measure", str(src)]
    if quick:
        argv.append("--quick")
    out = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=1800,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _speedups(current: dict, baseline: dict) -> dict:
    """Baseline over current for every wall and per-call figure."""
    out = {}
    for layer in ("rows", "star"):
        for kernel in KERNELS:
            for size, record in current["interference"][layer][kernel].items():
                before = baseline["interference"][layer][kernel].get(size)
                if before is not None:
                    out[f"{layer}.{kernel}.n{record['jobs']}.eval"] = (
                        before["eval_ns"] / record["eval_ns"]
                    )
    for kernel in KERNELS:
        out[f"campaign.{kernel}"] = (
            baseline["campaign"][kernel]["wall_time_s"]
            / current["campaign"][kernel]["wall_time_s"]
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short ladders and a 4-system campaign (CI)")
    parser.add_argument(
        "--baseline", type=Path, metavar="DIR",
        help="another checkout whose src/ is measured the same way",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_JSON, metavar="PATH",
        help="where to write the bench JSON (default: repo root)",
    )
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        sys.path.insert(0, args.measure)
        print(json.dumps(_measure(args.quick)))
        return 0

    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve() / "src"
    results = measure(trees, args.quick)
    current = results["current"]
    payload = {
        "description": "interference-layer closures (ns per evaluation, us "
        "per compile) and a wide-view campaign per kernel; see "
        "benchmarks/bench_layers.py",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "rounds": 1 if args.quick else ROUNDS,
        **current,
    }
    if "baseline" in results:
        payload["baseline"] = results["baseline"]
        payload["speedup"] = _speedups(current, results["baseline"])
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for tree, data in results.items():
        layer = data["interference"]
        for kernel in KERNELS:
            star = " ".join(
                f"n{r['jobs']}:{r['eval_ns']:.0f}"
                for r in layer["star"][kernel].values()
            )
            print(f"{tree:8s} star {kernel:6s} ns/eval {star}")
        print(f"{tree:8s} crossover jobs {layer['crossover_jobs']} "
              f"(VECTOR_MIN_JOBS {layer['VECTOR_MIN_JOBS']})")
        for kernel in KERNELS:
            run = data["campaign"][kernel]
            print(f"{tree:8s} campaign {kernel:6s} "
                  f"{run['systems_per_second']:7.2f} systems/s, "
                  f"{run['evaluations_total']} evaluations, "
                  f"{run['star_compiles']} W* compiles")
    print(f"written {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
