"""Layer probes: the kernel crossover and the per-shard fixed cost.

* :func:`kernel_crossover` times the scalar and the NumPy vector closures
  that ``repro.analysis.busy.compile_w_rows`` and
  ``compile_w_transaction_star`` build, on synthetic views across a
  ladder of job counts (a job is one (starter, task) pair one evaluation
  touches -- the quantity ``kernel="auto"`` compares against
  ``VECTOR_MIN_JOBS``).
* :func:`fresh_import_s` and :func:`shard_fixed_s` time what every
  dispatched shard pays before it analyzes anything: a fresh interpreter
  importing ``repro``, and a whole one-chain ``python -m repro campaign
  --shard`` subprocess.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import child_env, median

#: Row counts of the flat ``compile_w_rows`` closures.
ROW_LADDER = (4, 8, 16, 24, 32, 64, 128)
#: Task counts of the ``compile_w_transaction_star`` views (jobs = n * n).
STAR_TASKS = (2, 3, 4, 5, 6, 8, 11)
KERNELS = ("scalar", "vector")
_T_POINTS = 32
_REPEATS = 5
_MIN_BATCH_NS = 2_000_000


def _ns_per_call(fn, points: list[float]) -> float:
    """Median over repeats of the mean ns per closure call."""
    for t in points:
        fn(t)
    loops = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for t in points:
                fn(t)
        elapsed = time.perf_counter_ns() - t0
        if elapsed >= _MIN_BATCH_NS or loops >= 1 << 16:
            break
        loops *= 2
    samples = [elapsed / (loops * len(points))]
    for _ in range(_REPEATS - 1):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for t in points:
                fn(t)
        samples.append((time.perf_counter_ns() - t0) / (loops * len(points)))
    return median(samples)


def _crossover(ladder: list[int], ns: dict) -> int:
    """Smallest job count from which the vector kernel stays faster.

    Returns twice the largest ladder value when it never wins.
    """
    best = 2 * ladder[-1]
    for jobs in reversed(ladder):
        if ns[("vector", jobs)] < ns[("scalar", jobs)]:
            best = jobs
        else:
            break
    return best


def kernel_crossover(seed: int) -> tuple[dict, dict]:
    """``(metrics, context)`` of the kernel probe on seeded synthetic views."""
    from repro.analysis.busy import (
        VECTOR_MIN_JOBS,
        HPTask,
        TransactionView,
        compile_w_rows,
        compile_w_transaction_star,
    )

    rng = random.Random(seed)
    metrics: dict[str, float] = {}

    rows_ns: dict = {}
    for jobs in ROW_LADDER:
        rows = []
        for _ in range(jobs):
            period = rng.uniform(20.0, 500.0)
            rows.append(
                (rng.uniform(0.0, period), rng.randint(0, 1),
                 rng.uniform(0.1, 5.0), period)
            )
        rows = tuple(rows)
        horizon = 2.0 * max(r[3] for r in rows)
        points = [horizon * (i + 0.5) / _T_POINTS for i in range(_T_POINTS)]
        for kernel in KERNELS:
            ns = _ns_per_call(compile_w_rows(rows, kernel=kernel), points)
            rows_ns[(kernel, jobs)] = ns
            metrics[f"busy.eval_ns.{kernel}.n{jobs}"] = ns

    star_ns: dict = {}
    star_jobs = [n * n for n in STAR_TASKS]
    for n in STAR_TASKS:
        period = rng.uniform(20.0, 500.0)
        view = TransactionView(
            period=period,
            tasks=tuple(
                HPTask(
                    phi=rng.uniform(0.0, period),
                    jitter=rng.uniform(0.0, 0.5 * period),
                    cost=rng.uniform(0.1, 5.0),
                    index=j,
                )
                for j in range(n)
            ),
            index=0,
            platform=0,
        )
        points = [
            2.0 * period * (i + 0.5) / _T_POINTS for i in range(_T_POINTS)
        ]
        for kernel in KERNELS:
            fn = compile_w_transaction_star(view, kernel=kernel)
            ns = _ns_per_call(fn, points)
            star_ns[(kernel, n * n)] = ns
            metrics[f"busy.eval_ns.{kernel}.star.n{n * n}"] = ns

    metrics["busy.crossover_jobs"] = _crossover(list(ROW_LADDER), rows_ns)
    metrics["busy.crossover_jobs.star"] = _crossover(star_jobs, star_ns)
    context = {
        "VECTOR_MIN_JOBS": VECTOR_MIN_JOBS,
        "row_ladder": list(ROW_LADDER),
        "star_ladder_jobs": star_jobs,
        "evaluation_points": _T_POINTS,
        "repeats": _REPEATS,
        "crossover_note": "twice the largest ladder value means the vector "
        "kernel never won on the ladder",
    }
    return metrics, context


_IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t0)"
)


def fresh_import_s(module: str = "repro") -> float:
    """Seconds a fresh interpreter spends importing *module*."""
    snippet = _IMPORT_SNIPPET.replace("import repro;", f"import {module};")
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        env=child_env(), capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def shard_fixed_s(work: Path, spec_dict: dict, repeats: int = 3) -> tuple:
    """``(median wall, ok)`` of a one-chain ``--shard 0/1`` subprocess."""
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / "one_chain_spec.json"
    spec_path.write_text(json.dumps(spec_dict))
    walls = []
    ok = True
    for k in range(repeats):
        out = work / f"one_chain_{k}.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign",
                "--spec", str(spec_path), "--shard", "0/1",
                "--workers", "1", "--json", str(out),
            ],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0 and out.exists()
    return median(walls), ok
