"""Shared plumbing: checkout paths, seeds, percentiles, memory, the tally.

Everything the benchmark writes lives under two git-ignored directories
of the checkout: ``.perfbench_work`` (scratch stores, work dirs, server
logs; wiped at the start of every run) and ``.perfbench_out`` (the
recorded context and span dump of the latest run of each workload).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def derive_seed(seed: int, *tags: object) -> int:
    """A 63-bit seed derived from the workload seed and *tags*."""
    text = ":".join(str(t) for t in (seed, *tags))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def fresh_work_dir() -> Path:
    """Empty the scratch directory and point temp files into it."""
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    import tempfile

    tempfile.tempdir = str(WORK / "tmp")
    return WORK


def child_env(**extra: str) -> dict:
    """Environment for a ``python -m repro`` child of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation; 0.0 if empty."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else 0.0


def tail_samples(n: int, q: float) -> int:
    """Samples strictly beyond the *q*-th percentile of *n* samples."""
    return n - math.ceil(n * q / 100.0)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str, *, attempted: bool = True) -> None:
        if attempted:
            self.attempted += 1
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, condition: bool, note: str) -> bool:
        """Count one operation; a false *condition* is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(note)
        return condition


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float]
    tally: Tally
    #: Sample count behind each percentile or median metric.
    samples: dict[str, int] = field(default_factory=dict)
    #: Run sizes, counters and secondary figures recorded with the result.
    context: dict = field(default_factory=dict)
    #: The tracer of a traced run (its spans are dumped at exit).
    tracer: object | None = None


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def repeated_setup(build, discard, import_module: str):
    """Run a workload's set-up :data:`SETUP_REPEATS` times.

    Each set-up is a fresh interpreter importing *import_module* plus
    ``build(i)`` in this process; every state but the last is passed to
    ``discard``.  Returns ``(last state, spans)`` with one ``(t0, t1,
    seconds)`` per set-up, for :func:`setup_seconds`.
    """
    from perfbench.probes import fresh_import_s

    spans = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            discard(state)
        t0 = time.perf_counter()
        imported = fresh_import_s(import_module)
        t_build = time.perf_counter()
        state = build(i)
        t1 = time.perf_counter()
        spans.append((t0, t1, imported + t1 - t_build))
    return state, spans


def setup_seconds(probes, spans) -> tuple[float, dict]:
    """``setup_s`` (the median set-up at reference speed over every CPU:
    set-up spawns processes that may run on any) and the walls behind it."""
    scaled = probes.scale(spans)
    return median(scaled), {"raw": [s[2] for s in spans], "scaled": scaled}


class Deadline:
    """Wall-clock budget of the timed region."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end
