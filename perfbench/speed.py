"""Host speed probes: walls scaled to a reference CPU speed.

On a shared host a vCPU's speed changes by tens of percent within tens
of milliseconds, and for seconds at a time, as other tenants' threads
come and go beside it: within one minute the same campaign reads
anywhere from its fastest wall to twice that.  Medians over a run do not
average such phases out, and a speed sample taken between operations
misses what happens during them.  So while a workload runs, a probe
process pinned to each CPU wakes every :data:`PERIOD_S`, times a short
fixed loop of the benchmark's own code (never the program's) and sleeps
again, about 1% of the CPU.  The speed factor of a timed operation is the
mean, over the samples taken on its CPUs while it ran, of
``REF_PROBE_S / sample``, and::

    wall at reference speed = wall * factor

A slowdown of the host hits the probe and the operation alike and
cancels; a change to the program does not touch the probe, so it shows
in full.  Raw walls are recorded beside the scaled ones.

Run as a script (``python3 perfbench/speed.py CPU``) this module is the
probe: it prints ``ready``, samples until its standard input closes,
then prints its samples as one JSON list of ``[start, seconds]``.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

#: Iterations of the probe loop.
PROBE_N = 150
#: Sleep between two samples of one probe.
PERIOD_S = 0.005
#: Probe-loop seconds at reference speed: about a sample's time on a
#: 2-vCPU x86-64 VM running Python 3.11 while a workload keeps the CPU
#: busy.  It only fixes the scale of the scaled walls.
REF_PROBE_S = 40e-6


def _loop(n: int) -> float:
    """Float arithmetic, branches and dict stores, like the analysis loops."""
    acc = 0.0
    table = {}
    for i in range(n):
        x = (i * 0.618) % 13.0
        acc += x if x > 6.5 else -x
        table[i & 255] = acc
    return acc


def cpus() -> list:
    """The CPUs this process may run on (``[None]`` where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def pin(cpu_set) -> None:
    """Pin the calling thread (and the threads and children it starts)."""
    if hasattr(os, "sched_setaffinity") and None not in cpu_set:
        os.sched_setaffinity(0, set(cpu_set))


class Probes:
    """One probe process per CPU, from construction until :meth:`close`.

    Use as a context manager; factors are available once it is closed.
    """

    def __init__(self, cpu_set):
        self.cpus = list(cpu_set)
        self.samples: dict = {}
        self._starts: dict = {}
        self._procs = []
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__),
                     "any" if cpu is None else str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                )
                self._procs.append((cpu, proc))
                if proc.stdout.readline().strip() != b"ready":
                    raise RuntimeError(f"speed probe on CPU {cpu} failed")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop every probe and collect its samples."""
        procs, self._procs = self._procs, []
        for cpu, proc in procs:
            try:
                out, _ = proc.communicate(timeout=30)
                self.samples[cpu] = json.loads(out or b"[]")
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()
                self.samples[cpu] = []
            self._starts[cpu] = [s[0] for s in self.samples[cpu]]

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def factor(self, t0: float, t1: float, cpu_set=None) -> float:
        """Mean reference-relative speed of *cpu_set* (default: every
        probed CPU) over ``[t0, t1]`` of ``time.perf_counter``."""
        speeds = []
        for cpu in self.cpus if cpu_set is None else cpu_set:
            samples, starts = self.samples[cpu], self._starts[cpu]
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_right(starts, t1)
            if hi - lo < 2:  # too short to sample: the nearest samples
                lo, hi = max(lo - 2, 0), min(hi + 2, len(samples))
            speeds.extend(REF_PROBE_S / s[1] for s in samples[lo:hi])
        if not speeds:
            raise RuntimeError("no speed samples were taken")
        return statistics.fmean(speeds)

    def scale(self, spans, cpu_set=None) -> list[float]:
        """Walls at reference speed of ``(t0, t1, wall)`` spans."""
        return [wall * self.factor(t0, t1, cpu_set) for t0, t1, wall in spans]


def _probe(cpu) -> None:
    if cpu is not None:
        pin([cpu])
    _loop(PROBE_N)
    samples = []
    stdin = sys.stdin.fileno()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not select.select([stdin], [], [], PERIOD_S)[0]:
        t0 = time.perf_counter()
        _loop(PROBE_N)
        samples.append((t0, time.perf_counter() - t0))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _probe(None if sys.argv[1] == "any" else int(sys.argv[1]))
