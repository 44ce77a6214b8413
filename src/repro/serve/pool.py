"""The persistent worker pool and the job runner threads.

Two layers of concurrency, deliberately separate:

* **Runner threads** (``job_runners`` of them) pull jobs off a *bounded*
  queue and execute one campaign each, start to finish.  The queue bound
  is the admission-control surface: ``POST /campaigns`` tries a
  non-blocking put and answers ``429`` on overflow, so a burst degrades
  into rejected submissions instead of unbounded memory.
* **The process pool** (``pool_workers`` processes) is one shared
  :class:`~concurrent.futures.ProcessPoolExecutor` passed into every
  :meth:`Campaign.run` call via its ``executor`` seam.  It is created
  once and *never* torn down between jobs -- worker processes keep their
  driver caches (compiled-W closures, phase memos, projection memos)
  warm, which is the whole point of running a service instead of a CLI
  process per request.  With ``pool_workers == 1`` campaigns run inline
  in the runner thread and the same caches amortize in the server
  process itself.

``backend="dispatch"`` jobs bypass the in-process pool and hand the spec
to :class:`~repro.batch.dispatch.CampaignDispatcher` -- subprocess
shards, work stealing, relaunches that serve finished chains from the
service's store when it has one -- under a per-job work dir in the
service spool.  That is the path for sweeps too large to hold
in one pool; the result folds back through the same registry.
"""

from __future__ import annotations

import queue
import shutil
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

from repro.batch.campaign import Campaign, CampaignResult, CampaignSpec
from repro.batch.store import ResultStore
from repro.serve.jobs import Job, JobRegistry
from repro.serve.schemas import canonical_result_json

__all__ = ["WorkerPool"]

_STOP = object()


class WorkerPool:
    """Runs registry jobs on a persistent pool; owns the bounded queue."""

    def __init__(
        self,
        registry: JobRegistry,
        *,
        pool_workers: int = 2,
        job_runners: int = 1,
        max_queue: int = 8,
        store: str | Path | None = None,
        spool_dir: str | Path | None = None,
        dispatch_workers: int = 2,
        dispatch_shards: int | None = None,
        job_gate: Callable[[Job], None] | None = None,
    ):
        if pool_workers < 1:
            raise ValueError("pool_workers must be >= 1")
        if job_runners < 1:
            raise ValueError("job_runners must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.registry = registry
        self.pool_workers = pool_workers
        self.job_runners = job_runners
        self.max_queue = max_queue
        self.dispatch_workers = dispatch_workers
        self.dispatch_shards = dispatch_shards
        #: Test seam: called in the runner thread right before a job
        #: executes.  Lets the admission-control tests hold a runner on a
        #: threading.Event so queue overflow is deterministic, without
        #: faking slow campaigns.
        self.job_gate = job_gate
        self.store = ResultStore(store) if store is not None else None
        self._own_spool = spool_dir is None
        self._spool = Path(
            tempfile.mkdtemp(prefix="repro-serve-")
            if spool_dir is None
            else spool_dir
        )
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._lock = threading.Lock()
        self._busy = 0
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._runner_loop,
                name=f"repro-serve-runner-{i}",
                daemon=True,
            )
            for i in range(job_runners)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ---------------------------------------------------------

    def try_submit(self, job: Job) -> bool:
        """Queue *job*; False when the bounded queue is full (-> 429)."""
        try:
            self._queue.put_nowait(job)
            return True
        except queue.Full:
            return False

    # -- execution ---------------------------------------------------------

    def _shared_executor(self) -> ProcessPoolExecutor | None:
        """The persistent executor, created on first pool-backed job."""
        if self.pool_workers == 1:
            return None  # inline: caches amortize in the server process
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.pool_workers
                )
            return self._executor

    def _run_pool_job(self, spec: CampaignSpec) -> CampaignResult:
        return Campaign(spec).run(
            workers=self.pool_workers,
            executor=self._shared_executor(),
            store=self.store,
        )

    def _run_dispatch_job(self, job: Job, spec: CampaignSpec) -> CampaignResult:
        from repro.batch.dispatch import CampaignDispatcher

        work_dir = self._spool / job.id
        report = CampaignDispatcher(
            spec,
            workers=self.dispatch_workers,
            shards=self.dispatch_shards,
            work_dir=work_dir,
            store=str(self.store.root) if self.store is not None else None,
        ).run()
        shutil.rmtree(work_dir, ignore_errors=True)
        return report.result

    def _runner_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP or self._closed:
                return
            # Busy from the moment the job leaves the queue: a runner
            # held at the test gate still occupies its slot, which is
            # what admission control (and /stats) must reflect.
            with self._lock:
                self._busy += 1
            try:
                if self.job_gate is not None:
                    self.job_gate(job)
                self.registry.mark_running(job.id)
                spec = CampaignSpec.from_dict(job.spec_dict)
                if job.backend == "dispatch":
                    result = self._run_dispatch_job(job, spec)
                else:
                    result = self._run_pool_job(spec)
                self.registry.mark_done(
                    job.id, result, canonical_result_json(result)
                )
            except Exception as exc:  # a failed job must not kill the runner
                self.registry.mark_failed(
                    job.id, f"{type(exc).__name__}: {exc}"
                )
            finally:
                with self._lock:
                    self._busy -= 1
                self._queue.task_done()

    # -- introspection -----------------------------------------------------

    def occupancy(self) -> dict:
        """The ``pool`` block of ``GET /stats``."""
        with self._lock:
            busy = self._busy
            started = self._executor is not None
        return {
            "pool_workers": self.pool_workers,
            "job_runners": self.job_runners,
            "busy_runners": busy,
            "queue_depth": self._queue.qsize(),
            "max_queue": self.max_queue,
            "executor_started": started,
        }

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop the runners and the executor; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            try:
                # Best-effort: a queue still full of admitted jobs keeps
                # its runners draining; they see _closed after the
                # current job and the threads are daemonic regardless.
                self._queue.put_nowait(_STOP)
            except queue.Full:
                break
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if self._own_spool:
            shutil.rmtree(self._spool, ignore_errors=True)
