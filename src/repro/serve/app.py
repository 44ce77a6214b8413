"""The ASGI application: routing, admission control, JSON plumbing.

Hand-rolled ASGI rather than FastAPI: the framework would be the only
third-party dependency of the subsystem, and the protocol surface we
need -- http scope, one body read, one response send, lifespan no-ops --
is ~60 lines.  The app runs unchanged under uvicorn (when installed),
under the stdlib bridge in :mod:`repro.serve.server`, and under the
in-process :class:`~repro.serve.testclient.TestClient`.

Endpoint map (all bodies JSON):

====== ============================ =========================================
POST   ``/analyze``                 sync single-system analysis
POST   ``/campaigns``               submit a campaign -> async job handle
GET    ``/campaigns``               list known jobs
GET    ``/campaigns/{id}``          job status + accounting
GET    ``/campaigns/{id}/result``   canonical merged result (when done)
GET    ``/healthz``                 liveness
GET    ``/stats``                   uptime, pool occupancy, store totals
====== ============================ =========================================

Admission control: a campaign whose spec plans more than
``max_cells_per_job`` analyses is refused outright with ``413`` (no job
is created), and when the bounded job queue is full the submission gets
``429`` with a ``Retry-After`` header while already-admitted jobs keep
running -- the service degrades by shedding load, never by falling over.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro import __version__
from repro.analysis import analyze
from repro.batch.canonical import analysis_config_hash, system_hash
from repro.batch.store import StoreKey
from repro.serve.jobs import DONE, FAILED, Job, JobRegistry
from repro.serve.pool import WorkerPool
from repro.serve.schemas import (
    AnalyzeRequest,
    CampaignRequest,
    ValidationError,
)

__all__ = ["ReproServeApp", "ServeConfig", "create_app"]

_JOB_PATH = re.compile(r"^/campaigns/([A-Za-z0-9_-]+)$")
_JOB_RESULT_PATH = re.compile(r"^/campaigns/([A-Za-z0-9_-]+)/result$")


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    #: Content-addressed result store root (``--store``); None disables
    #: cross-request/cross-process result caching.
    store: str | Path | None = None
    #: Persistent process-pool size for campaign jobs; 1 runs campaigns
    #: inline in the runner thread (caches amortize in-process).
    pool_workers: int = 2
    #: Concurrent campaign jobs (runner threads).
    job_runners: int = 1
    #: Bounded job-queue length; overflow answers 429 + Retry-After.
    max_queue: int = 8
    #: Per-request ceiling on planned analyses (spec cells x methods);
    #: larger submissions answer 413.
    max_cells_per_job: int = 20_000
    #: Seconds advertised in the 429 Retry-After header.
    retry_after_s: float = 2.0
    #: Finished jobs retained for status/result polling.
    max_finished_jobs: int = 256
    #: ``backend="dispatch"`` jobs: subprocess slots and shard count
    #: (None lets the dispatcher default to 4x workers).
    dispatch_workers: int = 2
    dispatch_shards: int | None = None
    #: Work-dir spool for dispatch jobs (None: private temp dir).
    spool_dir: str | Path | None = None
    #: Test seam, forwarded to :class:`WorkerPool` (see its docstring).
    job_gate: Callable[[Job], None] | None = None


class ReproServeApp:
    """The ASGI callable plus the service state it closes over."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.registry = JobRegistry(
            max_finished=self.config.max_finished_jobs
        )
        self.pool = WorkerPool(
            self.registry,
            pool_workers=self.config.pool_workers,
            job_runners=self.config.job_runners,
            max_queue=self.config.max_queue,
            store=self.config.store,
            spool_dir=self.config.spool_dir,
            dispatch_workers=self.config.dispatch_workers,
            dispatch_shards=self.config.dispatch_shards,
            job_gate=self.config.job_gate,
        )
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._analyze_requests = 0
        self._analyze_store_hits = 0

    # -- ASGI protocol -----------------------------------------------------

    async def __call__(
        self,
        scope: dict,
        receive: Callable[[], Awaitable[dict]],
        send: Callable[[dict], Awaitable[None]],
    ) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            return
        body = b""
        while True:
            message = await receive()
            if message["type"] == "http.request":
                body += message.get("body", b"")
                if not message.get("more_body"):
                    break
            elif message["type"] == "http.disconnect":
                return
        status, payload, headers = self._dispatch(
            scope.get("method", "GET"), scope.get("path", "/"), body
        )
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (name.encode("latin-1"), value.encode("latin-1"))
                    for name, value in headers
                ],
            }
        )
        await send({"type": "http.response.body", "body": payload})

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- dispatch ----------------------------------------------------------

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, list[tuple[str, str]]]:
        """Route one request; returns ``(status, body, headers)``."""
        with self._lock:
            key = f"{method} {path.split('?', 1)[0]}"
            self._requests[key] = self._requests.get(key, 0) + 1
        try:
            return self._route(method, path.split("?", 1)[0], body)
        except ValidationError as exc:
            return _json(400, {"error": "invalid request",
                               "detail": exc.errors})
        except Exception as exc:  # never let a handler kill the server
            return _json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _route(self, method, path, body):
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            return _json(200, {"status": "ok", "version": __version__})
        if path == "/stats":
            if method != "GET":
                return _method_not_allowed("GET")
            return _json(200, self._stats_payload())
        if path == "/analyze":
            if method != "POST":
                return _method_not_allowed("POST")
            return self._handle_analyze(_parse_body(body))
        if path == "/campaigns":
            if method == "POST":
                return self._handle_submit(_parse_body(body))
            if method == "GET":
                return _json(200, {"jobs": self.registry.list_payload()})
            return _method_not_allowed("GET, POST")
        match = _JOB_PATH.match(path)
        if match:
            if method != "GET":
                return _method_not_allowed("GET")
            return self._handle_status(match.group(1))
        match = _JOB_RESULT_PATH.match(path)
        if match:
            if method != "GET":
                return _method_not_allowed("GET")
            return self._handle_result(match.group(1))
        return _json(404, {"error": f"no route for {path}"})

    # -- handlers ----------------------------------------------------------

    def _handle_analyze(self, body: Any):
        request = AnalyzeRequest.parse(body)
        store = self.pool.store
        served = None
        key = None
        if store is not None:
            # The same key `python -m repro analyze --store` uses, so the
            # CLI and the service share one cache population.
            key = StoreKey(
                system_hash(request.system),
                analysis_config_hash(request.config),
                None,
                "analyze",
            )
            served = store.get(key)
            if served is not None and (
                not isinstance(served.get("transaction_wcrt"), list)
                or len(served["transaction_wcrt"])
                != len(request.system.transactions)
            ):
                served = None  # malformed/foreign entry: analyze fresh
        with self._lock:
            self._analyze_requests += 1
            if served is not None:
                self._analyze_store_hits += 1
        if served is not None:
            schedulable = bool(served["schedulable"])
            converged = bool(served["converged"])
            wcrts = [float(w) for w in served["transaction_wcrt"]]
            store_state = "hit"
        else:
            result = analyze(request.system, config=request.config)
            schedulable = result.schedulable
            converged = result.converged
            wcrts = [
                result.transaction_wcrt[i]
                for i in range(len(request.system.transactions))
            ]
            if store is not None and key is not None:
                store.put(
                    key,
                    {
                        "schedulable": bool(schedulable),
                        "converged": bool(converged),
                        "transaction_wcrt": [float(w) for w in wcrts],
                    },
                )
                store_state = "miss"
            else:
                store_state = "off"
        deadlines = [
            float(tr.deadline) for tr in request.system.transactions
        ]
        return _json(
            200,
            {
                "schedulable": schedulable,
                "converged": converged,
                "method": request.config.method,
                "mode": request.config.mode,
                "store": store_state,
                "transactions": [
                    {
                        "wcrt": _finite(w),
                        "deadline": d,
                        "slack": _finite(d - w),
                        "meets": w <= d + 1e-9,
                    }
                    for w, d in zip(wcrts, deadlines)
                ],
            },
        )

    def _handle_submit(self, body: Any):
        request = CampaignRequest.parse(body)
        n_analyses = request.spec.n_analyses()
        if n_analyses > self.config.max_cells_per_job:
            return _json(
                413,
                {
                    "error": "campaign exceeds the per-request cell "
                    "ceiling; shard it into smaller submissions",
                    "n_analyses": n_analyses,
                    "max_cells_per_job": self.config.max_cells_per_job,
                },
            )
        job = self.registry.create(
            request.spec.to_dict(), request.backend, n_analyses
        )
        if not self.pool.try_submit(job):
            self.registry.discard(job.id)
            retry_after = max(1, round(self.config.retry_after_s))
            return _json(
                429,
                {
                    "error": "job queue is full; retry later",
                    "max_queue": self.config.max_queue,
                    "retry_after_s": retry_after,
                },
                extra_headers=[("retry-after", str(retry_after))],
            )
        return _json(202, job.status_payload())

    def _handle_status(self, job_id: str):
        job = self.registry.get(job_id)
        if job is None:
            return _json(404, {"error": f"unknown job {job_id!r}"})
        return _json(200, job.status_payload())

    def _handle_result(self, job_id: str):
        job = self.registry.get(job_id)
        if job is None:
            return _json(404, {"error": f"unknown job {job_id!r}"})
        if job.state == FAILED:
            return _json(
                410, {"error": f"job {job_id} failed: {job.error}"}
            )
        if job.state != DONE or job.result_bytes is None:
            return _json(
                409,
                {
                    "error": f"job {job_id} is {job.state}; poll "
                    f"/campaigns/{job_id} until it is done",
                    "state": job.state,
                },
            )
        return (
            200,
            job.result_bytes,
            [
                ("content-type", "application/json"),
                ("content-length", str(len(job.result_bytes))),
            ],
        )

    def _stats_payload(self) -> dict[str, Any]:
        with self._lock:
            requests = dict(sorted(self._requests.items()))
            analyze_requests = self._analyze_requests
            analyze_hits = self._analyze_store_hits
        hits, misses = self.registry.store_totals()
        store_block: dict[str, Any] | None = None
        if self.pool.store is not None:
            disk = self.pool.store.stats()
            store_block = {
                "root": str(self.pool.store.root),
                "hits": hits + analyze_hits,
                "misses": misses,
                "entries": disk.entries,
                "bytes": disk.bytes,
            }
        return {
            "uptime_s": time.time() - self.started_at,
            "requests": requests,
            "jobs": self.registry.counts(),
            "pool": self.pool.occupancy(),
            "store": store_block,
            "analyze": {
                "requests": analyze_requests,
                "store_hits": analyze_hits,
            },
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.pool.close()


def create_app(config: ServeConfig | None = None) -> ReproServeApp:
    """Build the service (the conventional app-factory entry point)."""
    return ReproServeApp(config)


# -- response plumbing -----------------------------------------------------


def _finite(value: float) -> float | str:
    """JSON-safe float: non-finite WCRTs become their string spellings."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _parse_body(body: bytes) -> Any:
    if not body:
        raise ValidationError("request body is empty; expected JSON")
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, an over-long integer
        # literal, or nesting deeper than the parser's recursion limit.
        raise ValidationError(f"request body is not valid JSON: {exc}")


def _json(
    status: int,
    payload: dict,
    *,
    extra_headers: list[tuple[str, str]] | None = None,
) -> tuple[int, bytes, list[tuple[str, str]]]:
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = [
        ("content-type", "application/json"),
        ("content-length", str(len(body))),
    ]
    if extra_headers:
        headers.extend(extra_headers)
    return status, body, headers


def _method_not_allowed(allow: str):
    return _json(
        405,
        {"error": f"method not allowed; use {allow}"},
        extra_headers=[("allow", allow)],
    )
