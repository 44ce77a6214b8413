"""``serve_mixed``: mixed ``POST /analyze`` load plus periodic campaign jobs.

``python -m repro serve --http stdlib --pool-workers 1`` runs in its own
process over a fresh store, driven by 2 closed-loop client connections
(each sends its next request only after reading the previous response).
Request bodies come from a seeded pool of reference-shape systems: every
(system, mode) pair is requested three times, half the pairs in exact
mode and half in verdict mode, so two thirds of the requests are store
hits.  (With two requests per pair the median latency falls on the edge
between the hit and the miss clusters and moves with the seed's fastest
misses: unscaled, its ten-seed spread was 0.28, against 0.20 with three.)

The load runs in rounds of :data:`ROUND_S` seconds.  At the start of a
round one client submits a small campaign job and polls it between its
own requests until it is done; with one pool worker the job runs in the
server process and competes with the request threads for its
interpreter lock.  At the end of a round both clients stop and the job
is waited for, so every round carries the same load.  Each round's wall
and latencies are scaled to reference speed by the mean speed of the
clients' and the service's CPUs during the round (see
:mod:`perfbench.speed`).
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from perfbench import layers, speed
from perfbench.common import (
    WORK,
    Deadline,
    Outcome,
    Tally,
    child_env,
    derive_seed,
    median,
    peak_rss_mb,
    percentile,
    repeated_setup,
    setup_seconds,
    tail_samples,
)
from perfbench.oracle import (
    accounting_mismatches,
    analyze_mismatch,
    campaign_mismatch,
)

CLIENTS = 2
#: (system, mode) pairs per block of the request sequence.
BLOCK_PAIRS = 64
#: Requests per pair: all but the first are store hits.
REQUESTS_PER_PAIR = 3
#: Requests the sequence is generated for, per second of run (it wraps
#: around if the service outpaces it).
SEQUENCE_RATE = 500
#: Load per round; one campaign job is submitted per round.
ROUND_S = 1.0
JOB_POLL_S = 0.02
JOB_TIMEOUT_S = 60.0
#: Pairs whose responses are re-derived with an in-process ``analyze``.
ORACLE_PAIRS = 40
#: Requests per job in the sequential in-process replay of the traced run.
REPLAY_JOB_EVERY = 100
TRACED_SHARE = 0.3


@dataclass
class Request:
    pair: int
    mode: str
    body: bytes
    system: dict


def _sequence(seed: int, requests: int) -> list[Request]:
    """Seeded request sequence in which every pair appears
    :data:`REQUESTS_PER_PAIR` times.

    Each block of pairs is sent once in shuffled order, and its repeats,
    in another order, after the next block's first pass: a pair's first
    request is at least a block ahead of its repeats, so its store write
    is never raced by another request for the same key.
    """
    from repro.gen import RandomSystemSpec, random_system
    from repro.batch import linspace_levels
    from repro.io import system_to_dict

    levels = linspace_levels(0.30, 0.95, 14)
    out: list[Request] = []
    pending: list[Request] = []
    block = 0
    while len(out) < requests:
        rng = random.Random(derive_seed(seed, "serve", block))
        pairs = []
        for i in range(BLOCK_PAIRS):
            system = random_system(
                RandomSystemSpec(
                    n_platforms=3, n_transactions=4,
                    tasks_per_transaction=(2, 4),
                    utilization=rng.choice(levels),
                ),
                seed=derive_seed(seed, "system", block, i),
            )
            data = system_to_dict(system)
            mode = "exact" if i % 2 == 0 else "verdict"
            body = json.dumps({"system": data, "mode": mode}).encode()
            pairs.append(Request(block * BLOCK_PAIRS + i, mode, body, data))
        rng.shuffle(pairs)
        out.extend(pairs)
        out.extend(pending)
        pending = pairs * (REQUESTS_PER_PAIR - 1)
        rng.shuffle(pending)
        block += 1
    return out + pending


def _job_spec(seed: int, j: int) -> dict:
    from repro.batch import CampaignSpec, linspace_levels

    return CampaignSpec(
        grid={"utilization": linspace_levels(0.30, 0.95, 14)},
        base={
            "n_platforms": 3,
            "n_transactions": 4,
            "tasks_per_transaction": (2, 4),
        },
        methods=("gauss_seidel",),
        systems_per_cell=1,
        seed=derive_seed(seed, "job", j),
    ).to_dict()


# -- the service process ----------------------------------------------------


def _cpu_split() -> tuple[set, set] | None:
    """``(service CPUs, load-generator CPUs)``: one CPU for the service,
    the rest for the clients, so neither steals the other's core and the
    scheduler cannot move them onto one; ``None`` with fewer than 2."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[-1]}, set(cpus[:-1])


class Server:
    """``python -m repro serve`` in a child process on an ephemeral port."""

    def __init__(self, store, log_path):
        split = _cpu_split()
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--http", "stdlib",
                "--pool-workers", "1", "--store", str(store),
                "--host", "127.0.0.1", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(PYTHONUNBUFFERED="1"),
            preexec_fn=(
                None if split is None
                else lambda: os.sched_setaffinity(0, split[0])
            ),
        )
        try:
            self.port = self._await_port(timeout=60.0)
            self._await_health(timeout=30.0)
        except Exception:
            self.close()
            raise

    def _await_port(self, timeout: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout):
                raise RuntimeError("serve printed no listening line")
            line = self.proc.stdout.readline().decode()
        finally:
            sel.close()
        if "http://" not in line:
            raise RuntimeError(f"unexpected serve output {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _await_health(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > end:
                raise RuntimeError("serve never answered /healthz")
            time.sleep(0.02)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class HttpTransport:
    """One keep-alive connection per client thread.

    The stdlib bridge writes a response's headers and body in two sends
    on a socket with Nagle's algorithm on, so the body waits for the
    client's acknowledgement of the headers -- up to the 40 ms
    delayed-ACK timer.  With *quickack* the client acknowledges at once
    and the load measures the service's own work; :func:`keepalive_stall_ms`
    records what a plain keep-alive client waits.
    """

    def __init__(self, port: int, quickack: bool = True):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.quickack = quickack and hasattr(socket, "TCP_QUICKACK")

    def _ack_now(self) -> None:
        if self.quickack and self.conn.sock is not None:
            self.conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
            )

    def __call__(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        self._ack_now()
        response = self.conn.getresponse()
        self._ack_now()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class InProcessTransport:
    """The in-process ASGI test client, optionally tracing each request."""

    def __init__(self, client, tracer=None):
        self.client = client
        self.tracer = tracer

    def __call__(self, method, path, body=None):
        headers = [("content-type", "application/json")] if body else []

        def send():
            return self.client.request(method, path, body=body,
                                       headers=headers)

        if self.tracer is not None and path == "/analyze":
            from perfbench.tracing import REQUEST

            response = self.tracer.call(REQUEST, send)
        else:
            response = send()
        return response.status, response.body


# -- the load ---------------------------------------------------------------


@dataclass
class Job:
    index: int
    spec: dict
    submitted: float
    id: str | None = None
    status: int = 0
    state: str = "submitted"
    done_at: float | None = None
    result: bytes | None = None


@dataclass
class Load:
    """Records of one load run."""

    #: ``(sequence index, status, latency s, end time, body)``.
    records: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    wrapped: bool = False
    wall: float = 0.0
    #: ``(start, end, wall)`` of each timed round of a driven load;
    #: requests that ended before the first are the warm-up.
    rounds: list = field(default_factory=list)
    #: Speed factor of each round, set once the speed probes have stopped.
    factors: list = field(default_factory=list)

    def timed(self) -> list:
        """``(record, speed factor)`` of each answered timed request."""
        if not self.rounds:
            return []
        starts = [start for start, _end, _wall in self.rounds]
        return [
            (r, self.factors[bisect.bisect_right(starts, r[3]) - 1])
            for r in self.records if r[1] == 200 and r[3] >= starts[0]
        ]

    def by_round(self) -> list[list[float]]:
        """Scaled latencies of the answered requests of each round."""
        out = [[] for _ in self.rounds]
        starts = [start for start, _end, _wall in self.rounds]
        for r, f in self.timed():
            out[bisect.bisect_right(starts, r[3]) - 1].append(r[2] * f)
        return out

    def scaled_wall(self) -> float:
        """Timed wall at reference speed: the rounds' scaled walls summed."""
        return sum(
            wall * f for (_s, _e, wall), f in zip(self.rounds, self.factors)
        )


class JobPoller:
    """Submits campaign jobs and polls them between a client's requests."""

    def __init__(self, seed: int, send, load: Load):
        self.seed = seed
        self.send = send
        self.load = load
        self.current: Job | None = None

    def submit(self) -> None:
        j = len(self.load.jobs)
        spec = _job_spec(self.seed, j)
        job = Job(j, spec, time.perf_counter())
        body = json.dumps({"spec": spec}).encode()
        job.status, raw = self.send("POST", "/campaigns", body)
        self.load.jobs.append(job)
        if job.status == 202:
            job.id = json.loads(raw)["id"]
            self.current = job
        else:
            job.state = "rejected"

    def poll(self) -> None:
        job = self.current
        status, raw = self.send("GET", f"/campaigns/{job.id}")
        state = json.loads(raw).get("state") if status == 200 else "error"
        if state in ("done", "failed", "error"):
            job.done_at = time.perf_counter()
            job.state = state
            if state == "done":
                status, job.result = self.send(
                    "GET", f"/campaigns/{job.id}/result"
                )
                if status != 200:
                    job.state = "error"
            self.current = None

    def finish(self) -> None:
        end = time.perf_counter() + JOB_TIMEOUT_S
        while self.current is not None and time.perf_counter() < end:
            self.poll()
            if self.current is not None:
                time.sleep(JOB_POLL_S)
        if self.current is not None:
            self.current.state = "unfinished"
            self.current = None


def drive(sequence, transports, seconds: float, seed: int) -> Load:
    """Closed-loop clients over *transports* in rounds of :data:`ROUND_S`;
    client 0 also runs one job per round, which ends with the round."""
    load = Load()
    lock = threading.Lock()
    cursor = [0]
    round_end = [0.0]
    stop = threading.Event()
    gate = threading.Barrier(len(transports) + 1)
    errors: list[BaseException] = []

    def client(c: int) -> None:
        send = transports[c]
        jobs = JobPoller(seed, send, load) if c == 0 else None
        try:
            while True:
                gate.wait()  # round start
                if stop.is_set():
                    return
                local = []
                if jobs is not None:
                    jobs.submit()
                next_poll = 0.0
                while time.perf_counter() < round_end[0]:
                    now = time.perf_counter()
                    if jobs is not None and jobs.current is not None \
                            and now >= next_poll:
                        jobs.poll()
                        next_poll = now + JOB_POLL_S
                    with lock:
                        i = cursor[0]
                        cursor[0] += 1
                    if i >= len(sequence):
                        load.wrapped = True
                    request = sequence[i % len(sequence)]
                    t0 = time.perf_counter()
                    status, body = send("POST", "/analyze", request.body)
                    t1 = time.perf_counter()
                    local.append((i, status, t1 - t0, t1, body))
                if jobs is not None:
                    jobs.finish()
                with lock:
                    load.records.extend(local)
                gate.wait()  # round end
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
            gate.abort()

    def one_round(end_at) -> tuple:
        """Let the clients run one round; its ``(start, end, wall)``."""
        start = time.perf_counter()
        round_end[0] = end_at(start)
        gate.wait()
        gate.wait()
        ends = [r[3] for r in load.records if r[3] >= start]
        end = max(ends) if ends else time.perf_counter()
        return start, end, end - start

    threads = [
        threading.Thread(target=client, args=(c,), daemon=True)
        for c in range(len(transports))
    ]
    for t in threads:
        t.start()
    try:
        # Warm-up: the first round meets an empty store (its first two
        # blocks are all misses); it is checked but not timed.
        one_round(lambda start: start + ROUND_S)
        deadline = Deadline(seconds)
        while not deadline.expired():
            load.rounds.append(
                one_round(lambda start: min(start + ROUND_S, deadline.end))
            )
        stop.set()
        gate.wait()
    except threading.BrokenBarrierError:
        pass
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    load.wall = sum(wall for _start, _end, wall in load.rounds)
    load.records.sort()
    return load


def replay(sequence, send, seed: int, *, requests=None, deadline=None):
    """Sequential replay of the request sequence, with a job submitted
    every :data:`REPLAY_JOB_EVERY` requests; runs *requests* requests, or
    until *deadline* expires."""
    load = Load()
    jobs = JobPoller(seed, send, load)
    t_start = time.perf_counter()
    i = 0
    while i < requests if requests is not None else not deadline.expired():
        if i % REPLAY_JOB_EVERY == REPLAY_JOB_EVERY // 2 and jobs.current is None:
            jobs.submit()
        elif jobs.current is not None:
            jobs.poll()
        request = sequence[i % len(sequence)]
        t0 = time.perf_counter()
        status, body = send("POST", "/analyze", request.body)
        t1 = time.perf_counter()
        load.records.append((i, status, t1 - t0, t1, body))
        i += 1
    jobs.finish()
    load.wall = time.perf_counter() - t_start
    return load


# -- checks -----------------------------------------------------------------


def check(load: Load, sequence, seed: int, tally: Tally) -> tuple:
    """Count every request and job, and compare outputs with references.

    Returns the inline ``Campaign.run`` wall of each job's spec, the
    number of job cells whose accounting fields differ from the inline
    run's, and the inline results themselves.
    """
    from repro.analysis import AnalysisConfig, analyze
    from repro.batch import Campaign, CampaignSpec
    from repro.io import system_from_dict
    from repro.serve.schemas import canonical_result_json

    by_pair: dict[int, list] = {}
    for i, status, _lat, _end, body in load.records:
        request = sequence[i % len(sequence)]
        if tally.check(200 <= status < 300,
                       f"request {i}: HTTP {status} {body[:200]!r}"):
            by_pair.setdefault(request.pair, []).append(json.loads(body))
    # A repeated pair must be answered identically, whether analyzed or
    # served from the store.
    for pair, bodies in by_pair.items():
        first = {k: v for k, v in bodies[0].items() if k != "store"}
        for other in bodies[1:]:
            if {k: v for k, v in other.items() if k != "store"} != first:
                tally.fail(f"pair {pair}: repeated answers differ",
                           attempted=False)
    requests = {r.pair: r for r in sequence}
    sample = random.Random(seed).sample(
        sorted(by_pair), min(ORACLE_PAIRS, len(by_pair))
    )
    for pair in sample:
        request = requests[pair]
        ref = analyze(
            system_from_dict(request.system),
            config=AnalysisConfig(method="reduced", best_case="simple",
                                  mode=request.mode),
        )
        for body in by_pair[pair]:
            note = analyze_mismatch(body, ref, exact=request.mode == "exact")
            if note is not None:
                tally.fail(f"pair {pair}: {note}", attempted=False)

    inline_walls = {}
    references = []
    accounting = 0
    for job in load.jobs:
        if not tally.check(job.state == "done",
                           f"job {job.index}: {job.state} (HTTP {job.status})"):
            continue
        t0 = time.perf_counter()
        ref = Campaign(CampaignSpec.from_dict(job.spec)).run(workers=1)
        inline_walls[job.index] = time.perf_counter() - t0
        references.append(ref)
        got = json.loads(job.result)
        note = campaign_mismatch(got, ref, exact=True)
        if note is not None:
            tally.fail(f"job {job.index}: {note}", attempted=False)
        accounting += accounting_mismatches(
            got, json.loads(canonical_result_json(ref))
        )
    return inline_walls, accounting, references


def keepalive_stall_ms(port: int, requests: int = 20) -> float:
    """Median ``GET /healthz`` latency of a plain keep-alive client."""
    send = HttpTransport(port, quickack=False)
    try:
        send("GET", "/healthz")
        walls = []
        for _ in range(requests):
            t0 = time.perf_counter()
            send("GET", "/healthz")
            walls.append(time.perf_counter() - t0)
    finally:
        send.close()
    return median(walls) * 1e3


# -- runs -------------------------------------------------------------------


def _sequence_length(seconds: float) -> int:
    return int(SEQUENCE_RATE * seconds) + 2 * BLOCK_PAIRS


def _setup(seed: int, seconds: float):
    def build(i):
        sequence = _sequence(seed, _sequence_length(seconds))
        store = WORK / f"serve_store_{i}"
        server = Server(store, WORK / f"serve_{i}.log")
        return sequence, server

    return repeated_setup(build, lambda s: s[1].close(), "repro.serve")


def run(seed: int, seconds: float) -> Outcome:
    """The untraced run: 2 HTTP clients for *seconds*."""
    tally = Tally()
    split = _cpu_split()
    transports = []
    with speed.Probes(speed.cpus()) as probes:
        (sequence, server), setup_spans = _setup(seed, seconds)
        try:
            if split is not None:
                os.sched_setaffinity(0, split[1])
            transports = [HttpTransport(server.port) for _ in range(CLIENTS)]
            load = drive(sequence, transports, seconds, seed)
            status, raw = transports[0]("GET", "/stats")
            stats = json.loads(raw) if status == 200 else {}
            stall_ms = keepalive_stall_ms(server.port)
        finally:
            for t in transports:
                t.close()
            server.close()
    setup_s, setup_walls = setup_seconds(probes, setup_spans)
    # A request's time is spent on both sides of the loop: the clients'
    # CPU and the service's.
    load.factors = [probes.factor(t0, t1) for t0, t1, _wall in load.rounds]
    inline_walls, accounting, references = check(load, sequence, seed, tally)

    timed = load.timed()
    lat = [r[2] for r, _f in timed]
    scaled = [r[2] * f for r, f in timed]
    by_store: dict[str, list[float]] = {"hit": [], "miss": []}
    for (_i, _status, latency, _end, body), f in timed:
        by_store.setdefault(json.loads(body).get("store"), []).append(
            latency * f
        )
    hits = len(by_store["hit"])
    turnaround = [
        j.done_at - j.submitted for j in load.jobs if j.done_at is not None
    ]
    # A round's cost depends on how many first requests (misses) of the
    # sequence it happens to cover, so rounds are summed, not medianed.
    requests_per_s = len(lat) / load.scaled_wall()
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "systems_per_s": requests_per_s,
            "latency_p50_ms": median(scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        samples={"systems_per_s": len(lat), "latency_p50_ms": len(lat)},
        context={
            "sizes": {
                "clients": CLIENTS,
                "requests": len(load.records),
                "timed_requests": len(lat),
                "sequence_length": len(sequence),
                "sequence_wrapped": load.wrapped,
                "jobs": len(load.jobs),
                "rounds": len(load.rounds),
                "round_s": ROUND_S,
                "timed_s": load.wall,
            },
            "raw": {
                "systems_per_s": len(lat) / load.wall,
                "latency_p50_ms": median(lat) * 1e3,
            },
            "speed": {"cpus": probes.cpus, "factors": load.factors},
            "rounds": [
                {"requests": len(lat_r), "wall_s": wall, "factor": f,
                 "p50_ms": median(lat_r) * 1e3}
                for lat_r, (_s, _e, wall), f
                in zip(load.by_round(), load.rounds, load.factors)
            ],
            "setup_walls_s": setup_walls,
            "service": {
                "requests_per_s": requests_per_s,
                "analyze_p50_ms": median(scaled) * 1e3,
                "analyze_p99_ms": percentile(scaled, 99) * 1e3,
                "analyze_p99_samples": len(lat),
                "analyze_p99_tail_samples": tail_samples(len(lat), 99),
                "hit_p50_ms": median(by_store["hit"]) * 1e3,
                "miss_p50_ms": median(by_store["miss"]) * 1e3,
                "store_hit_ratio": hits / len(lat) if lat else 0.0,
                "job_turnaround_s_p50": median(turnaround),
                "job_inline_s": inline_walls,
                "keepalive_healthz_p50_ms": stall_ms,
                "job_cells_accounting_differs": accounting,
            },
            "counters": {
                **layers.run_counters(references),
                "store.hits": hits,
                "store.misses": len(lat) - hits,
                "jobs": len(load.jobs),
                "stats": stats,
            },
        },
    )


def run_traced(seed: int, seconds: float) -> Outcome:
    """The traced run: the request sequence replayed in process."""
    from repro.serve import ServeConfig, create_app
    from repro.serve.testclient import TestClient

    from perfbench.tracing import HASH, PARSE, REQUEST, Tracer

    sequence = _sequence(seed, _sequence_length(seconds))
    tally = Tally()

    def app(k: int):
        store = WORK / f"inproc_store_{k}"
        shutil.rmtree(store, ignore_errors=True)
        return TestClient(create_app(ServeConfig(store=store, pool_workers=1)))

    # A warm-up replay, then an untraced one whose length fixes the
    # request count of the traced one.
    with app(0) as client:
        replay(sequence, InProcessTransport(client), seed,
               requests=REPLAY_JOB_EVERY)
    with app(1) as client:
        base = replay(sequence, InProcessTransport(client), seed,
                      deadline=Deadline(seconds * TRACED_SHARE))
    count = len(base.records)
    tracer = Tracer()
    with app(2) as client:
        send = InProcessTransport(client, tracer)
        with tracer.installed():
            load = replay(sequence, send, seed, requests=count)
        status, raw = send("GET", "/stats")
        stats = json.loads(raw) if status == 200 else {}
    inline_walls, accounting, _refs = check(load, sequence, seed, tally)
    for (_i, _s, _l, _e, a), (_j, _t, _m, _f, b) in zip(base.records,
                                                        load.records):
        tally.check(a == b, "traced replay answered differently")

    m = layers.fold(tracer, list(tracer.results))
    store = stats.get("store") or {}
    m.set("store.entries", store.get("entries", 0))
    m.set("store.bytes", store.get("bytes", 0))
    m.set("campaign.overhead_ratio", layers.overhead_ratio(tracer.results))

    split: dict[str, list[float]] = {"hit": [], "miss": [], "exact": [],
                                     "verdict": []}
    for i, status, lat, _end, body in load.records:
        if status != 200:
            continue
        split.setdefault(json.loads(body).get("store"), []).append(lat)
        split[sequence[i % len(sequence)].mode].append(lat)
    for key in ("hit", "miss", "exact", "verdict"):
        m.set(f"serve.{key}_p50_ms", median(split[key]) * 1e3,
              len(split[key]))
    m.set("serve.parse_us_p50", median(tracer.durations(PARSE)) * 1e6,
          len(tracer.durations(PARSE)))
    hashes = tracer.child_time({REQUEST}, {HASH})
    m.set("serve.hash_us_p50", median(hashes.values()) * 1e6, len(hashes))
    done = [j for j in load.jobs if j.done_at is not None]
    turnaround = [j.done_at - j.submitted for j in done]
    m.set("serve.job_turnaround_s_p50", median(turnaround), len(turnaround))
    overhead = [
        j.done_at - j.submitted - inline_walls[j.index]
        for j in done if j.index in inline_walls
    ]
    m.set("serve.job_overhead_s", median(overhead), len(overhead))
    m.set("serve.rejected", sum(
        1 for r in load.records if r[1] in (413, 429)
    ) + sum(1 for j in load.jobs if j.status in (413, 429)))
    m.set("trace.overhead_ratio", load.wall / base.wall)
    return Outcome(
        metrics=m.values,
        tally=tally,
        samples=m.samples,
        context={
            "sizes": {
                "replayed_requests": count,
                "jobs": len(load.jobs),
                "job_every_requests": REPLAY_JOB_EVERY,
                "untraced_s": base.wall,
                "traced_s": load.wall,
                "job_cells_accounting_differs": accounting,
            },
            "counters": {
                **layers.run_counters(list(tracer.results)),
                "store.hits": len(split["hit"]),
                "store.misses": len(split["miss"]),
                "stats": stats,
            },
        },
        tracer=tracer,
    )
