"""Campaign dispatcher: drive a sharded campaign to completion unattended.

The chain is the unit of distributed work (``--shard k/n`` partitions,
``--chains`` subsets, ``campaign-merge``).  This module drives a sharded
campaign unattended with a :class:`CampaignDispatcher` that

* **over-partitions** the spec into more shards than worker slots and
  feeds them from a shared queue, so fast workers *steal* the long tail
  a static per-host split would leave on the slowest host (heavy chains
  hit divergent high-utilization levels; verdict-mode bisection shrinks
  but does not remove the imbalance);
* partitions **cost-aware** (``partition="lpt"``): per-chain wall times
  recorded by a previous run (``chain_costs`` in every campaign result
  JSON) drive a longest-processing-time assignment, with the ``levels x
  n_tasks`` size proxy as the manifest-free fallback;
* is **fault-tolerant**: a dead, killed or incomplete shard is
  relaunched with the same command.  With a result store (``store=``,
  CLI ``--store``) every shard writes each cell to it as the cell is
  solved, so the relaunch serves every cell an earlier attempt solved
  and solves only the rest; without one the relaunch solves the shard
  again.  Either way the retried shard's cells equal an uninterrupted
  one's.  Relaunches wait out a deterministic exponential backoff
  (seeded jitter, so a drill replays exactly), and every shard can
  carry a wall-clock budget derived from the cost manifest
  (``timeout_factor x predicted + timeout_floor``) or a flat
  ``shard_timeout``;
* watches **heartbeats**: every shard subprocess publishes an atomic
  liveness file (monotonic cells-completed counter + beat sequence, see
  ``Campaign.run(heartbeat=...)``), and the poll loop classifies each
  slot as *progressing* (counter advanced recently), *stalled* (beats
  arrive but the counter froze for ``stall_after`` seconds -- the
  process is alive but wedged), or *dead* (no beats at all).  Stalled
  and dead shards are killed and relaunched; healthy-but-slow shards
  keep beating through long solves and are never shot;
* **splits stragglers elastically**: when the queue has drained, slots
  sit idle and one shard has held its slot past ``split_after``
  seconds, its chains are re-partitioned by *remaining* cost into
  sub-shards (``--chains i,j,k`` subsets), so idle slots eat the
  critical path.  The census of what remains asks the result store
  which of the straggler's cells it holds (without a store every chain
  counts as unfinished), and the sub-shards serve those cells from it.
  The partition is chain-granular, so the merged union stays
  bit-identical to the single-process run;
* **auto-merges** shard results *as they complete* through
  :class:`repro.batch.campaign.StreamingMerger` -- each shard JSON is
  folded into the accumulating union and dropped, so dispatched peak
  memory stays bounded by the union plus one shard instead of every
  shard JSON at once -- yielding one canonical-order
  :class:`CampaignResult` that is bit-identical to a single-process run
  of the same spec;
* optionally threads a **content-addressed result store** (``store=``,
  CLI ``--store``) through to every shard subprocess, so relaunched and
  split shards, and overlapping or repeated campaigns, skip cells the
  store already holds;
* shuts down **gracefully**: a ``KeyboardInterrupt`` (SIGINT, or the
  CLI's SIGTERM trap) terminates every child, saves the merged union so
  far to ``work_dir/partial.json`` and raises
  :class:`DispatchInterrupted` -- no subprocess is orphaned, and a
  re-dispatch against the same store serves every cell already solved.

Every read of a file a child writes (heartbeat, shard result) is
crash-consistent: truncated or corrupt JSON is treated as absent,
matching the result store's damaged-file-as-miss rule -- a torn file
costs a relaunch, never a traceback.

Recovery paths are drilled, not hoped for: a
:class:`repro.batch.faults.FaultPlan` handed to the dispatcher delivers
deterministic faults (kill at cell N, hang, heartbeat drop, corrupt
output, exit nonzero) to chosen shard attempts through the
:data:`repro.batch.faults.FAULT_ENV` environment variable.

Every shard attempt is one ``python -m repro campaign --spec ...
--shard i/n`` command line, built whole by the dispatcher (callers add
no flags, so every shard collects its cells) and launched through a
pluggable *backend*.
:class:`LocalBackend` (the local host, the tested default) runs it in a
child forked from one warm per-dispatch zygote
(:mod:`repro.batch.zygote`), so a shard skips interpreter start-up and
the campaign engine's imports; :class:`SshBackend` (a thin command
template prefixing ``ssh <host>`` per worker slot; it is trivially
mockable in tests) runs it as a subprocess.  Either way an attempt is
one killable process with its own pid, log and exit status.  The CLI
front end is ``python -m repro campaign-dispatch``.

File movement between the dispatcher and its workers goes through a
pluggable *transport* (:mod:`repro.batch.transport`):
:class:`~repro.batch.transport.SharedDirTransport` keeps the shared-
filesystem behavior (worker paths are dispatcher paths), while
:class:`~repro.batch.transport.CopyBackTransport` gives every host its
own work dir -- inputs staged out before each launch, shard results
and heartbeats pulled back on each poll, every transfer
timeout-bounded, retried with seeded backoff, digest-verified and landed
atomically.  On top of the transport sit **host-level failure domains**:
a :class:`HostHealth` tracker scores each host from its shard outcomes
(``dead``/``stalled``/``timeout`` attempts and transport failures),
quarantines a host past ``host_blacklist_after`` consecutive failures --
its in-flight shards are evicted and rescheduled onto healthy hosts --
re-admits it on probation after ``host_cooldown`` seconds (one probe
shard at a time; a probation failure kills the host for the rest of the
dispatch), and degrades gracefully to fewer slots.  Only when *every*
host is gone does the dispatch fail, with one clear
:class:`DispatchError`.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import select
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.batch.campaign import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    StreamingMerger,
    chain_cost_estimates,
    chain_store_digests,
    partition_chains,
)
from repro.batch.faults import FAULT_ENV, FaultPlan
from repro.batch.store import ResultStore
from repro.batch.transport import CopyBackTransport, SharedDirTransport
from repro.batch.zygote import ForkedShard, Zygote

__all__ = [
    "CampaignDispatcher",
    "DispatchError",
    "DispatchInterrupted",
    "DispatchReport",
    "HostHealth",
    "HostState",
    "LocalBackend",
    "ShardRecord",
    "SshBackend",
]


class DispatchError(RuntimeError):
    """A shard kept failing past ``max_attempts`` (or produced garbage)."""


class DispatchInterrupted(DispatchError):
    """The dispatch was interrupted (SIGINT/SIGTERM) and shut down cleanly.

    Every child was terminated and the merged union so far was saved to
    ``work_dir/partial.json``.  With a result store, a fresh dispatch of
    the same spec against it serves every cell already solved.
    """


@dataclass
class ShardRecord:
    """What happened to one shard across its (re)launches."""

    shard: int
    #: Chains the partition assigned to this shard.
    chains: int
    #: Expected cell count when complete (chains x levels x methods).
    expected_cells: int
    #: Estimated cost the partition balanced on (seconds or proxy units).
    estimated_cost: float
    attempts: int = 0
    #: Worker slot that completed the shard.
    slot: int | None = None
    cells: int = 0
    wall_time_s: float = 0.0
    #: Chain plan indices this shard runs (the derived partition for
    #: planned shards, the explicit subset for elastic sub-shards).
    chain_indices: list[int] = field(default_factory=list)
    #: Shard this record was split from; ``None`` for planned shards.
    parent: int | None = None
    #: Wall seconds of each attempt (parallel to ``attempt_outcomes``).
    attempt_walls: list[float] = field(default_factory=list)
    #: Per-attempt outcome: ``completed``, ``failed`` (exited without a
    #: complete result), ``stalled``, ``dead``, ``timeout``, ``split``,
    #: ``transport`` (a staging or copy-back transfer failed), or
    #: ``evicted`` (the host was quarantined under a healthy shard --
    #: requeued without burning a failed attempt).
    attempt_outcomes: list[str] = field(default_factory=list)
    #: Host each attempt ran on (parallel to ``attempt_outcomes``).
    attempt_hosts: list[str] = field(default_factory=list)
    #: Failed transfers (staging, result/heartbeat pulls)
    #: observed while this shard held a slot.
    transport_failures: int = 0
    #: Attempts that *failed* -- evictions and splits are excluded, so a
    #: shard never exhausts ``max_attempts`` through no fault of its own.
    failed_attempts: int = 0
    #: Backoff delays inserted before relaunches of this shard.
    backoff_s: list[float] = field(default_factory=list)


@dataclass
class DispatchReport:
    """Outcome of one dispatched campaign."""

    #: The auto-merged union of every shard, canonical cell order.
    result: CampaignResult
    shards: list[ShardRecord]
    workers: int
    wall_time_s: float
    #: Shards completed per worker slot -- the work-stealing evidence
    #: (a slot that drew heavy shards completes fewer of them).
    shards_per_slot: dict[int, int] = field(default_factory=dict)
    #: Per-host health summary (completed/failures/quarantines/...).
    hosts: dict[str, dict] = field(default_factory=dict)
    #: Transport accounting (``Transport.stats()``).
    transport: dict = field(default_factory=dict)

    @property
    def relaunches(self) -> int:
        return sum(max(0, s.attempts - 1) for s in self.shards)

    @property
    def splits(self) -> int:
        """Elastic sub-shards created by straggler splitting."""
        return sum(1 for s in self.shards if s.parent is not None)

    @property
    def quarantines(self) -> int:
        """Host quarantine events (including probation deaths)."""
        return sum(h.get("quarantines", 0) for h in self.hosts.values())

    @property
    def evictions(self) -> int:
        """Healthy shard attempts evicted by a host quarantine."""
        return sum(
            1
            for s in self.shards
            for outcome in s.attempt_outcomes
            if outcome == "evicted"
        )

    @property
    def transport_failures(self) -> int:
        return sum(s.transport_failures for s in self.shards)

    def format_summary(self) -> str:
        lines = [
            f"dispatched {len(self.shards)} shard(s) over {self.workers} "
            f"worker slot(s) in {self.wall_time_s:.2f}s "
            f"({self.relaunches} relaunch(es), {self.splits} split(s))",
        ]
        # Host annotations only matter (and only change the pinned
        # single-host summary strings) when the fleet has several hosts.
        multi_host = len(self.hosts) > 1
        for s in self.shards:
            if not s.attempt_outcomes:
                continue
            attempts = ", ".join(
                f"{outcome} {wall:.2f}s"
                + (
                    f" @{s.attempt_hosts[i]}"
                    if multi_host and i < len(s.attempt_hosts)
                    else ""
                )
                for i, (outcome, wall) in enumerate(
                    zip(s.attempt_outcomes, s.attempt_walls)
                )
            )
            line = f"  shard {s.shard}: {attempts}"
            if s.parent is not None:
                line += f" (split from shard {s.parent})"
            if s.backoff_s:
                line += f", backoff {sum(s.backoff_s):.2f}s"
            lines.append(line)
        for slot in sorted(self.shards_per_slot):
            lines.append(
                f"  slot {slot}: {self.shards_per_slot[slot]} shard(s)"
            )
        if multi_host or self.quarantines:
            for host in sorted(self.hosts):
                h = self.hosts[host]
                line = (
                    f"  host {host}: {h.get('completed', 0)} completed, "
                    f"{h.get('failures', 0)} failure(s)"
                )
                if h.get("quarantines"):
                    line += f", {h['quarantines']} quarantine(s)"
                if h.get("dead"):
                    line += " [dead]"
                lines.append(line)
        if self.transport.get("kind") == "copyback":
            t = self.transport
            lines.append(
                f"  transport: {t.get('pushes', 0)} push(es), "
                f"{t.get('pulls', 0)} pull(s), "
                f"{t.get('retries', 0)} retry(ies), "
                f"{t.get('failures', 0)} failure(s)"
            )
        return "\n".join(lines)


class LocalBackend:
    """Fork shard commands on the local host from one warm zygote.

    The first launch starts a :class:`~repro.batch.zygote.Zygote` (its
    log is ``zygote.log`` beside the shard logs) that imports a shard's
    module set once; every launch forks a child of it that runs the
    ``python -m repro ...`` command line in-process and returns a
    Popen-shaped :class:`~repro.batch.zygote.ForkedShard`.
    :meth:`close` shuts the zygote down; a closed backend, or one whose
    zygote died, starts a new one on its next launch.
    """

    _zygote: Zygote | None = None

    def host_of(self, slot: int) -> str:
        """Failure-domain label of a slot: all local slots share one."""
        del slot
        return "local"

    def launch(
        self,
        argv: Sequence[str],
        *,
        slot: int,
        log_path: Path,
        env: dict | None = None,
    ) -> ForkedShard:
        del slot  # local slots are interchangeable
        if self._zygote is None or not self._zygote.alive:
            self._zygote = Zygote(
                _child_env(), Path(log_path).parent / "zygote.log"
            )
        return self._zygote.launch(
            argv, dict(os.environ) if env is None else env, log_path
        )

    def close(self) -> None:
        """Shut the zygote down, with any child it still holds."""
        if self._zygote is not None:
            self._zygote.close()
            self._zygote = None


class SshBackend:
    """Launch shard commands through ``ssh <host> <command>``.

    A deliberately thin template: worker slot ``i`` is pinned to
    ``hosts[i % len(hosts)]`` and the shard argv is shell-quoted into one
    remote command.  It assumes either a shared filesystem for the work
    directory or a :class:`~repro.batch.transport.CopyBackTransport`
    whose per-host dirs are reachable from the dispatcher, and that
    ``python`` on the remote resolves the ``repro`` package -- standard
    cluster furniture.  The fault-plan variable (:data:`FAULT_ENV`) is
    forwarded into the remote command with an ``env`` prefix so
    dispatcher-injected worker faults survive the ssh hop; nothing else
    of the local environment crosses it.  ``ssh_command`` is injectable,
    which is also what makes the backend mockable:
    ``SshBackend(["h0"], ssh_command=("sh", "-c",))``-style substitutions
    exercise the template without a network.
    """

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
        remote_python: Sequence[str] = ("python3",),
    ):
        if not hosts:
            raise ValueError("SshBackend needs at least one host")
        self.hosts = list(hosts)
        self.ssh_command = tuple(ssh_command)
        self.remote_python = tuple(remote_python)

    def host_of(self, slot: int) -> str:
        """The host worker slot *slot* is pinned to."""
        return self.hosts[slot % len(self.hosts)]

    def launch(
        self,
        argv: Sequence[str],
        *,
        slot: int,
        log_path: Path,
        env: dict | None = None,
    ) -> subprocess.Popen:
        host = self.host_of(slot)
        # The dispatcher builds argv around the *local* interpreter;
        # rewrite its head for the remote one.
        remote = list(self.remote_python) + list(argv[1:])
        # The remote shell owns its environment -- except the fault
        # plan, which must reach the worker for injection drills.
        if env and env.get(FAULT_ENV):
            remote = ["env", f"{FAULT_ENV}={env[FAULT_ENV]}"] + remote
        command = list(self.ssh_command) + [host, shlex.join(remote)]
        log = open(log_path, "ab")
        try:
            return subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()


@dataclass
class HostState:
    """Health bookkeeping for one failure domain (host)."""

    host: str
    #: Failures since the last success (resets on success/quarantine).
    consecutive_failures: int = 0
    failures: int = 0
    transport_failures: int = 0
    completed: int = 0
    quarantines: int = 0
    #: Monotonic time after which a quarantined host may be probed again
    #: (``None`` = not currently quarantined).
    quarantined_until: float | None = None
    #: Re-admitted after a cooldown; the next failure is terminal.
    probation: bool = False
    #: Permanently out for the rest of this dispatch.
    dead: bool = False
    readmissions: int = 0


class HostHealth:
    """Score hosts from shard outcomes; quarantine the ones that keep dying.

    The unit of suspicion is the *host*, not the shard: a machine whose
    shards die, stall, time out, or whose transfers fail is the likely
    culprit, and burning every shard's ``max_attempts`` against it one
    by one would take the whole campaign down with one bad box.  Past
    ``blacklist_after`` consecutive failures the host is quarantined for
    ``cooldown`` seconds (its in-flight shards are evicted and
    rescheduled by the dispatcher), then re-admitted *on probation*: one
    probe shard at a time, and a failure while on probation kills the
    host for the rest of the dispatch.  ``blacklist_after=None``
    (default) keeps the accounting but never quarantines -- single-host
    dispatches keep PR 7 behavior exactly.
    """

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        blacklist_after: int | None = None,
        cooldown: float = 60.0,
    ):
        if not hosts:
            raise ValueError("HostHealth needs at least one host")
        if blacklist_after is not None and blacklist_after < 1:
            raise ValueError("blacklist_after must be >= 1 (or None)")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.blacklist_after = blacklist_after
        self.cooldown = cooldown
        self._states = {h: HostState(h) for h in hosts}

    def hosts(self) -> list[str]:
        return list(self._states)

    def state(self, host: str) -> HostState:
        return self._states[host]

    def record_success(self, host: str) -> None:
        st = self._states[host]
        st.completed += 1
        st.consecutive_failures = 0
        st.probation = False

    def record_failure(self, host: str, kind: str, now: float) -> bool:
        """Score one failure; ``True`` when it newly quarantines *host*.

        ``kind`` is the attempt outcome (``dead``/``stalled``/
        ``timeout``) or ``"transport"`` for a failed transfer.  Plain
        worker failures (nonzero exit with a sane host) are *not* routed
        here -- they indict the shard, not the machine.
        """
        st = self._states[host]
        st.failures += 1
        if kind == "transport":
            st.transport_failures += 1
        st.consecutive_failures += 1
        if self.blacklist_after is None or st.dead:
            return False
        if st.quarantined_until is not None and now < st.quarantined_until:
            return False  # already serving a quarantine
        if st.probation:
            st.probation = False
            st.quarantined_until = None
            st.dead = True
            st.quarantines += 1
            return True
        if st.consecutive_failures >= self.blacklist_after:
            st.quarantined_until = now + self.cooldown
            st.consecutive_failures = 0
            st.quarantines += 1
            return True
        return False

    def usable(self, host: str, now: float) -> bool:
        """Whether *host* may take a launch right now."""
        st = self._states[host]
        if st.dead:
            return False
        return st.quarantined_until is None or now >= st.quarantined_until

    def probationary(self, host: str, now: float) -> bool:
        """Whether launches on *host* should be throttled to one probe."""
        st = self._states[host]
        return st.probation or (
            st.quarantined_until is not None and now >= st.quarantined_until
        )

    def on_launch(self, host: str, now: float) -> None:
        """Note a launch; completes an expired quarantine into probation."""
        st = self._states[host]
        if st.quarantined_until is not None and now >= st.quarantined_until:
            st.quarantined_until = None
            st.probation = True
            st.readmissions += 1

    def any_usable(self, now: float) -> bool:
        return any(self.usable(h, now) for h in self._states)

    def all_dead(self) -> bool:
        return all(st.dead for st in self._states.values())

    def next_readmission(self) -> float | None:
        """Earliest time a currently-quarantined host may be probed."""
        times = [
            st.quarantined_until
            for st in self._states.values()
            if not st.dead and st.quarantined_until is not None
        ]
        return min(times) if times else None

    def summary(self) -> dict[str, dict]:
        return {
            h: {
                "completed": st.completed,
                "failures": st.failures,
                "transport_failures": st.transport_failures,
                "quarantines": st.quarantines,
                "readmissions": st.readmissions,
                "dead": st.dead,
            }
            for h, st in self._states.items()
        }


@dataclass
class _Running:
    record: ShardRecord
    proc: subprocess.Popen | ForkedShard
    slot: int
    started: float
    #: Wall-clock budget for this attempt (None = unlimited).
    budget: float | None = None
    #: Last heartbeat counter / sequence the dispatcher observed.
    hb_cells: int = -1
    hb_seq: int = -1
    #: Dispatcher-clock times of the last counter advance and the last
    #: beat of any kind (clock-skew-free: embedded child timestamps are
    #: never compared against the dispatcher's clock).
    advance_t: float = 0.0
    beat_t: float = 0.0
    #: A pidfd of the attempt's process (readable once it exits), or
    #: ``None`` where :func:`_open_pidfd` could not get one.
    pidfd: int | None = None

    def release(self) -> None:
        """Close the exit fd: the attempt is over."""
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None


class CampaignDispatcher:
    """Drive every shard of a campaign to completion and merge the union.

    Parameters
    ----------
    spec:
        The campaign to run.
    shards:
        Shard count of the partition.  Over-partition (several shards per
        worker) so the queue can balance the tail; the default CLI choice
        is ``4 x workers``.
    workers:
        Concurrent shard subprocesses (worker slots).
    partition / cost_manifest:
        Passed through to :func:`repro.batch.campaign.partition_chains`;
        every shard subprocess receives the same manifest file so all
        hosts derive the identical disjoint partition.
    work_dir:
        Directory for the spec file, cost manifest, shard JSONs,
        heartbeats and per-shard logs.
    backend:
        :class:`LocalBackend` (default) or :class:`SshBackend`-shaped
        object with the same ``launch`` signature.
    max_attempts:
        Launch attempts per shard before :class:`DispatchError`.
    poll_interval:
        Seconds between the poll loop's liveness checks (heartbeat
        pulls, stall and timeout classification, splits).  A shard's
        exit wakes the loop at once through a pidfd, so the interval no
        longer delays a completion; only where no running attempt has
        a pidfd (non-Linux, kernel < 5.3) does an exit wait for the next
        check.  The loop adapts: every quiet iteration doubles the wait
        up to ``poll_max``, any event (launch, completion, failure,
        split) snaps it back.
    poll_max:
        Upper bound of the adaptive wait between liveness checks.
        Defaults to the effective heartbeat interval, so liveness
        observations are never starved by a long wait.
    stall_after:
        Liveness window in seconds (``None`` disables liveness kills).
        A shard whose heartbeat *counter* has not advanced within the
        window is *stalled* if beats still arrive, *dead* if they do
        not; both are killed and relaunched.
        Healthy shards beat through long solves, so slow is never
        conflated with wedged.
    heartbeat_interval:
        Seconds between child heartbeat writes.  When ``stall_after``
        is set the effective interval is capped at a quarter of the
        window so a healthy shard can never be starved into a false
        stall by its own beat cadence.
    shard_timeout:
        Flat wall-clock budget per shard attempt (seconds); exceeding
        it counts as a failed attempt (outcome ``timeout``).
    timeout_factor / timeout_floor:
        With a cost manifest, derive each shard's budget as
        ``timeout_factor x estimated_cost + timeout_floor`` instead of
        a flat value.  ``shard_timeout`` wins when both are set;
        ``timeout_factor=None`` (default) disables derived budgets.
    backoff_base / backoff_max:
        Exponential backoff between attempts of one shard:
        ``min(backoff_max, backoff_base * 2^(attempt-1) + jitter)``
        where the jitter is drawn from a generator seeded with
        ``(spec seed, shard, attempt)`` -- deterministic, so a drill
        replays the exact schedule.  ``backoff_base=0`` (default)
        relaunches immediately.
    split_after:
        Straggler threshold in seconds (``None`` disables splitting).
        When the queue is empty, at least one slot is idle and a shard
        with >= 2 unfinished chains (chains whose cells the store does
        not all hold; every chain without a store) has held its slot
        this long, the shard is killed and its chains re-partitioned by
        *remaining* cost into sub-shards -- the merged union stays
        bit-identical because the partition is chain-granular.
    faults:
        A :class:`repro.batch.faults.FaultPlan` delivered to matching
        shard attempts through the environment (kill/hang/heartbeat-drop/
        corrupt/exit at exact cell boundaries).
    store:
        Root directory of a content-addressed result store
        (:class:`repro.batch.store.ResultStore`) passed to every shard
        via ``--store``; shards then serve already-solved cells from it
        and write fresh solves back as they finish, which is what a
        relaunched or split shard recovers its predecessor's work
        from.  ``None`` (default) keeps no cells between attempts.
        Must be shared storage when the backend spans hosts.
    transport:
        File movement between the dispatcher and its workers:
        :class:`~repro.batch.transport.SharedDirTransport` (default,
        zero-copy shared filesystem) or
        :class:`~repro.batch.transport.CopyBackTransport` (per-host work
        dirs; inputs staged out per launch, outputs pulled back per
        poll, every transfer timeout-bounded, retried, digest-verified,
        atomically landed).  A copy-back transport must know every host
        the backend pins slots to.
    host_blacklist_after:
        Consecutive failures (``dead``/``stalled``/``timeout`` attempts,
        transport failures) after which a host is quarantined and its
        shards rescheduled onto healthy hosts.  ``None`` (default)
        disables host-level failure domains.
    host_cooldown:
        Seconds a quarantined host sits out before being re-admitted on
        probation (one probe shard; a probation failure is terminal for
        the host).  Only meaningful with ``host_blacklist_after``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        shards: int,
        workers: int,
        partition: str = "hash",
        cost_manifest: dict[int, float] | None = None,
        work_dir: str | Path,
        backend: LocalBackend | SshBackend | None = None,
        max_attempts: int = 3,
        poll_interval: float = 0.05,
        poll_max: float | None = None,
        stall_after: float | None = None,
        heartbeat_interval: float = 1.0,
        shard_timeout: float | None = None,
        timeout_factor: float | None = None,
        timeout_floor: float = 30.0,
        backoff_base: float = 0.0,
        backoff_max: float = 60.0,
        split_after: float | None = None,
        faults: FaultPlan | None = None,
        store: str | Path | None = None,
        transport: SharedDirTransport | CopyBackTransport | None = None,
        host_blacklist_after: int | None = None,
        host_cooldown: float = 60.0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if stall_after is not None and stall_after <= 0:
            raise ValueError("stall_after must be > 0 (or None)")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 (or None)")
        if timeout_factor is not None and timeout_factor <= 0:
            raise ValueError("timeout_factor must be > 0 (or None)")
        if timeout_floor < 0:
            raise ValueError("timeout_floor must be >= 0")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if backoff_max < 0:
            raise ValueError("backoff_max must be >= 0")
        if split_after is not None and split_after < 0:
            raise ValueError("split_after must be >= 0 (or None)")
        Campaign(spec)  # validates generator/method names up front
        self.spec = spec
        self._spec_dict = spec.to_dict()
        self.shards = shards
        self.workers = workers
        self.partition = partition
        self.cost_manifest = cost_manifest
        self.work_dir = Path(work_dir)
        self.backend = backend if backend is not None else LocalBackend()
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.stall_after = stall_after
        # A liveness window needs several beats inside it, or a healthy
        # shard's own cadence could read as silence.
        if stall_after is not None:
            self.heartbeat_interval = min(
                heartbeat_interval, max(stall_after / 4.0, 0.05)
            )
        else:
            self.heartbeat_interval = heartbeat_interval
        self.poll_max = (
            poll_max
            if poll_max is not None
            else max(poll_interval, self.heartbeat_interval)
        )
        self.shard_timeout = shard_timeout
        self.timeout_factor = timeout_factor
        self.timeout_floor = timeout_floor
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.split_after = split_after
        self.faults = faults
        self.store = Path(store) if store is not None else None
        #: Chain index -> its cells' store digests (see _stored_cells).
        self._chain_digests: dict[int, list[str]] = {}
        self.transport = (
            transport
            if transport is not None
            else SharedDirTransport(self.work_dir)
        )
        #: Worker slot -> failure-domain label; backends without a
        #: ``host_of`` collapse into one ``"local"`` domain.
        host_of = getattr(self.backend, "host_of", None)
        self._slot_host = {
            s: (host_of(s) if callable(host_of) else "local")
            for s in range(workers)
        }
        hosts = list(dict.fromkeys(self._slot_host.values()))
        transport_hosts = getattr(self.transport, "host_dirs", None)
        if transport_hosts is not None:
            missing = [h for h in hosts if h not in transport_hosts]
            if missing:
                raise ValueError(
                    f"transport knows no work dir for host(s) "
                    f"{missing}; backend slots are pinned to {hosts}"
                )
        self.host_health = HostHealth(
            hosts,
            blacklist_after=host_blacklist_after,
            cooldown=host_cooldown,
        )
        if self.faults is not None:
            # Arming transport faults on a transport that performs no
            # transfers is a harness bug and fails loudly here.
            self.transport.arm(self.faults.for_transport())

    # -- paths -------------------------------------------------------------

    def _spec_path(self) -> Path:
        return self.work_dir / "spec.json"

    def _manifest_path(self) -> Path:
        return self.work_dir / "cost_manifest.json"

    def _out_path(self, shard: int) -> Path:
        return self.work_dir / f"shard{shard:04d}.json"

    def _heartbeat_path(self, shard: int) -> Path:
        return self.work_dir / f"shard{shard:04d}.hb.json"

    def _log_path(self, shard: int) -> Path:
        return self.work_dir / f"shard{shard:04d}.log"

    # -- planning ----------------------------------------------------------

    def _cells_per_chain(self) -> int:
        return len(self.spec.sweep_values()) * len(self.spec.methods)

    def _plan(self) -> list[ShardRecord]:
        chains = self.spec.chains()
        n_cells = self._cells_per_chain()
        records = []
        for k in range(self.shards):
            assigned = partition_chains(
                self.spec, chains, (k, self.shards),
                partition=self.partition, cost_manifest=self.cost_manifest,
            )
            costs = chain_cost_estimates(
                self.spec, assigned, self.cost_manifest
            )
            records.append(
                ShardRecord(
                    shard=k,
                    chains=len(assigned),
                    expected_cells=len(assigned) * n_cells,
                    estimated_cost=sum(costs),
                    chain_indices=[c["index"] for c in assigned],
                )
            )
        return records

    def _command(self, record: ShardRecord, host: str = "local") -> list[str]:
        # Worker-side paths are transport-addressed: on a shared-dir
        # transport they are the dispatcher's own paths, on a copy-back
        # transport they live in the host's work dir (inputs staged out
        # by ``launch``, outputs pulled back by the poll loop).
        def wp(local: Path) -> str:
            return str(self.transport.worker_path(host, local.name))

        argv = [
            sys.executable, "-m", "repro", "campaign",
            "--spec", wp(self._spec_path()),
        ]
        if record.parent is None:
            argv += [
                "--shard", f"{record.shard}/{self.shards}",
                "--partition", self.partition,
            ]
        else:
            # Elastic sub-shard: an explicit chain subset, not a k/n
            # partition (its result carries no shard designator).
            argv += [
                "--chains", ",".join(str(i) for i in record.chain_indices),
            ]
        argv += [
            "--workers", "1",
            "--json", wp(self._out_path(record.shard)),
            "--heartbeat", wp(self._heartbeat_path(record.shard)),
            "--heartbeat-interval", f"{self.heartbeat_interval:g}",
        ]
        if self.cost_manifest:
            argv += ["--cost-manifest", wp(self._manifest_path())]
        if self.store is not None:
            argv += ["--store", str(self.store)]
        return argv

    # -- crash-consistent reads --------------------------------------------

    @staticmethod
    def _load_result(path: Path) -> CampaignResult | None:
        """Load a child-written result JSON; damage reads as absent."""
        if not path.exists():
            return None
        try:
            return CampaignResult.load_json(path)
        except (ValueError, KeyError, TypeError, OSError):
            return None

    def _read_heartbeat(self, shard: int) -> dict | None:
        """The shard's heartbeat, or ``None`` if absent/torn/corrupt."""
        try:
            data = json.loads(self._heartbeat_path(shard).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        try:
            return {"cells": int(data["cells"]), "seq": int(data["seq"])}
        except (KeyError, TypeError, ValueError):
            return None

    def _shard_complete(self, record: ShardRecord) -> CampaignResult | None:
        """The shard's final result, or ``None`` when it must relaunch.

        A stale-but-complete output of a *foreign* spec (a reused work
        dir) must never be accepted as this run's result: the file must
        carry this dispatch's exact spec dict and the shard designator
        its command asked for -- planned shards run with ``--shard`` and
        must carry their ``k/n``, elastic sub-shards run with
        ``--chains`` and must carry none.
        """
        result = self._load_result(self._out_path(record.shard))
        if result is None:
            return None
        expected_designator = (
            None if record.parent is not None else [record.shard, self.shards]
        )
        if (
            result.spec != self._spec_dict
            or result.shard != expected_designator
        ):
            return None
        if result.truncated or len(result.cells) != record.expected_cells:
            return None
        return result

    def _log_excerpt(self, shard: int, lines: int = 10) -> str:
        """The last *lines* of a shard's log, formatted for an error."""
        try:
            text = self._log_path(shard).read_text(errors="replace")
        except OSError:
            return ""
        tail = text.strip().splitlines()[-lines:]
        if not tail:
            return ""
        return "\nlast log lines:\n" + "\n".join(
            f"  {line}" for line in tail
        )

    # -- liveness / recovery policy ----------------------------------------

    def _liveness(self, active: _Running, now: float) -> str:
        """Classify a live slot: ``progressing`` / ``stalled`` / ``dead``.

        The decision uses *dispatcher-observed* change times: the moment
        this loop saw the counter (or the beat sequence) change, never
        the child's embedded wall timestamp -- so clock skew between
        hosts cannot misclassify a healthy worker.
        """
        hb = self._read_heartbeat(active.record.shard)
        if hb is not None:
            if hb["cells"] > active.hb_cells:
                active.hb_cells = hb["cells"]
                active.hb_seq = hb["seq"]
                active.advance_t = now
                active.beat_t = now
            elif hb["seq"] != active.hb_seq:
                active.hb_seq = hb["seq"]
                active.beat_t = now
        if self.stall_after is None:
            return "progressing"
        if now - active.advance_t <= self.stall_after:
            return "progressing"
        if now - active.beat_t <= self.stall_after:
            return "stalled"
        return "dead"

    def _attempt_budget(self, record: ShardRecord) -> float | None:
        if self.shard_timeout is not None:
            return self.shard_timeout
        if self.timeout_factor is not None and self.cost_manifest:
            return (
                self.timeout_factor * record.estimated_cost
                + self.timeout_floor
            )
        return None

    def _backoff_delay(self, shard: int, attempt: int) -> float:
        """Deterministic exponential backoff before attempt ``attempt+1``."""
        if self.backoff_base <= 0:
            return 0.0
        rng = random.Random(f"{self.spec.seed}:{shard}:{attempt}")
        raw = self.backoff_base * (2.0 ** (attempt - 1))
        jitter = rng.random() * self.backoff_base
        return min(self.backoff_max, raw + jitter)

    def _stored_cells(
        self, record: ShardRecord, chain_plan: dict[int, dict]
    ) -> dict[int, int]:
        """Cells of each chain of *record* the result store holds.

        A membership query over the chain's store keys (the walk of
        :func:`~repro.batch.campaign.chain_store_digests`); a chain
        whose cells are all stored is finished, and a relaunch serves
        those cells.  Without a store nothing survives an attempt, so
        the census is empty and every chain counts as unfinished.
        """
        if self.store is None:
            return {}
        store = ResultStore(self.store)
        counts: dict[int, int] = {}
        for i in record.chain_indices:
            # The keys are a pure function of the spec: walk each chain
            # once per dispatch, however often the census runs.
            if i not in self._chain_digests:
                self._chain_digests[i] = chain_store_digests(
                    self.spec, chain_plan[i]
                )
            counts[i] = sum(store.has(d) for d in self._chain_digests[i])
        return counts

    def _designator(self, record: ShardRecord) -> str:
        if record.parent is None:
            return f"{record.shard}/{self.shards}"
        return f"{record.shard} (split from {record.parent})"

    # -- execution ---------------------------------------------------------

    def run(self) -> DispatchReport:
        t0 = time.perf_counter()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self._spec_path().write_text(
            json.dumps(self.spec.to_dict(), indent=2)
        )
        if self.cost_manifest:
            self._manifest_path().write_text(
                json.dumps(
                    {
                        "chain_costs": {
                            str(k): v for k, v in self.cost_manifest.items()
                        }
                    },
                    indent=2,
                )
            )

        records = self._plan()
        by_shard = {r.shard: r for r in records}
        chain_plan = {c["index"]: c for c in self.spec.chains()}
        n_cells = self._cells_per_chain()
        next_sub = self.shards
        # Heaviest shards first: launching the long poles early is the
        # other half of the makespan story (stealing only fixes tails the
        # queue has not yet committed).  Empty shards are born complete.
        pending: list[int] = sorted(
            (r.shard for r in records if r.chains > 0),
            key=lambda k: (-by_shard[k].estimated_cost, k),
        )
        #: Shard id -> monotonic time before which it may not relaunch.
        ready_at: dict[int, float] = {}
        env = _child_env()
        running: dict[int, _Running] = {}
        # Shard results are folded into the merger the moment their shard
        # completes and dropped; only the accumulating union stays in
        # memory, never the full set of shard JSONs.
        merger = StreamingMerger(self._spec_dict)
        shards_per_slot: dict[int, int] = {}
        poll = self.poll_interval
        interrupted: BaseException | None = None

        def pop_ready(now: float) -> int | None:
            for i, sid in enumerate(pending):
                if ready_at.get(sid, 0.0) <= now:
                    return pending.pop(i)
            return None

        def finish_attempt(
            record: ShardRecord, outcome: str, wall: float
        ) -> None:
            record.wall_time_s += wall
            record.attempt_walls.append(wall)
            record.attempt_outcomes.append(outcome)

        def fail_attempt(record: ShardRecord, outcome: str, rc) -> None:
            record.failed_attempts += 1
            if record.failed_attempts >= self.max_attempts:
                raise DispatchError(
                    f"shard {self._designator(record)} failed "
                    f"{record.failed_attempts} attempt(s) (last outcome "
                    f"{outcome!r}, exit status {rc}); see "
                    f"{self._log_path(record.shard)}"
                    + self._log_excerpt(record.shard)
                )
            delay = self._backoff_delay(record.shard, record.attempts)
            if delay > 0.0:
                record.backoff_s.append(delay)
                ready_at[record.shard] = time.perf_counter() + delay
            # Relaunch at the front of the queue: a failed shard is the
            # current long pole by definition.
            pending.insert(0, record.shard)

        def evict_host(host: str, now: float) -> None:
            """Requeue every in-flight shard of a quarantined host.

            The shards are healthy -- the *host* is the casualty -- so
            the eviction neither burns a failed attempt nor inserts a
            backoff: they go straight to the front of the queue for the
            surviving hosts.
            """
            for slot2, act2 in list(running.items()):
                if self._slot_host[slot2] != host:
                    continue
                act2.proc.kill()
                act2.proc.wait()
                del running[slot2]
                act2.release()
                finish_attempt(
                    act2.record, "evicted",
                    time.perf_counter() - act2.started,
                )
                pending.insert(0, act2.record.shard)

        def host_failure(host: str, kind: str, now: float) -> None:
            if self.host_health.record_failure(host, kind, now):
                evict_host(host, now)

        def host_ok(slot: int, now: float) -> bool:
            host = self._slot_host[slot]
            if not self.host_health.usable(host, now):
                return False
            if self.host_health.probationary(host, now) and any(
                self._slot_host[s2] == host for s2 in running
            ):
                return False  # one probe shard at a time on probation
            return True

        def launch(record: ShardRecord, slot: int) -> bool:
            host = self._slot_host[slot]
            started = time.perf_counter()
            self.host_health.on_launch(host, started)
            record.attempts += 1
            record.attempt_hosts.append(host)
            # Stage the inputs out first (no-op on a shared dir).  A
            # failed transfer is a failed attempt charged to the host,
            # not a worker launch doomed to a file-not-found.
            staged = self.transport.stage_out(host, self._spec_path().name)
            if staged and self.cost_manifest:
                staged = self.transport.stage_out(
                    host, self._manifest_path().name
                )
            if not staged:
                record.transport_failures += 1
                finish_attempt(
                    record, "transport", time.perf_counter() - started
                )
                host_failure(host, "transport", time.perf_counter())
                fail_attempt(record, "transport", "-")
                return False
            # A stale heartbeat from a previous attempt must not feed the
            # classifier: the fresh attempt starts with a clean grace
            # window measured from its own launch.
            self.transport.remove(host, self._heartbeat_path(record.shard).name)
            launch_env = env
            if self.faults is not None:
                payload = self.faults.for_worker(
                    record.shard, record.attempts
                )
                if payload is not None:
                    launch_env = dict(env)
                    launch_env[FAULT_ENV] = payload
            proc = self.backend.launch(
                self._command(record, host=host),
                slot=slot,
                log_path=self._log_path(record.shard),
                env=launch_env,
            )
            now = time.perf_counter()
            running[slot] = _Running(
                record, proc, slot, now,
                budget=self._attempt_budget(record),
                advance_t=now, beat_t=now, pidfd=_open_pidfd(proc),
            )
            return True

        def try_split(now: float) -> bool:
            """Split the worst straggler's chains onto idle slots."""
            nonlocal next_sub
            if self.split_after is None or pending or not running:
                return False
            idle = self.workers - len(running)
            if idle < 1:
                return False
            candidates = [
                a for a in running.values()
                if now - a.started >= self.split_after
                and len(a.record.chain_indices) >= 2
            ]
            if not candidates:
                return False
            active = max(
                candidates,
                key=lambda a: (a.record.estimated_cost, -a.record.shard),
            )
            record = active.record
            # Census the straggler's progress *before* killing it: the
            # store holds every cell it has solved so far.
            done = self._stored_cells(record, chain_plan)
            unfinished = [
                i for i in record.chain_indices
                if done.get(i, 0) < n_cells
            ]
            if len(unfinished) < 2:
                # One unfinished chain cannot be split further; leave the
                # shard running rather than pay a pointless relaunch.
                return False
            active.proc.kill()
            active.proc.wait()
            del running[active.slot]
            active.release()
            finish_attempt(active.record, "split", now - active.started)
            # Re-partition *all* assigned chains by remaining cost
            # (completed chains weigh ~0 and are served from the store),
            # LPT onto the idle slots plus the one just freed.
            costs = chain_cost_estimates(
                self.spec,
                [chain_plan[i] for i in record.chain_indices],
                self.cost_manifest,
            )
            remaining = {
                i: cost * (1.0 - min(done.get(i, 0), n_cells) / n_cells)
                for i, cost in zip(record.chain_indices, costs)
            }
            groups = min(idle + 1, len(unfinished))
            heap = [(0.0, g) for g in range(groups)]
            assign: list[list[int]] = [[] for _ in range(groups)]
            for i in sorted(
                record.chain_indices, key=lambda i: (-remaining[i], i)
            ):
                load, g = heapq.heappop(heap)
                assign[g].append(i)
                heapq.heappush(heap, (load + remaining[i], g))
            for sub in assign:
                if not sub:
                    continue
                sub_record = ShardRecord(
                    shard=next_sub,
                    chains=len(sub),
                    expected_cells=len(sub) * n_cells,
                    estimated_cost=sum(remaining[i] for i in sub),
                    chain_indices=sorted(sub),
                    parent=record.shard,
                )
                next_sub += 1
                records.append(sub_record)
                by_shard[sub_record.shard] = sub_record
                pending.insert(0, sub_record.shard)
            return True

        try:
            while pending or running:
                now = time.perf_counter()
                events = False
                free = [
                    s for s in range(self.workers) if s not in running
                ]
                for slot in free:
                    # Re-check per launch: an earlier launch this
                    # iteration may have taken a probation host's single
                    # probe, or a staging failure may have quarantined
                    # the host outright.
                    if not host_ok(slot, now):
                        continue
                    sid = pop_ready(now)
                    if sid is None:
                        break
                    launch(by_shard[sid], slot)
                    events = True
                if not running:
                    if pending and self.host_health.all_dead():
                        raise DispatchError(
                            "every host is quarantined ("
                            + ", ".join(sorted(self.host_health.hosts()))
                            + f"); {len(pending)} shard(s) cannot be "
                            "dispatched"
                        )
                    # Every pending shard is inside a backoff window (or
                    # every host inside a quarantine cooldown): sleep it
                    # out instead of busy-spinning.
                    next_ready = min(
                        (ready_at.get(s, 0.0) for s in pending),
                        default=now,
                    )
                    if pending and not self.host_health.any_usable(now):
                        readmit = self.host_health.next_readmission()
                        if readmit is not None:
                            next_ready = max(next_ready, readmit)
                    wait = max(0.0, next_ready - time.perf_counter())
                    time.sleep(
                        min(wait, 1.0) if wait > 0 else self.poll_interval
                    )
                    continue
                # Wait for the first shard exit, or ``poll`` seconds for
                # the liveness checks below, whichever comes first.
                _wait_for_exit(running.values(), poll)
                now = time.perf_counter()
                for slot, active in list(running.items()):
                    if slot not in running:
                        continue  # evicted by a quarantine this sweep
                    host = self._slot_host[slot]
                    record = active.record
                    outcome: str | None = None
                    rc = active.proc.poll()
                    if rc is None:
                        # Liveness rides the transport too: bring the
                        # heartbeat home before classifying.
                        if not self.transport.pull(
                            host, self._heartbeat_path(record.shard).name
                        ):
                            record.transport_failures += 1
                            host_failure(host, "transport", now)
                            events = True
                            if slot not in running:
                                continue  # the pull's host was quarantined
                        if (
                            active.budget is not None
                            and now - active.started > active.budget
                        ):
                            outcome = "timeout"
                        else:
                            state = self._liveness(active, now)
                            if state in ("stalled", "dead"):
                                outcome = state
                        if outcome is None:
                            continue
                        # Wedged or over budget: the dispatcher shoots it
                        # and treats the attempt as failed.
                        active.proc.kill()
                        active.proc.wait()
                        rc = active.proc.returncode
                    del running[slot]
                    active.release()
                    events = True
                    # Bring the worker's output home before judging the
                    # attempt (no-op on a shared dir).  A failed result
                    # pull turns an apparent success into a ``transport``
                    # attempt.
                    if not self.transport.pull(
                        host, self._out_path(record.shard).name
                    ):
                        record.transport_failures += 1
                        if outcome is None:
                            outcome = "transport"
                    result = (
                        self._shard_complete(record)
                        if outcome is None
                        else None
                    )
                    if result is not None:
                        finish_attempt(
                            record, "completed", now - active.started
                        )
                        record.slot = slot
                        record.cells = len(result.cells)
                        merger.add(result)
                        shards_per_slot[slot] = (
                            shards_per_slot.get(slot, 0) + 1
                        )
                        self.host_health.record_success(host)
                        continue
                    outcome = outcome or "failed"
                    finish_attempt(record, outcome, now - active.started)
                    if outcome in ("dead", "stalled", "timeout", "transport"):
                        host_failure(host, outcome, now)
                    fail_attempt(record, outcome, rc)
                if try_split(time.perf_counter()):
                    events = True
                # Adaptive liveness cadence: quiet iterations back off
                # exponentially (bounded so heartbeat observation is
                # never starved), any event snaps it back to the floor.
                # Exits do not wait for it: they wake the wait above.
                poll = (
                    self.poll_interval
                    if events
                    else min(poll * 2.0, self.poll_max)
                )
        except (KeyboardInterrupt, SystemExit) as exc:
            interrupted = exc
        finally:
            self._reap(running)
            close = getattr(self.backend, "close", None)
            if callable(close):
                close()

        if interrupted is not None:
            partial = merger.finish()
            partial_path: Path | None = self.work_dir / "partial.json"
            try:
                partial.save_json(partial_path)
            except OSError:
                partial_path = None
            raise DispatchInterrupted(
                f"dispatch interrupted; merged {len(partial.cells)} cell(s) "
                + (
                    f"into {partial_path}; "
                    if partial_path is not None
                    else ""
                )
                + (
                    f"result store {self.store} holds every solved cell: "
                    "re-dispatch the same spec with it to serve them"
                    if self.store is not None
                    else "no result store was given, so a re-dispatch "
                    "solves every cell again"
                )
            ) from interrupted

        # The merger was seeded with this dispatch's spec, so even a run
        # where every shard was empty (more shards than chains) finishes
        # into the spec's empty result.
        merged = merger.finish()
        expected = self.spec.n_analyses()
        if len(merged.cells) != expected:
            raise DispatchError(
                f"merged union holds {len(merged.cells)} of {expected} "
                "cells; a shard produced an incomplete result that "
                "slipped past the completeness check"
            )
        return DispatchReport(
            result=merged,
            shards=records,
            workers=self.workers,
            wall_time_s=time.perf_counter() - t0,
            shards_per_slot=shards_per_slot,
            hosts=self.host_health.summary(),
            transport=self.transport.stats(),
        )

    @staticmethod
    def _reap(running: dict[int, _Running]) -> None:
        """Terminate-then-kill every child; never leave an orphan behind.

        SIGTERM first so children die promptly but cleanly (they hold no
        state needing flushing -- store entries are atomic), escalating to
        SIGKILL for anything that lingers past a short grace period.
        """
        for active in running.values():
            if active.proc.poll() is None:
                active.proc.terminate()
        deadline = time.perf_counter() + 2.0
        for active in running.values():
            try:
                active.proc.wait(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except subprocess.TimeoutExpired:
                active.proc.kill()
                active.proc.wait()
            active.release()
        running.clear()


def _open_pidfd(proc) -> int | None:
    """An fd that turns readable when *proc* exits, or ``None``.

    ``None`` where the platform has no pidfds (non-Linux, kernel < 5.3),
    the process is already gone (``ESRCH``), or it never ran (a launch
    under a dead zygote carries a return code and no pid).  The fd
    cannot name a recycled pid: the zygote reaps a forked shard only
    when the dispatcher polls it, and a ``Popen`` is reaped only by its
    own ``poll``/``wait``, so the pid is still the shard's when the fd
    is opened right after launch, and the fd names that process from
    then on.
    """
    pidfd_open = getattr(os, "pidfd_open", None)
    if pidfd_open is None or proc.returncode is not None or proc.pid is None:
        return None
    try:
        return pidfd_open(proc.pid)
    except OSError:
        return None


def _wait_for_exit(running, timeout: float) -> None:
    """Block until one of the *running* attempts exits, or *timeout* s.

    Waits on the attempts' pidfds through ``select.poll`` (a long-lived
    ``repro serve`` can hold fd numbers above ``FD_SETSIZE``, which
    ``select.select`` cannot take).  With no pidfd at all it sleeps the
    timeout out; an attempt that already carries a return code returns
    at once, since the sweep after the wait has work to do.
    """
    fds = []
    for active in running:
        if active.proc.returncode is not None:
            return
        if active.pidfd is not None:
            fds.append(active.pidfd)
    if not fds:
        time.sleep(timeout)
        return
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    poller.poll(timeout * 1000.0)


def _child_env() -> dict:
    """Child env that can import ``repro`` even without installation."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )
    return env
