"""Deterministic fault injection for dispatched campaign workers.

The dispatcher's recovery paths (relaunch against the result store,
heartbeat liveness kills, straggler splitting) are only trustworthy if
every one of them is driven by a *deterministic* test rather than hope.
This module is that harness:

* :class:`FaultPlan` is a declarative list of :class:`Fault` entries --
  "kill shard 2 after 5 cells on attempt 1", "hang shard 0 forever",
  "drop heartbeats", "corrupt the output JSON", "exit nonzero" -- built
  by a test and handed to :class:`repro.batch.dispatch.CampaignDispatcher`.
* The dispatcher serialises the entries that apply to one (shard,
  attempt) into the :data:`FAULT_ENV` environment variable of that shard
  subprocess.
* Inside the worker, :class:`WorkerFaults` (armed by
  :meth:`WorkerFaults.from_env` at the top of ``Campaign.run``) clips
  consume batches so faults land exactly on cell boundaries and then
  fires them: ``SIGKILL`` itself, hang forever (heartbeats keep
  beating, so the dispatcher must classify *stalled*), stop heartbeats
  and hang (the dispatcher must classify *dead*), or ``os._exit``.
  ``corrupt_output`` is consulted by the CLI at final-save time and
  replaces the result JSON with a truncated payload, exercising the
  crash-consistent read paths.

Faults only ever exist where a test put them: no plan in the
environment means every hook is a no-op.

:class:`TransportFault` entries extend the same plan to the *transfer*
layer: drop, delay, truncate, or corrupt one copy-back, or blackhole a
host outright.  They never travel through the environment -- the
dispatcher arms them directly on its
:class:`repro.batch.transport.CopyBackTransport`, which consults them on
every transfer attempt.
"""

from __future__ import annotations

import fnmatch
import json
import os
import signal
import time
from dataclasses import dataclass

__all__ = [
    "FAULT_ENV",
    "Fault",
    "FaultPlan",
    "TransportFault",
    "TRANSPORT_KINDS",
    "WorkerFaults",
]

#: Environment variable carrying the JSON-encoded fault list for one
#: worker attempt.
FAULT_ENV = "REPRO_FAULT_PLAN"

#: Fault kinds that trigger at a cell boundary inside ``consume``.
_CELL_KINDS = frozenset({"kill", "hang", "drop_heartbeats", "exit"})
#: All valid fault kinds.
KINDS = _CELL_KINDS | {"corrupt_output"}

#: Payload written in place of the result JSON by ``corrupt_output`` --
#: deliberately truncated mid-object so every loader sees damage.
CORRUPT_PAYLOAD = '{"spec": {"grid": {"utilization": [0.1, '

#: Fault kinds applied to individual copy-back transfers (or, for
#: ``blackhole``, to every later transfer touching one host).
TRANSPORT_KINDS = frozenset(
    {"drop", "delay", "truncate", "corrupt", "blackhole"}
)
#: Transfer directions a transport fault can be scoped to.
TRANSPORT_OPS = frozenset({"push", "pull", "any"})


@dataclass(frozen=True)
class Fault:
    """One injected failure: *kind* fires on *shard* at cell *at_cell*.

    ``attempt`` scopes the fault to one launch attempt (1-based);
    ``None`` fires on every attempt, which is how a test makes a shard
    permanently sick and drives the dispatcher to ``max_attempts``.
    """

    shard: int
    kind: str
    at_cell: int = 0
    attempt: int | None = 1
    exit_code: int = 3

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(KINDS)}"
            )
        if self.shard < 0:
            raise ValueError("fault shard must be >= 0")
        if self.at_cell < 0:
            raise ValueError("fault at_cell must be >= 0")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError("fault attempt is 1-based (or None for all)")


@dataclass(frozen=True)
class TransportFault:
    """One injected transfer failure on the copy-back transport.

    ``host``/``op``/``name`` select which transfers the fault watches
    (``None`` host means any host; ``name`` is an ``fnmatch`` glob on the
    transferred file name).  Among the matching transfer *attempts* --
    retries count -- the fault fires on the ``first``-th (1-based) and on
    the following ``count - 1``; ``count=None`` fires forever once
    reached.  ``blackhole`` additionally poisons the host: every later
    transfer touching it fails fast until the end of the dispatch, which
    is how a test makes a whole machine drop off the network mid-run.
    """

    kind: str
    host: str | None = None
    op: str = "any"
    name: str = "*"
    first: int = 1
    count: int | None = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport fault kind {self.kind!r}; expected "
                f"one of {sorted(TRANSPORT_KINDS)}"
            )
        if self.op not in TRANSPORT_OPS:
            raise ValueError(
                f"transport fault op must be one of "
                f"{sorted(TRANSPORT_OPS)}, got {self.op!r}"
            )
        if self.first < 1:
            raise ValueError("transport fault first is 1-based")
        if self.count is not None and self.count < 1:
            raise ValueError(
                "transport fault count must be >= 1 (or None for forever)"
            )
        if self.delay_s < 0:
            raise ValueError("transport fault delay_s must be >= 0")

    def matches(self, host: str, op: str, name: str) -> bool:
        """Whether this fault watches the given transfer."""
        if self.host is not None and self.host != host:
            return False
        if self.op != "any" and self.op != op:
            return False
        return fnmatch.fnmatch(name, self.name)


class FaultPlan:
    """A declarative set of faults a dispatcher delivers to its workers.

    Accepts a mixed list of :class:`Fault` (worker-side) and
    :class:`TransportFault` (transfer-side) entries; dicts are coerced by
    their ``kind``.
    """

    def __init__(
        self,
        faults: list[Fault | TransportFault] | tuple = (),
    ):
        self.faults: list[Fault] = []
        self.transport_faults: list[TransportFault] = []
        for f in faults:
            if isinstance(f, dict):
                f = (
                    TransportFault(**f)
                    if f.get("kind") in TRANSPORT_KINDS
                    else Fault(**f)
                )
            if isinstance(f, TransportFault):
                self.transport_faults.append(f)
            elif isinstance(f, Fault):
                self.faults.append(f)
            else:
                raise TypeError(
                    f"FaultPlan entries must be Fault, TransportFault, or "
                    f"dict, got {type(f).__name__}"
                )

    def for_transport(self) -> list[TransportFault]:
        """The transfer-side entries, for ``Transport.arm``."""
        return list(self.transport_faults)

    def for_worker(self, shard: int, attempt: int) -> str | None:
        """JSON for ``FAULT_ENV``, or ``None`` when no fault applies."""
        hits = [
            {
                "kind": f.kind,
                "at_cell": f.at_cell,
                "exit_code": f.exit_code,
            }
            for f in self.faults
            if f.shard == shard
            and (f.attempt is None or f.attempt == attempt)
        ]
        if not hits:
            return None
        return json.dumps(hits)


class WorkerFaults:
    """Worker-side arming of the faults delivered through the env."""

    def __init__(self, entries: list[dict]):
        self._cell_faults = sorted(
            (e for e in entries if e["kind"] in _CELL_KINDS),
            key=lambda e: e["at_cell"],
        )
        self._corrupt = any(
            e["kind"] == "corrupt_output" for e in entries
        )

    @classmethod
    def from_env(cls) -> WorkerFaults | None:
        """Parse :data:`FAULT_ENV`; a harness bug should fail loudly."""
        raw = os.environ.get(FAULT_ENV)
        if not raw:
            return None
        entries = json.loads(raw)
        if not isinstance(entries, list):
            raise ValueError(f"{FAULT_ENV} must hold a JSON list")
        for entry in entries:
            if entry.get("kind") not in KINDS:
                raise ValueError(
                    f"{FAULT_ENV} holds an unknown fault kind: {entry!r}"
                )
        return cls(entries)

    def next_trigger(self) -> int | None:
        """Cell count at which the earliest unfired cell fault lands."""
        if not self._cell_faults:
            return None
        return self._cell_faults[0]["at_cell"]

    def clip(self, part: list, consumed: int) -> list:
        """Truncate a consume batch so the fault hits its exact boundary.

        ``consume`` accounts whole chains (or chunks) at a time; without
        clipping, "kill at cell 5" would land wherever the batch edge
        happens to fall.  The dropped tail is irrelevant -- the process
        dies or hangs at the boundary anyway.
        """
        trigger = self.next_trigger()
        if trigger is None or consumed + len(part) <= trigger:
            return part
        return part[: max(0, trigger - consumed)]

    def fire(self, consumed: int, heartbeat=None) -> None:
        """Fire every armed cell fault whose boundary has been reached."""
        while self._cell_faults and consumed >= self._cell_faults[0]["at_cell"]:
            fault = self._cell_faults.pop(0)
            kind = fault["kind"]
            if kind == "kill":
                os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
            elif kind == "exit":
                os._exit(int(fault["exit_code"]))
            elif kind == "drop_heartbeats":
                if heartbeat is not None:
                    heartbeat.drop()
                self._hang()
            elif kind == "hang":
                # The heartbeat thread keeps beating with a frozen cell
                # counter: the dispatcher must see *stalled*, not *dead*.
                self._hang()

    @staticmethod
    def _hang() -> None:
        while True:  # pragma: no cover - only ever killed externally
            time.sleep(3600)

    def corrupts_output(self) -> bool:
        """Whether the final result JSON should be replaced with garbage."""
        return self._corrupt
