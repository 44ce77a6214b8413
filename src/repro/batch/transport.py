"""File movement between the dispatcher and per-host worker work dirs.

PR 7's dispatcher assumed one shared filesystem: workers write shard
results and heartbeats straight into the dispatcher's work dir.  That
holds for :class:`~repro.batch.dispatch.LocalBackend` and for NFS-backed
ssh fleets, but not for real multi-host deployments.  This module is
the seam:

* :class:`SharedDirTransport` keeps today's zero-copy behavior -- worker
  paths *are* dispatcher paths, staging and pulling are no-ops.
* :class:`CopyBackTransport` gives every host its own work dir.  The
  dispatcher stages inputs (spec, cost manifest) out before each launch
  and pulls outputs (shard JSONs, heartbeat files) back on each poll.
  The result store is not a work-dir file: it is shared storage every
  host reaches by its own path.

Every ``CopyBackTransport`` transfer carries the full PR 7
crash-consistency contract:

* **per-file timeout** -- a transfer that exceeds ``timeout`` seconds is
  abandoned before landing;
* **bounded retry with seeded backoff** -- the same deterministic
  ``random.Random(f"{seed}:...")`` jitter the dispatcher uses for shard
  relaunches;
* **digest verification** -- the landed bytes are read back and compared
  (SHA-256) against the source before publication, so a truncated or
  bit-flipped copy never lands;
* **atomic tmp+rename landing** -- a torn or interrupted copy reads as
  *absent*, never as garbage, exactly like the dispatcher's local reads.

Transport faults (:class:`repro.batch.faults.TransportFault`) are armed
directly on the transport and consulted on every transfer attempt, so
tests can deterministically drop, delay, truncate, or corrupt one
copy-back -- or blackhole a host -- and watch the dispatcher's
host-level failure domains react.

The byte movement itself is plain local-filesystem I/O against the
per-host directories, which covers tests (mock host dirs), sshfs/NFS
mounts, and any layout where each host's work dir is reachable as a
path.  A deployment that truly needs scp/rsync subclasses
:class:`CopyBackTransport` and overrides :meth:`_read_remote` /
:meth:`_write_remote`; everything above the byte layer (timeouts,
retries, digests, atomicity, fault hooks, accounting) is inherited.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from pathlib import Path

from .faults import TransportFault

__all__ = [
    "CopyBackTransport",
    "SharedDirTransport",
    "TransportError",
]

#: Events kept on a transport before older ones are discarded.
_EVENT_CAP = 256


class TransportError(RuntimeError):
    """A transfer failed after exhausting its retries."""


class SharedDirTransport:
    """Zero-copy transport for a shared filesystem (PR 7 behavior).

    Worker paths are dispatcher paths; ``stage_out`` and ``pull`` are
    no-ops that always succeed.  Arming transport faults on it is a
    harness bug -- there are no transfers for them to hit -- and fails
    loudly rather than silently never firing.
    """

    kind = "shared"

    def __init__(self, work_dir: str | Path):
        self.work_dir = Path(work_dir)

    def worker_path(self, host: str, name: str) -> Path:
        """Where *host*'s worker reads/writes *name* (the local path)."""
        return self.work_dir / name

    def stage_out(self, host: str, name: str) -> bool:
        return True

    def pull(self, host: str, name: str) -> bool:
        return True

    def remove(self, host: str, name: str) -> None:
        try:
            (self.work_dir / name).unlink()
        except OSError:
            pass

    def arm(self, faults: list[TransportFault]) -> None:
        if faults:
            raise ValueError(
                "transport faults need a CopyBackTransport; "
                "SharedDirTransport performs no transfers for them to hit"
            )

    def stats(self) -> dict:
        return {"kind": self.kind}


class CopyBackTransport:
    """Copy files between the dispatcher work dir and per-host work dirs.

    ``host_dirs`` maps host name -> that host's work dir (created on
    demand).  ``stage_out`` copies ``work_dir/name`` out to the host;
    ``pull`` copies ``host_dir/name`` back.  A missing *source* file is
    benign (``pull`` of a heartbeat the worker has not written yet
    returns ``True`` without touching the local copy); only a transfer
    that *fails* -- timeout, digest mismatch, injected fault, blackholed
    host -- after exhausting its retries returns ``False``.
    """

    kind = "copyback"

    def __init__(
        self,
        work_dir: str | Path,
        host_dirs: dict[str, str | Path],
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        seed: int = 0,
    ):
        if not host_dirs:
            raise ValueError("CopyBackTransport needs at least one host dir")
        if timeout <= 0:
            raise ValueError("transport timeout must be > 0")
        if retries < 0:
            raise ValueError("transport retries must be >= 0")
        self.work_dir = Path(work_dir)
        self.host_dirs = {h: Path(d) for h, d in host_dirs.items()}
        resolved_local = self.work_dir.resolve()
        for host, d in self.host_dirs.items():
            if d.resolve() == resolved_local:
                raise ValueError(
                    f"host {host!r} work dir collides with the dispatcher "
                    f"work dir {self.work_dir}; copy-back needs them distinct"
                )
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.seed = seed
        self.pushes = 0
        self.pulls = 0
        self.skipped_pushes = 0
        self.retry_count = 0
        self.failures = 0
        self.blackholed: set[str] = set()
        self.events: list[str] = []
        self._dropped_events = 0
        #: (host, name) -> digest of the bytes last successfully staged,
        #: so an unchanged spec is pushed once per host, not per attempt.
        self._staged: dict[tuple[str, str], str] = {}
        self._armed: list[dict] = []

    # -- fault hooks ----------------------------------------------------

    def arm(self, faults: list[TransportFault]) -> None:
        """Install transport faults; each keeps its own match counter."""
        for f in faults:
            if f.host is not None and f.host not in self.host_dirs:
                raise ValueError(
                    f"transport fault targets unknown host {f.host!r}; "
                    f"hosts are {sorted(self.host_dirs)}"
                )
            self._armed.append({"fault": f, "seen": 0})

    def _next_fault(self, host: str, op: str, name: str):
        """Advance match counters; return the fault firing now, if any."""
        fired = None
        for slot in self._armed:
            fault: TransportFault = slot["fault"]
            if not fault.matches(host, op, name):
                continue
            slot["seen"] += 1
            live = fault.first <= slot["seen"] and (
                fault.count is None
                or slot["seen"] < fault.first + fault.count
            )
            if live and fired is None:
                fired = fault
        return fired

    # -- byte movement (override point for scp/rsync subclasses) -------

    def _read_remote(self, host: str, path: Path) -> bytes:
        return path.read_bytes()

    def _write_remote(self, host: str, path: Path, data: bytes) -> None:
        path.write_bytes(data)

    # -- accounting -----------------------------------------------------

    def _event(self, message: str) -> None:
        if len(self.events) >= _EVENT_CAP:
            del self.events[0]
            self._dropped_events += 1
        self.events.append(message)

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "pushes": self.pushes,
            "pulls": self.pulls,
            "skipped_pushes": self.skipped_pushes,
            "retries": self.retry_count,
            "failures": self.failures,
            "blackholed": sorted(self.blackholed),
        }

    # -- transfer core --------------------------------------------------

    def _backoff(self, host: str, name: str, attempt: int) -> float:
        if self.backoff_base <= 0:
            return 0.0
        rng = random.Random(f"{self.seed}:{host}:{name}:{attempt}")
        raw = self.backoff_base * (2 ** (attempt - 1))
        return min(self.backoff_max, raw + rng.uniform(0, self.backoff_base))

    def _transfer_once(
        self, host: str, op: str, name: str, src: Path, dst: Path
    ) -> str:
        """One transfer attempt: ``"ok"``/``"absent"``, or raise."""
        if host in self.blackholed:
            raise TransportError(f"host {host!r} is blackholed")
        fault = self._next_fault(host, op, name)
        if fault is not None:
            if fault.kind == "blackhole":
                self.blackholed.add(host)
                raise TransportError(
                    f"host {host!r} blackholed (injected)"
                )
            if fault.kind == "drop":
                raise TransportError(
                    f"{op} of {name!r} to/from {host!r} dropped (injected)"
                )
        started = time.monotonic()
        if fault is not None and fault.kind == "delay":
            # Cap the injected stall just past the deadline: the point is
            # to trip the timeout check, not to wedge the test suite.
            time.sleep(min(fault.delay_s, self.timeout + 0.05))
        try:
            if op == "pull":
                data = self._read_remote(host, src)
            else:
                data = src.read_bytes()
        except FileNotFoundError:
            return "absent"
        digest = hashlib.sha256(data).hexdigest()
        payload = data
        if fault is not None:
            if fault.kind == "truncate":
                payload = data[: len(data) // 2]
            elif fault.kind == "corrupt":
                payload = bytes(b ^ 0xFF for b in data[:64]) + data[64:]
        dst.parent.mkdir(parents=True, exist_ok=True)
        tmp = dst.with_name(f"{dst.name}.tmp.{os.getpid()}")
        try:
            if op == "pull":
                tmp.write_bytes(payload)
                landed = tmp.read_bytes()
            else:
                self._write_remote(host, tmp, payload)
                landed = self._read_remote(host, tmp)
            if hashlib.sha256(landed).hexdigest() != digest:
                raise TransportError(
                    f"{op} of {name!r} ({host!r}): digest mismatch on "
                    f"landed bytes"
                )
            if time.monotonic() - started > self.timeout:
                raise TransportError(
                    f"{op} of {name!r} ({host!r}) exceeded the "
                    f"{self.timeout:.1f}s transfer timeout"
                )
            os.replace(tmp, dst)
        except TransportError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise TransportError(
                f"{op} of {name!r} ({host!r}) failed: {exc}"
            ) from exc
        if op == "pull":
            self.pulls += 1
        else:
            self.pushes += 1
            self._staged[(host, name)] = digest
        return "ok"

    def _transfer(
        self, host: str, op: str, name: str, src: Path, dst: Path
    ) -> bool:
        """Run one transfer with retries; ``False`` only on real failure."""
        last: TransportError | None = None
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                self.retry_count += 1
                delay = self._backoff(host, name, attempt)
                if delay > 0:
                    time.sleep(delay)
            try:
                self._transfer_once(host, op, name, src, dst)
                return True
            except TransportError as exc:
                last = exc
                if host in self.blackholed:
                    break  # retrying a blackholed host is pointless
        self.failures += 1
        self._event(str(last))
        return False

    # -- public API -----------------------------------------------------

    def worker_path(self, host: str, name: str) -> Path:
        """Where *host*'s worker reads/writes *name* (its own work dir)."""
        try:
            return self.host_dirs[host] / name
        except KeyError:
            raise KeyError(
                f"unknown host {host!r}; transport hosts are "
                f"{sorted(self.host_dirs)}"
            ) from None

    def stage_out(self, host: str, name: str) -> bool:
        """Copy ``work_dir/name`` out to *host*; ``False`` on failure.

        A repeat push of unchanged bytes is skipped (the spec is staged
        once per host, not once per shard attempt); a changed source is
        re-pushed.
        """
        src = self.work_dir / name
        dst = self.worker_path(host, name)
        try:
            digest = hashlib.sha256(src.read_bytes()).hexdigest()
        except OSError:
            digest = None
        if digest is not None and self._staged.get((host, name)) == digest:
            self.skipped_pushes += 1
            return True
        return self._transfer(host, "push", name, src, dst)

    def pull(self, host: str, name: str) -> bool:
        """Copy ``name`` back from *host*; ``False`` on failure.

        A file the worker has not written (yet) is not a failure: the
        local copy is left untouched and the dispatcher's usual
        absent-file handling applies.
        """
        src = self.worker_path(host, name)
        dst = self.work_dir / name
        return self._transfer(host, "pull", name, src, dst)

    def remove(self, host: str, name: str) -> None:
        """Best-effort removal of *name* locally and on *host*."""
        for path in (self.work_dir / name, self.worker_path(host, name)):
            try:
                path.unlink()
            except OSError:
                pass
        self._staged.pop((host, name), None)
