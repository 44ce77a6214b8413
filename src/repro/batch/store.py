"""Persistent content-addressed result store for analysis outcomes.

A :class:`ResultStore` memoizes solved analysis cells across processes
and runs: entries are keyed by :class:`StoreKey` -- the content hashes
of the analyzed system and of the execution context
(:func:`~repro.batch.canonical.campaign_config_hash` for campaign
cells, :func:`~repro.batch.canonical.analysis_config_hash` for one-shot
``analyze`` calls), plus the sweep level and method name.  Identical
inputs under an identical context hash to the same key, so a second
campaign over overlapping cells -- a rerun, a replicate extension, a
re-dispatch -- serves those cells from disk instead of solving them.

The backend is a directory of JSON files, chosen over sqlite on
purpose: dispatch shards are independent processes (possibly on
independent hosts sharing a network filesystem), and a
file-per-entry layout needs no cross-process locking -- writes are
atomic ``os.replace`` renames of fsynced temp files, concurrent writers
of the same key converge on identical content, and a reader never
observes a torn entry.  Layout::

    root/<digest[:2]>/<digest>.json

where ``digest`` is the SHA-256 of the key's canonical JSON identity
(two-level fan-out keeps directories small at millions of entries).
Each file stores the key identity alongside the value; ``get`` verifies
the echoed identity so a hash collision or a file corrupted into valid
JSON reads as a miss, never as a wrong hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.batch.canonical import canonical_json

__all__ = ["ResultStore", "StoreGcStats", "StoreKey", "StoreStats"]


@dataclass(frozen=True)
class StoreKey:
    """Identity of one stored analysis outcome.

    ``level`` is the sweep value the cell was solved at (``None`` for
    unswept contexts such as one-shot ``analyze`` calls); ``method`` the
    registry name of the analysis method.
    """

    system_hash: str
    config_hash: str
    level: float | int | None
    method: str

    def identity(self) -> str:
        """Canonical JSON identity (the collision-checked stored form)."""
        return self._identity

    @cached_property
    def _identity(self) -> str:
        # Encoded once per key, though ``get`` and ``put`` each read it
        # twice (the file name's digest, then the echoed identity).
        return canonical_json(
            {
                "system": self.system_hash,
                "config": self.config_hash,
                "level": self.level,
                "method": self.method,
            }
        )

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`identity` (the file name)."""
        return hashlib.sha256(self.identity().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Entry count and total payload bytes of a store directory."""

    entries: int
    bytes: int


@dataclass(frozen=True)
class StoreGcStats:
    """Outcome of one :meth:`ResultStore.gc` sweep."""

    removed: int
    kept: int
    bytes_freed: int
    #: Orphaned ``*.tmp.*`` files swept (crashed writers' leftovers).
    tmp_removed: int = 0


#: Age-histogram bucket upper bounds in seconds (the last is open).
_AGE_BUCKETS: tuple[tuple[str, float], ...] = (
    ("<=1h", 3600.0),
    ("<=1d", 86400.0),
    ("<=7d", 604800.0),
    (">7d", float("inf")),
)

#: Orphaned temp files older than this are swept by ``gc`` regardless of
#: the pruning criteria: a live writer renames its temp within seconds,
#: so a day-old one can only be a crashed writer's leftover.
_TMP_ORPHAN_AGE_S = 86400.0


class ResultStore:
    """Directory-of-JSON content-addressed store (see module docstring).

    ``get`` is defensive: unreadable, unparsable or identity-mismatched
    files read as misses (the cell is then simply re-solved).  ``put``
    is put-if-absent -- entries are immutable once written, matching the
    content-addressed contract -- and raises :class:`OSError` if the
    store root is not writable, because silently running uncached would
    hide a misconfiguration.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, key: StoreKey) -> Path:
        return self._digest_path(key.digest())

    def _digest_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def has(self, digest: str) -> bool:
        """Whether an entry file exists under *digest* (see
        :meth:`StoreKey.digest`).  A membership query only: the entry is
        not read, so a damaged one still counts until ``get`` misses."""
        return self._digest_path(digest).exists()

    def get(self, key: StoreKey) -> dict[str, Any] | None:
        """The stored value for *key*, or ``None`` on any kind of miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("identity") != key.identity():
            return None
        value = payload.get("value")
        return value if isinstance(value, dict) else None

    def put(self, key: StoreKey, value: dict[str, Any]) -> bool:
        """Store *value* under *key* unless present; ``True`` if written.

        The write is kill-safe: the payload is fsynced to a temp file
        suffixed with the writer's pid and thread id, then renamed into
        place, so a crash leaves either the complete entry or nothing --
        never a torn file a later ``get`` could misread -- and concurrent
        writers of one key, threads of one process included, never share
        a temp file.
        """
        path = self._path(key)
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        # Non-strict dumps on purpose: cell metrics may hold NaN (e.g. a
        # diverged max_wcrt_ratio), which round-trips through Python's
        # JSON just like it does in the campaign result files.
        encoded = json.dumps({"identity": key.identity(), "value": value})
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return True

    def stats(self) -> StoreStats:
        """Walk the store and count entries and payload bytes."""
        entries = 0
        size = 0
        for _path, stat in self.iter_entries():
            size += stat.st_size
            entries += 1
        return StoreStats(entries=entries, bytes=size)

    def iter_entries(self):
        """Yield ``(path, stat_result)`` for every readable entry file."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def age_histogram(self, now: float | None = None) -> list[tuple[str, int]]:
        """Entry counts per age bucket (mtime-based, oldest bucket last)."""
        import time as _time

        if now is None:
            now = _time.time()
        counts = [0] * len(_AGE_BUCKETS)
        for _path, stat in self.iter_entries():
            age = max(0.0, now - stat.st_mtime)
            for i, (_label, bound) in enumerate(_AGE_BUCKETS):
                if age <= bound:
                    counts[i] += 1
                    break
        return [
            (label, counts[i])
            for i, (label, _bound) in enumerate(_AGE_BUCKETS)
        ]

    def gc(
        self,
        *,
        older_than_s: float | None = None,
        keep_digests: set[str] | None = None,
        dry_run: bool = False,
        now: float | None = None,
    ) -> StoreGcStats:
        """Prune entries by age and/or reachability.

        An entry is removed only when *every* given criterion condemns
        it: older than ``older_than_s`` seconds (mtime), and/or its
        digest absent from ``keep_digests`` (the reachable set of a
        spec) -- intersection, so combining criteria is always the more
        conservative sweep.  With neither criterion the sweep removes
        nothing (refusing to interpret "no criteria" as "everything").
        Orphaned ``*.tmp.*`` files from crashed writers are swept once
        they are a day old, independent of the criteria.  ``dry_run``
        counts without deleting.
        """
        import time as _time

        if now is None:
            now = _time.time()
        removed = kept = freed = tmp_removed = 0
        for path, stat in self.iter_entries():
            condemned = older_than_s is not None or keep_digests is not None
            if older_than_s is not None and now - stat.st_mtime <= older_than_s:
                condemned = False
            if keep_digests is not None and path.stem in keep_digests:
                condemned = False
            if not condemned:
                kept += 1
                continue
            removed += 1
            freed += stat.st_size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    removed -= 1
                    freed -= stat.st_size
                    kept += 1
        if self.root.is_dir():
            for tmp in self.root.glob("??/*.json.tmp.*"):
                try:
                    if now - tmp.stat().st_mtime <= _TMP_ORPHAN_AGE_S:
                        continue
                    if not dry_run:
                        tmp.unlink()
                    tmp_removed += 1
                except OSError:
                    continue
            if not dry_run:
                # Fan-out dirs emptied by the sweep are noise; drop them.
                for fan in self.root.glob("??"):
                    try:
                        fan.rmdir()
                    except OSError:
                        pass
        return StoreGcStats(
            removed=removed,
            kept=kept,
            bytes_freed=freed,
            tmp_removed=tmp_removed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r})"
