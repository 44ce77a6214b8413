"""Canonical JSON and content hashes for systems, specs and configs.

The content-addressed result store (:mod:`repro.batch.store`) and the
planned analysis service both need one answer to "is this the same
analysis input?" that survives process boundaries, JSON round trips and
dict insertion order.  This module provides it:

* :func:`canonical_json` -- a deterministic JSON encoding: object keys
  sorted, no whitespace, floats via their shortest round-trip ``repr``
  (so ``0.3`` never re-encodes as ``0.30000000000000004``), NaN/infinity
  rejected (they have no interoperable JSON form and would silently
  break key equality);
* :func:`content_hash` -- SHA-256 of the canonical encoding;
* :func:`system_hash` -- the hash of a
  :class:`~repro.model.system.TransactionSystem`'s *analysis-relevant*
  content.  Cosmetic fields (names, ``meta``) are excluded, and so are
  the derived offset/jitter fields of non-first tasks: the holistic
  analysis manages those in place (they equal best-case response times
  of predecessors and are recomputed from scratch every run), so two
  systems that differ only in derived state are the same analysis input
  -- which is exactly what makes the hash stable across "generated
  fresh" vs "already analyzed" vs "scaled from an analyzed base";
* :func:`spec_hash` / :func:`campaign_config_hash` /
  :func:`analysis_config_hash` -- hashes of campaign and analysis
  configuration.  The campaign cell config deliberately folds in the
  full ordered method tuple and the sweep ladder: per-cell accounting
  (warm-start usage, phase-cache hits, bisection provenance) depends on
  both, so only cells produced under the identical execution context
  may be served interchangeably.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from repro.io.spec import _platform_to_dict
from repro.model.system import TransactionSystem

__all__ = [
    "analysis_config_hash",
    "campaign_config_hash",
    "canonical_json",
    "content_hash",
    "spec_hash",
    "system_hash",
]

#: Bump when the canonical encodings below change shape; stored entries
#: keyed under an older version then simply stop matching (a cache miss,
#: never a wrong hit).
CANONICAL_VERSION = 1


def _write_canonical(obj: Any, out: list[str]) -> None:
    # Exact built-in types first, by identity: they are nearly all of a
    # hashed input.  None, bools, subclasses and NumPy scalars take the
    # isinstance rules further down.
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(
                f"canonical JSON cannot encode non-finite float {obj!r}"
            )
        out.append(repr(obj) if obj else "0.0")  # -0.0 == 0.0, reprs differ
    elif kind is int:
        out.append(str(obj))
    elif kind is str:
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise TypeError(
                    f"canonical JSON requires string keys, got {k!r}"
                )
            if i:
                out.append(",")
            out.append(_encode_str(k) + ":")
            _write_canonical(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(v, out)
        out.append("]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"canonical JSON cannot encode non-finite float {obj!r}"
            )
        # Demote subclasses: NumPy's float64 *is* a float but reprs as
        # "np.float64(...)"; the value is bit-identical either way.
        _write_canonical(float(obj), out)
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    else:
        item = getattr(obj, "item", None)
        if callable(item):  # NumPy scalars, without importing NumPy
            _write_canonical(item(), out)
        else:
            raise TypeError(
                f"canonical JSON cannot encode {type(obj).__name__}: {obj!r}"
            )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact, round-trip float reprs.

    Raises :class:`ValueError` on NaN/infinity and :class:`TypeError` on
    non-JSON types or non-string dict keys -- ambiguity is a bug here,
    not something to paper over.
    """
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def content_hash(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of *obj*."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def system_content(system: TransactionSystem) -> dict:
    """The analysis-relevant content of *system*, canonically shaped.

    Excluded on purpose: every ``name``/``meta`` field (cosmetic), and
    the offset/jitter of non-first tasks -- those are *derived* state the
    dynamic-offset analysis overwrites (offset = predecessor best-case
    response, jitter from Eq. 18) before using them, so they carry no
    information about the analysis input.  The first task's offset and
    jitter are genuine inputs and stay in.
    """
    platforms = []
    for p in system.platforms:
        entry = _platform_to_dict(p)
        entry.pop("name", None)
        platforms.append(entry)
    transactions = []
    for tr in system.transactions:
        tasks = []
        for j, t in enumerate(tr.tasks):
            task_entry: dict[str, Any] = {
                "wcet": t.wcet,
                "bcet": t.bcet,
                "platform": t.platform,
                "priority": t.priority,
                "blocking": t.blocking,
            }
            if j == 0:
                task_entry["offset"] = t.offset
                task_entry["jitter"] = t.jitter
            tasks.append(task_entry)
        transactions.append(
            {"period": tr.period, "deadline": tr.deadline, "tasks": tasks}
        )
    return {
        "kind": "system",
        "version": CANONICAL_VERSION,
        "platforms": platforms,
        "transactions": transactions,
    }


def system_hash(system: TransactionSystem) -> str:
    """Content hash of a transaction system (see :func:`system_content`)."""
    return content_hash(system_content(system))


def spec_hash(spec: Any) -> str:
    """Content hash of a :class:`~repro.batch.campaign.CampaignSpec`.

    Accepts the spec object or its ``to_dict()`` form; both hash
    identically (``to_dict`` is the canonical shape).
    """
    data = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    return content_hash(
        {"kind": "campaign-spec", "version": CANONICAL_VERSION, "spec": data}
    )


def campaign_config_hash(spec: Any) -> str:
    """Execution-context hash of one campaign cell.

    Everything that shapes a cell's *accounting* beyond the generated
    system itself: the full ordered method tuple (methods of one sweep
    step share a phase cache, so a cell's hit/miss counts depend on its
    neighbors), warm-start chaining, and the sweep ladder (a warm-started
    cell's iteration counts depend on the levels below it; a pruned
    chain's inferred provenance depends on the whole ladder).  Cells may
    only be served across runs whose context hashes match -- the
    precondition for the store's bit-identical-rerun guarantee.
    """
    levels = [
        v.item() if callable(getattr(v, "item", None)) else v
        for v in spec.sweep_values()
    ]
    return content_hash(
        {
            "kind": "campaign-cell",
            "version": CANONICAL_VERSION,
            "methods": list(spec.methods),
            "warm_start": bool(spec.warm_start),
            "sweep_axis": spec.sweep_axis,
            "levels": levels,
        }
    )


def analysis_config_hash(config: Any) -> str:
    """Content hash of an :class:`~repro.analysis.AnalysisConfig`.

    Its fields are all str, int, float or bool, so a shallow dict of
    them is what ``dataclasses.asdict`` would build, without the copy.
    """
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return content_hash(
        {
            "kind": "analysis-config",
            "version": CANONICAL_VERSION,
            "config": values,
        }
    )
