"""Request validation and canonical response payloads for the service.

Hand-rolled on purpose: the API has four endpoints and two request
shapes, and a declarative-validator dependency would be the only
third-party import in the whole subsystem.  Every parser raises
:class:`ValidationError` carrying a list of human-readable problems,
which the app maps onto a ``400`` with the full list in the body --
a client should never have to fix its request one field per round trip.

The module also owns the *canonical result payload*: the bit-stable
subset of a :class:`~repro.batch.campaign.CampaignResult` JSON document.
``GET /campaigns/{id}/result`` must return byte-identical bodies for two
runs of the same spec (and match what ``python -m repro campaign --json``
wrote, modulo wall-clock), so the payload drops every volatile execution
field -- wall seconds, worker counts, store and re-seed accounting,
per-cell ``time_s`` -- and serializes through
:func:`repro.batch.canonical.canonical_json`.  Non-finite metric floats
(an unschedulable cell's ``max_wcrt_ratio`` is ``inf``, an aborted
verdict probe's is ``nan``) are mapped onto the JSON-safe strings
``"Infinity"``/``"-Infinity"``/``"NaN"`` because canonical JSON rightly
refuses to encode them as bare tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.analysis import AnalysisConfig
from repro.batch.campaign import Campaign, CampaignSpec
from repro.batch.canonical import canonical_json
from repro.io import system_from_dict
from repro.model.system import TransactionSystem

__all__ = [
    "AnalyzeRequest",
    "CampaignRequest",
    "ValidationError",
    "canonical_result_json",
    "canonical_result_payload",
]

_METHODS = ("reduced", "exact")
_MODES = ("exact", "verdict")
_BEST_CASES = ("simple", "sound", "iterative")
_BACKENDS = ("pool", "dispatch")


class ValidationError(ValueError):
    """A request that failed validation; ``errors`` lists every problem."""

    def __init__(self, errors: list[str] | str):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = errors
        super().__init__("; ".join(errors))


def _require_object(body: Any, what: str) -> dict:
    if not isinstance(body, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(body).__name__}"
        )
    return body


def _reject_unknown(body: dict, allowed: tuple[str, ...], what: str,
                    errors: list[str]) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        errors.append(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _choice(body: dict, key: str, choices: tuple[str, ...], default: str,
            errors: list[str]) -> str:
    value = body.get(key, default)
    if value not in choices:
        errors.append(
            f"{key} must be one of {', '.join(map(repr, choices))}, "
            f"got {value!r}"
        )
        return default
    return value


@dataclass(frozen=True)
class AnalyzeRequest:
    """Validated body of ``POST /analyze``."""

    system: TransactionSystem
    config: AnalysisConfig

    @classmethod
    def parse(cls, body: Any) -> "AnalyzeRequest":
        body = _require_object(body, "analyze request")
        errors: list[str] = []
        _reject_unknown(
            body, ("system", "method", "mode", "best_case"),
            "analyze request", errors,
        )
        method = _choice(body, "method", _METHODS, "reduced", errors)
        mode = _choice(body, "mode", _MODES, "exact", errors)
        best_case = _choice(body, "best_case", _BEST_CASES, "simple", errors)
        system_dict = body.get("system")
        system = None
        if not isinstance(system_dict, dict):
            errors.append(
                "system is required and must be a system JSON object "
                "(as written by `python -m repro example`)"
            )
        else:
            try:
                system = system_from_dict(system_dict)
            except Exception as exc:
                errors.append(f"system does not parse: {exc}")
        if errors:
            raise ValidationError(errors)
        assert system is not None
        return cls(
            system=system,
            config=AnalysisConfig(
                method=method, best_case=best_case, mode=mode
            ),
        )


@dataclass(frozen=True)
class CampaignRequest:
    """Validated body of ``POST /campaigns``."""

    spec: CampaignSpec
    #: ``"pool"`` runs on the persistent in-process worker pool;
    #: ``"dispatch"`` hands the spec to :class:`CampaignDispatcher`
    #: (subprocess shards, work stealing, fault-tolerant relaunch) --
    #: the right backend once a sweep outgrows one process pool.
    backend: str = "pool"

    @classmethod
    def parse(cls, body: Any) -> "CampaignRequest":
        body = _require_object(body, "campaign request")
        errors: list[str] = []
        _reject_unknown(
            body, ("spec", "backend"), "campaign request", errors
        )
        backend = _choice(body, "backend", _BACKENDS, "pool", errors)
        spec_dict = body.get("spec")
        spec = None
        if not isinstance(spec_dict, dict):
            errors.append(
                "spec is required and must be a campaign spec JSON object "
                "(the shape `python -m repro campaign --spec` reads)"
            )
        else:
            try:
                spec = CampaignSpec.from_dict(spec_dict)
                Campaign(spec)  # validates generator and method names
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"spec does not validate: {exc}")
        if errors:
            raise ValidationError(errors)
        assert spec is not None
        return cls(spec=spec, backend=backend)


# -- canonical result payload ----------------------------------------------

#: CampaignResult fields that vary run to run without changing what was
#: computed.  ``chain_costs`` are recorded wall seconds; the store
#: counters describe *how* cells were obtained, not their values.
_VOLATILE_RESULT_FIELDS = frozenset(
    {
        "workers",
        "wall_time_s",
        "streamed_cells",
        "store_hits",
        "store_misses",
        "chain_costs",
    }
)


def _json_safe(obj: Any) -> Any:
    """Replace non-finite floats with their stable string spellings."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def canonical_result_payload(result: Any) -> dict:
    """The bit-stable view of a campaign result (object or dict form).

    Two runs of the same spec -- pool-backed, dispatch-backed, CLI,
    store-warmed or cold -- produce identical payloads; see the module
    docstring for what is stripped and why.
    """
    data = result.to_dict() if hasattr(result, "to_dict") else dict(result)
    payload = {
        k: v for k, v in data.items() if k not in _VOLATILE_RESULT_FIELDS
    }
    payload["cells"] = [
        {k: v for k, v in cell.items() if k != "time_s"}
        for cell in data.get("cells", [])
    ]
    return _json_safe(payload)


def canonical_result_json(result: Any) -> bytes:
    """Canonical JSON bytes of :func:`canonical_result_payload`."""
    return canonical_json(canonical_result_payload(result)).encode("utf-8")
