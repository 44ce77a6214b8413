"""Output checks against in-process references computed off the clock.

Exact-mode outputs must match the reference's verdicts and WCRT-derived
values bit for bit.  Verdict-mode outputs are compared on the verdict
only: their WCRTs may be partial or upper bounds once the verdict is
decided.  Accounting fields (evaluation counts, cache hits, ``fp_*``
extras) are not outputs; :func:`accounting_mismatches` counts where they
differ so a run can record it.
"""

from __future__ import annotations

import json
import math

_OUTPUT_FIELDS = ("schedulable", "converged", "max_wcrt_ratio")
_IDENTITY_FIELDS = ("params", "seed", "replicate")


def same_float(a, b, rel_tol: float = 0.0) -> bool:
    """Equality (bit-level unless *rel_tol*) that treats NaN as equal to NaN."""
    a, b = _as_float(a), _as_float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def _as_float(value) -> float:
    # The service spells non-finite values as strings.
    return float(value) if not isinstance(value, str) else float(
        {"Infinity": "inf", "-Infinity": "-inf"}.get(value, value)
    )


def _cells(result) -> list[dict]:
    """Cell dicts of a campaign result object or its JSON payload."""
    if isinstance(result, dict):
        return result["cells"]
    return [c.to_dict() for c in result.cells]


def _identity(cell: dict) -> str:
    return json.dumps([cell[f] for f in _IDENTITY_FIELDS], sort_keys=True)


def campaign_mismatch(got, ref, *, exact: bool, rel_tol: float = 0.0):
    """First output difference between two campaign results, or ``None``.

    *rel_tol* relaxes the WCRT comparison for references that run another
    interference kernel, which agrees only to within the analysis
    tolerance.
    """
    a_cells, b_cells = _cells(got), _cells(ref)
    if len(a_cells) != len(b_cells):
        return f"{len(a_cells)} cells, reference has {len(b_cells)}"
    for i, (a, b) in enumerate(zip(a_cells, b_cells)):
        if _identity(a) != _identity(b):
            return f"cell {i}: identity differs"
        if a["schedulable"] != b["schedulable"]:
            return f"cell {i}: verdict {a['schedulable']} != {b['schedulable']}"
        if exact and not (
            a["converged"] == b["converged"]
            and same_float(a["max_wcrt_ratio"], b["max_wcrt_ratio"], rel_tol)
        ):
            return (
                f"cell {i}: max_wcrt_ratio {a['max_wcrt_ratio']!r} != "
                f"{b['max_wcrt_ratio']!r}"
            )
    return None


def accounting_mismatches(got, ref) -> int:
    """Cells whose non-output fields differ (timings excluded)."""
    count = 0
    for a, b in zip(_cells(got), _cells(ref)):
        keys = (set(a) | set(b)) - set(_OUTPUT_FIELDS) - {"time_s"}
        if any(a.get(k) != b.get(k) for k in keys):
            count += 1
    return count


def analyze_mismatch(body: dict, ref, *, exact: bool) -> str | None:
    """Difference between a ``POST /analyze`` body and ``analyze()``."""
    if body.get("schedulable") != ref.schedulable:
        return f"verdict {body.get('schedulable')} != {ref.schedulable}"
    if not exact:
        return None
    if body.get("converged") != ref.converged:
        return "converged flag differs"
    wcrts = [t.get("wcrt") for t in body.get("transactions", [])]
    if len(wcrts) != len(ref.transaction_wcrt):
        return "transaction count differs"
    for i, (w, r) in enumerate(zip(wcrts, ref.transaction_wcrt)):
        if not same_float(w, r):
            return f"transaction {i}: wcrt {w!r} != {r!r}"
    return None
