"""Text Gantt charts of simulation traces.

Renders per-platform execution timelines from the intervals a simulation
records with ``record_intervals=True``.  Each platform becomes one row of
the chart; each column is a time bucket; the glyph identifies the
transaction executing (``1``-``9`` then ``a``-``z``), ``.`` is idle supply
time and `` `` (space) is time without supply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.system import TransactionSystem

if TYPE_CHECKING:  # a runtime import would load all of repro.sim
    from repro.sim.trace import SimTrace

__all__ = ["render_gantt"]

_GLYPHS = "123456789abcdefghijklmnopqrstuvwxyz"


def render_gantt(
    system: TransactionSystem,
    trace: SimTrace,
    *,
    start: float = 0.0,
    end: float | None = None,
    width: int = 100,
) -> str:
    """Render the recorded execution intervals as a text chart.

    Parameters
    ----------
    system:
        The simulated system (for platform/transaction names).
    trace:
        A trace produced with ``record_intervals=True``.
    start, end:
        The rendered time window; *end* defaults to the trace horizon.
    width:
        Chart width in characters; each character covers
        ``(end - start)/width`` time units and shows the transaction that
        executed the *majority* of that bucket.
    """
    if not trace.intervals:
        raise ValueError(
            "trace has no execution intervals; simulate with "
            "record_intervals=True"
        )
    if end is None:
        end = trace.horizon
    if end <= start:
        raise ValueError(f"empty window [{start!r}, {end!r})")
    bucket = (end - start) / width

    m_count = len(system.platforms)
    # occupancy[m][col][txn] = executed time of txn in that bucket.
    occupancy: list[list[dict[int, float]]] = [
        [dict() for _ in range(width)] for _ in range(m_count)
    ]
    for m, txn, _idx, s, e in trace.intervals:
        s = max(s, start)
        e = min(e, end)
        if e <= s:
            continue
        col0 = int((s - start) / bucket)
        col1 = min(width - 1, int((e - start - 1e-12) / bucket))
        for col in range(col0, col1 + 1):
            b_lo = start + col * bucket
            b_hi = b_lo + bucket
            overlap = min(e, b_hi) - max(s, b_lo)
            if overlap > 0:
                cell = occupancy[m][col]
                cell[txn] = cell.get(txn, 0.0) + overlap

    lines = [f"Gantt [{start:g}, {end:g}) -- one column = {bucket:g} time units"]
    for i, tr in enumerate(system.transactions):
        glyph = _GLYPHS[i % len(_GLYPHS)]
        lines.append(f"  {glyph} = {tr.name or f'Gamma{i + 1}'}")
    for m in range(m_count):
        name = getattr(system.platforms[m], "name", "") or f"Pi{m + 1}"
        row = []
        for col in range(width):
            cell = occupancy[m][col]
            if not cell:
                row.append(" ")
            else:
                winner = max(cell.items(), key=lambda kv: kv[1])[0]
                row.append(_GLYPHS[winner % len(_GLYPHS)])
        lines.append(f"{name:>16} |{''.join(row)}|")
    return "\n".join(lines)
