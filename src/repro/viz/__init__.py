"""Text-based visualization: ASCII plots, tables and CSV output.

Matplotlib is not available in the offline environment, so every figure of
the paper is rendered as (a) an ASCII plot for the terminal and (b) a CSV
series for external plotting.  The *shape* comparisons the reproduction
cares about (supply curves vs. linear bounds, crossover points, sweep
trends) survive both renderings.
"""

from repro.viz.ascii import ascii_plot, ascii_step_plot
from repro.viz.tables import format_table
from repro.viz.csvout import write_csv, series_to_rows
from repro.viz.gantt import render_gantt

__all__ = [
    "ascii_plot",
    "ascii_step_plot",
    "render_gantt",
    "format_table",
    "write_csv",
    "series_to_rows",
]
