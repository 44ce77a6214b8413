"""Edits of system and request documents shared by the test modules.

A plain module rather than part of ``conftest.py``: test modules import
these names directly, and ``import conftest`` may resolve to another
directory's conftest (``benchmarks/`` has one too).
"""

from __future__ import annotations

import math

from repro.paper import sensor_fusion_system

#: Leaf value meaning "delete the entry" (see :func:`set_leaf`).
DELETE = object()

#: Hostile values a fuzz swaps into the leaves of a system or request.
LEAF_VALUES = [
    None, True, False, "x", 1e308, -1e308, 2**63, math.nan, [], {}, DELETE,
]


def leaf_paths(node, path=()):
    """Paths of every scalar leaf under the JSON document *node*."""
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from leaf_paths(node[key], path + (key,))
    else:
        yield path


def set_leaf(data, path: tuple, value) -> None:
    """Set the entry of *data* at *path* to *value* (delete it for
    :data:`DELETE`)."""
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def paper_dict_with(path: tuple, value) -> dict:
    """The paper example's system dict with the entry at *path* set to
    *value*."""
    from repro.io import system_to_dict

    data = system_to_dict(sensor_fusion_system())
    set_leaf(data, path, value)
    return data


def _overflow_system(transactions: list, platform: dict | None = None,
                     deadline: float | None = None):
    return {
        "version": 1,
        "platforms": [platform or {"kind": "dedicated", "speed": 1.0}],
        "transactions": [
            {
                "period": period,
                "deadline": period if deadline is None else deadline,
                "tasks": [
                    {"wcet": wcet, "platform": 0, "priority": prio,
                     "blocking": blocking}
                    for wcet, prio, blocking in tasks
                ],
            }
            for period, tasks in transactions
        ],
    }


#: Systems whose every value is finite but whose sums or job counts
#: overflow, on a unit-rate platform: ``name -> (system dict, text)``.
#: With ``text`` None the system loads and both modes find it
#: unschedulable (exact mode was an OverflowError); otherwise the loader
#: rejects it with a ValueError carrying ``text``.
OVERFLOWING_SYSTEMS = {
    "two_transactions": (
        _overflow_system([
            (1e308, [(1e308, 2, 0.0), (1e308, 1, 0.0)]),
            (1e308, [(1e308, 3, 0.0)]),
        ]),
        None,
    ),
    "one_transaction": (
        _overflow_system([(1e308, [(1e308, 2, 0.0), (1e308, 1, 0.0)])]),
        None,
    ),
    "utilization_1_2": (
        _overflow_system([
            (1e306, [(6e305, 2, 0.0)]), (1e306, [(6e305, 1, 0.0)]),
        ]),
        None,
    ),
    "short_period": (
        _overflow_system(
            [(0.5, [(0.3, 2, 0.0)]), (0.5, [(0.3, 1, 0.0)])], deadline=1e306,
        ),
        None,
    ),
    "short_period_huge_wcet": (
        _overflow_system([(1e-3, [(1e306, 1, 0.0)])]),
        None,
    ),
    "blocking": (
        _overflow_system([(1e308, [(1e308, 1, 1e308)])]),
        "task 0: platform delay 0 + blocking 1e+308",
    ),
    "platform_delay": (
        _overflow_system(
            [(1e308, [(1e308, 1, 0.0)])],
            platform={"kind": "linear", "rate": 1.0, "delay": 1e308},
        ),
        "task 0: platform delay 1e+308 + blocking 0",
    ),
}
