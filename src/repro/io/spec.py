"""Dictionary/JSON codecs for transaction systems.

The schema is versioned (``"version": 1``) and intentionally flat::

    {
      "version": 1,
      "name": "...",
      "platforms": [{"kind": "linear", "rate": 0.4, ...}, ...],
      "transactions": [
        {"period": 50.0, "deadline": 50.0, "name": "Gamma1",
         "tasks": [{"wcet": 1.0, "bcet": 0.8, "platform": 2,
                    "priority": 2, "offset": 0.0, "jitter": 0.0,
                    "blocking": 0.0, "name": "init"}, ...]},
        ...
      ]
    }

Platform kinds: ``linear``, ``dedicated``, ``periodic_server``,
``partition``, ``pfair``, ``reservation`` (with a ``policy``), ``network``.
Unknown kinds raise with the offending value in the message.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.platforms.base import AbstractPlatform
from repro.platforms.linear import DedicatedPlatform, LinearSupplyPlatform
from repro.platforms.network import NetworkLinkPlatform
from repro.platforms.partition import StaticPartitionPlatform
from repro.platforms.periodic_server import PeriodicServer
from repro.platforms.pfair import PFairPlatform
from repro.platforms.servers import ReservationServer

__all__ = ["system_to_dict", "system_from_dict", "save_system", "load_system"]

SCHEMA_VERSION = 1


def _platform_to_dict(p: AbstractPlatform) -> dict[str, Any]:
    name = getattr(p, "name", "")
    if isinstance(p, ReservationServer):
        return {
            "kind": "reservation",
            "budget": p.budget,
            "period": p.period,
            "policy": p.policy,
            "name": name,
        }
    if isinstance(p, PeriodicServer):
        return {"kind": "periodic_server", "budget": p.budget, "period": p.period, "name": name}
    if isinstance(p, StaticPartitionPlatform):
        return {
            "kind": "partition",
            "slots": [[s, l] for s, l in p.slots],
            "cycle": p.cycle,
            "name": name,
        }
    if isinstance(p, PFairPlatform):
        return {"kind": "pfair", "weight": p.weight, "quantum": p.quantum, "name": name}
    if isinstance(p, NetworkLinkPlatform):
        return {
            "kind": "network",
            "bandwidth": p.bandwidth,
            "share": p.share,
            "delay": p.delay,
            "burstiness": p.burstiness,
            "frame_overhead": p.frame_overhead,
            "name": name,
        }
    if isinstance(p, DedicatedPlatform):
        return {"kind": "dedicated", "speed": p.rate, "name": name}
    if isinstance(p, LinearSupplyPlatform):
        return {
            "kind": "linear",
            "rate": p.rate,
            "delay": p.delay,
            "burstiness": p.burstiness,
            "name": name,
        }
    raise TypeError(f"cannot serialize platform of type {type(p).__name__}")


def _platform_from_dict(d: dict[str, Any]) -> AbstractPlatform:
    kind = d.get("kind")
    name = d.get("name", "")
    if kind == "linear":
        return LinearSupplyPlatform(
            rate=d["rate"],
            delay=d.get("delay", 0.0),
            burstiness=d.get("burstiness", 0.0),
            name=name,
            allow_superunit=True,
        )
    if kind == "dedicated":
        return DedicatedPlatform(speed=d.get("speed", 1.0), name=name)
    if kind == "periodic_server":
        return PeriodicServer(budget=d["budget"], period=d["period"], name=name)
    if kind == "reservation":
        from repro.platforms.servers import CBSServer, DeferrableServer, PollingServer

        cls = {
            "polling": PollingServer,
            "deferrable": DeferrableServer,
            "cbs": CBSServer,
        }.get(d["policy"])
        if cls is None:
            return ReservationServer(
                budget=d["budget"], period=d["period"], policy=d["policy"], name=name
            )
        return cls(budget=d["budget"], period=d["period"], name=name)
    if kind == "partition":
        return StaticPartitionPlatform(
            slots=[(s, l) for s, l in d["slots"]], cycle=d["cycle"], name=name
        )
    if kind == "pfair":
        return PFairPlatform(weight=d["weight"], quantum=d.get("quantum", 1.0), name=name)
    if kind == "network":
        link = NetworkLinkPlatform(
            bandwidth=d["bandwidth"],
            share=d.get("share", 1.0),
            arbitration_delay=d.get("delay", 0.0),
            burst_credit=d.get("burstiness", 0.0),
            frame_overhead=d.get("frame_overhead", 0.0),
            name=name,
        )
        return link
    raise ValueError(f"unknown platform kind {kind!r}")


def system_to_dict(system: TransactionSystem) -> dict[str, Any]:
    """Serialize *system* to a JSON-compatible dictionary."""
    return {
        "version": SCHEMA_VERSION,
        "name": system.name,
        "platforms": [_platform_to_dict(p) for p in system.platforms],
        "transactions": [
            {
                "period": tr.period,
                "deadline": tr.deadline,
                "name": tr.name,
                "tasks": [
                    {
                        "wcet": t.wcet,
                        "bcet": t.bcet,
                        "platform": t.platform,
                        "priority": t.priority,
                        "offset": t.offset,
                        "jitter": t.jitter,
                        "blocking": t.blocking,
                        "name": t.name,
                    }
                    for t in tr.tasks
                ],
            }
            for tr in system.transactions
        ],
    }


def system_from_dict(data: dict[str, Any]) -> TransactionSystem:
    """Rebuild a system from :func:`system_to_dict` output."""
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    platforms = [_platform_from_dict(p) for p in data["platforms"]]
    transactions = []
    for tr in data["transactions"]:
        tasks = [
            Task(
                wcet=t["wcet"],
                bcet=t.get("bcet"),
                platform=t["platform"],
                priority=t["priority"],
                offset=t.get("offset", 0.0),
                jitter=t.get("jitter", 0.0),
                blocking=t.get("blocking", 0.0),
                name=t.get("name", ""),
            )
            for t in tr["tasks"]
        ]
        transactions.append(
            Transaction(
                period=tr["period"],
                deadline=tr.get("deadline"),
                name=tr.get("name", ""),
                tasks=tasks,
            )
        )
    return TransactionSystem(
        transactions=transactions, platforms=platforms, name=data.get("name", "")
    )


def save_system(system: TransactionSystem, path: str | Path) -> Path:
    """Write *system* as JSON to *path* (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(system_to_dict(system), indent=2))
    return path


def read_json(path: str | Path) -> Any:
    """Parse the JSON file at *path*, the one way user files are read.

    A file nested deeper than the parser's recursion limit raises
    :class:`ValueError`, like every other malformed file, instead of
    :class:`RecursionError`.
    """
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_system(path: str | Path) -> TransactionSystem:
    """Load a system previously written by :func:`save_system`."""
    return system_from_dict(read_json(path))
