"""Dictionary/JSON codecs for components and assemblies.

Lets a complete component-based design live in one JSON document -- the
component classes (Figures 1-2 style), the instances/bindings/placements of
Section 2.2.1 and the platforms -- from which the CLI's ``derive`` command
produces an analyzable transaction-system file.

Schema sketch (``"version": 1``)::

    {
      "version": 1,
      "name": "...",
      "components": {
        "SensorReading": {
          "provided": [{"name": "read", "mit": 50.0}],
          "required": [],
          "scheduler": "fixed_priority",
          "threads": [
            {"kind": "periodic", "name": "poll", "period": 15.0,
             "deadline": 15.0, "priority": 2,
             "body": [{"kind": "task", "name": "acquire",
                        "wcet": 1.0, "bcet": 0.25}]},
            {"kind": "event", "name": "serve", "realizes": "read",
             "priority": 1,
             "body": [{"kind": "task", "name": "serve_read", "wcet": 1.0}]}
          ]
        }
      },
      "instances": {"Sensor1": "SensorReading", ...},
      "platforms": [...same as the system schema...],
      "placements": {"Sensor1": "Pi1", ...},
      "bindings": [
        {"caller": "Integrator", "required": "readSensor1",
         "callee": "Sensor1", "provided": "read",
         "request": {"payload": 2.0, "priority": 2},   # optional
         "reply": {"payload": 6.0, "priority": 2},     # optional
         "network": "bus"}                             # optional
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.components.assembly import SystemAssembly
from repro.components.component import Component
from repro.components.interface import ProvidedMethod, RequiredMethod
from repro.components.scheduler import (
    EDFScheduler,
    FixedPriorityScheduler,
    LocalScheduler,
)
from repro.components.threads import CallStep, EventThread, PeriodicThread, TaskStep
from repro.io.spec import _platform_from_dict, _platform_to_dict, read_json
from repro.platforms.network import Message

__all__ = [
    "component_to_dict",
    "component_from_dict",
    "assembly_to_dict",
    "assembly_from_dict",
    "save_assembly",
    "load_assembly",
]

SCHEMA_VERSION = 1


def _step_to_dict(step) -> dict[str, Any]:
    if isinstance(step, TaskStep):
        out: dict[str, Any] = {"kind": "task", "name": step.name, "wcet": step.wcet}
        if step.bcet is not None:
            out["bcet"] = step.bcet
        if step.priority is not None:
            out["priority"] = step.priority
        return out
    if isinstance(step, CallStep):
        return {"kind": "call", "method": step.method}
    raise TypeError(f"unknown step type {type(step).__name__}")


def _step_from_dict(d: dict[str, Any]):
    kind = d.get("kind")
    if kind == "task":
        return TaskStep(
            name=d["name"],
            wcet=d["wcet"],
            bcet=d.get("bcet"),
            priority=d.get("priority"),
        )
    if kind == "call":
        return CallStep(method=d["method"])
    raise ValueError(f"unknown step kind {kind!r}")


def _thread_to_dict(thread) -> dict[str, Any]:
    base = {
        "name": thread.name,
        "priority": thread.priority,
        "body": [_step_to_dict(s) for s in thread.body],
    }
    if isinstance(thread, PeriodicThread):
        return {"kind": "periodic", "period": thread.period,
                "deadline": thread.deadline, **base}
    if isinstance(thread, EventThread):
        return {"kind": "event", "realizes": thread.realizes, **base}
    raise TypeError(f"unknown thread type {type(thread).__name__}")


def _thread_from_dict(d: dict[str, Any]):
    kind = d.get("kind")
    body = tuple(_step_from_dict(s) for s in d.get("body", []))
    if kind == "periodic":
        return PeriodicThread(
            name=d["name"], priority=d["priority"], period=d["period"],
            deadline=d.get("deadline"), body=body,
        )
    if kind == "event":
        return EventThread(
            name=d["name"], priority=d["priority"], realizes=d["realizes"],
            body=body,
        )
    raise ValueError(f"unknown thread kind {kind!r}")


def _scheduler_to_str(s: LocalScheduler) -> str:
    return s.policy


def _scheduler_from_str(policy: str) -> LocalScheduler:
    if policy == "fixed_priority":
        return FixedPriorityScheduler()
    if policy == "edf":
        return EDFScheduler()
    raise ValueError(f"unknown scheduler policy {policy!r}")


def component_to_dict(component: Component) -> dict[str, Any]:
    """Serialize one component class."""
    return {
        "provided": [
            {"name": m.name, "mit": m.mit, "parameters": list(m.parameters)}
            for m in component.provided
        ],
        "required": [
            {"name": m.name, "mit": m.mit, "parameters": list(m.parameters)}
            for m in component.required
        ],
        "scheduler": _scheduler_to_str(component.scheduler),
        "threads": [_thread_to_dict(t) for t in component.threads],
    }


def component_from_dict(name: str, d: dict[str, Any]) -> Component:
    """Rebuild a component class from :func:`component_to_dict` output."""
    return Component(
        name=name,
        provided=[
            ProvidedMethod(m["name"], mit=m["mit"],
                           parameters=tuple(m.get("parameters", ())))
            for m in d.get("provided", [])
        ],
        required=[
            RequiredMethod(m["name"], mit=m["mit"],
                           parameters=tuple(m.get("parameters", ())))
            for m in d.get("required", [])
        ],
        scheduler=_scheduler_from_str(d.get("scheduler", "fixed_priority")),
        threads=[_thread_from_dict(t) for t in d.get("threads", [])],
    )


def _message_to_dict(m: Message | None) -> dict[str, Any] | None:
    if m is None:
        return None
    return {
        "payload": m.payload,
        "payload_best": m.payload_best,
        "priority": m.priority,
        "name": m.name,
    }


def _message_from_dict(d: dict[str, Any] | None) -> Message | None:
    if d is None:
        return None
    return Message(
        payload=d["payload"],
        payload_best=d.get("payload_best"),
        priority=d.get("priority", 1),
        name=d.get("name", ""),
    )


def assembly_to_dict(assembly: SystemAssembly) -> dict[str, Any]:
    """Serialize a full assembly (deduplicating shared component classes)."""
    classes: dict[str, dict[str, Any]] = {}
    instances: dict[str, str] = {}
    for iname, comp in assembly.instances.items():
        serialized = component_to_dict(comp)
        cname = comp.name
        if cname in classes and classes[cname] != serialized:
            # Same class name, different content: qualify by instance.
            cname = f"{comp.name}@{iname}"
        classes[cname] = serialized
        instances[iname] = cname
    return {
        "version": SCHEMA_VERSION,
        "name": assembly.name,
        "components": classes,
        "instances": instances,
        "platforms": [
            {"platform_name": n, **_platform_to_dict(assembly._platforms[n])}
            for n in assembly.platform_names
        ],
        "placements": dict(assembly.placements),
        "bindings": [
            {
                "caller": b.caller,
                "required": b.required,
                "callee": b.callee,
                "provided": b.provided,
                "request": _message_to_dict(b.request),
                "reply": _message_to_dict(b.reply),
                "network": b.network,
            }
            for b in assembly.bindings.values()
        ],
    }


def assembly_from_dict(data: dict[str, Any]) -> SystemAssembly:
    """Rebuild an assembly from :func:`assembly_to_dict` output."""
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported assembly schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    assembly = SystemAssembly(name=data.get("name", ""))
    classes = {
        cname: component_from_dict(cname.split("@")[0], cdict)
        for cname, cdict in data.get("components", {}).items()
    }
    for iname, cname in data.get("instances", {}).items():
        if cname not in classes:
            raise ValueError(f"instance {iname!r} references unknown class {cname!r}")
        assembly.add_instance(iname, classes[cname])
    for p in data.get("platforms", []):
        assembly.add_platform(p["platform_name"], _platform_from_dict(p))
    for iname, pname in data.get("placements", {}).items():
        assembly.place(iname, platform=pname)
    for b in data.get("bindings", []):
        assembly.bind(
            b["caller"], b["required"], b["callee"], b["provided"],
            request=_message_from_dict(b.get("request")),
            reply=_message_from_dict(b.get("reply")),
            network=b.get("network"),
        )
    return assembly


def save_assembly(assembly: SystemAssembly, path: str | Path) -> Path:
    """Write *assembly* as JSON to *path* (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(assembly_to_dict(assembly), indent=2))
    return path


def load_assembly(path: str | Path) -> SystemAssembly:
    """Load an assembly previously written by :func:`save_assembly`."""
    return assembly_from_dict(read_json(path))
