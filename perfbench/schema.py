"""Validation of ``BENCHMARK.json``, the benchmark's metric catalog."""

from __future__ import annotations

import json
import re
from pathlib import Path

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}


def validate(doc: dict) -> list[str]:
    """Every way *doc* departs from the catalog schema (empty when valid)."""
    errors: list[str] = []
    if set(doc) != _KEYS:
        errors.append(f"keys must be exactly {sorted(_KEYS)}")
        return errors
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and all(
        isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
        and ".." not in c.split("/") for c in command
    )):
        errors.append("command must be 1-32 relative strings")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and all(
        isinstance(p, str) and _PATH.match(p) and not p.startswith("/")
        and ".." not in p.split("/") for p in paths
    )):
        errors.append("paths must be 1-16 relative directory names")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool)
            and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number in 1..60")

    names: list[str] = []
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads must list 2 to 8 entries")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append(f"workload {w!r} needs exactly name and why")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and why and len(why) <= 200
                and "\n" not in why):
            errors.append(f"workload {w['name']}: why must be one line "
                          "of at most 200 characters")

    for section, lo, hi, keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = doc[section]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            errors.append(f"{section} must list {lo} to {hi} metrics")
            continue
        for metric in metrics:
            if set(metric) != keys:
                errors.append(f"{section} {metric!r} needs keys {sorted(keys)}")
                continue
            names.append(metric["name"])
            if not _UNIT.match(str(metric["unit"])):
                errors.append(f"{metric['name']}: bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                errors.append(f"{metric['name']}: better must be lower/higher")
            if section == "end_to_end":
                bound = metric["bound"]
                if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                    errors.append(f"{metric['name']}: bound must be in (0, 0.25]")

    for name in names:
        if not (isinstance(name, str) and _NAME.match(name)):
            errors.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get(
        "better"
    ) != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup[0]["bound"] for m in doc["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    if len(json.dumps(doc).encode()) > 64 * 1024:
        errors.append("the file exceeds 64 KiB")
    return errors


def load(path: Path) -> dict:
    """Parse and validate the catalog; raises ValueError when invalid."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = validate(doc)
    if errors:
        raise ValueError("; ".join(errors))
    return doc
