"""Smoke test of the benchmark itself.

Runs every workload once at a tiny size, untraced and traced, and checks
the output contract, the catalog schema, the recorded context, the span
dump, and the layer separation the workloads were chosen for.  It is not
part of the tier-1 suite; run it explicitly::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import schema  # noqa: E402

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]


def _invoke(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", seconds, "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs():
    """``(workload, trace) -> (result line, record)`` of every tiny run."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _invoke(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr[-4000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".perfbench_out" / f"{workload}.trace{trace}.json")
                .read_text()
            )
            out[(workload, trace)] = (result, record)
    return out


def test_catalog_matches_schema():
    assert schema.validate(CATALOG) == []
    broken = copy.deepcopy(CATALOG)
    broken["end_to_end"][0]["bound"] = 0.5
    del broken["workloads"][0]["why"]
    assert len(schema.validate(broken)) == 2


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(runs, workload, trace):
    result, record = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = CATALOG["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert record["seed"] == 3
    assert record["why"] == next(
        w["why"] for w in CATALOG["workloads"] if w["name"] == workload
    )
    assert record["sizes"] and record["counters"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_dump_parses(runs, workload):
    _result, record = runs[(workload, 1)]
    lines = (ROOT / record["spans"]["path"]).read_text().splitlines()
    assert len(lines) == record["spans"]["count"] > 0
    ids = set()
    for line in lines:
        span = json.loads(line)
        assert {"id", "parent", "name", "start_ns", "end_ns", "correlation",
                "attrs"} <= set(span)
        assert span["end_ns"] >= span["start_ns"]
        ids.add(span["id"])
    parents = {json.loads(line)["parent"] for line in lines} - {None}
    assert parents <= ids


def test_layer_separation(runs):
    def layer(workload, name):
        return runs[(workload, 1)][0]["metrics"][name]["value"]

    assert layer("sweep_wide", "busy.vector_closures") > 0
    assert layer("sweep_narrow", "busy.vector_closures") == 0
    for name in ("reduced.ceiling_exits", "schedulability.prefilter_us_p50"):
        assert layer("sweep_narrow", name) == layer("sweep_wide", name) == 0
        assert layer("dispatch_verdict", name) > 0
        assert layer("serve_mixed", name) > 0
    for sweep in ("sweep_narrow", "sweep_wide"):
        for name in ("store.get_us_p50", "store.put_us_p50", "store.entries",
                     "store.hit_ratio", "dispatch.shards", "serve.hit_p50_ms"):
            assert layer(sweep, name) == 0, (sweep, name)
    assert layer("dispatch_verdict", "dispatch.shards") > 0
    assert layer("serve_mixed", "serve.miss_p50_ms") > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _invoke(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
