"""CI perf smoke and schema checks for ``BENCH_campaign.json``.

Two layers of protection for the throughput numbers the ROADMAP tracks:

* **Schema** -- the committed bench JSON must keep the structure the
  campaign benchmark writes (so downstream tooling and the next re-anchor
  can rely on it), and the recorded speedups must meet the ISSUE 2
  acceptance floor plus the ISSUE 3 distributed-execution blocks
  (``sharding`` with its >= 1.8x aggregate pin,
  ``wide_view``), the ISSUE 4 ``verdict_mode`` block (verdict-mode
  pipeline >= 2.5x the exact pipeline on the reference sweep, with the
  benchmark itself asserting >= 3x at measurement time), and the ISSUE 6
  ``result_store`` block (cold-vs-warmed store accounting; the speedup
  ratio is disk-bound and deliberately not gated).
* **Perf smoke** -- a few-second re-measurement of the reference sweep
  that fails when systems/sec regresses more than 30% below the recorded
  reference.  Timed best-of-3 to damp container throughput jitter.

``BENCH_startup.json`` (``benchmarks/bench_startup.py``) is schema-checked
too, zygote launch walls included; its gates are on the recorded module
counts only -- the startup walls depend on the machine and are not
gated.  So is
``BENCH_layers.json`` (``benchmarks/bench_layers.py``), gated on its
counters only: equal evaluations across kernels and fewer W* compiles
than the recorded baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.batch import Campaign, CampaignSpec, linspace_levels

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_campaign.json"
STARTUP_BENCH = ROOT / "BENCH_startup.json"
LAYERS_BENCH = ROOT / "BENCH_layers.json"

#: Fields every run entry of the bench JSON must carry.
RUN_FIELDS = {
    "method",
    "warm_start",
    "kernel",
    "scheduler",
    "systems",
    "wall_time_s",
    "systems_per_second",
    "evaluations_total",
    "outer_iterations_total",
    "task_solves",
    "task_skips",
}

SPEEDUP_FIELDS = {
    "vs_pr1_recorded",
    "vs_pr1_cost_model_inprocess",
    "vs_pr1_calibrated",
    "dirty_set_evaluations_saved",
    "warm_vs_cold_evaluations",
    "gauss_seidel_vs_jacobi_evaluations",
}

#: Allowed regression below the recorded reference throughput.
REGRESSION_MARGIN = 0.30


@pytest.fixture(scope="module")
def payload() -> dict:
    return json.loads(BENCH.read_text())


#: Fields of the ISSUE 3 sharding block.
SHARDING_FIELDS = {
    "shards",
    "unsharded_wall_s",
    "shard_wall_s",
    "shard_systems",
    "aggregate_systems_per_second",
    "aggregate_speedup",
}


#: Fields of the ISSUE 4 verdict_mode block.
VERDICT_EXACT_FIELDS = {"wall_time_s", "systems_per_second",
                        "evaluations_total"}
VERDICT_FIELDS = VERDICT_EXACT_FIELDS | {
    "cells", "inferred_cells", "solved_cells", "ceiling_exits",
    "prefilter_classified",
}

#: Committed floor for the recorded verdict-vs-exact speedup; the
#: benchmark asserts the full >= 3x at measurement time, the schema pin
#: keeps a margin for cross-machine drift of the committed numbers.
VERDICT_SPEEDUP_FLOOR = 2.5


class TestBenchSchema:
    def test_top_level_keys(self, payload):
        assert {
            "description", "sweep", "pr1_reference", "runs", "speedups",
            "sharding", "wide_view", "verdict_mode",
            "result_store",
        } <= set(payload)

    def test_sweep_block(self, payload):
        sweep = payload["sweep"]
        assert {"levels", "systems_per_cell", "base"} <= set(sweep)
        assert sweep["systems_per_cell"] >= 1
        assert len(sweep["levels"]) >= 2

    def test_levels_on_stable_decimal_grid(self, payload):
        """The ISSUE 2 float-drift fix: no 0.6000000000000001 keys."""
        levels = payload["sweep"]["levels"]
        assert levels == [round(v, 10) for v in levels]
        assert levels == list(
            linspace_levels(levels[0], levels[-1], len(levels))
        )

    def test_runs_schema(self, payload):
        runs = payload["runs"]
        assert "gs_warm_cached" in runs
        assert "pr1_cost_model_warm" in runs
        for name, run in runs.items():
            missing = RUN_FIELDS - set(run)
            assert not missing, f"{name} lacks {sorted(missing)}"
            assert run["systems"] > 0
            assert run["wall_time_s"] > 0
            assert run["systems_per_second"] == pytest.approx(
                run["systems"] / run["wall_time_s"], rel=1e-6
            )

    def test_speedups_schema(self, payload):
        assert SPEEDUP_FIELDS <= set(payload["speedups"])

    def test_recorded_speedup_meets_acceptance(self, payload):
        """The ISSUE 2 acceptance floor, pinned on the committed numbers."""
        assert payload["speedups"]["vs_pr1_calibrated"] >= 2.0
        assert payload["speedups"]["dirty_set_evaluations_saved"] > 0.0

    def test_pr1_reference_block(self, payload):
        ref = payload["pr1_reference"]
        assert ref["systems_per_second"] == pytest.approx(350.96, abs=0.01)
        assert ref["evaluations_total"] == 34392

    def test_sharding_block(self, payload):
        """ISSUE 3 acceptance: the recorded 2-shard reference sweep must
        deliver >= 1.8x aggregate throughput over the single-host run."""
        sharding = payload["sharding"]
        missing = SHARDING_FIELDS - set(sharding)
        assert not missing, sorted(missing)
        assert sharding["shards"] == 2
        assert len(sharding["shard_wall_s"]) == 2
        assert all(w > 0 for w in sharding["shard_wall_s"])
        # Aggregate throughput models two hosts running side by side:
        # total systems / slowest shard wall.
        assert sharding["aggregate_speedup"] == pytest.approx(
            sharding["unsharded_wall_s"] / max(sharding["shard_wall_s"]),
            rel=1e-6,
        )
        assert sharding["aggregate_speedup"] >= 1.8

    def test_verdict_mode_block(self, payload):
        """ISSUE 4 acceptance: the verdict-mode pipeline on the reference
        sweep, recorded against the exact pipeline, with the >= 2.5x
        schema floor (the benchmark gates >= 3x when it runs)."""
        block = payload["verdict_mode"]
        assert {"exact", "verdict", "verdict_vs_exact"} <= set(block)
        assert VERDICT_EXACT_FIELDS <= set(block["exact"])
        assert VERDICT_FIELDS <= set(block["verdict"])
        verdict = block["verdict"]
        assert verdict["cells"] == (
            verdict["solved_cells"] + verdict["inferred_cells"]
        )
        # The pruning really engaged: a majority of the sweep's cells were
        # inferred from monotone level pruning, not solved.
        assert verdict["inferred_cells"] > 0
        # Early exits engaged too.
        assert verdict["ceiling_exits"] > 0
        # And the whole pipeline pays off end to end.
        assert block["verdict_vs_exact"] == pytest.approx(
            block["exact"]["wall_time_s"] / verdict["wall_time_s"], rel=1e-6
        )
        assert block["verdict_vs_exact"] >= VERDICT_SPEEDUP_FLOOR

    def test_result_store_block(self, payload):
        """ISSUE 6: cold-vs-warmed store on the reference sweep.  The
        ratio itself is disk-latency-bound, so only the accounting
        invariants are pinned, not a speedup floor."""
        block = payload["result_store"]
        assert {"cold", "warm", "warm_vs_cold", "entries",
                "store_bytes"} <= set(block)
        assert block["cold"]["store_misses"] == block["entries"]
        assert block["warm"]["store_hits"] == block["entries"]
        assert block["entries"] > 0
        assert block["store_bytes"] > 0
        for leg in ("cold", "warm"):
            assert block[leg]["wall_time_s"] > 0
            assert block[leg]["systems_per_second"] > 0

    def test_wide_view_block(self, payload):
        wide = payload["wide_view"]
        assert {"scalar", "vector", "vector_vs_scalar"} <= set(wide)
        for kernel in ("scalar", "vector"):
            assert wide[kernel]["wall_time_s"] > 0
            assert wide[kernel]["systems_per_second"] > 0
        # Identical fixed points: the kernels may differ only in speed.
        assert wide["scalar"]["evaluations_total"] == \
            wide["vector"]["evaluations_total"]
        # The ROADMAP claim behind the preset: on wide views the vector
        # kernel wins outright.
        assert wide["vector_vs_scalar"] > 1.0


class TestPerfSmoke:
    def test_throughput_within_margin_of_reference(self, payload):
        """Re-run the recorded sweep; fail on a >30% systems/sec drop."""
        sweep = payload["sweep"]
        base = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in sweep["base"].items()
        }
        spec = CampaignSpec(
            grid={"utilization": tuple(sweep["levels"])},
            base=base,
            methods=("gauss_seidel",),
            systems_per_cell=sweep["systems_per_cell"],
            seed=3,
            warm_start=True,
        )
        campaign = Campaign(spec)
        campaign.run(workers=1)  # warm the interpreter and caches
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = campaign.run(workers=1)
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        measured = result.n_systems / best
        reference = payload["runs"]["gs_warm_cached"]["systems_per_second"]
        floor = (1.0 - REGRESSION_MARGIN) * reference
        assert measured >= floor, (
            f"campaign throughput regressed: {measured:.1f} systems/s "
            f"vs recorded {reference:.1f} (floor {floor:.1f})"
        )


#: Entry points ``benchmarks/bench_startup.py`` times as fresh
#: interpreters.
STARTUP_COMMANDS = {"python", "import_repro", "import_serve", "cli_help",
                    "shard"}

#: Fields of each entry point's record.
STARTUP_FIELDS = {"argv", "wall_s", "wall_s_iqr", "samples", "modules",
                  "repro_modules", "numpy", "networkx"}

#: Launch walls it times inside a helper interpreter.  The committed
#: baseline tree has a zygote too, so it records all five.
STARTUP_LAUNCHES = {"zygote_start", "forked_shard", "zygote_close",
                    "dispatch_4x2", "dispatch_4x2_warm"}
BASELINE_LAUNCHES = STARTUP_LAUNCHES
LAUNCH_FIELDS = {"wall_s", "wall_s_iqr", "samples"}

#: A one-chain shard's module counts before the package surfaces went
#: lazy, as ``BENCH_startup.json`` recorded them for that tree (networkx
#: among the modules); the file's baseline has since moved to later
#: trees.
PRE_LAZY_SHARD_MODULES = 673
PRE_LAZY_SHARD_REPRO_MODULES = 80


class TestStartupBench:
    @pytest.fixture(scope="class")
    def startup(self) -> dict:
        return json.loads(STARTUP_BENCH.read_text())

    def test_schema(self, startup):
        assert {
            "description", "python", "cpu", "cpus", "dont_write_bytecode",
            "quick", "repeats", "commands", "baseline", "speedup",
        } <= set(startup)
        assert not startup["quick"]
        launches = {
            "commands": STARTUP_LAUNCHES, "baseline": BASELINE_LAUNCHES,
        }
        for tree, tree_launches in launches.items():
            records = startup[tree]
            assert set(records) == STARTUP_COMMANDS | tree_launches
            for name, record in records.items():
                fields = (
                    STARTUP_FIELDS if name in STARTUP_COMMANDS
                    else LAUNCH_FIELDS
                )
                assert fields <= set(record)
                assert record["samples"] == startup["repeats"]
                assert record["wall_s"] > 0 and record["wall_s_iqr"] >= 0
        assert set(startup["speedup"]) == STARTUP_COMMANDS | BASELINE_LAUNCHES

    def test_import_repro_loads_only_the_package(self, startup):
        commands = startup["commands"]
        record = commands["import_repro"]
        assert record["repro_modules"] <= 2  # repro and its lazy helper
        assert not record["numpy"] and not record["networkx"]
        # At most the package, its helper and __future__ beyond the
        # bare interpreter's own modules.
        assert record["modules"] - commands["python"]["modules"] <= 3

    def test_shard_loads_half_the_modules(self, startup):
        shard = startup["commands"]["shard"]
        before = startup["baseline"]["shard"]
        assert not shard["networkx"]
        assert shard["modules"] <= 0.6 * PRE_LAZY_SHARD_MODULES
        assert shard["repro_modules"] < PRE_LAZY_SHARD_REPRO_MODULES
        # ... and no more than the baseline tree's shard.
        assert shard["modules"] <= before["modules"]
        assert shard["repro_modules"] <= before["repro_modules"]


#: Closure sizes ``benchmarks/bench_layers.py`` times: rows per
#: ``compile_w_rows`` closure and tasks per ``compile_w_transaction_star``
#: view.
LAYER_SIZES = {
    "rows": {"4", "8", "16", "24", "32", "64", "128"},
    "star": {"2", "3", "4", "5", "6", "8", "10", "12", "14"},
}

#: Fields of each kernel's wide-view campaign record.
LAYER_CAMPAIGN_FIELDS = {"wall_time_s", "systems", "systems_per_second",
                         "evaluations_total", "outer_iterations_total",
                         "star_compiles"}


class TestLayersBench:
    @pytest.fixture(scope="class")
    def layers(self) -> dict:
        return json.loads(LAYERS_BENCH.read_text())

    def test_schema(self, layers):
        assert {
            "description", "python", "cpu", "cpus", "quick", "numpy",
            "interference", "campaign", "baseline", "speedup",
        } <= set(layers)
        assert not layers["quick"]
        for tree in (layers, layers["baseline"]):
            layer = tree["interference"]
            for name, sizes in LAYER_SIZES.items():
                for kernel in ("scalar", "vector"):
                    records = layer[name][kernel]
                    assert set(records) == sizes
                    for record in records.values():
                        assert record["eval_ns"] > 0
                        assert record["compile_us"] > 0
            assert set(layer["crossover_jobs"]) == {"rows", "star"}
            assert layer["VECTOR_MIN_JOBS"] > 0
            for kernel in ("scalar", "vector"):
                run = tree["campaign"][kernel]
                assert LAYER_CAMPAIGN_FIELDS <= set(run)
                assert run["systems"] > 0 and run["wall_time_s"] > 0

    def test_kernels_do_the_same_work(self, layers):
        for tree in (layers, layers["baseline"]):
            runs = tree["campaign"]
            for counter in ("evaluations_total", "outer_iterations_total"):
                assert runs["scalar"][counter] == runs["vector"][counter]
        # ... and the same work as the baseline.
        assert (
            layers["campaign"]["vector"]["evaluations_total"]
            == layers["baseline"]["campaign"]["vector"]["evaluations_total"]
        )

    def test_fewer_star_compiles_than_baseline(self, layers):
        for kernel in ("scalar", "vector"):
            assert (
                layers["campaign"][kernel]["star_compiles"]
                < layers["baseline"]["campaign"][kernel]["star_compiles"]
            )
