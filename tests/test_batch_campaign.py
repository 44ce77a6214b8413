"""Campaign engine: determinism, executor equivalence, export round trips.

The engine's contract (ISSUE 1 acceptance criteria): fixed seeds give
deterministic results, any worker count produces identical metrics, and
``CampaignResult`` survives JSON/CSV export.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    CellResult,
    MethodOutcome,
    available_generators,
    available_methods,
    register_generator,
    register_method,
)
from repro.cli import main as cli_main


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        grid={"utilization": (0.3, 0.6, 0.9)},
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 2),
        },
        methods=("reduced",),
        systems_per_cell=3,
        seed=7,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def _wait_until(condition, timeout: float = 10.0) -> None:
    """Poll *condition* until it holds or *timeout* seconds pass (the
    caller's assertions then report what did not happen)."""
    import time as _time

    deadline = _time.monotonic() + timeout
    while not condition() and _time.monotonic() < deadline:
        _time.sleep(0.005)


class TestSpec:
    def test_grid_counts(self):
        spec = small_spec(methods=("reduced", "dedicated"))
        assert spec.n_cells() == 9
        assert spec.n_analyses() == 18
        assert spec.sweep_axis == "utilization"

    def test_sweep_axis_sorted_ascending(self):
        spec = small_spec(grid={"utilization": (0.9, 0.3, 0.6)})
        assert spec.grid["utilization"] == (0.3, 0.6, 0.9)

    def test_seed_excludes_sweep_axis(self):
        # Same chain seed at every sweep level: paired samples.
        spec = small_spec()
        assert spec.cell_seed(0, 0) != spec.cell_seed(0, 1)
        assert spec.cell_seed(0, 0) != spec.cell_seed(1, 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError, match="unknown campaign method"):
            Campaign(small_spec(methods=("no_such_method",)))

    def test_unknown_generator_rejected(self):
        with pytest.raises(KeyError, match="unknown generator"):
            Campaign(small_spec(generator="no_such_generator"))

    def test_bad_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="sweep_axis"):
            small_spec(sweep_axis="not_an_axis")

    def test_builtin_registries(self):
        assert "reduced" in available_methods()
        assert "compositional" in available_methods()
        assert "random_system" in available_generators()
        assert "paper" in available_generators()


class TestDeterminism:
    def test_fixed_seed_reproducible(self):
        spec = small_spec()
        a = Campaign(spec).run(workers=1)
        b = Campaign(spec).run(workers=1)
        assert a.metrics() == b.metrics()

    def test_serial_equals_parallel(self):
        spec = small_spec(methods=("reduced", "dedicated"))
        serial = Campaign(spec).run(workers=1)
        parallel = Campaign(spec).run(workers=2)
        assert serial.metrics() == parallel.metrics()
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "mean_time_s"} for r in rows
        ]
        assert strip(serial.acceptance()) == strip(parallel.acceptance())

    def test_chunk_size_does_not_change_results(self):
        spec = small_spec()
        a = Campaign(spec).run(workers=2, chunk_size=1)
        b = Campaign(spec).run(workers=2, chunk_size=5)
        assert a.metrics() == b.metrics()


class TestWarmStart:
    def test_warm_equals_cold_verdicts_and_ratios(self):
        spec_warm = small_spec(systems_per_cell=4)
        spec_cold = small_spec(systems_per_cell=4, warm_start=False)
        warm = Campaign(spec_warm).run(workers=1)
        cold = Campaign(spec_cold).run(workers=1)
        assert len(warm.cells) == len(cold.cells)
        for w, c in zip(warm.cells, cold.cells):
            assert (w.params, w.seed, w.method) == (c.params, c.seed, c.method)
            assert w.schedulable == c.schedulable
            assert w.max_wcrt_ratio == pytest.approx(
                c.max_wcrt_ratio, abs=1e-9
            ) or (w.max_wcrt_ratio == c.max_wcrt_ratio)  # inf == inf
        # The first sweep level is always cold; later levels are warm.
        assert any(c.warm_started for c in warm.cells)
        assert not any(c.warm_started for c in cold.cells)

    def test_warm_start_reported_in_accounting(self):
        result = Campaign(small_spec()).run(workers=1)
        acc = result.accounting()
        assert acc["warm"]["cells"] + acc["cold"]["cells"] == len(result.cells)
        assert acc["warm"]["cells"] > 0

    def test_driver_stats_agree_with_threaded_accounting(self):
        """The process-wide FixedPointStats counters captured per method
        call must agree with the evaluations threaded up through
        ScenarioOutcome -> ReducedResult -> SystemAnalysis."""
        result = Campaign(small_spec()).run(workers=1)
        for cell in result.cells:
            assert cell.extras["fp_evaluations"] == cell.evaluations
            assert cell.extras["fp_solves"] > 0
            assert cell.extras["fp_diverged"] >= 0


class TestExport:
    def test_json_round_trip(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1)
        path = result.save_json(tmp_path / "campaign.json")
        loaded = CampaignResult.load_json(path)
        assert loaded.metrics() == result.metrics()
        assert loaded.to_dict() == result.to_dict()
        # The payload really is JSON (inf round trips via allow_nan).
        json.loads(path.read_text())

    def test_save_json_is_atomic(self, tmp_path):
        """Write-then-rename: the temp file is gone once the result is in
        place, and rewriting an existing file replaces it whole."""
        result = Campaign(small_spec()).run(workers=1)
        path = tmp_path / "campaign.json"
        path.write_text('{"torn": ')
        result.save_json(path)
        assert not path.with_name(path.name + ".tmp").exists()
        assert CampaignResult.load_json(path).metrics() == result.metrics()

    def test_cells_csv(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1)
        path = result.write_cells_csv(tmp_path / "cells.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(result.cells)
        header = rows[0]
        assert "utilization" in header
        assert "schedulable" in header
        assert "evaluations" in header

    def test_acceptance_csv(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1)
        path = result.write_acceptance_csv(tmp_path / "acceptance.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        # one aggregate row per (sweep level, method)
        assert len(rows) == 1 + 3
        assert "ratio" in rows[0]

    def test_format_summary_mentions_accounting(self):
        result = Campaign(small_spec()).run(workers=1)
        text = result.format_summary()
        assert "systems/s" in text
        assert "phase cache" in text


class TestExtensibility:
    def test_custom_generator_and_method(self):
        from repro.gen import RandomSystemSpec, random_system

        def tiny_generator(params, seed):
            return random_system(
                RandomSystemSpec(
                    n_platforms=1,
                    n_transactions=int(params.get("n_transactions", 1)),
                    tasks_per_transaction=(1, 1),
                    utilization=0.2,
                ),
                seed=seed,
            )

        def count_tasks(system, warm_start):
            return MethodOutcome(
                schedulable=True,
                extras={"total_tasks": system.total_tasks()},
            )

        register_generator("test_tiny", tiny_generator)
        register_method("test_count_tasks", count_tasks)
        spec = CampaignSpec(
            grid={"n_transactions": (1, 2)},
            methods=("test_count_tasks",),
            systems_per_cell=2,
            generator="test_tiny",
        )
        result = Campaign(spec).run(workers=1)
        assert len(result.cells) == 4
        for cell in result.cells:
            assert cell.extras["total_tasks"] == cell.params["n_transactions"]


class TestPaperGenerator:
    def test_paper_campaign_single_cell(self):
        spec = CampaignSpec(
            grid={},
            methods=("reduced", "compositional"),
            systems_per_cell=1,
            generator="paper",
        )
        result = Campaign(spec).run(workers=1)
        assert len(result.cells) == 2
        by_method = {c.method: c for c in result.cells}
        # The paper example is schedulable under both the holistic analysis
        # and the per-platform compositional baseline.
        assert by_method["reduced"].schedulable
        assert by_method["compositional"].schedulable
        assert by_method["reduced"].max_wcrt_ratio < 1.0


class TestCli:
    def test_campaign_subcommand(self, tmp_path, capsys):
        json_out = tmp_path / "result.json"
        rc = cli_main([
            "campaign",
            "--grid", "utilization=0.3,0.6",
            "--transactions", "2",
            "--platforms", "2",
            "--tasks", "1,2",
            "--systems", "2",
            "--methods", "reduced",
            "--workers", "1",
            "--json", str(json_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "systems/s" in out
        loaded = CampaignResult.load_json(json_out)
        assert len(loaded.cells) == 4

    def test_campaign_grid_parsing_errors(self, capsys):
        rc = cli_main(["campaign", "--grid", "garbage"])
        assert rc == 2

    @pytest.mark.parametrize("chunk_size", ["0", "-1"])
    def test_chunk_size_below_one_rejected(self, chunk_size, tmp_path, capsys):
        json_out = tmp_path / "r.json"
        rc = cli_main([
            "campaign",
            "--grid", "utilization=0.3,0.6",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "2",
            "--workers", "2",
            "--chunk-size", chunk_size,
            "--json", str(json_out),
        ])
        assert rc == 2
        assert "error: chunk_size must be >= 1" in capsys.readouterr().err
        assert not json_out.exists()

    def test_collect_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "campaign", "--grid", "utilization=0.3",
                "--collect", "shm",
            ])
        assert exc.value.code == 2
        assert "--collect" in capsys.readouterr().err


@pytest.mark.slow
class TestCampaignAtScale:
    """The ISSUE 1 acceptance criterion: a >= 500-system sweep whose
    aggregates are identical for 1 and 4 workers."""

    SPEC = CampaignSpec(
        grid={"utilization": tuple(0.3 + 0.06 * k for k in range(10))},
        base={
            "n_platforms": 2,
            "n_transactions": 3,
            "tasks_per_transaction": (1, 3),
        },
        methods=("reduced",),
        systems_per_cell=50,
        seed=1,
    )

    def test_500_system_sweep_parallel_equals_serial(self):
        assert self.SPEC.n_cells() >= 500
        serial = Campaign(self.SPEC).run(workers=1)
        parallel = Campaign(self.SPEC).run(workers=4)
        assert serial.metrics() == parallel.metrics()
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "mean_time_s"} for r in rows
        ]
        assert strip(serial.acceptance()) == strip(parallel.acceptance())
        assert serial.n_systems >= 500
        assert serial.systems_per_second > 0


class TestStableLevels:
    """ISSUE 2 satellite: sweep levels live on a stable decimal grid."""

    def test_linspace_levels_no_float_drift(self):
        from repro.batch import linspace_levels

        levels = linspace_levels(0.30, 0.95, 14)
        assert len(levels) == 14
        assert levels[0] == 0.3 and levels[-1] == 0.95
        # The naive generator produced 0.6000000000000001 at k=6.
        assert 0.6 in levels
        assert all(v == round(v, 10) for v in levels)

    def test_single_level(self):
        from repro.batch import linspace_levels

        assert linspace_levels(0.5, 0.9, 1) == (0.5,)

    def test_spec_snaps_float_grid_values(self):
        drifted = tuple(0.3 + 0.05 * k for k in range(14))
        assert 0.6 not in drifted  # the drift this satellite fixes
        spec = small_spec(grid={"utilization": drifted})
        assert 0.6 in spec.grid["utilization"]
        assert all(
            v == round(v, 10) for v in spec.grid["utilization"]
        )

    def test_integer_axes_untouched(self):
        spec = small_spec(
            grid={"utilization": (0.3, 0.6), "n_transactions": (2, 3)},
        )
        assert spec.grid["n_transactions"] == (2, 3)


class TestChainCosts:
    """ISSUE 5: every run records its per-chain wall-time manifest."""

    def test_costs_cover_every_chain_and_sum_to_cell_time(self):
        spec = small_spec()
        result = Campaign(spec).run(workers=1)
        assert set(result.chain_costs) == {
            c["index"] for c in Campaign(spec).chains()
        }
        assert sum(result.chain_costs.values()) == pytest.approx(
            sum(c.time_s for c in result.cells)
        )
        assert all(v >= 0.0 for v in result.chain_costs.values())

    def test_costs_survive_json_round_trip(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1)
        loaded = CampaignResult.load_json(
            result.save_json(tmp_path / "r.json")
        )
        assert loaded.chain_costs == result.chain_costs
        # Keys are ints again after the round trip (JSON stringifies).
        assert all(isinstance(k, int) for k in loaded.chain_costs)

    def test_pool_run_records_costs_too(self):
        result = Campaign(small_spec(systems_per_cell=4)).run(workers=2)
        assert len(result.chain_costs) == 4

    def test_old_result_without_costs_still_loads(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1)
        data = result.to_dict()
        del data["chain_costs"]  # a pre-ISSUE-5 result file
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert CampaignResult.load_json(path).chain_costs == {}


class TestResume:
    """A rerun against the result store resumes a campaign: stored cells
    are served, the rest solved, and the cells equal a fresh run's."""

    def test_full_resume_reuses_everything(self, tmp_path):
        spec = small_spec()
        full = Campaign(spec).run(workers=1, store=tmp_path / "store")
        resumed = Campaign(spec).run(workers=1, store=tmp_path / "store")
        assert resumed.store_hits == len(full.cells)
        assert resumed.store_misses == 0
        assert resumed.metrics() == full.metrics()

    def test_partial_resume_reruns_incomplete_chains(self, tmp_path):
        from repro.batch.campaign import chain_store_digests

        spec = small_spec(systems_per_cell=3)
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        # Drop one chain completely (replicate 2) and all but the first
        # sweep level of another (replicate 1): the former re-runs from
        # scratch, the latter is served its first level and re-seeds the
        # warm-start state from it (see tests/test_campaign_resume_prefix.py
        # for the full matrix).
        chains = spec.chains()
        doomed = chain_store_digests(spec, chains[1])[len(spec.methods):]
        doomed += chain_store_digests(spec, chains[2])
        for digest in doomed:
            (store / digest[:2] / f"{digest}.json").unlink()
        resumed = Campaign(spec).run(workers=1, store=store)
        assert resumed.metrics() == full.metrics()
        # The full chain (replicate 0) plus replicate 1's first level.
        n_levels = len(spec.sweep_values())
        assert resumed.store_hits == (n_levels + 1) * len(spec.methods)
        # Re-seeding the served level's warm state cost unreported solves.
        assert resumed.reseed_solves > 0

    def test_resume_round_trips_through_json(self, tmp_path):
        """Store entries are JSON files: a fresh handle on the directory
        serves the first run's cells, equal field for field."""
        from repro.batch import ResultStore

        spec = small_spec()
        first = Campaign(spec).run(workers=1, store=tmp_path / "store")
        resumed = Campaign(spec).run(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        assert resumed.metrics() == first.metrics()
        assert [c.extras for c in resumed.cells] == [
            c.extras for c in first.cells
        ]
        assert resumed.store_hits == len(first.cells)

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        """A store filled by another seed's run holds none of this
        spec's keys: nothing of it is served."""
        spec = small_spec()
        Campaign(small_spec(seed=99)).run(
            workers=1, store=tmp_path / "store"
        )
        resumed = Campaign(spec).run(workers=1, store=tmp_path / "store")
        assert resumed.store_hits == 0
        assert resumed.metrics() == Campaign(spec).run(workers=1).metrics()

    def test_cli_resume(self, tmp_path, capsys):
        args = [
            "campaign",
            "--grid", "utilization=0.3,0.6",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "2",
            "--workers", "1",
            "--store", str(tmp_path / "store"),
        ]
        first_json = tmp_path / "first.json"
        assert cli_main(args + ["--json", str(first_json)]) == 0
        assert "0 cells served, 4 solved" in capsys.readouterr().out
        second_json = tmp_path / "second.json"
        rc = cli_main(args + ["--json", str(second_json)])
        assert rc == 0
        assert "4 cells served, 0 solved" in capsys.readouterr().out
        a = CampaignResult.load_json(first_json)
        b = CampaignResult.load_json(second_json)
        assert a.metrics() == b.metrics()

    @pytest.mark.parametrize("flag", [
        ["--resume", "x.json"],
        ["--max-cells", "3"],
        ["--checkpoint", "ck.json"],
        ["--checkpoint-every", "2"],
    ])
    def test_removed_recovery_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign", "--grid", "utilization=0.3", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keyword", ["resume_from", "max_cells", "checkpoint",
                    "checkpoint_every"],
    )
    def test_removed_recovery_keywords_are_refused(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            Campaign(small_spec()).run(workers=1, **{keyword: None})


class TestStreamingCsv:
    """ISSUE 2 satellite: incremental CSV streaming in bounded memory."""

    def test_streamed_rows_match_buffered_export(self, tmp_path):
        import csv as csv_mod

        spec = small_spec()
        streamed_path = tmp_path / "stream.csv"
        result = Campaign(spec).run(workers=1, stream_csv=streamed_path)
        assert result.streamed_cells == len(result.cells)
        buffered_path = result.write_cells_csv(tmp_path / "buffered.csv")
        with streamed_path.open() as fh:
            streamed = list(csv_mod.reader(fh))
        with buffered_path.open() as fh:
            buffered = list(csv_mod.reader(fh))
        assert streamed[0] == buffered[0]  # identical header
        assert sorted(map(tuple, streamed[1:])) == sorted(
            map(tuple, buffered[1:])
        )

    def test_no_collect_bounded_memory(self, tmp_path):
        import csv as csv_mod

        spec = small_spec()
        path = tmp_path / "stream.csv"
        result = Campaign(spec).run(
            workers=1, stream_csv=path, collect=False
        )
        assert result.cells == []
        assert result.streamed_cells == spec.n_analyses()
        with path.open() as fh:
            rows = list(csv_mod.reader(fh))
        assert len(rows) == 1 + spec.n_analyses()

    def test_no_collect_requires_stream(self):
        with pytest.raises(ValueError, match="stream_csv"):
            Campaign(small_spec()).run(workers=1, collect=False)

    def test_parallel_streaming_same_rows(self, tmp_path):
        import csv as csv_mod

        spec = small_spec(systems_per_cell=4)
        a_path = tmp_path / "serial.csv"
        b_path = tmp_path / "parallel.csv"
        Campaign(spec).run(workers=1, stream_csv=a_path)
        Campaign(spec).run(workers=2, stream_csv=b_path)

        def rows_without_timing(path):
            with path.open() as fh:
                rows = list(csv_mod.reader(fh))
            return sorted(tuple(r[:-1]) for r in rows[1:])

        assert rows_without_timing(a_path) == rows_without_timing(b_path)


class TestPoolCollection:
    """Pool workers return their cells through the executor: a pooled run
    keeps exactly the cells, extras and streamed rows of an inline one.
    ``collect`` and ``chunk_size`` are validated on every path."""

    @pytest.mark.dist
    def test_int_keyed_extras_survive_the_pool(self):
        def int_keyed(system, warm_start):
            return MethodOutcome(schedulable=True, extras={1: "x"})

        register_method("test_int_keyed", int_keyed)
        spec = small_spec(methods=("test_int_keyed",), systems_per_cell=4)
        pooled = Campaign(spec).run(workers=2)
        inline = Campaign(spec).run(workers=1)
        assert pooled.metrics() == inline.metrics()
        assert [c.extras for c in pooled.cells] == [
            c.extras for c in inline.cells
        ]
        assert pooled.cells[0].extras == {1: "x"}  # key type preserved

    @pytest.mark.dist
    def test_pooled_cells_equal_inline_two_workers(self):
        spec = small_spec(systems_per_cell=4)
        pooled = Campaign(spec).run(workers=2)
        inline = Campaign(spec).run(workers=1)
        assert pooled.metrics() == inline.metrics()
        # The analyses' own extras dicts come home unchanged...
        assert [c.extras for c in pooled.cells] == [
            c.extras for c in inline.cells
        ]
        # ...and so do the per-cell wall-clock payloads.
        assert all(c.time_s > 0 for c in pooled.cells)

    @pytest.mark.dist
    def test_pooled_streamed_rows_equal_the_kept_cells(self, tmp_path):
        spec = small_spec(systems_per_cell=4)
        streamed_path = tmp_path / "streamed.csv"
        kept_path = tmp_path / "kept.csv"
        result = Campaign(spec).run(workers=2, stream_csv=streamed_path)
        result.write_cells_csv(kept_path)
        assert result.streamed_cells == len(result.cells) == spec.n_analyses()

        def rows(path):
            with path.open() as fh:
                return list(csv.reader(fh))

        # Every streamed row, timing included, is a cell the run kept,
        # written in the order the run kept them.
        assert rows(streamed_path) == rows(kept_path)

    @pytest.mark.dist
    def test_pooled_stream_only_run_streams_the_collected_rows(
        self, tmp_path
    ):
        spec = small_spec(systems_per_cell=4)
        bare_path = tmp_path / "bare.csv"
        kept_path = tmp_path / "kept.csv"
        bare = Campaign(spec).run(
            workers=2, stream_csv=bare_path, collect=False
        )
        kept = Campaign(spec).run(workers=2, stream_csv=kept_path)
        assert bare.cells == []
        assert len(kept.cells) == spec.n_analyses()
        assert bare.streamed_cells == kept.streamed_cells == spec.n_analyses()

        def rows_without_timing(path):
            with path.open() as fh:
                return [tuple(r[:-1]) for r in csv.reader(fh)]

        # Same rows in the same order: chunk results arrive in
        # submission order whether or not the cells are kept.
        assert rows_without_timing(bare_path) == rows_without_timing(
            kept_path
        )

    @pytest.mark.parametrize(
        "collect", ["shm", "pickle", "none", "carrier_pigeon", 1, None]
    )
    def test_non_bool_collect_rejected(self, collect):
        with pytest.raises(ValueError, match="collect"):
            Campaign(small_spec()).run(workers=1, collect=collect)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_rejected(self, workers, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            Campaign(small_spec()).run(
                workers=workers, chunk_size=chunk_size
            )


class TestParentFormatFiles:
    """Result files written by earlier versions carry ``shm_records``/
    ``shm_overflow`` (the shared-memory ring) and ``reused_cells``
    (chain-prefix resume); they still load and merge, and nothing writes
    those keys any more."""

    @staticmethod
    def _write_old(result: CampaignResult, path, reused: int = 0):
        data = result.to_dict()
        data.update(shm_records=5, shm_overflow=1, reused_cells=reused)
        path.write_text(json.dumps(data))
        return path

    def test_to_dict_has_no_ring_counters(self):
        data = Campaign(small_spec()).run(workers=1).to_dict()
        assert not {"shm_records", "shm_overflow"} & set(data)

    def test_to_dict_has_no_reused_cells(self):
        data = Campaign(small_spec()).run(workers=1).to_dict()
        assert "reused_cells" not in data

    def test_old_shard_files_merge(self, tmp_path, capsys):
        spec = small_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        paths = [
            self._write_old(
                Campaign(spec).run(workers=1, shard=(k, 2)),
                tmp_path / f"shard{k}.json",
            )
            for k in range(2)
        ]
        merged_path = tmp_path / "merged.json"
        rc = cli_main([
            "campaign-merge", *map(str, paths), "--json", str(merged_path),
        ])
        assert rc == 0
        assert CampaignResult.load_json(merged_path).metrics() == full.metrics()
        written = json.loads(merged_path.read_text())
        assert not {"shm_records", "reused_cells"} & set(written)

    def test_old_checkpoint_merges_as_a_partial(self, tmp_path, capsys):
        """A checkpoint of an earlier version -- a truncated partial that
        counts its resumed cells -- loads and merges as the partial it
        is: ``campaign-merge`` reports the missing cells and exits 1."""
        spec = small_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        partial = dataclasses.replace(
            full, cells=full.cells[:5], truncated=True
        )
        old = self._write_old(partial, tmp_path / "ck.json", reused=5)
        loaded = CampaignResult.load_json(old)
        assert loaded.truncated
        assert loaded.metrics() == full.metrics()[:5]
        merged = tmp_path / "merged.json"
        rc = cli_main(["campaign-merge", str(old), "--json", str(merged)])
        assert rc == 1
        err = capsys.readouterr().err
        missing = len(full.cells) - 5
        assert f"{missing} cells of the spec are still missing" in err
        assert "--resume" not in err
        assert CampaignResult.load_json(merged).truncated

    @pytest.mark.parametrize("workers", [1, 2])
    def test_canonical_result_json_pinned(self, workers):
        """Byte-stable across the removal: the digest was computed before
        the ring and its counters were deleted."""
        import hashlib

        from repro.serve.schemas import canonical_result_json

        spec = small_spec(methods=("reduced", "verdict"))
        result = Campaign(spec).run(workers=workers)
        digest = hashlib.sha256(canonical_result_json(result)).hexdigest()
        assert digest == (
            "d660fcca3f0a9b1f576a9b45602b09dd71d0e5136ff9dc99431fcd49d8ae065b"
        )


def _cell(**overrides) -> CellResult:
    """A cell with list-valued params and nested extras."""
    fields = dict(
        params={"utilization": 0.5, "tasks_per_transaction": [1, 2]},
        seed=3, replicate=1, method="reduced", schedulable=False,
        converged=False, outer_iterations=4, evaluations=90,
        warm_started=True, max_wcrt_ratio=0.75, time_s=0.25,
        phase_cache_hits=2, phase_cache_misses=5,
        extras={"fp_solves": 3, "inferred": {"from": [0.3, 0.6]}},
    )
    fields.update(overrides)
    return CellResult(**fields)


def _text(obj) -> str:
    """Canonical text of a JSON value: NaN != NaN, its token is stable."""
    return json.dumps(obj, sort_keys=True)


class TestResultEncoding:
    """Result files are written in one C-encoder pass (compact JSON) from
    a shallow :meth:`CellResult.to_dict`; the values are unchanged."""

    @pytest.mark.parametrize("ratio", [0.75, math.inf, -math.inf, math.nan])
    def test_cell_to_dict_equals_asdict(self, ratio):
        cell = _cell(max_wcrt_ratio=ratio)
        data = cell.to_dict()
        # The NaN ratio compares equal because both dicts hold the same
        # float object (asdict does not copy floats either).
        assert data == dataclasses.asdict(cell)
        assert list(data) == [f.name for f in dataclasses.fields(cell)]
        assert data["params"] is not cell.params
        assert data["extras"] is not cell.extras
        data["params"]["added"] = data["extras"]["added"] = 1
        assert "added" not in cell.params and "added" not in cell.extras

    def test_save_load_round_trips_every_field(self, tmp_path):
        result = Campaign(small_spec()).run(workers=1, shard=(1, 2))
        result.cells.append(_cell(max_wcrt_ratio=math.nan))
        result.cells.append(_cell(max_wcrt_ratio=math.inf, seed=4))
        result = dataclasses.replace(
            result, streamed_cells=3, reseed_solves=5,
            reseed_evaluations=40, store_hits=1, store_misses=6,
            truncated=True,
        )
        loaded = CampaignResult.load_json(
            result.save_json(tmp_path / "result.json")
        )
        for f in dataclasses.fields(CampaignResult):
            ours, theirs = getattr(result, f.name), getattr(loaded, f.name)
            if f.name == "cells":
                ours = [c.to_dict() for c in ours]
                theirs = [c.to_dict() for c in theirs]
            assert _text(theirs) == _text(ours), f.name
        assert loaded.chain_costs == result.chain_costs  # int keys back

    def test_file_parses_like_the_indented_encoding(self, tmp_path):
        """Only whitespace changed: the compact file parses to what the
        former ``indent=2`` encoding of ``asdict`` cells parses to."""
        result = Campaign(small_spec()).run(workers=1)
        result.cells.append(_cell(max_wcrt_ratio=math.nan))
        path = result.save_json(tmp_path / "result.json")
        text = path.read_text()
        assert "\n" not in text
        former = result.to_dict()
        former["cells"] = [dataclasses.asdict(c) for c in result.cells]
        assert _text(json.loads(text)) == _text(
            json.loads(json.dumps(former, indent=2))
        )

    def test_indented_files_still_merge(self, tmp_path):
        spec = small_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)

        def write_indented(result, name):
            path = tmp_path / name
            path.write_text(json.dumps(result.to_dict(), indent=2))
            return path

        paths = [
            write_indented(
                Campaign(spec).run(workers=1, shard=(k, 2)), f"shard{k}.json"
            )
            for k in range(2)
        ]
        merged = tmp_path / "merged.json"
        assert cli_main([
            "campaign-merge", *map(str, paths), "--json", str(merged),
        ]) == 0
        assert CampaignResult.load_json(merged).metrics() == full.metrics()


class TestChainScaling:
    """The sweep chains derive levels by exact utilization scaling."""

    def test_scaled_equals_regenerated(self):
        from repro.gen import RandomSystemSpec, random_system
        from repro.gen.random_transactions import scale_system_utilization

        base_spec = dict(
            n_platforms=2, n_transactions=3, tasks_per_transaction=(1, 3)
        )
        lo = random_system(
            RandomSystemSpec(utilization=0.4, **base_spec), seed=5
        )
        hi = random_system(
            RandomSystemSpec(utilization=0.8, **base_spec), seed=5
        )
        scaled = scale_system_utilization(lo, 0.8 / 0.4)
        assert len(scaled.transactions) == len(hi.transactions)
        for tr_s, tr_h in zip(scaled.transactions, hi.transactions):
            assert tr_s.period == tr_h.period
            for t_s, t_h in zip(tr_s.tasks, tr_h.tasks):
                assert t_s.wcet == pytest.approx(t_h.wcet, rel=1e-12)
                assert t_s.bcet == pytest.approx(t_h.bcet, rel=1e-12)
                assert t_s.priority == t_h.priority
                assert t_s.platform == t_h.platform

    def test_scaling_across_wcet_floor_matches_regeneration(self):
        """Downscaling a demand past the generator's 1e-6 wcet floor must
        keep matching the system regenerated at the target utilization
        (floored wcet, bcet = ratio * wcet)."""
        from repro.gen import RandomSystemSpec, random_system
        from repro.gen.random_transactions import scale_system_utilization

        base_spec = dict(
            n_platforms=2, n_transactions=2, tasks_per_transaction=(1, 2)
        )
        lo = random_system(
            RandomSystemSpec(utilization=1e-4, **base_spec), seed=3
        )
        scaled = scale_system_utilization(lo, 1e-4)  # down to u = 1e-8
        regen = random_system(
            RandomSystemSpec(utilization=1e-12, **base_spec), seed=3
        )
        # u = 1e-12 floors every drawn demand; compare against the scaled
        # system's floored tasks.
        for tr_s, tr_r in zip(scaled.transactions, regen.transactions):
            for t_s, t_r in zip(tr_s.tasks, tr_r.tasks):
                if t_s.wcet == 1e-6:  # the floor engaged
                    assert t_r.wcet == 1e-6
                    assert t_s.bcet == pytest.approx(t_r.bcet, rel=1e-9)
                assert t_s.bcet <= t_s.wcet

    def test_campaign_chain_metrics_deterministic_with_scaling(self):
        # The scaler is exercised by every utilization sweep; two runs of
        # the same spec must still agree cell for cell.
        spec = small_spec()
        a = Campaign(spec).run(workers=1)
        b = Campaign(spec).run(workers=1)
        assert a.metrics() == b.metrics()


class TestHeartbeatAndChains:
    """Worker-side liveness reporting and explicit chain subsets."""

    def test_heartbeat_file_tracks_progress(self, tmp_path):
        import os

        spec = small_spec()
        hb_path = tmp_path / "beat.json"
        result = Campaign(spec).run(
            workers=1, heartbeat=hb_path, heartbeat_interval=0.1
        )
        beat = json.loads(hb_path.read_text())
        # The final (stop-time) beat reports every cell consumed.
        assert beat["cells"] == len(result.cells) == spec.n_analyses()
        assert beat["pid"] == os.getpid()
        assert beat["seq"] >= 1
        assert beat["time"] > 0

    def test_heartbeat_interval_validated(self, tmp_path):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            Campaign(small_spec()).run(
                workers=1, heartbeat=tmp_path / "b.json", heartbeat_interval=0
            )

    def test_heartbeat_survives_transient_write_failures(
        self, tmp_path, monkeypatch
    ):
        """A disk hiccup (ENOSPC, remount) must skip the beat and retry
        at the next interval -- never kill the beat thread, never
        publish a gap in the sequence numbers."""
        import os as _os
        import time as _time

        from repro.batch import campaign as campaign_mod
        from repro.batch.campaign import _HeartbeatWriter

        hb = _HeartbeatWriter(tmp_path / "beat.json", 0.02)
        hb.start()
        _time.sleep(0.08)  # a few healthy beats land first
        real_replace = _os.replace

        def flaky(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(campaign_mod.os, "replace", flaky)
        _time.sleep(0.1)  # every beat in this window fails
        _wait_until(lambda: hb.failed_beats >= 1)  # a starved thread too
        monkeypatch.setattr(campaign_mod.os, "replace", real_replace)
        hb.bump(7)  # recovery: progress published immediately
        _time.sleep(0.08)
        hb.stop()
        assert hb.failed_beats >= 1
        assert hb._thread is not None and not hb._thread.is_alive()
        beat = json.loads((tmp_path / "beat.json").read_text())
        assert beat["cells"] == 7
        # seq counts *published* beats only: failures bump nothing, so
        # the final file carries exactly the writer's landed-beat count.
        assert beat["seq"] == hb._seq

    def test_heartbeat_recreates_vanished_parent_dir(self, tmp_path):
        """An aggressively cleaned work dir is recreated so later beats
        land again instead of failing forever."""
        import shutil
        import time as _time

        from repro.batch.campaign import _HeartbeatWriter

        parent = tmp_path / "wd"
        hb = _HeartbeatWriter(parent / "beat.json", 0.02)
        hb.start()
        _time.sleep(0.06)
        # A beat can drop its temp file into the directory while rmtree
        # empties it ("Directory not empty"): retry like a cleaner would.
        for _ in range(100):
            shutil.rmtree(parent, ignore_errors=True)
            if not parent.exists():
                break
        # The first beat after the removal fails and recreates the
        # directory; wait for it rather than for a fixed time, so a
        # starved beat thread cannot turn this into a race.
        _wait_until(lambda: hb.failed_beats >= 1 and parent.is_dir())
        hb.bump(3)
        _time.sleep(0.06)
        hb.stop()
        assert hb.failed_beats >= 1
        beat = json.loads((parent / "beat.json").read_text())
        assert beat["cells"] == 3

    def test_heartbeat_unwritable_parent_never_raises(self, tmp_path):
        """A beat path whose parent cannot exist fails every write but
        must never take the campaign (or the thread) down with it."""
        import time as _time

        from repro.batch.campaign import _HeartbeatWriter

        blocker = tmp_path / "flat"
        blocker.write_text("")  # a *file* where the parent dir should be
        hb = _HeartbeatWriter(blocker / "beat.json", 0.02)
        hb.start()  # mkdir fails: counted, not raised
        _time.sleep(0.06)
        hb.bump(2)
        hb.stop()
        assert hb.failed_beats >= 2
        assert hb._seq == 0  # nothing ever landed

    def test_chain_subsets_union_bit_identical(self):
        """--chains is the elastic-split transport: disjoint index subsets
        must union to exactly the full run."""
        from repro.batch import StreamingMerger

        spec = small_spec(systems_per_cell=2)
        full = Campaign(spec).run(workers=1)
        indices = [c["index"] for c in spec.chains()]
        assert len(indices) >= 2
        merger = StreamingMerger(spec.to_dict())
        for subset in (indices[::2], indices[1::2]):
            merger.add(Campaign(spec).run(workers=1, chain_indices=subset))
        merged = merger.finish()
        assert merged.metrics() == full.metrics()

    def test_chains_and_shard_are_mutually_exclusive(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="chain_indices"):
            Campaign(spec).run(
                workers=1, shard=(0, 2), chain_indices=[0]
            )

    def test_unknown_chain_index_rejected(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="unknown chain"):
            Campaign(spec).run(workers=1, chain_indices=[10_000])

    def test_cli_chains_flag(self, tmp_path, capsys):
        spec = small_spec(systems_per_cell=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out_json = tmp_path / "subset.json"
        rc = cli_main([
            "campaign", "--spec", str(spec_path),
            "--chains", "0", "--json", str(out_json),
        ])
        capsys.readouterr()
        assert rc == 0
        subset = CampaignResult.load_json(out_json)
        chain0 = next(c for c in spec.chains() if c["index"] == 0)
        assert len(subset.cells) == len(spec.sweep_values()) * len(
            spec.methods
        )
        assert {(c.seed, c.replicate) for c in subset.cells} == {
            (chain0["seed"], chain0["replicate"])
        }

    def test_cli_chains_flag_rejects_garbage(self, capsys):
        rc = cli_main(["campaign", "--chains", "0,x"])
        assert rc == 2
        assert "--chains" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [",", " ", "", " , "])
    def test_cli_chains_naming_no_index_is_a_usage_error(
        self, value, capsys
    ):
        """An empty subset is a usage error, not an empty campaign (or,
        for ``''``, silently the whole plan)."""
        rc = cli_main([
            "campaign", "--grid", "utilization=0.3", "--systems", "1",
            "--chains", value,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--chains names no chain index" in err

    def test_api_empty_chain_indices_stays_an_empty_run(self):
        result = Campaign(small_spec()).run(workers=1, chain_indices=[])
        assert result.cells == []
