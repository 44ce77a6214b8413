"""Campaign engine: determinism, executor equivalence, export round trips.

The engine's contract (ISSUE 1 acceptance criteria): fixed seeds give
deterministic results, any worker count produces identical metrics, and
``CampaignResult`` survives JSON/CSV export.
"""

from __future__ import annotations

import csv
import json

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    CampaignSpec,
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


class TestCheckpoint:
    """ISSUE 5: periodic atomic checkpoints make real kills resumable."""

    def test_checkpoint_is_valid_resume_input(self, tmp_path):
        spec = small_spec()
        full = Campaign(spec).run(workers=1)
        ck = tmp_path / "ck.json"
        Campaign(spec).run(workers=1, checkpoint=ck, checkpoint_every=2)
        partial = CampaignResult.load_json(ck)
        assert partial.truncated  # a checkpoint is a truncated view
        assert 0 < len(partial.cells) <= len(full.cells)
        resumed = Campaign(spec).run(workers=1, resume_from=partial)
        assert resumed.metrics() == full.metrics()

    def test_checkpoint_write_is_atomic(self, tmp_path):
        ck = tmp_path / "ck.json"
        Campaign(small_spec()).run(
            workers=1, checkpoint=ck, checkpoint_every=1
        )
        assert ck.exists()
        assert not ck.with_name(ck.name + ".tmp").exists()
        CampaignResult.load_json(ck)  # parses cleanly

    def test_checkpoint_during_resume_reports_reused_cells(self, tmp_path):
        spec = small_spec()
        partial = Campaign(spec).run(workers=1, max_cells=4)
        ck = tmp_path / "ck.json"
        Campaign(spec).run(
            workers=1, resume_from=partial, checkpoint=ck, checkpoint_every=2
        )
        # The reused batch is consumed (and may be checkpointed) first;
        # the checkpoint must already carry its reused-cell provenance.
        assert CampaignResult.load_json(ck).reused_cells == 4

    def test_checkpoint_validation(self, tmp_path):
        spec = small_spec()
        with pytest.raises(ValueError, match="checkpoint_every"):
            Campaign(spec).run(workers=1, checkpoint=tmp_path / "c.json")
        with pytest.raises(ValueError, match="collect"):
            Campaign(spec).run(
                workers=1,
                checkpoint=tmp_path / "c.json",
                checkpoint_every=2,
                collect="none",
                stream_csv=tmp_path / "s.csv",
            )

    @pytest.mark.dist
    def test_pool_run_checkpoints_at_chunk_granularity(self, tmp_path):
        spec = small_spec(systems_per_cell=4)
        ck = tmp_path / "ck.json"
        result = Campaign(spec).run(
            workers=2, checkpoint=ck, checkpoint_every=1
        )
        partial = CampaignResult.load_json(ck)
        assert len(partial.cells) <= len(result.cells)
        assert partial.metrics() == result.metrics()[: len(partial.cells)]


class TestResume:
    """ISSUE 2 satellite: --resume skips completed cells and merges."""

    def test_full_resume_reuses_everything(self):
        spec = small_spec()
        full = Campaign(spec).run(workers=1)
        resumed = Campaign(spec).run(workers=1, resume_from=full)
        assert resumed.reused_cells == len(full.cells)
        assert resumed.metrics() == full.metrics()

    def test_partial_resume_reruns_incomplete_chains(self):
        spec = small_spec(systems_per_cell=3)
        full = Campaign(spec).run(workers=1)
        # Drop one chain completely (replicate 2) and keep only the first
        # sweep level of another (replicate 1): the former re-runs from
        # scratch, the latter reuses its completed prefix and re-seeds the
        # warm-start state from the last completed level (see
        # tests/test_campaign_resume_prefix.py for the full matrix).
        partial = CampaignResult(
            spec=full.spec,
            cells=[
                c for c in full.cells
                if c.replicate == 0
                or (c.replicate == 1 and c.params["utilization"] < 0.6)
            ],
            workers=1,
            wall_time_s=full.wall_time_s,
        )
        resumed = Campaign(spec).run(workers=1, resume_from=partial)
        assert resumed.metrics() == full.metrics()
        # The full chain (replicate 0) plus replicate 1's one-level prefix.
        n_levels = len(spec.sweep_values())
        assert resumed.reused_cells == (n_levels + 1) * len(spec.methods)
        # Re-seeding the prefix chain's warm state cost unreported solves.
        assert resumed.reseed_solves > 0

    def test_resume_round_trips_through_json(self, tmp_path):
        spec = small_spec()
        first = Campaign(spec).run(workers=1)
        path = first.save_json(tmp_path / "partial.json")
        loaded = CampaignResult.load_json(path)
        resumed = Campaign(spec).run(workers=1, resume_from=loaded)
        assert resumed.metrics() == first.metrics()
        assert resumed.reused_cells == len(first.cells)

    def test_resume_rejects_mismatched_spec(self):
        spec = small_spec()
        other = small_spec(seed=99)
        done = Campaign(other).run(workers=1)
        with pytest.raises(ValueError, match="seed"):
            Campaign(spec).run(workers=1, resume_from=done)

    def test_cli_resume(self, tmp_path, capsys):
        args = [
            "campaign",
            "--grid", "utilization=0.3,0.6",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "2",
            "--workers", "1",
        ]
        first_json = tmp_path / "first.json"
        assert cli_main(args + ["--json", str(first_json)]) == 0
        capsys.readouterr()
        second_json = tmp_path / "second.json"
        rc = cli_main(
            args + ["--resume", str(first_json), "--json", str(second_json)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed:" in out
        a = CampaignResult.load_json(first_json)
        b = CampaignResult.load_json(second_json)
        assert a.metrics() == b.metrics()


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


class TestShmCollection:
    """ISSUE 3 satellite: ``collect="shm"`` must equal ``collect="pickle"``
    cell for cell, including when the ring overflows into the fallback."""

    @pytest.mark.dist
    def test_shm_equals_pickle_two_workers(self, shm_guard):
        spec = small_spec(systems_per_cell=4)
        pickle_r = Campaign(spec).run(workers=2, collect="pickle")
        shm_r = Campaign(spec).run(workers=2, collect="shm")
        assert shm_r.metrics() == pickle_r.metrics()
        # Everything fit the default ring: no pickle fallback.
        assert shm_r.shm_records == len(shm_r.cells)
        assert shm_r.shm_overflow == 0
        # The extras dicts survive the fixed-width JSON tail bit for bit.
        assert [c.extras for c in shm_r.cells] == [
            c.extras for c in pickle_r.cells
        ]
        # And the wall-clock payloads decoded from the ring are sane f64s.
        assert all(c.time_s > 0 for c in shm_r.cells)

    @pytest.mark.dist
    def test_ring_overflow_falls_back_to_pickle(self, shm_guard):
        from repro.batch.campaign import SHM_RECORD_SIZE

        spec = small_spec(systems_per_cell=4)
        reference = Campaign(spec).run(workers=1)
        # Room for exactly two records: everything else must overflow.
        shm_r = Campaign(
            spec
        ).run(workers=2, collect="shm", shm_bytes=2 * SHM_RECORD_SIZE)
        assert shm_r.metrics() == reference.metrics()
        assert 0 < shm_r.shm_records <= 2
        assert shm_r.shm_overflow == len(shm_r.cells) - shm_r.shm_records

    @pytest.mark.dist
    def test_oversized_extras_overflow_per_record(self, shm_guard):
        """A record whose extras exceed the fixed width ships via pickle;
        small records still use the ring."""
        def chatty(system, warm_start):
            return MethodOutcome(
                schedulable=True, extras={"blob": "x" * 4096}
            )

        register_method("test_chatty", chatty)
        spec = small_spec(
            methods=("reduced", "test_chatty"), systems_per_cell=4
        )
        pickle_r = Campaign(spec).run(workers=2, collect="pickle")
        shm_r = Campaign(spec).run(workers=2, collect="shm")
        assert shm_r.metrics() == pickle_r.metrics()
        assert [c.extras for c in shm_r.cells] == [
            c.extras for c in pickle_r.cells
        ]
        n = len(shm_r.cells)
        assert shm_r.shm_records == n // 2      # the 'reduced' cells
        assert shm_r.shm_overflow == n // 2     # the oversized ones

    @pytest.mark.dist
    def test_shm_streaming_same_rows(self, shm_guard, tmp_path):
        import csv as csv_mod

        spec = small_spec(systems_per_cell=4)
        a_path = tmp_path / "pickle.csv"
        b_path = tmp_path / "shm.csv"
        Campaign(spec).run(workers=2, stream_csv=a_path, collect="pickle")
        Campaign(spec).run(workers=2, stream_csv=b_path, collect="shm")

        def rows_without_timing(path):
            with path.open() as fh:
                rows = list(csv_mod.reader(fh))
            return sorted(tuple(r[:-1]) for r in rows[1:])

        assert rows_without_timing(a_path) == rows_without_timing(b_path)

    @pytest.mark.dist
    def test_stream_only_runs_route_through_the_ring(self, shm_guard, tmp_path):
        """ISSUE 4 satellite (ROADMAP open item): ``--stream-csv`` with
        ``collect="none"`` carries rows through the shared-memory ring --
        no pickle round-trip -- and writes the same CSV as the pickle
        transport."""
        import csv as csv_mod

        spec = small_spec(systems_per_cell=4)
        ring_path = tmp_path / "ring.csv"
        pickle_path = tmp_path / "pickle.csv"
        ring_r = Campaign(spec).run(
            workers=2, stream_csv=ring_path, collect="none"
        )
        pickle_r = Campaign(spec).run(
            workers=2, stream_csv=pickle_path, collect="pickle"
        )
        # The stream-only run really used the ring...
        assert ring_r.shm_records == ring_r.streamed_cells > 0
        assert ring_r.shm_overflow == 0
        # ...kept nothing in memory...
        assert ring_r.cells == []
        # ...and streamed the identical rows, in the identical order.
        def rows_without_timing(path):
            with path.open() as fh:
                rows = list(csv_mod.reader(fh))
            return [tuple(r[:-1]) for r in rows]

        assert rows_without_timing(ring_path) == rows_without_timing(pickle_path)

    @pytest.mark.dist
    def test_stream_only_ring_overflow_still_streams_everything(
        self, shm_guard, tmp_path
    ):
        from repro.batch.campaign import SHM_RECORD_SIZE

        spec = small_spec(systems_per_cell=4)
        path = tmp_path / "tiny_ring.csv"
        result = Campaign(spec).run(
            workers=2, stream_csv=path, collect="none",
            shm_bytes=2 * SHM_RECORD_SIZE,
        )
        assert result.streamed_cells == spec.n_analyses()
        assert 0 < result.shm_records <= 2
        assert result.shm_overflow == result.streamed_cells - result.shm_records

    @pytest.mark.dist
    def test_json_unstable_extras_overflow_per_record(self, shm_guard):
        """Extras that would not survive the JSON round trip unchanged
        (e.g. int dict keys, which JSON stringifies) must ship via the
        pickle fallback so shm stays bit-identical to pickle."""
        def int_keyed(system, warm_start):
            return MethodOutcome(schedulable=True, extras={1: "x"})

        register_method("test_int_keyed", int_keyed)
        spec = small_spec(methods=("test_int_keyed",), systems_per_cell=4)
        pickle_r = Campaign(spec).run(workers=2, collect="pickle")
        shm_r = Campaign(spec).run(workers=2, collect="shm")
        assert [c.extras for c in shm_r.cells] == [
            c.extras for c in pickle_r.cells
        ]
        assert shm_r.cells[0].extras == {1: "x"}  # key type preserved
        assert shm_r.shm_records == 0
        assert shm_r.shm_overflow == len(shm_r.cells)

    def test_single_worker_shm_degrades_to_inline(self):
        """workers=1 has no IPC to optimize; collect='shm' still works."""
        spec = small_spec()
        inline = Campaign(spec).run(workers=1, collect="shm")
        reference = Campaign(spec).run(workers=1)
        assert inline.metrics() == reference.metrics()
        assert inline.shm_records == 0

    def test_invalid_collect_rejected(self):
        with pytest.raises(ValueError, match="collect"):
            Campaign(small_spec()).run(workers=1, collect="carrier_pigeon")

    def test_cli_collect_shm(self, tmp_path, capsys):
        json_out = tmp_path / "result.json"
        rc = cli_main([
            "campaign",
            "--grid", "utilization=0.3,0.6",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "2",
            "--workers", "2",
            "--collect", "shm",
            "--json", str(json_out),
        ])
        assert rc == 0
        loaded = CampaignResult.load_json(json_out)
        assert len(loaded.cells) == 4


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
