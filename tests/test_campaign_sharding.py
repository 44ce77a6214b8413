"""Sharded distributed campaigns: partition laws, union exactness, merge.

The ISSUE 3 tentpole contract: ``run(shard=(k, n))`` executes a
deterministic cell-seed-hash partition of the chains such that the union
of all shard results is *bit-identical* (cell keys, verdicts, wcrt
ratios, evaluation counts) to the unsharded campaign, for any n and any
worker count, and ``merge_campaign_results`` / ``python -m repro
campaign-merge`` reassembles shard files while rejecting incompatible
specs and overlapping cells.
"""

from __future__ import annotations

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    chain_cost_estimates,
    lpt_shard_chains,
    merge_campaign_results,
    parse_shard,
    partition_chains,
    shard_chains,
)
from repro.cli import main as cli_main


def spec_variant(variant: int) -> CampaignSpec:
    """A family of small but structurally different campaign specs."""
    grids = [
        {"utilization": (0.3, 0.6, 0.9)},
        {"utilization": (0.4, 0.8), "n_transactions": (1, 2)},
        {"utilization": (0.35, 0.55, 0.75, 0.95)},
    ]
    return CampaignSpec(
        grid=grids[variant % len(grids)],
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 2),
        },
        methods=("reduced",) if variant % 2 == 0 else ("reduced", "dedicated"),
        systems_per_cell=3 + variant % 2,
        seed=17 + variant,
    )


class TestPartitionLaws:
    """shard_chains is a true partition, balanced and deterministic."""

    @pytest.mark.parametrize("variant", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_partition(self, variant, n):
        chains = Campaign(spec_variant(variant)).chains()
        shards = [shard_chains(chains, (k, n)) for k in range(n)]
        seen = [c["index"] for shard in shards for c in shard]
        # Every chain in exactly one shard.
        assert sorted(seen) == [c["index"] for c in chains]
        # Balanced within one chain.
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        # Each shard preserves canonical execution order.
        for shard in shards:
            indices = [c["index"] for c in shard]
            assert indices == sorted(indices)

    def test_assignment_is_deterministic(self):
        chains = Campaign(spec_variant(0)).chains()
        a = [c["index"] for c in shard_chains(chains, (1, 3))]
        b = [c["index"] for c in shard_chains(chains, (1, 3))]
        assert a == b

    def test_bad_shard_rejected(self):
        chains = Campaign(spec_variant(0)).chains()
        with pytest.raises(ValueError, match="0 <= k < n"):
            shard_chains(chains, (2, 2))
        with pytest.raises(ValueError, match="0 <= k < n"):
            shard_chains(chains, (-1, 2))

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("4/5") == (4, 5)
        for bad in ("2/2", "1", "a/b", "1/0", "-1/3"):
            with pytest.raises(ValueError, match="shard"):
                parse_shard(bad)


class TestLptPartition:
    """Cost-aware LPT sharding: partition laws + cost balance."""

    @pytest.mark.parametrize("variant", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_partition(self, variant, n):
        spec = spec_variant(variant)
        chains = Campaign(spec).chains()
        shards = [
            partition_chains(spec, chains, (k, n), partition="lpt")
            for k in range(n)
        ]
        seen = sorted(c["index"] for shard in shards for c in shard)
        assert seen == [c["index"] for c in chains]
        for shard in shards:
            indices = [c["index"] for c in shard]
            assert indices == sorted(indices)  # canonical order kept

    def test_skewed_costs_balance_better_than_counts(self):
        """One chain 50x the rest: LPT isolates it; interleaving by
        count would pair it with others on some shard."""
        chains = [{"index": i, "seed": i, "point": {}, "replicate": 0}
                  for i in range(8)]
        costs = [50.0] + [1.0] * 7
        shards = [lpt_shard_chains(chains, (k, 2), costs) for k in range(2)]
        loads = [
            sum(costs[c["index"]] for c in shard) for shard in shards
        ]
        # The heavy chain sits alone; everything else lands opposite.
        assert sorted(loads) == [7.0, 50.0]

    def test_manifest_costs_drive_the_assignment(self):
        spec = spec_variant(0)
        chains = Campaign(spec).chains()
        flat = chain_cost_estimates(spec, chains)
        assert len(set(flat)) == 1  # homogeneous grid -> proxy is flat
        manifest = {c["index"]: 1.0 for c in chains}
        manifest[chains[2]["index"]] = 100.0
        weighted = chain_cost_estimates(spec, chains, manifest)
        assert weighted[2] == 100.0
        # A chain missing from the manifest gets the mean recorded cost.
        del manifest[chains[0]["index"]]
        patched = chain_cost_estimates(spec, chains, manifest)
        assert patched[0] == pytest.approx(
            sum(manifest.values()) / len(manifest)
        )

    def test_deterministic_and_validated(self):
        spec = spec_variant(1)
        chains = Campaign(spec).chains()
        a = [c["index"] for c in partition_chains(
            spec, chains, (1, 3), partition="lpt")]
        b = [c["index"] for c in partition_chains(
            spec, chains, (1, 3), partition="lpt")]
        assert a == b
        with pytest.raises(ValueError, match="partition"):
            partition_chains(spec, chains, (0, 2), partition="rand")
        with pytest.raises(ValueError, match="0 <= k < n"):
            lpt_shard_chains(chains, (3, 3), [1.0] * len(chains))
        with pytest.raises(ValueError, match="costs"):
            lpt_shard_chains(chains, (0, 2), [1.0])

    @pytest.mark.parametrize("n", [2, 4])
    def test_union_bit_identical_with_recorded_costs(self, n):
        """The full LPT loop: record chain_costs, feed them back as the
        manifest, union across shards == unsharded run."""
        spec = spec_variant(2)
        full = Campaign(spec).run(workers=1)
        assert set(full.chain_costs) == {
            c["index"] for c in Campaign(spec).chains()
        }
        parts = [
            Campaign(spec).run(
                workers=1, shard=(k, n), partition="lpt",
                cost_manifest=full.chain_costs,
            )
            for k in range(n)
        ]
        merged = merge_campaign_results(parts)
        assert merged.metrics() == full.metrics()
        # The merged union re-assembles the full cost manifest too.
        assert set(merged.chain_costs) == set(full.chain_costs)

    def test_cli_lpt_shards_merge_to_full(self, tmp_path):
        args = [
            "campaign",
            "--grid", "utilization=0.3,0.6,0.9",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "3",
        ]
        full_json = tmp_path / "full.json"
        assert cli_main(args + ["--json", str(full_json)]) == 0
        shard_paths = []
        for k in range(2):
            path = tmp_path / f"lpt{k}.json"
            rc = cli_main(
                args
                + ["--shard", f"{k}/2", "--partition", "lpt",
                   "--cost-manifest", str(full_json),
                   "--json", str(path)]
            )
            assert rc == 0
            shard_paths.append(path)
        merged_json = tmp_path / "merged.json"
        rc = cli_main(
            ["campaign-merge", *map(str, shard_paths),
             "--json", str(merged_json), "--quiet"]
        )
        assert rc == 0
        assert (
            CampaignResult.load_json(merged_json).metrics()
            == CampaignResult.load_json(full_json).metrics()
        )


class TestShardUnion:
    """The acceptance property: shard union == unsharded, bit for bit."""

    @pytest.mark.parametrize("variant", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_union_bit_identical(self, variant, n):
        spec = spec_variant(variant)
        full = Campaign(spec).run(workers=1)
        parts = [Campaign(spec).run(workers=1, shard=(k, n)) for k in range(n)]
        assert sum(len(p.cells) for p in parts) == len(full.cells)
        merged = merge_campaign_results(parts)
        # metrics() covers cell identity (params incl. sweep value, seed,
        # replicate, method) plus verdicts, wcrt ratios and eval counts.
        assert merged.metrics() == full.metrics()

    @pytest.mark.dist
    def test_sharded_parallel_equals_serial(self):
        spec = spec_variant(1)
        serial = Campaign(spec).run(workers=1, shard=(0, 2))
        parallel = Campaign(spec).run(workers=2, shard=(0, 2))
        assert serial.metrics() == parallel.metrics()

    def test_shard_recorded_in_result(self):
        result = Campaign(spec_variant(0)).run(workers=1, shard=(1, 2))
        assert result.shard == [1, 2]
        assert "shard=1/2" in result.format_summary()


class TestMergeTool:
    def test_merge_round_trips_through_json(self, tmp_path):
        spec = spec_variant(0)
        full = Campaign(spec).run(workers=1)
        paths = []
        for k in range(2):
            part = Campaign(spec).run(workers=1, shard=(k, 2))
            paths.append(part.save_json(tmp_path / f"shard{k}.json"))
        loaded = [CampaignResult.load_json(p) for p in paths]
        merged = merge_campaign_results(loaded)
        assert merged.metrics() == full.metrics()
        assert merged.shard is None

    def test_overlapping_shards_rejected(self):
        spec = spec_variant(0)
        full = Campaign(spec).run(workers=1)
        a = Campaign(spec).run(workers=1, shard=(0, 2))
        # full already contains every cell of shard 0 (and carries no shard
        # index of its own, so the overlap check is what must fire).
        with pytest.raises(ValueError, match="overlapping cell"):
            merge_campaign_results([full, a])

    def test_duplicate_shard_index_rejected(self):
        spec = spec_variant(0)
        a = Campaign(spec).run(workers=1, shard=(0, 2))
        b = CampaignResult(
            spec=a.spec, cells=[], workers=1, wall_time_s=0.0, shard=[0, 2]
        )
        with pytest.raises(ValueError, match="duplicate shard index"):
            merge_campaign_results([a, b])

    def test_mismatched_shard_count_rejected(self):
        spec = spec_variant(0)
        a = Campaign(spec).run(workers=1, shard=(0, 2))
        b = Campaign(spec).run(workers=1, shard=(1, 3))
        with pytest.raises(ValueError, match="shard counts differ"):
            merge_campaign_results([a, b])

    def test_incompatible_spec_rejected(self):
        a = Campaign(spec_variant(0)).run(workers=1, shard=(0, 2))
        other = Campaign(spec_variant(0).__class__.from_dict(
            {**a.spec, "seed": 999}
        )).run(workers=1, shard=(1, 2))
        with pytest.raises(ValueError, match="incompatible spec"):
            merge_campaign_results([a, other])

    def test_foreign_cells_rejected(self):
        """Cells whose identity is not in the spec's plan are flagged."""
        spec = spec_variant(0)
        a = Campaign(spec).run(workers=1, shard=(0, 2))
        rogue = Campaign(spec).run(workers=1, shard=(1, 2))
        for cell in rogue.cells:
            cell.seed += 1  # no longer derivable from the spec
        with pytest.raises(ValueError, match="do not belong"):
            merge_campaign_results([a, rogue])

    def test_partial_merge_is_resumable(self, tmp_path):
        """A deployment missing one shard resumes through its store: a
        full rerun against it is served every merged cell."""
        spec = spec_variant(2)
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        parts = [
            Campaign(spec).run(workers=1, shard=(k, 3), store=store)
            for k in (0, 2)
        ]
        merged = merge_campaign_results(parts)
        assert len(merged.cells) < len(full.cells)
        resumed = Campaign(spec).run(workers=1, store=store)
        assert resumed.metrics() == full.metrics()
        assert resumed.store_hits == len(merged.cells)

    def test_merge_accounting_sums_and_maxima(self):
        spec = spec_variant(0)
        parts = [Campaign(spec).run(workers=1, shard=(k, 2)) for k in range(2)]
        merged = merge_campaign_results(parts)
        assert merged.wall_time_s == max(p.wall_time_s for p in parts)
        assert merged.workers == max(p.workers for p in parts)

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_campaign_results([])


class TestCliSharding:
    ARGS = [
        "campaign",
        "--grid", "utilization=0.3,0.6",
        "--transactions", "2",
        "--tasks", "1,2",
        "--systems", "3",
        "--workers", "1",
    ]

    def test_shard_and_merge_round_trip(self, tmp_path, capsys):
        full_json = tmp_path / "full.json"
        assert cli_main(self.ARGS + ["--json", str(full_json)]) == 0
        shard_paths = []
        for k in range(2):
            path = tmp_path / f"shard{k}.json"
            rc = cli_main(
                self.ARGS + ["--shard", f"{k}/2", "--json", str(path)]
            )
            assert rc == 0
            shard_paths.append(path)
        out = capsys.readouterr().out
        assert "shard 1/2" in out
        merged_json = tmp_path / "merged.json"
        rc = cli_main([
            "campaign-merge",
            *map(str, shard_paths),
            "--json", str(merged_json),
        ])
        assert rc == 0
        full = CampaignResult.load_json(full_json)
        merged = CampaignResult.load_json(merged_json)
        assert merged.metrics() == full.metrics()

    def test_merge_incomplete_union_exits_1(self, tmp_path, capsys):
        path = tmp_path / "shard0.json"
        assert cli_main(
            self.ARGS + ["--shard", "0/2", "--json", str(path)]
        ) == 0
        capsys.readouterr()
        rc = cli_main(["campaign-merge", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing" in err

    def test_merge_overlap_exits_2(self, tmp_path, capsys):
        full_path = tmp_path / "full.json"
        shard_path = tmp_path / "shard0.json"
        assert cli_main(self.ARGS + ["--json", str(full_path)]) == 0
        assert cli_main(
            self.ARGS + ["--shard", "0/2", "--json", str(shard_path)]
        ) == 0
        rc = cli_main(["campaign-merge", str(full_path), str(shard_path)])
        assert rc == 2
        assert "overlapping" in capsys.readouterr().err

    def test_bad_shard_argument_exits_2(self, capsys):
        rc = cli_main(self.ARGS + ["--shard", "2/2"])
        assert rc == 2
        assert "shard" in capsys.readouterr().err

    def test_shard_progress_counts_streamed_cells(self, tmp_path, capsys):
        """--no-collect keeps no cells; the shard line must report the
        streamed (executed) count, not 0."""
        rc = cli_main(
            self.ARGS
            + [
                "--shard", "0/2",
                "--stream-csv", str(tmp_path / "cells.csv"),
                "--no-collect",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard 0/2: 0 of" not in out
        assert "shard 0/2: " in out
