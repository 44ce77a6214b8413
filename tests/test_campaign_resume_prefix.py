"""Resuming a killed campaign: a rerun against its result store.

A campaign given a result store writes each cell to it as the cell is
solved, so a run killed after ``cut`` cells leaves exactly that prefix
of the canonical cell order behind.  Rerunning the same command against
the same store resumes it: the stored cells are served, the rest solved,
and every cell -- accounting and provenance extras included -- equals
an uninterrupted storeless run in every field but ``time_s``.  The
random-loss matrix deletes a seeded random 10-90 % of a complete run's
entries and reruns an exact sweep, a verdict (pruned) spec and a mixed
spec inline, on a 2-worker pool, sharded and as ``chain_indices``
subsets; the prefix drills pin what a kill after ``cut`` cells leaves
and how the rerun accounts for it, with real SIGKILLed CLI processes
too.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    Fault,
    FaultPlan,
    ResultStore,
    merge_campaign_results,
)
from repro.batch.campaign import chain_store_digests
from repro.batch.faults import FAULT_ENV
from repro.cli import main as cli_main


def make_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        grid={"utilization": (0.3, 0.5, 0.7, 0.9)},
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 3),
        },
        methods=("gauss_seidel",),
        systems_per_cell=3,
        seed=23,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


#: The three spec shapes of the matrix: the ascending warm-start walk,
#: the bisecting verdict chain, and both runners' methods in one chain.
MATRIX_SPECS = {
    "exact": dict(methods=("gauss_seidel",)),
    "verdict": dict(
        methods=("verdict",),
        grid={"utilization": (0.3, 0.45, 0.6, 0.75, 0.9, 1.05)},
    ),
    "mixed": dict(
        methods=("reduced", "verdict"),
        grid={"utilization": (0.3, 0.5, 0.7, 0.9, 1.1)},
    ),
}


def _nan_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {k: _nan_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_safe(v) for v in value]
    return value


def cell_fields(result: CampaignResult) -> list[dict]:
    """Every field of every cell but ``time_s``, NaN equal to NaN."""
    return [
        _nan_safe({k: v for k, v in c.to_dict().items() if k != "time_s"})
        for c in result.cells
    ]


def entries(root: Path) -> list[Path]:
    return sorted(root.glob("??/*.json"))


def drop_random(root: Path, seed: int) -> int:
    """Delete a seeded random 10-90 % of the store's entries."""
    rng = random.Random(seed)
    files = entries(root)
    doomed = rng.sample(files, int(len(files) * rng.uniform(0.1, 0.9)))
    for path in doomed:
        path.unlink()
    return len(doomed)


def keep_prefix(spec: CampaignSpec, root: Path, cut: int) -> None:
    """Leave only the first *cut* cells of the canonical order stored --
    what an inline run killed after *cut* cells wrote."""
    digests = [
        d for chain in spec.chains() for d in chain_store_digests(spec, chain)
    ]
    keep = set(digests[:cut])
    for path in entries(root):
        if path.stem not in keep:
            path.unlink()


def run_mode(spec: CampaignSpec, mode: str, store: Path) -> CampaignResult:
    campaign = Campaign(spec)
    if mode == "inline":
        return campaign.run(workers=1, store=store)
    if mode == "pool":
        return campaign.run(workers=2, store=store)
    if mode == "sharded":
        return merge_campaign_results(
            [campaign.run(workers=1, shard=(k, 3), store=store)
             for k in range(3)]
        )
    assert mode == "chain_indices"
    indices = [c["index"] for c in spec.chains()]
    return merge_campaign_results(
        [campaign.run(workers=1, chain_indices=indices[0::2], store=store),
         campaign.run(workers=1, chain_indices=indices[1::2], store=store)]
    )


class TestRandomLossMatrix:
    """Whatever share of a run's entries survives, a rerun completes it
    with the storeless run's cells."""

    @pytest.mark.parametrize(
        "mode",
        [
            "inline",
            pytest.param("pool", marks=pytest.mark.dist),
            "sharded",
            "chain_indices",
        ],
    )
    @pytest.mark.parametrize("shape", sorted(MATRIX_SPECS))
    def test_rerun_after_random_loss_equals_storeless(
        self, tmp_path, shape, mode
    ):
        spec = make_spec(**MATRIX_SPECS[shape])
        storeless = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        total = len(entries(store))
        for seed in (1, 2):
            dropped = drop_random(store, seed=seed)
            assert 0 < dropped < total
            rerun = run_mode(spec, mode, store)
            assert cell_fields(rerun) == cell_fields(storeless), seed
            assert rerun.store_misses > 0
            assert rerun.store_hits + rerun.store_misses == len(rerun.cells)
            # The rerun stored what it solved: the store is whole again.
            assert len(entries(store)) == total

    def test_rerun_against_a_lost_store_solves_everything(self, tmp_path):
        spec = make_spec()
        storeless = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        for path in entries(store):
            path.unlink()
        rerun = Campaign(spec).run(workers=1, store=store)
        assert cell_fields(rerun) == cell_fields(storeless)
        assert rerun.store_hits == 0
        assert rerun.store_misses == spec.n_analyses()


class TestPrefixResume:
    """A run killed after ``cut`` cells stored exactly that prefix; the
    rerun serves it and solves the rest."""

    @pytest.mark.parametrize("cut", [1, 2, 3, 5, 7, 11])
    def test_resume_bit_identical_at_any_cut(self, tmp_path, cut):
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, cut)
        rerun = Campaign(spec).run(workers=1, store=store)
        # ... including the dirty-set / fixed-point solve accounting the
        # gauss_seidel method threads through the extras.
        assert cell_fields(rerun) == cell_fields(full)
        assert rerun.store_hits == cut

    def test_mid_level_kill_reruns_that_level_whole(self, tmp_path):
        # Two methods per level; an odd cut strands one method mid-level.
        spec = make_spec(methods=("gauss_seidel", "dedicated"))
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, 3)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert cell_fields(rerun) == cell_fields(full)
        # Only the one fully stored level (2 cells) is served: the
        # methods of a level share a phase cache, so a half-stored level
        # is solved whole.
        assert rerun.store_hits == 2

    def test_reseed_accounting_reported(self, tmp_path):
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, 2)
        rerun = Campaign(spec).run(workers=1, store=store)
        # The level after a served one needs the served level's jitters:
        # one warm-start re-seed, charged to no reported cell.
        assert rerun.reseed_solves > 0
        assert rerun.reseed_evaluations >= rerun.reseed_solves
        acc = rerun.accounting()
        assert acc["reseed"]["solves"] == rerun.reseed_solves
        assert acc["reseed"]["evaluations"] == rerun.reseed_evaluations
        assert cell_fields(rerun) == cell_fields(full)
        assert "re-seed" in rerun.format_summary()

    def test_resume_without_warm_start(self, tmp_path):
        spec = make_spec(warm_start=False)
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, 6)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert cell_fields(rerun) == cell_fields(full)
        # No warm chaining -> nothing to re-seed.
        assert rerun.reseed_solves == 0

    def test_resume_without_sweep_axis(self, tmp_path):
        spec = make_spec(grid={"n_transactions": (1, 2, 3)}, sweep_axis=None)
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, 4)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert cell_fields(rerun) == cell_fields(full)
        assert rerun.store_hits == 4

    def test_resume_round_trips_through_json(self, tmp_path):
        """The prefix reaches the rerun through the store's JSON files
        -- inferred verdict cells' NaN ratios included -- read back by a
        fresh store handle."""
        spec = make_spec(**MATRIX_SPECS["verdict"])
        full = Campaign(spec).run(workers=1)
        assert any(math.isnan(c.max_wcrt_ratio) for c in full.cells)
        Campaign(spec).run(workers=1, store=tmp_path / "store")
        keep_prefix(spec, tmp_path / "store", 7)
        rerun = Campaign(spec).run(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        assert rerun.store_hits > 0
        assert cell_fields(rerun) == cell_fields(full)

    @pytest.mark.dist
    def test_parallel_resume_equals_serial(self, tmp_path):
        spec = make_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        Campaign(spec).run(workers=1, store=store)
        keep_prefix(spec, store, 9)
        resumed = Campaign(spec).run(workers=2, store=store)
        assert cell_fields(resumed) == cell_fields(full)
        assert resumed.store_hits == 9

    def test_chained_kills_resume_to_completion(self, tmp_path):
        """kill -> rerun killed again -> rerun reaches the full result;
        each attempt's solved cells survive into the next."""
        store = tmp_path / "store"
        killed_cli_run(tmp_path, 1, tmp_path / "first.json")
        assert len(entries(store)) == 3
        # The second attempt is served the first chain, then killed
        # inside the second.
        killed_cli_run(tmp_path, 4, tmp_path / "second.json")
        assert len(entries(store)) == 6
        final_json = tmp_path / "final.json"
        full_json = tmp_path / "full.json"
        assert cli_main(
            CLI_ARGS + ["--store", str(store), "--json", str(final_json)]
        ) == 0
        assert cli_main(CLI_ARGS + ["--json", str(full_json)]) == 0
        final = CampaignResult.load_json(final_json)
        assert final.store_hits == 6
        assert cell_fields(final) == cell_fields(
            CampaignResult.load_json(full_json)
        )

    def test_verdict_chain_keeps_its_provenance(self, tmp_path):
        """A pruned chain rerun against a partial store bisects the
        levels a storeless run bisects: solved-vs-inferred split and
        ``from_level`` witnesses included, at every cut."""
        spec = make_spec(**MATRIX_SPECS["verdict"])
        full = Campaign(spec).run(workers=1)
        store = tmp_path / "store"
        for cut in range(spec.n_analyses()):
            Campaign(spec).run(workers=1, store=store)
            keep_prefix(spec, store, cut)
            rerun = Campaign(spec).run(workers=1, store=store)
            assert cell_fields(rerun) == cell_fields(full), cut


class TestSpecMismatchRejection:
    """A store filled by a different campaign is rejected, cell by cell:
    its entries are filed under other keys, so none is ever served to
    this spec."""

    @pytest.mark.parametrize(
        "field,override",
        [
            ("seed", {"seed": 99}),
            ("generator", {"generator": "paper", "base": {}, "grid": {}}),
            (
                "base",
                {
                    "base": {
                        "n_platforms": 3,
                        "n_transactions": 2,
                        "tasks_per_transaction": (1, 3),
                    }
                },
            ),
            ("warm_start", {"warm_start": False}),
        ],
    )
    def test_mismatch_rejected(self, tmp_path, field, override):
        store = tmp_path / "store"
        Campaign(make_spec(**override)).run(workers=1, store=store)
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert rerun.store_hits == 0, field
        assert cell_fields(rerun) == cell_fields(full)

    def test_grid_extension_is_allowed(self, tmp_path):
        """A wider grid reruns against a narrower one's store without
        complaint.  More replicates is an extension the store serves
        (the chains that existed are served whole); a longer sweep
        ladder is a new execution context (warm-started accounting
        depends on the levels below), so its cells are solved."""
        store = tmp_path / "store"
        narrow = Campaign(make_spec(systems_per_cell=2)).run(
            workers=1, store=store
        )
        spec = make_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert cell_fields(rerun) == cell_fields(full)
        assert rerun.store_hits == len(narrow.cells)
        wide = make_spec(
            systems_per_cell=2,
            grid={"utilization": (0.3, 0.5, 0.7, 0.9, 1.1)},
        )
        rerun = Campaign(wide).run(workers=1, store=store)
        assert rerun.store_hits == 0
        storeless = Campaign(wide).run(workers=1)
        assert cell_fields(rerun) == cell_fields(storeless)


#: A small CLI campaign: 3 chains of 3 levels, one method.
CLI_ARGS = [
    "campaign",
    "--grid", "utilization=0.3,0.5,0.7",
    "--transactions", "2",
    "--tasks", "1,2",
    "--systems", "3",
    "--workers", "1",
]


def killed_cli_run(tmp_path: Path, at_cell: int, out: Path) -> None:
    """Run the CLI campaign against ``tmp_path/store`` in a real process
    SIGKILLed after *at_cell* cells."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    env[FAULT_ENV] = FaultPlan(
        [Fault(shard=0, kind="kill", at_cell=at_cell)]
    ).for_worker(0, 1)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *CLI_ARGS,
         "--store", str(tmp_path / "store"), "--json", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == -9, proc.stderr
    assert not out.exists()


class TestCliResumeAfterKill:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        full_json = tmp_path / "full.json"
        assert cli_main(CLI_ARGS + ["--json", str(full_json)]) == 0
        killed_cli_run(tmp_path, 4, tmp_path / "killed.json")
        # Chains are consumed whole: the kill after cell 4 landed inside
        # the second 3-cell chain, after both chains were stored.
        assert len(entries(tmp_path / "store")) == 6
        capsys.readouterr()
        rerun_json = tmp_path / "rerun.json"
        rc = cli_main(
            CLI_ARGS + ["--store", str(tmp_path / "store"),
                        "--json", str(rerun_json)]
        )
        assert rc == 0
        assert "6 cells served, 3 solved and stored" in capsys.readouterr().out
        full = CampaignResult.load_json(full_json)
        rerun = CampaignResult.load_json(rerun_json)
        assert cell_fields(rerun) == cell_fields(full)


def test_store_has_is_a_membership_query(tmp_path):
    spec = make_spec(systems_per_cell=1)
    store = ResultStore(tmp_path / "store")
    digests = chain_store_digests(spec, spec.chains()[0])
    assert len(digests) == spec.n_analyses()
    assert not any(store.has(d) for d in digests)
    Campaign(spec).run(workers=1, store=store)
    assert all(store.has(d) for d in digests)
