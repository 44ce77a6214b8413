"""Campaign dispatcher: queue-fed shards, fault tolerance, auto-merge.

The ISSUE 5 tentpole contract: a dispatched run -- over-partitioned
shards on a work-stealing queue of subprocess slots, cost-aware ``lpt``
partition, one injected mid-shard kill recovered by relaunching the same
shard against the result store -- must merge to a
:class:`CampaignResult` bit-identical to the unsharded single-process
run.  Also covers the real-kill path (a SIGKILLed subprocess relaunches,
with or without a store), attempt exhaustion, the split census, the ssh
command template, and the ``campaign-dispatch`` CLI round trip.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.batch import (
    Campaign,
    CampaignDispatcher,
    CampaignResult,
    CampaignSpec,
    DispatchError,
    Fault,
    FaultPlan,
    LocalBackend,
    SshBackend,
)
from repro.batch.dispatch import _open_pidfd, _wait_for_exit
from repro.cli import main as cli_main
from repro.serve.schemas import canonical_result_json


def make_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        grid={"utilization": (0.3, 0.5, 0.7, 0.9)},
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 2),
        },
        methods=("gauss_seidel",),
        systems_per_cell=6,
        seed=23,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestDispatchEquivalence:
    """The acceptance bar: dispatched == single-process, bit for bit."""

    @pytest.mark.dist
    def test_lpt_dispatch_with_injected_kill_bit_identical(self, tmp_path):
        """>= 4 shards, 2 workers, partition="lpt", one injected kill."""
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        assert full.chain_costs  # every run records its cost manifest now
        work_dir = tmp_path / "wd"
        dispatcher = CampaignDispatcher(
            spec,
            shards=4,
            workers=2,
            partition="lpt",
            cost_manifest=full.chain_costs,
            work_dir=work_dir,
            store=tmp_path / "store",
            # Shard 1 is SIGKILLed after 3 cells, on its first attempt.
            faults=FaultPlan([Fault(shard=1, kind="kill", at_cell=3)]),
        )
        report = dispatcher.run()
        assert report.result.metrics() == full.metrics()
        assert report.result.spec == full.spec
        killed = next(s for s in report.shards if s.shard == 1)
        assert killed.attempts == 2
        # The relaunch was served what the killed attempt had stored.
        assert report.result.store_hits > 0
        assert report.relaunches == 1
        # The queue really fed both slots.
        assert sum(report.shards_per_slot.values()) == len(
            [s for s in report.shards if s.chains > 0]
        )
        # Shards write their result and heartbeat, no partial files.
        assert not list(work_dir.glob("*.part.json"))

    @pytest.mark.dist
    def test_hash_dispatch_without_faults(self, tmp_path):
        spec = make_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        report = CampaignDispatcher(
            spec, shards=3, workers=2, work_dir=tmp_path
        ).run()
        assert report.result.metrics() == full.metrics()
        assert report.relaunches == 0
        for record in report.shards:
            assert record.cells == record.expected_cells


class _KillOnLaunch(LocalBackend):
    """Backend that SIGKILLs selected shards' first attempt.

    ``delay=None`` kills instantly (nothing is solved -- the relaunch
    starts from scratch); a float delay lets the subprocess store some
    cells first.
    """

    def __init__(self, victims: set[int], *, delay: float | None = None,
                 every_attempt: bool = False):
        self.victims = set(victims)
        self.delay = delay
        self.every_attempt = every_attempt
        self.kills = 0

    def launch(self, argv, *, slot, log_path, env=None):
        proc = super().launch(argv, slot=slot, log_path=log_path, env=env)
        shard = int(argv[argv.index("--shard") + 1].split("/")[0])
        if shard in self.victims:
            if not self.every_attempt:
                self.victims.discard(shard)
            self.kills += 1
            if self.delay is None:
                proc.kill()
            else:
                delay = self.delay

                def _later(p=proc, d=delay):
                    time.sleep(d)
                    p.kill()

                threading.Thread(target=_later, daemon=True).start()
        return proc


class TestFaultTolerance:
    @pytest.mark.dist
    def test_sigkilled_shard_relaunches_bit_identical(self, tmp_path):
        """A real process death (no truncated output at all) relaunches
        and still merges bit-identically."""
        spec = make_spec(systems_per_cell=4)
        full = Campaign(spec).run(workers=1)
        backend = _KillOnLaunch({0})
        report = CampaignDispatcher(
            spec, shards=3, workers=2, work_dir=tmp_path, backend=backend
        ).run()
        assert backend.kills == 1
        assert report.result.metrics() == full.metrics()
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempts == 2
        # Storeless: nothing survived the kill, the relaunch solved all.
        assert report.result.store_hits == 0

    @pytest.mark.dist
    def test_attempts_exhausted_raises_dispatch_error(self, tmp_path):
        spec = make_spec(systems_per_cell=2)
        backend = _KillOnLaunch({0}, every_attempt=True)
        dispatcher = CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path,
            backend=backend, max_attempts=2,
        )
        with pytest.raises(DispatchError, match="shard 0/2"):
            dispatcher.run()
        assert backend.kills == 2

    def test_split_census_is_a_store_membership_query(self, tmp_path):
        """The census counts each chain's stored cells; without a store
        it is empty, so every chain counts as unfinished."""
        from repro.batch.dispatch import ShardRecord

        spec = make_spec(systems_per_cell=3)
        chain_plan = {c["index"]: c for c in spec.chains()}
        record = ShardRecord(
            shard=0, chains=3, expected_cells=12, estimated_cost=1.0,
            chain_indices=[0, 1, 2],
        )
        storeless = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path / "a"
        )
        assert storeless._stored_cells(record, chain_plan) == {}
        store = tmp_path / "store"
        dispatcher = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path / "b", store=store,
        )
        assert dispatcher._stored_cells(record, chain_plan) == {
            0: 0, 1: 0, 2: 0,
        }
        Campaign(spec).run(workers=1, chain_indices=[1], store=store)
        assert dispatcher._stored_cells(record, chain_plan) == {
            0: 0, 1: 4, 2: 0,
        }

    def test_constructor_validation(self, tmp_path):
        spec = make_spec()
        for kwargs in (
            {"shards": 0, "workers": 1},
            {"shards": 1, "workers": 0},
            {"shards": 1, "workers": 1, "max_attempts": 0},
        ):
            with pytest.raises(ValueError):
                CampaignDispatcher(spec, work_dir=tmp_path, **kwargs)
        with pytest.raises(TypeError, match="checkpoint_every"):
            CampaignDispatcher(
                spec, shards=1, workers=1, work_dir=tmp_path,
                checkpoint_every=2,
            )
        with pytest.raises(KeyError, match="unknown campaign method"):
            CampaignDispatcher(
                make_spec(methods=("nope",)),
                shards=1, workers=1, work_dir=tmp_path,
            )


class TestStaleWorkDir:
    """Reused work dirs (ISSUE 6 bugfix): files from a different spec
    must never be accepted as results, and partial files written by
    earlier versions are ignored."""

    @pytest.mark.dist
    def test_dirty_work_dir_completes_without_relaunches(self, tmp_path):
        """Dispatch B into A's work dir, whose shard outputs also sit at
        the paths earlier versions wrote partial results to: every shard
        of B completes on its first attempt."""
        spec_a = make_spec(systems_per_cell=2)
        spec_b = make_spec(systems_per_cell=2, seed=99)
        CampaignDispatcher(
            spec_a, shards=2, workers=1, work_dir=tmp_path
        ).run()
        for shard in range(2):
            out = tmp_path / f"shard{shard:04d}.json"
            assert out.exists()
            (tmp_path / f"shard{shard:04d}.part.json").write_text(
                out.read_text()
            )
        dispatcher = CampaignDispatcher(
            spec_b, shards=2, workers=1, work_dir=tmp_path
        )
        report = dispatcher.run()
        full = Campaign(spec_b).run(workers=1)
        assert report.result.metrics() == full.metrics()
        assert report.relaunches == 0
        for record in report.shards:
            assert record.attempts == 1

    def test_shard_complete_rejects_foreign_shard_designator(self, tmp_path):
        from repro.batch.dispatch import ShardRecord

        spec = make_spec(systems_per_cell=2)
        dispatcher = CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path
        )
        # Same spec, but sharded 1/3 -- a leftover from a dispatch with a
        # different shard count; its cells are the wrong subset.
        other = Campaign(spec).run(workers=1, shard=(1, 3))
        other.save_json(dispatcher._out_path(0))
        record = ShardRecord(
            shard=0, chains=1, expected_cells=len(other.cells),
            estimated_cost=0.0,
        )
        assert dispatcher._shard_complete(record) is None
        # A sub-shard (``--chains``) result carries no designator; a
        # planned shard's never is one.
        unsharded = Campaign(spec).run(workers=1, chain_indices=[0])
        unsharded.save_json(dispatcher._out_path(0))
        record.expected_cells = len(unsharded.cells)
        assert dispatcher._shard_complete(record) is None
        record.parent = 1
        assert dispatcher._shard_complete(record) is not None

    def test_shard_complete_rejects_foreign_spec(self, tmp_path):
        from repro.batch.dispatch import ShardRecord

        spec_a = make_spec(systems_per_cell=2)
        spec_b = make_spec(systems_per_cell=2, seed=99)
        dispatcher = CampaignDispatcher(
            spec_b, shards=2, workers=1, work_dir=tmp_path
        )
        foreign = Campaign(spec_a).run(workers=1, shard=(0, 2))
        foreign.save_json(dispatcher._out_path(0))
        record = ShardRecord(
            shard=0, chains=1, expected_cells=len(foreign.cells),
            estimated_cost=0.0,
        )
        # Complete by every count, but the wrong spec: never accepted.
        assert dispatcher._shard_complete(record) is None
        ours = Campaign(spec_b).run(workers=1, shard=(0, 2))
        ours.save_json(dispatcher._out_path(0))
        record.expected_cells = len(ours.cells)
        accepted = dispatcher._shard_complete(record)
        assert accepted is not None
        assert accepted.metrics() == ours.metrics()


class TestParentFormatCheckpoint:
    """Earlier versions left partial results at ``shard*.part.json`` in
    the work dir; a dispatch into that dir ignores them."""

    @staticmethod
    def _plant(dispatcher, spec, **dumps):
        old = Campaign(spec).run(workers=1, shard=(0, 2))
        data = old.to_dict()
        data.update(
            cells=data["cells"][:3], truncated=True, reused_cells=3,
            shm_records=3, shm_overflow=0,
        )
        path = dispatcher.work_dir / "shard0000.part.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, **dumps))
        return path

    @pytest.mark.dist
    def test_checkpoint_with_ring_counters_is_ignored(self, tmp_path):
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        dispatcher = CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path / "wd",
            store=tmp_path / "store",
        )
        planted = self._plant(dispatcher, spec)
        before = planted.read_text()
        report = dispatcher.run()
        assert report.result.metrics() == full.metrics()
        assert report.relaunches == 0
        # Nothing was served: the partial is no recovery source.
        assert report.result.store_hits == 0
        assert planted.read_text() == before

    @pytest.mark.dist
    def test_indented_checkpoint_is_ignored(self, tmp_path):
        spec = make_spec()
        full = Campaign(spec).run(workers=1)
        dispatcher = CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path
        )
        self._plant(dispatcher, spec, indent=2)
        report = dispatcher.run()
        assert report.result.metrics() == full.metrics()
        assert report.relaunches == 0


class TestExitWake:
    """A shard's exit wakes the dispatcher at once through a pidfd; the
    poll interval paces only the liveness checks."""

    @staticmethod
    def _dispatch(tmp_path, poll):
        spec = make_spec(systems_per_cell=2)
        single = Campaign(spec).run(workers=1)
        started = time.perf_counter()
        report = CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path,
            poll_interval=poll, poll_max=poll,
        ).run()
        wall = time.perf_counter() - started
        assert canonical_result_json(report.result) == (
            canonical_result_json(single)
        )
        assert report.relaunches == 0
        return wall

    @pytest.mark.dist
    def test_exit_wakes_a_long_poll(self, tmp_path):
        """With a 5 s poll each of the two shards would hold its slot at
        least 5 s if only the poll tick noticed its exit."""
        assert self._dispatch(tmp_path, 5.0) < 3.0

    @pytest.mark.dist
    def test_without_pidfds_exits_wait_for_the_poll(
        self, tmp_path, monkeypatch
    ):
        """No pidfd (non-Linux, old kernel): the same dispatch completes,
        each shard noticed on a poll tick after at least one full
        interval."""
        calls = []

        def no_pidfd(pid):
            calls.append(pid)
            raise OSError(errno.ENOSYS, "pidfd_open unavailable")

        monkeypatch.setattr(os, "pidfd_open", no_pidfd)
        assert self._dispatch(tmp_path, 0.5) >= 1.0
        assert len(calls) == 2  # one attempt per shard, each without fd

    def test_wait_returns_on_child_exit(self):
        """A ``Popen`` (the ssh backend's handle) wakes the wait too."""
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(0.2)"]
        )
        pidfd = _open_pidfd(proc)
        try:
            assert pidfd is not None
            started = time.perf_counter()
            _wait_for_exit([SimpleNamespace(proc=proc, pidfd=pidfd)], 30.0)
            assert time.perf_counter() - started < 10.0
            assert proc.poll() == 0
        finally:
            proc.kill()
            proc.wait()
            if pidfd is not None:
                os.close(pidfd)

    def test_handle_with_return_code_does_not_wait(self):
        """A launch under a dead zygote never ran: it has a return code
        and no pid, gets no fd and must not make the loop sleep."""
        never_ran = SimpleNamespace(returncode=-9, pid=None)
        assert _open_pidfd(never_ran) is None
        started = time.perf_counter()
        _wait_for_exit([SimpleNamespace(proc=never_ran, pidfd=None)], 30.0)
        assert time.perf_counter() - started < 1.0

    def test_without_fds_the_wait_sleeps_the_timeout(self):
        live = SimpleNamespace(returncode=None)
        started = time.perf_counter()
        _wait_for_exit([SimpleNamespace(proc=live, pidfd=None)], 0.2)
        assert time.perf_counter() - started >= 0.2


class TestLogExcerpt:
    def test_excerpt_is_last_ten_lines(self, tmp_path):
        dispatcher = CampaignDispatcher(
            make_spec(), shards=1, workers=1, work_dir=tmp_path
        )
        tmp_path.mkdir(exist_ok=True)
        dispatcher._log_path(0).write_text(
            "\n".join(f"line {i}" for i in range(15)) + "\n"
        )
        excerpt = dispatcher._log_excerpt(0)
        assert excerpt.startswith("\nlast log lines:\n")
        assert "line 5" in excerpt and "line 14" in excerpt
        assert "line 4" not in excerpt

    def test_missing_or_empty_log_gives_nothing(self, tmp_path):
        dispatcher = CampaignDispatcher(
            make_spec(), shards=1, workers=1, work_dir=tmp_path
        )
        assert dispatcher._log_excerpt(0) == ""
        tmp_path.mkdir(exist_ok=True)
        dispatcher._log_path(0).write_text("  \n")
        assert dispatcher._log_excerpt(0) == ""


class TestDispatchStore:
    @pytest.mark.dist
    def test_second_dispatch_serves_everything(self, tmp_path):
        from repro.batch import ResultStore

        spec = make_spec(systems_per_cell=2)
        store_root = tmp_path / "store"
        first = CampaignDispatcher(
            spec, shards=2, workers=2,
            work_dir=tmp_path / "wd1", store=store_root,
        ).run()
        assert first.result.store_hits == 0
        assert first.result.store_misses == spec.n_analyses()
        second = CampaignDispatcher(
            spec, shards=2, workers=2,
            work_dir=tmp_path / "wd2", store=store_root,
        ).run()
        assert second.result.store_hits == spec.n_analyses()
        assert second.result.store_misses == 0
        assert second.result.metrics() == first.result.metrics()
        assert ResultStore(store_root).stats().entries == spec.n_analyses()


class TestSshBackend:
    def test_command_template_is_mockable(self, tmp_path):
        """Substituting the ssh command exercises the full template
        without a network: the 'remote' command line lands in the log."""
        backend = SshBackend(
            ["alpha", "beta"], ssh_command=("echo",), remote_python=("python3",)
        )
        log = tmp_path / "shard.log"
        argv = ["/usr/local/bin/python", "-m", "repro", "campaign",
                "--shard", "1/4"]
        proc = backend.launch(argv, slot=3, log_path=log)
        assert proc.wait() == 0
        line = log.read_text()
        assert line.startswith("beta ")  # slot 3 of 2 hosts -> hosts[1]
        assert "python3 -m repro campaign --shard 1/4" in line
        assert "/usr/local/bin/python" not in line  # head rewritten

    def test_needs_hosts(self):
        with pytest.raises(ValueError, match="at least one host"):
            SshBackend([])

    def test_slot_pinning_round_robins_hosts(self):
        backend = SshBackend(["alpha", "beta", "gamma"])
        assert [backend.host_of(s) for s in range(6)] == [
            "alpha", "beta", "gamma", "alpha", "beta", "gamma",
        ]

    def test_arguments_with_spaces_survive_quoting(self, tmp_path):
        """The remote command is one shell-quoted string; a work-dir path
        with spaces must come out of the remote shell as one argument."""
        backend = SshBackend(["h0"], ssh_command=("echo",))
        log = tmp_path / "shard.log"
        spaced = str(tmp_path / "my work dir" / "spec.json")
        argv = ["python", "-m", "repro", "campaign", "--spec", spaced]
        proc = backend.launch(argv, slot=0, log_path=log)
        assert proc.wait() == 0
        remote = log.read_text().split(" ", 1)[1].strip()
        import shlex

        assert shlex.split(remote) == [
            "python3", "-m", "repro", "campaign", "--spec", spaced,
        ]

    def test_remote_python_override(self, tmp_path):
        """A venv interpreter (multi-word command) replaces the head."""
        backend = SshBackend(
            ["h0"], ssh_command=("echo",),
            remote_python=("/opt/venv/bin/python", "-u"),
        )
        log = tmp_path / "shard.log"
        proc = backend.launch(
            ["python", "-m", "repro", "campaign"], slot=0, log_path=log
        )
        assert proc.wait() == 0
        assert "/opt/venv/bin/python -u -m repro campaign" in log.read_text()

    def test_fault_plan_env_crosses_the_ssh_hop(self, tmp_path):
        """REPRO_FAULT_PLAN must be forwarded into the remote command (as
        an ``env`` prefix); the rest of the local environment must not."""
        from repro.batch.faults import FAULT_ENV

        backend = SshBackend(["h0"], ssh_command=("echo",))
        log = tmp_path / "shard.log"
        payload = '[{"kind": "kill", "at_cell": 2}]'
        env = {"PYTHONPATH": "/secret/local/path", FAULT_ENV: payload}
        proc = backend.launch(
            ["python", "-m", "repro"], slot=0, log_path=log, env=env
        )
        assert proc.wait() == 0
        remote = log.read_text()
        import shlex

        assert shlex.split(remote.split(" ", 1)[1])[:2] == [
            "env", f"{FAULT_ENV}={payload}",
        ]
        assert "/secret/local/path" not in remote
        # No fault plan, no env prefix.
        log2 = tmp_path / "shard2.log"
        proc = backend.launch(
            ["python", "-m", "repro"], slot=0, log_path=log2,
            env={"PYTHONPATH": "/x"},
        )
        assert proc.wait() == 0
        assert "env" not in shlex.split(log2.read_text())


class TestCliDispatch:
    ARGS = [
        "campaign-dispatch",
        "--grid", "utilization=0.3,0.6,0.9",
        "--transactions", "2",
        "--tasks", "1,2",
        "--systems", "3",
        "--workers", "2",
        "--shards", "4",
        "--partition", "lpt",
    ]

    @pytest.mark.dist
    def test_round_trip_matches_single_run(self, tmp_path, capsys):
        merged_json = tmp_path / "merged.json"
        rc = cli_main(
            self.ARGS
            + ["--work-dir", str(tmp_path / "wd"),
               "--json", str(merged_json)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dispatched 4 shard(s) over 2 worker slot(s)" in out
        merged = CampaignResult.load_json(merged_json)
        spec = CampaignSpec.from_dict(merged.spec)
        full = Campaign(spec).run(workers=1)
        assert merged.metrics() == full.metrics()
        # The work dir was explicit, so the shard files survive for
        # inspection -- including the spec the subprocesses consumed.
        assert (tmp_path / "wd" / "spec.json").exists()

    def test_bad_hosts_exit_2(self, capsys):
        rc = cli_main(self.ARGS + ["--hosts", "telnet:alpha"])
        assert rc == 2
        assert "ssh:HOST" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", [[], ["--shards", "4"]])
    def test_zero_workers_error_names_workers(self, shards, capsys):
        """The default shard count derives from --workers; a bad worker
        count must be reported as such, not as ``shards must be >= 1``."""
        args = [a for a in self.ARGS if a not in ("--shards", "4")]
        args[args.index("--workers") + 1] = "0"
        rc = cli_main(args + shards)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers must be >= 1")
        assert "shards" not in err

    def test_spec_file_reproduces_flag_run(self, tmp_path):
        """--spec must describe the identical campaign the flags do (it
        is how dispatch subprocesses receive their work)."""
        args = [
            "campaign",
            "--grid", "utilization=0.4,0.8",
            "--transactions", "2",
            "--tasks", "1,2",
            "--systems", "2",
        ]
        flag_json = tmp_path / "flags.json"
        assert cli_main(args + ["--json", str(flag_json)]) == 0
        flags = CampaignResult.load_json(flag_json)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(flags.spec))
        spec_json = tmp_path / "spec_run.json"
        rc = cli_main(
            ["campaign", "--spec", str(spec_path), "--json", str(spec_json)]
        )
        assert rc == 0
        assert CampaignResult.load_json(spec_json).metrics() == flags.metrics()
