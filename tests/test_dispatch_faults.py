"""Fault-injection drills for the dispatcher's liveness + recovery layer.

The ISSUE 7 acceptance bar: every :class:`FaultPlan` scenario -- kill at
each cell boundary, hang forever, heartbeat drop, corrupt output JSON,
exit nonzero -- must converge to a merged result bit-identical to the
unsharded single-process run (counter pins included), leave zero child
processes behind, and a hung shard must be detected and relaunched
within one ``stall_after`` window.  The drills dispatch against a result
store, so a relaunch is served what its predecessor solved.  Straggler
splitting and graceful SIGINT shutdown ride the same harness.

The subprocess scenarios are ``dist``-marked (multi-process, seconds
each) and additionally ``faults``-marked so CI can run them as a
dedicated leg under a hard timeout; the policy/unit tests at the bottom
run everywhere.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import (
    Campaign,
    CampaignDispatcher,
    CampaignResult,
    CampaignSpec,
    CopyBackTransport,
    DispatchError,
    DispatchInterrupted,
    Fault,
    FaultPlan,
    HostHealth,
    LocalBackend,
    SharedDirTransport,
    TransportFault,
)
from repro.batch.dispatch import DispatchReport, ShardRecord, _Running
from repro.batch.faults import FAULT_ENV, WorkerFaults


def tiny_spec(**overrides) -> CampaignSpec:
    """Two chains of three cells each: every boundary is enumerable."""
    kwargs = dict(
        grid={"utilization": (0.3, 0.6, 0.9)},
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 2),
        },
        methods=("gauss_seidel",),
        systems_per_cell=2,
        seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def single_run() -> CampaignResult:
    return Campaign(tiny_spec()).run(workers=1)


class _RecordingBackend(LocalBackend):
    """Remember every child handle so tests can assert none is left alive."""

    def __init__(self):
        self.procs: list = []

    def launch(self, argv, *, slot, log_path, env=None):
        proc = super().launch(argv, slot=slot, log_path=log_path, env=env)
        self.procs.append(proc)
        return proc

    def assert_all_reaped(self):
        lingering = [p.pid for p in self.procs if p.poll() is None]
        assert not lingering, f"leftover child processes: {lingering}"


def dispatch(spec, work_dir, faults=None, backend=None, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("store", Path(work_dir) / "store")
    return CampaignDispatcher(
        spec, work_dir=work_dir, faults=faults, backend=backend, **kwargs
    ).run()


pytestmark = pytest.mark.faults


@pytest.mark.dist
class TestFaultMatrix:
    """Each injected failure recovers to the bit-identical union."""

    @pytest.mark.parametrize("at_cell", [0, 1, 2, 3])
    def test_kill_at_each_cell_boundary(self, tmp_path, single_run, at_cell):
        """SIGKILL after exactly N cells (every boundary of the 3-cell
        shard, including before-the-first and after-the-last)."""
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan([Fault(shard=0, kind="kill", at_cell=at_cell)]),
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempts == 2
        assert victim.attempt_outcomes == ["failed", "completed"]
        # Progress made before the kill is served to the relaunch from
        # the store.
        if at_cell > 0:
            assert report.result.store_hits > 0
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_hang_detected_as_stalled_within_one_window(
        self, tmp_path, single_run
    ):
        """A wedged-but-alive worker keeps beating with a frozen counter:
        the dispatcher must classify *stalled* (not dead, not slow) and
        relaunch within one stall window."""
        stall_after = 3.0
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
            stall_after=stall_after, heartbeat_interval=0.2,
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempt_outcomes == ["stalled", "completed"]
        # Detection latency: the hung attempt's wall is its short healthy
        # prefix plus at most one stall window plus poll slack -- far
        # under two windows.
        assert victim.attempt_walls[0] < 2 * stall_after
        assert report.result.store_hits > 0  # its cells came from the store
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_heartbeat_drop_detected_as_dead(self, tmp_path, single_run):
        """Silence (no beats at all) classifies as *dead*."""
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan(
                [Fault(shard=1, kind="drop_heartbeats", at_cell=1)]
            ),
            stall_after=3.0, heartbeat_interval=0.2,
        )
        victim = next(s for s in report.shards if s.shard == 1)
        assert victim.attempt_outcomes == ["dead", "completed"]
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_corrupt_output_is_a_miss_not_a_traceback(
        self, tmp_path, single_run
    ):
        """A shard that exits 0 leaving truncated JSON: the
        crash-consistent readers treat the file as absent and relaunch
        (served every cell from the store, never the damaged file)."""
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan([Fault(shard=0, kind="corrupt_output")]),
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempts == 2
        assert report.result.store_hits == victim.expected_cells
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_flaky_exit_nonzero_then_succeeds(self, tmp_path, single_run):
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan(
                [Fault(shard=0, kind="exit", at_cell=2, exit_code=5)]
            ),
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempt_outcomes == ["failed", "completed"]
        assert report.relaunches == 1
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_shard_timeout_kills_hung_worker(self, tmp_path, single_run):
        """With liveness off, the flat wall budget is the backstop."""
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
            shard_timeout=3.0,
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempt_outcomes == ["timeout", "completed"]
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_permanently_sick_shard_exhausts_attempts(self, tmp_path):
        """attempt=None makes the fault fire on every launch; the
        dispatcher must give up loudly after max_attempts."""
        backend = _RecordingBackend()
        with pytest.raises(DispatchError, match="failed 2 attempt"):
            dispatch(
                tiny_spec(), tmp_path, backend=backend,
                faults=FaultPlan(
                    [Fault(shard=0, kind="kill", at_cell=0, attempt=None)]
                ),
                max_attempts=2,
            )
        backend.assert_all_reaped()

    def test_backoff_delays_are_recorded(self, tmp_path, single_run):
        backend = _RecordingBackend()
        report = dispatch(
            tiny_spec(), tmp_path, backend=backend,
            faults=FaultPlan([Fault(shard=0, kind="exit", at_cell=1)]),
            backoff_base=0.2, backoff_max=1.0,
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert len(victim.backoff_s) == 1
        assert 0.2 <= victim.backoff_s[0] <= 0.4  # base + jitter in [0, base)
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()


@pytest.mark.dist
class TestStragglerSplitting:
    def test_split_union_bit_identical(self, tmp_path):
        """One shard holding every chain, one idle slot: the straggler's
        unfinished chains are re-partitioned onto fresh sub-shards and
        the union still equals the single run bit for bit."""
        spec = tiny_spec(systems_per_cell=4)  # 4 chains to split across
        single = Campaign(spec).run(workers=1)
        backend = _RecordingBackend()
        report = dispatch(
            spec, tmp_path, backend=backend,
            shards=1, workers=2, split_after=0.2,
            # The straggler's first attempt hangs after one cell, so it
            # holds its slot past split_after however fast shards start.
            faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
        )
        assert report.splits >= 1
        parent = next(s for s in report.shards if s.shard == 0)
        assert "split" in parent.attempt_outcomes
        subs = [s for s in report.shards if s.parent is not None]
        assert subs and all(s.parent == 0 for s in subs)
        # The sub-shards partition the parent's chains exactly.
        covered = sorted(i for s in subs for i in s.chain_indices)
        assert covered == parent.chain_indices
        # A split is elasticity, not a failure: no relaunch counted.
        assert report.relaunches == 0
        assert report.result.metrics() == single.metrics()
        # The chain the straggler finished before hanging was served.
        assert report.result.store_hits >= 3
        backend.assert_all_reaped()

    def test_storeless_split_counts_every_chain_unfinished(self, tmp_path):
        """Without a store nothing survives the straggler: every chain is
        unfinished, re-partitioned and solved again."""
        spec = tiny_spec(systems_per_cell=4)
        single = Campaign(spec).run(workers=1)
        backend = _RecordingBackend()
        report = dispatch(
            spec, tmp_path, backend=backend, store=None,
            shards=1, workers=2, split_after=0.2,
            faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
        )
        subs = [s for s in report.shards if s.parent is not None]
        # Two groups (one idle slot plus the freed one), each carrying
        # the estimated cost of its whole, unsolved chains.
        assert len(subs) == 2
        assert sum(s.estimated_cost for s in subs) == pytest.approx(
            next(s for s in report.shards if s.shard == 0).estimated_cost
        )
        assert report.result.store_hits == 0
        assert report.result.metrics() == single.metrics()
        backend.assert_all_reaped()

    def test_single_unfinished_chain_is_not_split(self, tmp_path):
        """A shard with one chain cannot shrink; it must never be shot
        by the splitter."""
        spec = tiny_spec(systems_per_cell=1)  # one chain total
        single = Campaign(spec).run(workers=1)
        backend = _RecordingBackend()
        report = dispatch(
            spec, tmp_path, backend=backend,
            shards=1, workers=2, split_after=0.0,
        )
        assert report.splits == 0
        assert report.relaunches == 0
        assert report.result.metrics() == single.metrics()
        backend.assert_all_reaped()


@pytest.mark.dist
class TestExitFds:
    """Every path that ends an attempt closes the attempt's pidfd."""

    @pytest.mark.parametrize("drill", ["kill", "timeout", "split"])
    def test_attempts_leave_no_fd_behind(self, tmp_path, drill):
        spec = tiny_spec(systems_per_cell=4)
        single = Campaign(spec).run(workers=1)
        kwargs = {
            # SIGKILL mid-shard: a failed attempt, then a relaunch.
            "kill": dict(faults=FaultPlan(
                [Fault(shard=0, kind="kill", at_cell=1)]
            )),
            # A hung attempt shot at its wall budget.
            "timeout": dict(
                faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
                shard_timeout=1.0,
            ),
            # A hung straggler killed and split onto the idle slot.
            "split": dict(
                faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
                shards=1, split_after=0.2,
            ),
        }[drill]
        before = sorted(os.listdir("/proc/self/fd"))
        backend = _RecordingBackend()
        report = dispatch(spec, tmp_path, backend=backend, **kwargs)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert report.result.metrics() == single.metrics()
        outcome = {"kill": "failed", "timeout": "timeout", "split": "split"}
        assert outcome[drill] in report.shards[0].attempt_outcomes
        backend.assert_all_reaped()


@pytest.mark.dist
class TestGracefulShutdown:
    def test_sigint_terminates_children_and_leaves_resumable_dir(
        self, tmp_path
    ):
        """SIGINT mid-dispatch: exit nonzero, merged partial saved, the
        store named as what a re-dispatch recovers from, zero orphaned
        subprocesses."""
        work_dir = tmp_path / "wd"
        store = tmp_path / "store"
        env = dict(os.environ)
        import repro

        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        # Every shard inherits the plan from the dispatcher's env and
        # hangs after one cell, so the dispatch is still running at the
        # SIGINT however fast shards start.
        env[FAULT_ENV] = FaultPlan(
            [Fault(shard=0, kind="hang", at_cell=1)]
        ).for_worker(0, 1)
        argv = [
            sys.executable, "-m", "repro", "campaign-dispatch",
            "--grid", "utilization=0.2,0.4,0.5,0.6,0.7,0.8,0.9",
            "--transactions", "2", "--tasks", "1,2", "--platforms", "2",
            "--systems", "8", "--methods", "gauss_seidel", "--seed", "5",
            "--workers", "2", "--shards", "4",
            "--work-dir", str(work_dir), "--store", str(store),
        ]
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if (work_dir / "spec.json").exists() and list(
                    work_dir.glob("*.hb.json")
                ):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.1)
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.3)  # let some shard work happen
            family = _descendants(proc.pid)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 1
        assert "interrupted" in err
        assert f"result store {store} holds every solved cell" in err
        # The merged partial is a loadable result for the same spec.
        partial = CampaignResult.load_json(work_dir / "partial.json")
        spec_dict = json.loads((work_dir / "spec.json").read_text())
        assert partial.spec == spec_dict
        # Zero orphans: the dispatcher's descendants at the SIGINT -- its
        # zygote and the shards forked from it -- are all gone.
        zygotes = [
            pid for pid, (ppid, _start, cmdline) in family.items()
            if ppid == proc.pid and b"repro.batch.zygote" in cmdline
        ]
        assert len(zygotes) == 1, family
        assert any(ppid == zygotes[0] for ppid, _s, _c in family.values())
        lingering = [pid for pid in family if _alive(pid, family[pid][1])]
        assert not lingering, lingering


def _stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, start time)`` of *pid* from ``/proc``, if any."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1]), int(fields[19])


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _descendants(root: int) -> dict[int, tuple[int, int, bytes]]:
    """``pid -> (ppid, start time, cmdline)`` of *root*'s live
    descendants."""
    table = {}
    for name in os.listdir("/proc"):
        stat = _stat(int(name)) if name.isdigit() else None
        if stat is not None and stat[0] != "Z":
            table[int(name)] = stat[1:]
    family, frontier = {}, [root]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, start) in table.items():
            if ppid == parent and pid not in family:
                family[pid] = (ppid, start, _cmdline(pid))
                frontier.append(pid)
    return family


def _alive(pid: int, start: int) -> bool:
    """Whether the process *pid* started at *start* still runs."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z" and stat[2] == start


class _TwoHostBackend(_RecordingBackend):
    """Mock a two-machine fleet: slot ``i`` pinned to ``hosts[i % n]``.

    Children still run locally, but on a :class:`CopyBackTransport` they
    read and write inside *their host's* work dir -- so the dispatcher
    really does stage inputs out and pull outputs back across a
    directory boundary, exactly as it would across a network one.
    """

    def __init__(self, hosts=("alpha", "beta")):
        super().__init__()
        self.hosts = list(hosts)

    def host_of(self, slot: int) -> str:
        return self.hosts[slot % len(self.hosts)]


def copyback(tmp_path, hosts=("alpha", "beta"), **kwargs):
    """A dispatcher work dir plus a copy-back transport over mock hosts."""
    work_dir = tmp_path / "wd"
    kwargs.setdefault("backoff_base", 0.0)  # transfer retries sleep-free
    transport = CopyBackTransport(
        work_dir, {h: tmp_path / "hosts" / h for h in hosts}, **kwargs
    )
    return work_dir, transport


@pytest.mark.dist
@pytest.mark.transport
class TestCopyBackDispatch:
    """The ISSUE 9 acceptance bar: a dispatched campaign over a mocked
    2-host copy-back transport -- with transfer faults injected -- merges
    bit-identical to the single run, quarantines the dead host,
    reschedules its shards, and leaves zero children behind."""

    def test_clean_two_host_run_bit_identical(self, tmp_path, single_run):
        backend = _TwoHostBackend()
        work_dir, transport = copyback(tmp_path)
        report = dispatch(
            tiny_spec(), work_dir, backend=backend, transport=transport,
        )
        assert report.result.metrics() == single_run.metrics()
        assert report.transport["kind"] == "copyback"
        assert report.transport["pushes"] >= 2  # spec staged to both hosts
        assert report.transport["pulls"] > 0
        assert report.transport["failures"] == 0
        assert set(report.hosts) == {"alpha", "beta"}
        completed = sum(h["completed"] for h in report.hosts.values())
        assert completed == len([s for s in report.shards if s.chains > 0])
        # Worker artifacts live in the host dirs, results land locally.
        assert list(work_dir.glob("shard*.json"))
        text = report.format_summary()
        assert "@alpha" in text or "@beta" in text
        assert "transport:" in text
        backend.assert_all_reaped()

    def test_dropped_copy_back_recovers_through_relaunch(
        self, tmp_path, single_run
    ):
        """Every retry of shard 0's result copy-back is dropped once
        (count=3 outlasts the transport's 2 retries): the attempt is
        judged ``transport``, the relaunch's pull goes through clean."""
        backend = _TwoHostBackend()
        work_dir, transport = copyback(tmp_path)
        report = dispatch(
            tiny_spec(), work_dir, backend=backend, transport=transport,
            faults=FaultPlan([
                TransportFault(
                    kind="drop", op="pull", name="shard0000.json", count=3,
                ),
            ]),
        )
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempt_outcomes == ["transport", "completed"]
        assert victim.transport_failures >= 1
        # The store is shared storage, not a copy-back: the relaunch is
        # served every cell the first attempt solved.
        assert report.result.store_hits == victim.expected_cells
        assert report.transport["failures"] >= 1
        assert report.result.metrics() == single_run.metrics()
        backend.assert_all_reaped()

    def test_blackholed_host_is_quarantined_and_work_rescheduled(
        self, tmp_path, single_run
    ):
        """Host beta drops off the network mid-run (its heartbeat pulls
        blackhole): after ``host_blacklist_after`` consecutive transport
        failures beta is quarantined, its in-flight shard evicted and
        rescheduled onto alpha, and the union is still bit-identical."""
        backend = _TwoHostBackend()
        work_dir, transport = copyback(tmp_path)
        report = dispatch(
            tiny_spec(), work_dir, backend=backend, transport=transport,
            faults=FaultPlan([
                TransportFault(
                    kind="blackhole", host="beta", op="pull",
                    name="*.hb.json",
                ),
                # The two equal-cost shards launch in index order onto
                # slots 0 (alpha) and 1 (beta).  Beta's shard hangs after
                # one cell on its first attempt, so it is still running
                # when its heartbeat pulls start failing.
                Fault(shard=1, kind="hang", at_cell=1),
            ]),
            host_blacklist_after=2, host_cooldown=300.0,
        )
        assert report.result.metrics() == single_run.metrics()
        assert report.transport["blackholed"] == ["beta"]
        assert report.hosts["beta"]["quarantines"] == 1
        assert report.quarantines == 1
        assert report.evictions == 1
        # The evicted shard was healthy: no failed attempt burned, and
        # its relaunch landed on the surviving host.
        victim = next(
            s for s in report.shards if "evicted" in s.attempt_outcomes
        )
        assert victim.attempt_outcomes == ["evicted", "completed"]
        assert victim.attempt_hosts == ["beta", "alpha"]
        assert victim.failed_attempts == 0
        # Everything completed on alpha; beta completed nothing.
        assert report.hosts["beta"]["completed"] == 0
        assert report.hosts["alpha"]["completed"] == len(
            [s for s in report.shards if s.chains > 0]
        )
        text = report.format_summary()
        assert "host beta:" in text and "quarantine" in text
        backend.assert_all_reaped()


@pytest.mark.transport
class TestHostFailureDomainPolicy:
    """Deterministic host-health pieces, no subprocesses."""

    def test_every_host_gone_is_one_clear_error(self, tmp_path):
        """A single host that blackholes and then dies on probation must
        surface as one DispatchError naming the quarantined fleet --
        not as per-shard attempt exhaustion."""
        work_dir, transport = copyback(tmp_path, hosts=("local",))
        dispatcher = CampaignDispatcher(
            tiny_spec(), shards=1, workers=1, work_dir=work_dir,
            transport=transport,
            faults=FaultPlan([TransportFault(kind="blackhole", op="push")]),
            host_blacklist_after=1, host_cooldown=0.05, max_attempts=5,
        )
        with pytest.raises(DispatchError, match="every host is quarantined"):
            dispatcher.run()
        # The staging failures never even launched a child.
        assert dispatcher.host_health.state("local").dead

    def test_blacklist_disabled_by_default(self):
        hh = HostHealth(["a"])
        for _ in range(10):
            assert hh.record_failure("a", "dead", now=0.0) is False
        assert hh.usable("a", 0.0)
        assert hh.state("a").failures == 10
        assert hh.state("a").quarantines == 0

    def test_quarantine_cooldown_probation_death(self):
        hh = HostHealth(["a", "b"], blacklist_after=2, cooldown=10.0)
        assert hh.record_failure("a", "dead", 0.0) is False
        assert hh.record_failure("a", "stalled", 1.0) is True  # quarantined
        assert not hh.usable("a", 5.0)
        assert hh.usable("b", 5.0) and hh.any_usable(5.0)
        assert hh.next_readmission() == pytest.approx(11.0)
        # Cooldown over: usable again, but only on probation.
        assert hh.usable("a", 11.5)
        assert hh.probationary("a", 11.5)
        hh.on_launch("a", 11.5)
        st = hh.state("a")
        assert st.probation and st.readmissions == 1
        # A probation failure is terminal for the host.
        assert hh.record_failure("a", "timeout", 12.0) is True
        assert st.dead
        assert not hh.usable("a", 1e9)
        assert not hh.all_dead()  # b still lives
        assert hh.next_readmission() is None
        # Further failures on a dead host change nothing.
        assert hh.record_failure("a", "dead", 13.0) is False

    def test_success_resets_consecutive_failures_and_probation(self):
        hh = HostHealth(["a"], blacklist_after=3, cooldown=1.0)
        hh.record_failure("a", "dead", 0.0)
        hh.record_failure("a", "dead", 0.0)
        hh.record_success("a")
        # The streak restarted: two more failures stay short of three.
        assert hh.record_failure("a", "dead", 1.0) is False
        assert hh.record_failure("a", "dead", 1.0) is False
        assert hh.state("a").completed == 1
        assert hh.state("a").failures == 4

    def test_summary_separates_transport_failures(self):
        hh = HostHealth(["a"], blacklist_after=None)
        hh.record_failure("a", "transport", 0.0)
        hh.record_failure("a", "dead", 0.0)
        hh.record_success("a")
        assert hh.summary()["a"] == {
            "completed": 1,
            "failures": 2,
            "transport_failures": 1,
            "quarantines": 0,
            "readmissions": 0,
            "dead": False,
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one host"):
            HostHealth([])
        with pytest.raises(ValueError, match="blacklist_after"):
            HostHealth(["a"], blacklist_after=0)
        with pytest.raises(ValueError, match="cooldown"):
            HostHealth(["a"], cooldown=-1.0)

    def test_transport_must_cover_backend_hosts(self, tmp_path):
        """A copy-back transport that does not know a pinned host is a
        deployment bug and fails at construction, not mid-dispatch."""
        work_dir, transport = copyback(tmp_path, hosts=("alpha",))
        with pytest.raises(ValueError, match="knows no work dir"):
            CampaignDispatcher(
                tiny_spec(), shards=2, workers=2, work_dir=work_dir,
                backend=_TwoHostBackend(), transport=transport,
            )

    def test_transport_faults_on_shared_dir_rejected(self, tmp_path):
        """Arming transfer faults on the zero-copy transport would mean
        they silently never fire; the dispatcher refuses up front."""
        with pytest.raises(ValueError, match="CopyBackTransport"):
            CampaignDispatcher(
                tiny_spec(), shards=1, workers=1, work_dir=tmp_path,
                transport=SharedDirTransport(tmp_path),
                faults=FaultPlan([TransportFault(kind="drop")]),
            )

    def test_multi_host_summary_annotates_hosts(self):
        result = Campaign(tiny_spec()).run(workers=1)
        shards = [
            ShardRecord(
                shard=0, chains=2, expected_cells=6, estimated_cost=1.0,
                attempts=2, attempt_walls=[0.8, 0.6],
                attempt_outcomes=["evicted", "completed"],
                attempt_hosts=["beta", "alpha"],
            ),
        ]
        report = DispatchReport(
            result=result, shards=shards, workers=2, wall_time_s=2.0,
            hosts={
                "alpha": {"completed": 1, "failures": 0, "quarantines": 0},
                "beta": {
                    "completed": 0, "failures": 3,
                    "quarantines": 1, "dead": True,
                },
            },
            transport={
                "kind": "copyback", "pushes": 4, "pulls": 9,
                "retries": 2, "failures": 3,
            },
        )
        assert report.quarantines == 1
        assert report.evictions == 1
        text = report.format_summary()
        assert "shard 0: evicted 0.80s @beta, completed 0.60s @alpha" in text
        assert "host alpha: 1 completed, 0 failure(s)" in text
        assert "host beta: 0 completed, 3 failure(s), 1 quarantine(s) "\
            "[dead]" in text
        assert "transport: 4 push(es), 9 pull(s), 2 retry(ies), "\
            "3 failure(s)" in text


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(shard=0, kind="explode")

    def test_field_validation(self):
        with pytest.raises(ValueError, match="shard"):
            Fault(shard=-1, kind="kill")
        with pytest.raises(ValueError, match="at_cell"):
            Fault(shard=0, kind="kill", at_cell=-1)
        with pytest.raises(ValueError, match="1-based"):
            Fault(shard=0, kind="kill", attempt=0)

    def test_for_worker_filters_by_shard_and_attempt(self):
        plan = FaultPlan([
            Fault(shard=0, kind="kill", at_cell=2, attempt=1),
            Fault(shard=0, kind="exit", at_cell=4, attempt=2),
            Fault(shard=1, kind="hang", attempt=None),
        ])
        first = json.loads(plan.for_worker(0, 1))
        assert [f["kind"] for f in first] == ["kill"]
        second = json.loads(plan.for_worker(0, 2))
        assert [f["kind"] for f in second] == ["exit"]
        assert plan.for_worker(0, 3) is None
        # attempt=None fires on every attempt.
        for attempt in (1, 2, 7):
            assert json.loads(plan.for_worker(1, attempt))
        assert plan.for_worker(2, 1) is None

    def test_worker_faults_round_trip_through_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert WorkerFaults.from_env() is None
        plan = FaultPlan([Fault(shard=0, kind="kill", at_cell=3)])
        monkeypatch.setenv(FAULT_ENV, plan.for_worker(0, 1))
        armed = WorkerFaults.from_env()
        assert armed is not None
        assert armed.next_trigger() == 3

    def test_malformed_env_plan_fails_loudly(self, monkeypatch):
        # A broken harness must not silently run a clean campaign.
        monkeypatch.setenv(FAULT_ENV, '{"kind": "kill"}')
        with pytest.raises(ValueError, match="JSON list"):
            WorkerFaults.from_env()

    def test_clip_lands_on_exact_boundary(self):
        armed = WorkerFaults([{"kind": "kill", "at_cell": 5, "exit_code": 1}])
        batch = list(range(10))
        assert armed.clip(batch, 0) == batch[:5]
        assert armed.clip(batch, 3) == batch[:2]
        assert armed.clip(batch[:3], 0) == batch[:3]  # boundary not reached
        # corrupt_output never clips: it fires at save time.
        saver = WorkerFaults([{"kind": "corrupt_output"}])
        assert saver.next_trigger() is None
        assert saver.clip(batch, 0) == batch
        assert saver.corrupts_output()


class TestRecoveryPolicy:
    """Deterministic policy pieces, no subprocesses."""

    def test_backoff_is_deterministic_and_bounded(self, tmp_path):
        spec = tiny_spec()
        make = lambda: CampaignDispatcher(
            spec, shards=2, workers=1, work_dir=tmp_path,
            backoff_base=0.5, backoff_max=2.0,
        )
        a, b = make(), make()
        delays_a = [a._backoff_delay(s, k) for s in (0, 1) for k in (1, 2, 3, 9)]
        delays_b = [b._backoff_delay(s, k) for s in (0, 1) for k in (1, 2, 3, 9)]
        assert delays_a == delays_b  # seeded jitter: a drill replays exactly
        assert all(0.5 <= d <= 2.0 for d in delays_a)
        # Exponential until the cap: attempt 2's raw term alone (2x base)
        # exceeds attempt 1's base + jitter.
        assert a._backoff_delay(0, 2) > a._backoff_delay(0, 1)
        assert a._backoff_delay(0, 9) == 2.0
        # Disabled by default: no delay, nothing recorded.
        off = CampaignDispatcher(spec, shards=2, workers=1, work_dir=tmp_path)
        assert off._backoff_delay(0, 3) == 0.0

    def test_liveness_classification(self, tmp_path):
        spec = tiny_spec()
        dispatcher = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path, stall_after=10.0,
        )
        tmp_path.mkdir(exist_ok=True)
        hb_path = dispatcher._heartbeat_path(0)
        record = ShardRecord(
            shard=0, chains=1, expected_cells=3, estimated_cost=1.0,
        )
        active = _Running(
            record, proc=None, slot=0, started=0.0,
            advance_t=0.0, beat_t=0.0,
        )
        # Counter advances: progressing, at any in-window time.
        hb_path.write_text(json.dumps({"cells": 1, "seq": 1}))
        assert dispatcher._liveness(active, now=5.0) == "progressing"
        # Counter frozen, seq beating: stalled once the window passes.
        hb_path.write_text(json.dumps({"cells": 1, "seq": 2}))
        assert dispatcher._liveness(active, now=9.0) == "progressing"
        hb_path.write_text(json.dumps({"cells": 1, "seq": 3}))
        assert dispatcher._liveness(active, now=16.0) == "stalled"
        # No beats at all past the window: dead.
        assert dispatcher._liveness(active, now=30.0) == "dead"
        # A fresh counter advance resets everything.
        hb_path.write_text(json.dumps({"cells": 2, "seq": 4}))
        assert dispatcher._liveness(active, now=31.0) == "progressing"

    def test_liveness_reads_are_crash_consistent(self, tmp_path):
        dispatcher = CampaignDispatcher(
            tiny_spec(), shards=1, workers=1, work_dir=tmp_path,
            stall_after=10.0,
        )
        tmp_path.mkdir(exist_ok=True)
        assert dispatcher._read_heartbeat(0) is None  # absent
        hb = dispatcher._heartbeat_path(0)
        for garbage in ('{"cells": 3, "se', "[]", '"x"', '{"cells": "n"}'):
            hb.write_text(garbage)  # torn / wrong shape / wrong types
            assert dispatcher._read_heartbeat(0) is None
        hb.write_text(json.dumps({"cells": 3, "seq": 7, "time": 0.0}))
        assert dispatcher._read_heartbeat(0) == {"cells": 3, "seq": 7}

    def test_attempt_budget_derivation(self, tmp_path):
        spec = tiny_spec()
        record = ShardRecord(
            shard=0, chains=2, expected_cells=6, estimated_cost=4.0,
        )
        flat = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path, shard_timeout=9.0,
            timeout_factor=2.0, cost_manifest={0: 1.0},
        )
        assert flat._attempt_budget(record) == 9.0  # flat wins
        derived = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path,
            timeout_factor=2.0, timeout_floor=5.0, cost_manifest={0: 1.0},
        )
        assert derived._attempt_budget(record) == 2.0 * 4.0 + 5.0
        unbounded = CampaignDispatcher(
            spec, shards=1, workers=1, work_dir=tmp_path,
        )
        assert unbounded._attempt_budget(record) is None

    def test_constructor_validation(self, tmp_path):
        spec = tiny_spec()
        for kwargs in (
            {"stall_after": 0.0},
            {"heartbeat_interval": 0.0},
            {"shard_timeout": -1.0},
            {"timeout_factor": 0.0},
            {"timeout_floor": -0.1},
            {"backoff_base": -1.0},
            {"backoff_max": -1.0},
            {"split_after": -1.0},
        ):
            with pytest.raises(ValueError):
                CampaignDispatcher(
                    spec, shards=1, workers=1, work_dir=tmp_path, **kwargs
                )

    @pytest.mark.parametrize("with_store", [True, False])
    def test_interrupt_message_names_the_store(self, tmp_path, with_store):
        """The interrupt names the store a re-dispatch recovers from, and
        claims nothing is recoverable without one."""

        class _Interrupting(LocalBackend):
            def launch(self, argv, *, slot, log_path, env=None):
                raise KeyboardInterrupt

        store = tmp_path / "store" if with_store else None
        dispatcher = CampaignDispatcher(
            tiny_spec(), shards=2, workers=1, work_dir=tmp_path / "wd",
            store=store, backend=_Interrupting(),
        )
        with pytest.raises(DispatchInterrupted) as exc:
            dispatcher.run()
        text = str(exc.value)
        assert "resumable" not in text
        if with_store:
            assert f"result store {store} holds every solved cell" in text
        else:
            assert "no result store was given" in text
            assert "solves every cell again" in text
        partial = CampaignResult.load_json(tmp_path / "wd" / "partial.json")
        assert partial.cells == []

    def test_heartbeat_interval_capped_by_stall_window(self, tmp_path):
        dispatcher = CampaignDispatcher(
            tiny_spec(), shards=1, workers=1, work_dir=tmp_path,
            stall_after=2.0, heartbeat_interval=5.0,
        )
        assert dispatcher.heartbeat_interval == pytest.approx(0.5)
        # And the adaptive poll ceiling follows the effective interval.
        assert dispatcher.poll_max == pytest.approx(0.5)

    def test_report_summary_shows_attempt_history(self):
        result = Campaign(tiny_spec()).run(workers=1)
        shards = [
            ShardRecord(
                shard=0, chains=2, expected_cells=6, estimated_cost=1.0,
                attempts=2, attempt_walls=[1.5, 0.5],
                attempt_outcomes=["stalled", "completed"],
                backoff_s=[0.25],
            ),
            ShardRecord(
                shard=3, chains=1, expected_cells=3, estimated_cost=0.5,
                attempts=1, parent=0, attempt_walls=[0.4],
                attempt_outcomes=["completed"],
            ),
        ]
        report = DispatchReport(
            result=result, shards=shards, workers=2, wall_time_s=2.0,
        )
        assert report.splits == 1
        assert report.relaunches == 1
        text = report.format_summary()
        assert "1 relaunch(es), 1 split(s)" in text
        assert "shard 0: stalled 1.50s, completed 0.50s, backoff 0.25s" in text
        assert "shard 3: completed 0.40s (split from shard 0)" in text
