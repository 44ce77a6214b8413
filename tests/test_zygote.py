"""The zygote launch path: a forked shard behaves like ``python -m repro``.

``LocalBackend`` forks every shard from one warm zygote per process
(:mod:`repro.batch.zygote`): the first local dispatch starts it, later
ones fork from it while the interpreter, cwd, start env and preload list
match, and it closes at interpreter exit.  These tests pin its contract
against a cold interpreter: exit statuses, env, cwd, stdio,
``wait(timeout)``, shutdown with no survivors, bounded start failures,
recovery when the zygote dies, a single-threaded zygote, and concurrent
kills and polls.  They pin its lifetime too: one interpreter for two
dispatches, and for two threads dispatching at once; a backend's close
reaps only its own shards; changed start inputs get a fresh zygote and
close the stale one once nothing uses it; and an owner's death leaves
nothing alive, even while a child it forked holds the channel.  An idle
zygote costs one interpreter's RSS; its log is a temp file of its own,
outside every dispatch's work dir, removed on close when empty; a
process that dispatches once still pays one start.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.batch import (
    Campaign,
    CampaignDispatcher,
    CampaignSpec,
    DispatchError,
    Fault,
    FaultPlan,
    LocalBackend,
    zygote,
)
from repro.batch.dispatch import _child_env
from repro.batch.faults import FAULT_ENV

pytestmark = pytest.mark.dist

#: A worker payload that parks the shard before its first cell.
HANG = FaultPlan([Fault(shard=0, kind="hang")]).for_worker(0, 1)


def _exit_with(code: int) -> str:
    """A worker payload that exits *code* before the first cell."""
    return FaultPlan(
        [Fault(shard=0, kind="exit", exit_code=code)]
    ).for_worker(0, 1)


def _campaign(out: str) -> list[str]:
    """A one-chain, two-cell verdict campaign writing *out*."""
    return [
        "campaign", "--grid", "utilization=0.3,0.6", "--transactions", "2",
        "--tasks", "1,2", "--systems", "1", "--methods", "verdict",
        "--workers", "1", "--json", out,
    ]


def _argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _stat(pid) -> list[str] | None:
    """``/proc/<pid>/stat`` fields from the state on, if *pid* exists."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid: int) -> list[int]:
    """Live and zombie children of *pid*."""
    stats = {int(n): _stat(n) for n in os.listdir("/proc") if n.isdigit()}
    return [k for k, stat in stats.items() if stat and int(stat[1]) == pid]


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def backend():
    backend = LocalBackend()
    yield backend
    backend.close()


def _launch(backend, tmp_path, args, env=None, name="shard"):
    return backend.launch(
        _argv(*args), slot=0, log_path=tmp_path / f"{name}.log",
        env=_child_env() if env is None else env,
    )


def _cold(args, log: Path, env=None, signal_after=None) -> int:
    """Exit status of the same command in a cold ``python -m repro``."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(
            _argv(*args), stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
            env=_child_env() if env is None else env,
        )
    if signal_after is not None:
        time.sleep(0.2)
        proc.send_signal(signal_after)
    return proc.wait(timeout=120)


class TestExitStatusParity:
    @pytest.mark.parametrize("case", ["ok", "usage", "uncaught"])
    def test_exit_status_matches_cold_interpreter(
        self, backend, tmp_path, case
    ):
        args = {
            "ok": ["example", "--out", str(tmp_path / "system.json")],
            "usage": ["campaign", "--no-such-flag"],
            "uncaught": ["analyze", str(tmp_path)],  # a dir: IsADirectory
        }[case]
        expected = {"ok": 0, "usage": 2, "uncaught": 1}[case]
        cold = _cold(args, tmp_path / "cold.log")
        forked = _launch(backend, tmp_path, args).wait(timeout=60)
        assert cold == forked == expected
        log = (tmp_path / "shard.log").read_text()
        if case == "usage":
            assert "error:" in log
        if case == "uncaught":
            assert "Traceback (most recent call last)" in log
            assert "IsADirectoryError" in log

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
    def test_death_by_signal_is_minus_signum(self, backend, tmp_path, sig):
        env = dict(_child_env(), **{FAULT_ENV: HANG})
        args = _campaign(str(tmp_path / "out.json"))
        cold = _cold(args, tmp_path / "cold.log", env=env, signal_after=sig)
        proc = _launch(backend, tmp_path, args, env=env)
        assert proc.poll() is None
        proc.send_signal(sig)
        assert cold == proc.wait(timeout=60) == -sig
        assert proc.poll() == -sig  # the status is kept, not re-read


class TestLaunchParity:
    def test_env_is_applied_exactly_per_launch(
        self, tmp_path, monkeypatch
    ):
        # The zygote starts with a plan in its env: a launch env without
        # it must not see it, and each payload reaches its own launch.
        monkeypatch.setenv(FAULT_ENV, _exit_with(5))
        backend = LocalBackend()
        try:
            args = _campaign(str(tmp_path / "out.json"))
            without = {k: v for k, v in _child_env().items() if k != FAULT_ENV}
            procs = [
                _launch(backend, tmp_path, args, env=dict(_child_env())),
                _launch(backend, tmp_path, args, env=without),
                _launch(backend, tmp_path, args,
                        env=dict(without, **{FAULT_ENV: _exit_with(9)})),
            ]
            assert [p.wait(timeout=60) for p in procs] == [5, 0, 9]
        finally:
            backend.close()

    def test_cwd_stdio_and_log(self, backend, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        log = tmp_path / "shard.log"
        ok = _launch(backend, tmp_path, _campaign("relative.json"))
        assert ok.wait(timeout=60) == 0
        assert (cwd / "relative.json").exists()  # ran in the launch cwd
        assert _launch(backend, tmp_path, ["--help"]).wait(timeout=60) == 0
        assert _launch(backend, tmp_path, ["nope"]).wait(timeout=60) == 2
        text = log.read_text()
        assert "usage: repro" in text  # stdout
        assert "invalid choice" in text  # stderr
        hung = _launch(
            backend, tmp_path, _campaign("hung.json"),
            env=dict(_child_env(), **{FAULT_ENV: HANG}),
        )
        expected = {0: os.devnull, 1: str(log), 2: str(log)}
        assert _wait_until(lambda: expected == {
            fd: os.readlink(f"/proc/{hung.pid}/fd/{fd}") for fd in expected
        })
        hung.kill()
        assert hung.wait(timeout=60) == -signal.SIGKILL

    def test_wait_timeout_raises(self, backend, tmp_path):
        proc = _launch(
            backend, tmp_path, _campaign(str(tmp_path / "out.json")),
            env=dict(_child_env(), **{FAULT_ENV: HANG}),
        )
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=0.2)
        proc.terminate()
        assert proc.wait(timeout=60) == -signal.SIGTERM


class TestLifetime:
    def test_close_leaves_nothing_alive(self, tmp_path):
        backend = LocalBackend()
        env = dict(_child_env(), **{FAULT_ENV: HANG})
        procs = [
            _launch(backend, tmp_path, _campaign(str(tmp_path / f"{k}.json")),
                    env=env)
            for k in range(2)
        ]
        zpid = backend._zygote._proc.pid
        assert all(_alive(p.pid) for p in procs) and _alive(zpid)
        backend._zygote.close()  # what the exit hook runs
        assert not any(_alive(pid) for pid in (zpid, *(p.pid for p in procs)))
        assert [p.poll() for p in procs] == [-signal.SIGKILL] * 2
        # A closed zygote is replaced on the next launch.
        again = _launch(backend, tmp_path, ["--help"])
        assert again.wait(timeout=60) == 0
        assert backend._zygote._proc.pid != zpid
        backend.close()

    @pytest.mark.parametrize("wrote", [False, True])
    def test_own_log_is_removed_on_close_only_when_empty(self, wrote):
        z = zygote.Zygote(_child_env())
        log = z.log_path
        try:
            assert log.parent == Path(tempfile.gettempdir())
            assert log.name.startswith("repro-zygote-") and log.exists()
            if wrote:  # what a zygote traceback would leave
                with open(log, "a") as handle:
                    handle.write("Traceback (most recent call last):\n")
            z.close()
            assert log.exists() == wrote
        finally:
            z.close()
            log.unlink(missing_ok=True)

    def test_backend_close_reaps_only_its_shards(self, tmp_path):
        ours, theirs = LocalBackend(), LocalBackend()
        env = dict(_child_env(), **{FAULT_ENV: HANG})
        try:
            mine, other = (
                _launch(b, tmp_path, _campaign(str(tmp_path / f"{n}.json")),
                        env=env, name=n)
                for b, n in ((ours, "ours"), (theirs, "theirs"))
            )
            z, users = ours._zygote, ours._zygote.users
            assert theirs._zygote is z
            ours.close()
            assert mine.returncode == -signal.SIGKILL
            assert _stat(mine.pid) is None  # killed and reaped
            assert _alive(other.pid) and _alive(z._proc.pid)
            assert ours._zygote is None and z.users == users - 1
            # The next dispatch forks from the same zygote.
            assert _launch(ours, tmp_path, ["--help"]).wait(timeout=60) == 0
            assert ours._zygote is z
        finally:
            ours.close()
            theirs.close()
        assert other.returncode == -signal.SIGKILL
        assert z.alive and z is zygote._current and z.users == users - 2

    @pytest.mark.parametrize("change", ["env", "preload"])
    def test_changed_start_inputs_replace_the_zygote(
        self, tmp_path, monkeypatch, change
    ):
        idle, busy = LocalBackend(), LocalBackend()
        hung = _launch(busy, tmp_path, _campaign(str(tmp_path / "h.json")),
                       env=dict(_child_env(), **{FAULT_ENV: HANG}), name="h")
        stale = busy._zygote
        if change == "env":
            monkeypatch.setenv("REPRO_ZYGOTE_TEST", "1")
        else:
            monkeypatch.setattr(zygote, "PRELOAD", (*zygote.PRELOAD, "json"))
        try:
            assert _launch(idle, tmp_path, ["--help"]).wait(timeout=60) == 0
            fresh = idle._zygote
            assert fresh is zygote._current and fresh is not stale
            # The stale zygote still runs the busy backend's shard ...
            assert stale.alive and _alive(hung.pid)
            assert hung.poll() is None
        finally:
            busy.close()
            idle.close()
        # ... and closes with its last user.
        assert not stale.alive and stale._proc.returncode is not None
        assert not _alive(hung.pid)
        # An idle zygote closes as soon as it is replaced.
        monkeypatch.undo()
        assert _launch(idle, tmp_path, ["--help"]).wait(timeout=60) == 0
        idle.close()
        assert not fresh.alive and fresh._proc.returncode is not None

    def test_close_skips_interpreter_teardown(self, tmp_path, monkeypatch):
        # A preloaded module's exit hook: it would run in an interpreter
        # teardown, which the zygote skips after reaping its children.
        marker = tmp_path / "teardown-ran"
        (tmp_path / "exit_hook.py").write_text(
            "import atexit\n"
            f"atexit.register(lambda: open({str(marker)!r}, 'w').close())\n"
        )
        monkeypatch.setattr(zygote, "PRELOAD", (*zygote.PRELOAD, "exit_hook"))
        env = _child_env()
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        z = zygote.Zygote(env, tmp_path / "zygote.log")
        shard = z.launch(
            _argv(*_campaign(str(tmp_path / "out.json"))),
            dict(_child_env(), **{FAULT_ENV: HANG}), tmp_path / "shard.log",
        )
        assert _alive(shard.pid)
        z.close()
        assert z._proc.returncode == 0
        assert not marker.exists()
        assert not any(_alive(pid) for pid in (z._proc.pid, shard.pid))

    def test_killed_owner_leaves_nothing_alive(self, tmp_path):
        # The owner's fork-started pool worker holds a copy of the
        # channel, so the zygote sees no EOF: it must watch the owner.
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER, str(tmp_path)],
            env=dict(_child_env(), **{FAULT_ENV: HANG}),
            stdout=subprocess.PIPE, text=True,
        )
        worker = None
        try:
            log, *pids, worker = json.loads(owner.stdout.readline())
            assert all(_alive(pid) for pid in (*pids, worker))
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        try:
            assert _wait_until(lambda: not any(_alive(pid) for pid in pids))
            assert _alive(worker)  # the channel's holder outlived them
            # Nobody closes the zygote: it removed its empty log itself.
            assert not Path(log).exists()
        finally:
            if worker is not None:
                os.kill(worker, signal.SIGKILL)

    def test_failed_preload_raises_within_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zygote, "PRELOAD", ("repro.no_such_module",))
        backend = LocalBackend()
        t0 = time.monotonic()
        with pytest.raises(DispatchError, match="No module named") as exc:
            _launch(backend, tmp_path, ["--help"])
        assert time.monotonic() - t0 < 60
        assert backend._zygote is None
        # The error names the zygote's log, which keeps the traceback.
        log = Path(re.search(r"(\S+repro-zygote-\S+\.log)",
                             str(exc.value)).group(1))
        assert "repro.no_such_module" in log.read_text()
        log.unlink()

    def test_hung_preload_raises_within_bound(self, tmp_path, monkeypatch):
        (tmp_path / "sleepy.py").write_text("import time\ntime.sleep(600)\n")
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setattr(zygote, "PRELOAD", ("sleepy",))
        monkeypatch.setattr(zygote, "START_TIMEOUT", 1.0)
        t0 = time.monotonic()
        with pytest.raises(DispatchError, match="within 1s"):
            _launch(LocalBackend(), tmp_path, ["--help"])
        assert time.monotonic() - t0 < 30

    def test_zygote_stays_single_threaded(self, tmp_path):
        z = zygote.Zygote(_child_env(), tmp_path / "zygote.log")
        try:
            tasks = Path(f"/proc/{z._proc.pid}/task")
            assert len(os.listdir(tasks)) == 1
            procs = [
                z.launch(_argv(*_campaign(str(tmp_path / f"{k}.json"))),
                         _child_env(), tmp_path / "shard.log")
                for k in range(4)
            ]
            assert [p.wait(timeout=60) for p in procs] == [0] * 4
            assert len(os.listdir(tasks)) == 1
        finally:
            z.close()


#: Owns a backend with one hung shard and a fork-started pool worker,
#: prints ``[zygote, shard, worker]`` pids, then waits to be SIGKILLed.
_OWNER = """
import json, os, sys, time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from repro.batch import LocalBackend
from repro.batch.dispatch import _child_env
backend = LocalBackend()
work = Path(sys.argv[1])
proc = backend.launch(
    [sys.executable, "-m", "repro", "campaign", "--grid", "utilization=0.3",
     "--systems", "1", "--workers", "1", "--json", str(work / "o.json")],
    slot=0, log_path=work / "owned.log", env=_child_env(),
)
pool = ProcessPoolExecutor(1, mp_context=get_context("fork"))
worker = pool.submit(os.getpid).result()
print(json.dumps([str(backend._zygote.log_path), backend._zygote._proc.pid,
                  proc.pid, worker]), flush=True)
time.sleep(600)
"""


def _spec() -> CampaignSpec:
    return CampaignSpec(
        grid={"utilization": (0.3, 0.6, 0.9)},
        base={"n_platforms": 2, "n_transactions": 2,
              "tasks_per_transaction": (1, 2)},
        methods=("gauss_seidel",), systems_per_cell=4, seed=11,
    )


class _ZygoteKiller(LocalBackend):
    """SIGKILLs the zygote right after the dispatch's second launch."""

    launches = 0

    def launch(self, argv, *, slot, log_path, env=None):
        proc = super().launch(argv, slot=slot, log_path=log_path, env=env)
        self.launches += 1
        if self.launches == 2:
            self.first_zygote = self._zygote._proc.pid
            os.kill(self.first_zygote, signal.SIGKILL)
        return proc


class TestDispatchThroughZygote:
    def test_zygote_death_mid_dispatch_recovers_bit_identical(
        self, tmp_path
    ):
        spec = _spec()
        single = Campaign(spec).run(workers=1)
        backend = _ZygoteKiller()
        report = CampaignDispatcher(
            spec, shards=4, workers=2, work_dir=tmp_path, backend=backend,
            # Shard 0 holds its slot, so the zygote dies under a live shard.
            faults=FaultPlan([Fault(shard=0, kind="hang", at_cell=1)]),
        ).run()
        assert report.result.metrics() == single.metrics()
        victim = next(s for s in report.shards if s.shard == 0)
        assert victim.attempt_outcomes == ["failed", "completed"]
        assert not _alive(backend.first_zygote)
        assert backend._zygote is None  # closed by the dispatcher

    def test_dispatch_starts_exactly_one_interpreter(
        self, tmp_path, popen_calls
    ):
        # Two dispatches in one process: the second forks from the
        # zygote the first started.
        spec = _spec()
        single = Campaign(spec).run(workers=1)
        for k in range(2):
            report = CampaignDispatcher(
                spec, shards=4, workers=2, work_dir=tmp_path / f"wd{k}"
            ).run()
            assert report.result.metrics() == single.metrics()
        assert len(popen_calls) == 1
        assert popen_calls[0][1:3] == ["-m", "repro.batch.zygote"]
        # The zygote outlives both dispatches: its log is in neither.
        assert not list(tmp_path.glob("wd*/*zygote*"))
        assert zygote._current.log_path.parent == Path(tempfile.gettempdir())
        assert zygote._current.log_path.exists()
        assert zygote._current.alive and zygote._current.users == 0

    def test_threads_dispatching_at_once_share_one_zygote(
        self, tmp_path, popen_calls
    ):
        spec = _spec()
        single = Campaign(spec).run(workers=1)
        barrier = threading.Barrier(2, timeout=30)
        results, errors = {}, []

        def run(k: int) -> None:
            try:
                barrier.wait()
                results[k] = CampaignDispatcher(
                    spec, shards=4, workers=2, work_dir=tmp_path / f"wd{k}"
                ).run().result
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        assert [r.metrics() for r in results.values()] == [
            single.metrics()
        ] * 2
        assert len(popen_calls) == 1
        assert zygote._current.users == 0


def test_concurrent_kills_and_polls(tmp_path):
    """24 launches, up to 8 alive: a helper thread SIGKILLs random hung
    shards while the main thread launches and polls the rest."""
    backend = LocalBackend()
    hung_env = dict(_child_env(), **{FAULT_ENV: HANG})
    handles, victims = [], []
    lock = threading.Lock()
    stop = threading.Event()

    def killer():
        rng = random.Random(5)
        while not stop.is_set():
            with lock:
                live = [p for p in victims if p.returncode is None]
            if live:
                rng.choice(live).kill()
            time.sleep(rng.random() * 0.01)

    interval = sys.getswitchinterval()
    thread = threading.Thread(target=killer)
    deadline = time.monotonic() + 120
    try:
        sys.setswitchinterval(1e-6)
        thread.start()
        while len(handles) < 24 or any(p.poll() is None for p in handles):
            assert time.monotonic() < deadline, "stress run wedged"
            if len(handles) < 24 and sum(
                p.poll() is None for p in handles
            ) < 8:
                k = len(handles)
                hang = k % 2 == 0
                proc = _launch(
                    backend, tmp_path, _campaign(str(tmp_path / f"{k}.json")),
                    env=hung_env if hang else None, name=f"s{k}",
                )
                with lock:
                    handles.append(proc)
                    if hang:
                        victims.append(proc)
            time.sleep(0.001)
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
        zpid = backend._zygote._proc.pid if backend._zygote else None
        leftovers = _children(zpid) if zpid else []
        backend.close()
    assert not thread.is_alive()
    assert len({p.pid for p in handles}) == 24
    assert [p.returncode for p in handles] == [
        -signal.SIGKILL if p in victims else 0 for p in handles
    ]
    assert leftovers == []  # every exit was reaped: no zombie, no orphan
    assert [p.pid for p in handles if (_stat(p.pid) or [""])[0] == "Z"] == []
