"""The zygote launch path: a forked shard behaves like ``python -m repro``.

``LocalBackend`` forks every shard from one warm per-dispatch zygote
(:mod:`repro.batch.zygote`).  These tests pin its contract against a
cold interpreter: exit statuses, env, cwd, stdio, ``wait(timeout)``,
shutdown with no survivors, bounded start failures, recovery when the
zygote dies, a single-threaded zygote, one interpreter per dispatch, and
concurrent kills and polls.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
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
        backend.close()
        assert not any(_alive(pid) for pid in (zpid, *(p.pid for p in procs)))
        assert [p.poll() for p in procs] == [-signal.SIGKILL] * 2
        # A closed backend starts a fresh zygote on its next launch.
        again = _launch(backend, tmp_path, ["--help"])
        assert again.wait(timeout=60) == 0
        assert backend._zygote._proc.pid != zpid
        backend.close()

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
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER, str(tmp_path)],
            env=dict(_child_env(), **{FAULT_ENV: HANG}),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            pids = json.loads(owner.stdout.readline())
            assert all(_alive(pid) for pid in pids)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        assert _wait_until(lambda: not any(_alive(pid) for pid in pids))

    def test_failed_preload_raises_within_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zygote, "PRELOAD", ("repro.no_such_module",))
        backend = LocalBackend()
        t0 = time.monotonic()
        with pytest.raises(DispatchError, match="No module named"):
            _launch(backend, tmp_path, ["--help"])
        assert time.monotonic() - t0 < 60
        assert backend._zygote is None

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


#: Owns a backend with one hung shard, prints ``[zygote, shard]`` pids,
#: then waits to be SIGKILLed.
_OWNER = """
import json, sys, time
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
print(json.dumps([backend._zygote._proc.pid, proc.pid]), flush=True)
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
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        single = Campaign(spec).run(workers=1)
        started = []

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                started.append(list(args))
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountingPopen)
        report = CampaignDispatcher(
            spec, shards=4, workers=2, work_dir=tmp_path
        ).run()
        assert report.result.metrics() == single.metrics()
        assert len(started) == 1
        assert started[0][1:3] == ["-m", "repro.batch.zygote"]


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
