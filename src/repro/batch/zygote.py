"""Fork local shards from one warm interpreter, the *zygote*.

A cold ``python -m repro campaign ...`` shard spends most of its wall
starting an interpreter and importing NumPy and the campaign engine.  A
:class:`Zygote` imports that module set (:data:`PRELOAD`) once and forks
each launch into a child that runs ``repro.cli.main(argv[3:])`` as
``python -m repro`` would: stdin on ``/dev/null``, stdout and stderr
appended to the launch's log, the launch env and cwd, default signal
handlers, and a cold child's exit status (``-signum`` for a signal).

The zygote is single-threaded, ignores SIGINT and leads its own process
group.  It reaps a child only when the launcher polls it, so a pid stays
reserved until its owner has seen the exit and :meth:`ForkedShard.kill`
can signal it directly.  On EOF it kills and reaps its children, then
leaves through ``os._exit(0)`` after flushing stdio: interpreter
teardown of the preloaded modules took most of :meth:`Zygote.close`,
and nothing the zygote runs needs an exit hook.
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path

#: What the zygote imports before its first fork: a shard's module set.
PRELOAD = ("repro.cli", "repro.batch.campaign")
#: Seconds a zygote may take to import :data:`PRELOAD` and report ready.
START_TIMEOUT = 120.0


class ForkedShard:
    """``subprocess.Popen``-shaped handle of one forked shard."""

    def __init__(self, zygote: Zygote, pid: int | None, args: list[str]):
        self._zygote, self.pid, self.args = zygote, pid, args
        # A launch the zygote died under never ran: report it SIGKILLed.
        self.returncode = -signal.SIGKILL if pid is None else None

    def poll(self) -> int | None:
        with self._zygote.lock:
            if self.returncode is None:
                self.returncode = self._zygote.request(self.pid)
            return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(self.args, timeout)
            time.sleep(0.005)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        with self._zygote.lock:  # no poll can reap the pid under us
            if self.returncode is None and self._zygote.alive:
                os.kill(self.pid, sig)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Zygote:
    """The launcher's end of one zygote process, logging to *log_path*."""

    def __init__(self, env: dict, log_path: Path):
        self._conn, theirs = multiprocessing.Pipe()
        with open(log_path, "ab") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", __name__, str(theirs.fileno()),
                 *PRELOAD],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
                pass_fds=(theirs.fileno(),),
            )
        theirs.close()
        self.lock = threading.RLock()
        self.alive = True
        ready = self._conn.poll(START_TIMEOUT)
        if not ready or self.request(None) != "ready":
            self.close()
            from repro.batch.dispatch import DispatchError

            raise DispatchError(
                f"shard zygote failed to start within {START_TIMEOUT:g}s "
                f"(exit status {self._proc.returncode}); {log_path} ends:\n"
                + Path(log_path).read_text(errors="replace")[-2000:]
            )

    def request(self, message):
        """Send *message* (unless ``None``) and read the reply; hold
        :attr:`lock`.  A dead zygote's orphans are killed, and it answers
        a poll (a pid) with ``-SIGKILL`` and a launch with ``None``."""
        try:
            if message is not None:
                self._conn.send(message)
            return self._conn.recv()
        except (OSError, EOFError):
            self.close()
            return -signal.SIGKILL if isinstance(message, int) else None

    def launch(self, argv, env: dict, log_path) -> ForkedShard:
        """Fork the ``python -m repro ...`` command line *argv*."""
        launch = {"argv": list(argv[3:]), "env": env, "cwd": os.getcwd(),
                  "log": os.path.abspath(log_path)}
        with self.lock:
            return ForkedShard(self, self.request(launch), list(argv))

    def close(self) -> None:
        """Shut the zygote down; none of its children outlives it."""
        with self.lock:
            if not self.alive:
                return
            self.alive = False
            self._conn.close()  # EOF: the zygote kills and reaps its children
            with contextlib.suppress(subprocess.TimeoutExpired):
                self._proc.wait(2.0)
            with contextlib.suppress(OSError):  # a wedged or dead zygote's
                os.killpg(self._proc.pid, signal.SIGKILL)  # whole group
            self._proc.kill()
            self._proc.wait()


def _run_shard(request: dict, conn: Connection) -> int:
    """Run one forked shard as ``python -m repro ARGV``; its exit status.

    The child then leaves through ``os._exit``: interpreter teardown
    costs more than a small shard's work, and a shard leaves nothing but
    stdio for it to flush (results and store entries land atomically).
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    conn.close()
    try:
        append = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        for fd, path, flags in ((0, os.devnull, os.O_RDONLY),
                                (1, request["log"], append),
                                (2, request["log"], append)):
            os.dup2(opened := os.open(path, flags, 0o666), fd)
            os.close(opened)
        os.chdir(request["cwd"])
        os.environ.clear()
        os.environ.update(request["env"])
        sys.argv = ["repro", *request["argv"]]
        from repro.cli import main

        code = main(request["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    return (code or 0) & 0xFF


def serve(fd: int, preload) -> None:
    """The zygote: ``python -m repro.batch.zygote FD MODULE...``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.setpgid(0, 0)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # or NumPy's import starts a pool
    for name in preload:
        importlib.import_module(name)
    conn, children = Connection(fd), set()
    conn.send("ready")
    while True:
        try:
            request = conn.recv()
        except EOFError:  # the launcher closed the channel, or died
            break
        if isinstance(request, int):  # a poll
            pid, status = os.waitpid(request, os.WNOHANG)
            reply = os.waitstatus_to_exitcode(status) if pid else None
            children.discard(pid)
        else:
            reply = os.fork()
            if reply == 0:
                code = 1
                try:
                    code = _run_shard(request, conn)
                finally:
                    os._exit(code)
            children.add(reply)
        conn.send(reply)
    for pid in children:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    # Skip interpreter teardown, as a shard does: it is most of the
    # launcher's wait in close().
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    serve(int(sys.argv[1]), sys.argv[2:])
