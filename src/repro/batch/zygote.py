"""Fork local shards from one warm interpreter, the *zygote*.

A cold ``python -m repro campaign ...`` shard spends most of its wall
starting an interpreter and importing NumPy and the campaign engine.  A
:class:`Zygote` imports that module set (:data:`PRELOAD`) once and forks
each launch into a child that runs ``repro.cli.main(argv[3:])`` as
``python -m repro`` would: stdin on ``/dev/null``, stdout and stderr
appended to the launch's log, the launch env and cwd, default signal
handlers, and a cold child's exit status (``-signum`` for a signal).

One zygote per process, the lifetime ``multiprocessing``'s forkserver
has.  :func:`acquire` starts it on the process's first local dispatch
and hands the same one to every later caller whose start inputs match:
the interpreter, the cwd, the start env and :data:`PRELOAD`.  A dead
zygote is replaced on the next :func:`acquire`, and so is one started
from other inputs.  A replaced zygote closes once its last caller has
released it (:func:`release`), so a dispatch never loses the zygote
under its running shards; the others close at interpreter exit.  An
idle zygote costs one interpreter's RSS with :data:`PRELOAD` imported.
Its log holds the zygote's own output only (each shard logs to its own
file).  Unless the caller names one, the log is a file of its own in the
system temp dir, ``repro-zygote-*.log``, outside every dispatch's work
dir: the zygote outlives the dispatch that started it, whose work dir
its caller may delete (the service does).  That file is removed when
the zygote exits or is closed, if nothing was written to it.  A process
that dispatches once, such as ``python -m repro campaign-dispatch``,
still pays one start.

The zygote is single-threaded, ignores SIGINT and leads its own process
group.  It reaps a child only when the launcher polls it, so a pid stays
reserved until its owner has seen the exit and :meth:`ForkedShard.kill`
can signal it directly.  It exits when the channel closes or when the
launcher process dies, whichever comes first: a child the launcher
forked holds a copy of the channel, so EOF alone can come late.  On the
way out it kills and reaps its children, then leaves through
``os._exit(0)`` after flushing stdio: interpreter teardown of the
preloaded modules took most of :meth:`Zygote.close`, and nothing the
zygote runs needs an exit hook.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from multiprocessing.connection import Connection, wait
from pathlib import Path

#: What the zygote imports before its first fork: a shard's module set.
#: ``numpy.random`` is the campaign's ``SeedSequence``; preloading it is
#: safe because the package never draws from NumPy's global
#: ``RandomState``, the one state forked shards would share.
PRELOAD = ("repro.cli", "repro.batch.campaign", "numpy.random")
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
    """The launcher's end of one zygote process, logging to *log_path*
    (``None``: a temp file of its own, see the module docstring).

    Started from *env* and the launcher's interpreter, cwd and
    :data:`PRELOAD` (its :attr:`key`); closed at interpreter exit at the
    latest.
    """

    def __init__(self, env: dict, log_path: Path | None = None):
        self.key = _start_key(env)
        #: Whether :attr:`log_path` is the zygote's own temp file.
        self._temp_log = log_path is None
        if log_path is None:
            fd, log_path = tempfile.mkstemp(prefix="repro-zygote-",
                                            suffix=".log")
            os.close(fd)
        self.log_path = Path(log_path)
        #: The process that started the zygote: only it may use or close
        #: it (a forked child inherits the object, not the zygote).
        self.owner = os.getpid()
        #: :func:`acquire` calls not yet released.
        self.users = 0
        self._conn, theirs = multiprocessing.Pipe()
        with open(log_path, "ab") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", __name__, str(theirs.fileno()),
                 str(self.owner), str(log_path) if self._temp_log else "",
                 *PRELOAD],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
                pass_fds=(theirs.fileno(),),
            )
        theirs.close()
        self.lock = threading.RLock()
        self.alive = True
        atexit.register(self.close)
        ready = self._conn.poll(START_TIMEOUT)
        if not ready or self.request(None) != "ready":
            tail = self.log_path.read_text(errors="replace")[-2000:]
            self.close()
            from repro.batch.dispatch import DispatchError

            raise DispatchError(
                f"shard zygote failed to start within {START_TIMEOUT:g}s "
                f"(exit status {self._proc.returncode}); {self.log_path} "
                f"ends:\n{tail}"
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
        if self.owner != os.getpid():
            return
        with self.lock:
            if not self.alive:
                return
            self.alive = False
            atexit.unregister(self.close)
            self._conn.close()  # EOF: the zygote kills and reaps its children
            with contextlib.suppress(subprocess.TimeoutExpired):
                self._proc.wait(2.0)
            with contextlib.suppress(OSError):  # a wedged or dead zygote's
                os.killpg(self._proc.pid, signal.SIGKILL)  # whole group
            self._proc.kill()
            self._proc.wait()
            if self._temp_log:  # in case the zygote died before it could
                _drop_if_empty(self.log_path)


def _drop_if_empty(path) -> None:
    with contextlib.suppress(OSError):
        if os.stat(path).st_size == 0:
            os.unlink(path)


_lock = threading.Lock()
#: The zygote :func:`acquire` hands out (the last one it started).
_current: Zygote | None = None


def _start_key(env: dict) -> tuple:
    """What a zygote's imports depend on: interpreter, cwd (``-m`` puts it
    on ``sys.path``), start env and :data:`PRELOAD`."""
    return sys.executable, os.getcwd(), env, PRELOAD


def acquire(env: dict, log_path: Path | None = None) -> Zygote:
    """This process's zygote for start env *env*; :func:`release` it.

    Starts one, logging to *log_path*, unless the current zygote is
    alive, was started by this process and has this start key.  A
    replaced zygote is closed here if no caller holds it, else by its
    last :func:`release`.  Holds a lock while a zygote starts, so
    concurrent callers share it.
    """
    global _current
    with _lock:
        stale = _current
        if (stale is None or not stale.alive or stale.owner != os.getpid()
                or stale.key != _start_key(env)):
            _current = Zygote(env, log_path)
            if stale is not None and stale.users == 0:
                stale.close()
        _current.users += 1
        return _current


def release(zygote: Zygote) -> None:
    """Drop one :func:`acquire` of *zygote*; close it if it was replaced
    and this was its last user."""
    with _lock:
        zygote.users -= 1
        if zygote.users == 0 and zygote is not _current:
            zygote.close()


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


def serve(fd: int, launcher: int, temp_log: str, preload) -> None:
    """The zygote: ``python -m repro.batch.zygote FD LAUNCHER LOG
    MODULE...``; ``LOG`` is its own temp log to remove on exit if empty
    (``""``: a log its launcher named)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.setpgid(0, 0)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # or NumPy's import starts a pool
    for name in preload:
        importlib.import_module(name)
    conn, children = Connection(fd), set()
    # The launcher's exit wakes the loop through a pidfd; without pidfds
    # the loop checks its parent once a second.
    watch = [conn]
    with contextlib.suppress(AttributeError, OSError):
        watch.append(os.pidfd_open(launcher))
    conn.send("ready")
    while os.getppid() == launcher:
        if conn not in wait(watch, None if len(watch) > 1 else 1.0):
            continue
        try:
            request = conn.recv()
        except EOFError:  # the launcher closed the channel
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
    if temp_log:  # also when the launcher died and never closes it
        _drop_if_empty(temp_log)
    os._exit(0)


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4:])
