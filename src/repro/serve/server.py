"""Run the ASGI app for real: uvicorn when installed, stdlib otherwise.

The server dependency is guarded exactly like NumPy is in
``repro/__init__``: probe for it with ``find_spec`` (importing it only
when that backend is chosen), and degrade to a first-party fallback
instead of failing.  Here the fallback is a ``ThreadingHTTPServer``
whose handler funnels every request through the same
:func:`~repro.serve.testclient.call_asgi` bridge the test client uses
-- one code path from the tier-1 suite to production.  The bridge runs
each request on its connection's thread with no event loop (the app
never suspends; one that does is refused), so ``--http stdlib`` never
imports asyncio.  uvicorn (``requirements-ci.txt`` installs it; the
no-NumPy leg does not) is preferred when importable because it brings a
production event loop, keep-alive and graceful-shutdown handling for
free.
"""

from __future__ import annotations

import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib.util import find_spec

from repro.serve.app import ReproServeApp
from repro.serve.testclient import call_asgi

# Guarded like NumPy: probe for the dependency itself, without importing
# it, so ``--http stdlib`` never loads uvicorn and a genuine first-party
# ImportError inside repro.serve is never mistaken for "uvicorn missing".
_HAVE_UVICORN = find_spec("uvicorn") is not None

__all__ = ["serve_forever"]


def _make_handler(app: ReproServeApp):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate sends; with Nagle on, every
        # keep-alive response would wait ~40 ms for the client's delayed
        # ACK before the body leaves.
        disable_nagle_algorithm = True

        def _dispatch(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            response = call_asgi(
                app,
                self.command,
                self.path,
                body=body,
                headers=list(self.headers.items()),
            )
            self.send_response(response.status)
            for name, value in response.headers.items():
                self.send_header(name, value)
            if "content-length" not in response.headers:
                self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            self.wfile.write(response.body)

        do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    return Handler


def _serve_stdlib(app: ReproServeApp, host: str, port: int) -> int:
    server = ThreadingHTTPServer((host, port), _make_handler(app))
    server.daemon_threads = True

    def _graceful(signum, frame):
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except ValueError:  # pragma: no cover - non-main thread embedding
            pass
    try:
        # Inside the try: a signal that lands as soon as the banner is
        # out (a client may act on it at once) still shuts down cleanly.
        print(
            f"repro serve: listening on http://{host}:{server.server_port} "
            "(stdlib http.server bridge; install uvicorn for the ASGI "
            "event loop)"
        )
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        app.close()
        print("repro serve: shut down cleanly")
    return 0


def serve_forever(
    app: ReproServeApp,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    http_impl: str = "auto",
) -> int:
    """Serve *app* until interrupted; returns the process exit status.

    ``http_impl``: ``"uvicorn"`` requires the dependency, ``"stdlib"``
    forces the bundled bridge, ``"auto"`` (default) prefers uvicorn when
    importable.
    """
    if http_impl not in ("auto", "uvicorn", "stdlib"):
        raise ValueError(
            f"http_impl must be auto, uvicorn or stdlib, got {http_impl!r}"
        )
    if http_impl == "uvicorn" and not _HAVE_UVICORN:
        print(
            "error: --http uvicorn requested but uvicorn is not "
            "installed; use --http stdlib or install uvicorn",
            file=sys.stderr,
        )
        return 2
    if http_impl == "stdlib" or not _HAVE_UVICORN:
        return _serve_stdlib(app, host, port)
    # uvicorn drives the lifespan protocol, which calls app.close() on
    # shutdown (see ReproServeApp._lifespan); SIGINT/SIGTERM handling is
    # uvicorn's own graceful path.
    import uvicorn

    uvicorn.run(app, host=host, port=port, log_level="warning")
    return 0
