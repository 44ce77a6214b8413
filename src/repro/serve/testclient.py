"""In-process test client: drive the ASGI app with no server, no socket.

The tier-1 API suite runs through this client -- the same idiom FastAPI
users get from ``TestClient`` -- so the serve CI leg needs no live
process, no free port and no HTTP stack.  The client speaks the ASGI
protocol directly: it builds an http scope, feeds the body through a
one-shot ``receive``, and collects ``http.response.*`` messages.  The
stdlib server bridge (:mod:`repro.serve.server`) reuses
:func:`call_asgi`, so a request travels byte-for-byte the same path in
tests and in production.

There is no event loop: :func:`call_asgi` steps the app's coroutine to
completion on the calling thread.  The app awaits nothing but the
bridge's own ``receive`` and ``send``, which never suspend; an app that
does suspend is closed and refused with :class:`RuntimeError`.
"""

from __future__ import annotations

import json as _json
from typing import Any

__all__ = ["Response", "TestClient", "call_asgi"]


class Response:
    """What one request produced: status, headers, body."""

    def __init__(
        self, status: int, headers: list[tuple[str, str]], body: bytes
    ):
        self.status = status
        self.headers = {name.lower(): value for name, value in headers}
        self.body = body

    def json(self) -> Any:
        return _json.loads(self.body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Response(status={self.status}, body={self.body[:120]!r})"


def call_asgi(
    app,
    method: str,
    path: str,
    *,
    body: bytes = b"",
    headers: list[tuple[str, str]] | None = None,
) -> Response:
    """One synchronous request through an ASGI app, on this thread."""
    query = b""
    if "?" in path:
        path, _, q = path.partition("?")
        query = q.encode("latin-1")
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "scheme": "http",
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": query,
        "headers": [
            (name.lower().encode("latin-1"), value.encode("latin-1"))
            for name, value in (headers or [])
        ],
        "client": ("testclient", 0),
        "server": ("testserver", 80),
    }
    received = False

    async def receive() -> dict:
        nonlocal received
        if received:
            return {"type": "http.disconnect"}
        received = True
        return {"type": "http.request", "body": body, "more_body": False}

    messages: list[dict] = []

    async def send(message: dict) -> None:
        messages.append(message)

    coro = app(scope, receive, send)
    try:
        coro.send(None)
    except StopIteration:
        pass
    else:
        coro.close()
        raise RuntimeError(
            "the ASGI app suspended; this bridge runs no event loop, so an "
            "app may await only its receive and send"
        )
    status = 500
    out_headers: list[tuple[str, str]] = []
    out_body = b""
    for message in messages:
        if message["type"] == "http.response.start":
            status = message["status"]
            out_headers = [
                (name.decode("latin-1"), value.decode("latin-1"))
                for name, value in message.get("headers", [])
            ]
        elif message["type"] == "http.response.body":
            out_body += message.get("body", b"")
    return Response(status, out_headers, out_body)


class TestClient:
    """Synchronous client over an in-process app; context-managed."""

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, app):
        self.app = app

    def request(
        self,
        method: str,
        path: str,
        *,
        json: Any = None,
        body: bytes | None = None,
        headers: list[tuple[str, str]] | None = None,
    ) -> Response:
        headers = list(headers or [])
        if json is not None:
            body = _json.dumps(json).encode("utf-8")
            headers.append(("content-type", "application/json"))
        return call_asgi(
            self.app, method, path, body=body or b"", headers=headers
        )

    def get(self, path: str, **kwargs) -> Response:
        return self.request("GET", path, **kwargs)

    def post(self, path: str, **kwargs) -> Response:
        return self.request("POST", path, **kwargs)

    def close(self) -> None:
        close = getattr(self.app, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "TestClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
