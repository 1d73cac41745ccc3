"""Loopback HTTP server that scripts faults for the HTTP backend tests.

``FaultServer`` listens on ``127.0.0.1`` on a free port and answers each
POST with the next scripted ``Reply``; once the script runs out it repeats
the last reply. A script entry may instead be a function of the request's
JSON payload that returns the ``Reply``, so concurrent requests get the
replies meant for them whatever order they arrive in. The server records
every request (path, headers, JSON payload and the number of the
connection that carried it), so a test can check both what the client sent
and how it connected, and the most requests it held unanswered at once
(``max_in_flight``). Nothing leaves the machine.

    server = FaultServer(Reply(429, headers={"Retry-After": "1"}), Reply(body={...}))
    server = FaultServer(lambda payload: Reply(body=vectors[payload["input"]]))
    backend = HttpEmbedderBackend(server.url("/v1/embeddings"), "m")
    ...
    server.close()
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import sleep  # bound at import: tests replace time.sleep to record backoff


@dataclass(frozen=True)
class Reply:
    """One scripted response.

    ``body`` is sent JSON-encoded, or as is when it is bytes. ``cut_at``
    sends only that many body bytes under the full ``Content-Length`` and
    closes the connection. ``drop`` closes the connection without any
    response. ``delay_s`` waits before answering.
    """

    status: int = 200
    body: object = None
    headers: dict[str, str] = field(default_factory=dict)
    delay_s: float = 0.0
    cut_at: int | None = None
    drop: bool = False


@dataclass(frozen=True)
class Request:
    """One request as the server received it; header names are lower-cased."""

    path: str
    headers: dict[str, str]
    payload: object
    connection: int


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps a connection open unless the client asks to close it,
    # so a client that reuses connections shows up in ``connection``.
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args) -> None:  # noqa: A002 - base-class signature
        pass

    def setup(self) -> None:
        super().setup()
        self.connection_no = self.server.fault.open_connection()

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        request = Request(
            path=self.path,
            headers={k.lower(): v for k, v in self.headers.items()},
            payload=json.loads(raw) if raw else None,
            connection=self.connection_no,
        )
        reply = self.server.fault.record(request)
        if reply.delay_s:
            sleep(reply.delay_s)
        # Counted as answered before the client can see the reply and send
        # its next request.
        self.server.fault.answered()
        if reply.drop:
            self.close_connection = True
            return
        body = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        try:
            self.send_response(reply.status)
            for name, value in reply.headers.items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if reply.cut_at is not None:
                body = body[: reply.cut_at]
                self.close_connection = True
            self.wfile.write(body)
        except OSError:  # the client gave up waiting (the timeout cases)
            self.close_connection = True


class FaultServer:
    """A scripted loopback endpoint serving in a daemon thread until ``close``."""

    def __init__(self, *replies: Reply | Callable[[object], Reply]):
        if not replies:
            raise ValueError("script at least one reply")
        self._script = list(replies)
        self._lock = threading.Lock()
        self.requests: list[Request] = []
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.fault = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def url(self, path: str = "/v1") -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}{path}"

    def open_connection(self) -> int:
        with self._lock:
            self.connections += 1
            return self.connections

    def record(self, request: Request) -> Reply:
        """Log ``request`` as in flight and return the reply scripted for it."""
        with self._lock:
            self.requests.append(request)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            entry = self._script.pop(0) if len(self._script) > 1 else self._script[0]
        return entry if isinstance(entry, Reply) else entry(request.payload)

    def answered(self) -> None:
        """Count one request recorded by ``record`` as no longer in flight."""
        with self._lock:
            self.in_flight -= 1

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            raise RuntimeError("fault server thread did not stop")
