"""Stdlib HTTP/JSON transport for the planner service.

Endpoints
---------
``GET /healthz``
    Liveness probe; ``{"ok": true}``.
``GET /stats``
    Service counters plus schedule-cache and disk-cache statistics.
``POST /plan``
    One request object; responds with a ranked entry list (or 400 with
    the validation message, 422-style plan failures come back as
    ``{"ok": false, "error": ...}`` with status 200 — the request was
    valid, the search space was empty).
``POST /plan_many``
    A JSON array of request objects; one :func:`repro.perf.planner.plan_many`
    call, one result object per request, order-preserving.

Overload (every admission slot busy) maps to 503, malformed JSON and
validation failures to 400, oversized bodies to 413, everything else to a
500 whose body carries the exception type. Shutdown is graceful:
``SIGINT``/``SIGTERM`` stop the accept loop and in-flight handlers drain
before the process exits.

Transport
---------
Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set, and every
response (head and body) leaves in one write, so a reply never waits on
the client's delayed ACK. When the server drains, connections waiting
for their next request are closed; a request already received is still
answered first.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.errors import ConfigurationError, ServiceOverloadError
from repro.serve.service import PlannerService

#: Reject request bodies beyond this size before reading them fully.
MAX_BODY_BYTES = 8 * 2**20


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`PlannerService` on the server."""

    server: "PlannerHTTPServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: object) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # end_headers() would write the head on its own; queuing the body
        # behind it sends the whole response in one write.
        if self.request_version == "HTTP/0.9":  # no head at all
            self.wfile.write(body)
            return
        self._headers_buffer += [b"\r\n", body]
        self.flush_headers()

    # A connection is idle from the start of a request-line read until a
    # line arrives (``parse_request``) or the handler ends; the server
    # ends idle connections when it drains. Once it drains, a connection
    # closes after the request in hand, so it serves at most one more.
    def handle_one_request(self) -> None:
        self.server._set_idle(self.connection, True)
        super().handle_one_request()
        if self.server._draining:
            self.close_connection = True

    def parse_request(self) -> bool:
        self.server._set_idle(self.connection, False)
        return super().parse_request()

    def finish(self) -> None:
        self.server._set_idle(self.connection, False)
        super().finish()

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise _TooLarge(length)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw or b"null")
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"request body is not valid JSON: {err}")

    # ------------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == "/stats":
            self._send_json(200, self.server.service.stats_json())
        else:
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        try:
            payload = self._read_json()
            if self.path == "/plan":
                self._send_json(200, service.plan(payload))
            elif self.path == "/plan_many":
                self._send_json(200, service.plan_batch(payload))
            else:
                self._send_json(
                    404, {"ok": False, "error": f"no route {self.path}"}
                )
        except _TooLarge as err:
            self._send_json(
                413,
                {
                    "ok": False,
                    "error": f"body of {err.length} bytes exceeds "
                    f"{MAX_BODY_BYTES}",
                },
            )
        except ServiceOverloadError as err:
            self._send_json(503, {"ok": False, "error": str(err)})
        except ConfigurationError as err:
            self._send_json(400, {"ok": False, "error": str(err)})
        except Exception as err:  # pragma: no cover - defensive 500
            self._send_json(
                500, {"ok": False, "error": f"{type(err).__name__}: {err}"}
            )


class _TooLarge(Exception):
    def __init__(self, length: int):
        self.length = length


class PlannerHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`PlannerService`.

    ``daemon_threads`` is False on purpose: ``shutdown()`` stops the
    accept loop and ``server_close()`` joins in-flight handler threads, so
    a SIGTERM never truncates a response mid-write. ``server_close()``
    first shuts the read side of every keep-alive connection waiting for
    its next request, so those handlers read EOF and return instead of
    holding the join open until their clients hang up; a connection busy
    with a request closes after answering it.
    """

    daemon_threads = False

    def __init__(
        self,
        address: tuple[str, int],
        service: PlannerService | None = None,
        *,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service if service is not None else PlannerService()
        self.verbose = verbose
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        self._draining = False

    def _set_idle(self, conn: socket.socket, idle: bool) -> None:
        """Track ``conn`` as waiting for a request line, or not. Once the
        server drains, a connection that starts waiting gets its read side
        shut at once: a request it already holds is still read and
        answered, and then the connection closes."""
        with self._idle_lock:
            if not idle:
                self._idle.discard(conn)
            elif self._draining:
                _shut_read(conn)
            else:
                self._idle.add(conn)

    def server_close(self) -> None:
        with self._idle_lock:
            self._draining = True
            for conn in self._idle:
                _shut_read(conn)
            self._idle.clear()
        super().server_close()


def _shut_read(conn: socket.socket) -> None:
    with contextlib.suppress(OSError):  # the client may be gone already
        conn.shutdown(socket.SHUT_RD)


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8473,
    *,
    service: PlannerService | None = None,
) -> None:
    """Run the planner service until SIGINT/SIGTERM, then drain and exit
    (logging requests to stderr)."""
    server = PlannerHTTPServer((host, port), service, verbose=True)

    def _stop(signum: int, frame: object) -> None:
        # shutdown() must not run on the serve_forever thread; hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    host_shown, port_shown = server.server_address[:2]
    print(f"repro serve: listening on http://{host_shown}:{port_shown}")
    try:
        server.serve_forever()
    finally:
        # The accept loop has stopped; in-flight handlers may be blocked
        # on coalescer futures. Draining the service FIRST dispatches
        # everything queued immediately (instead of waiting out the
        # coalescing window) and stops the worker pool, so the
        # handler-thread join inside server_close() — daemon_threads is
        # False, and idle keep-alive connections are ended first —
        # completes promptly and no child process outlives the server.
        server.service.close()
        server.server_close()
        print("repro serve: drained, bye")
