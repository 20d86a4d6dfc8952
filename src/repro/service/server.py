"""Stdlib-only HTTP/JSON front end: ``python -m repro serve``.

Endpoints:

* ``POST /query``    — ``{"query", "strategy"?, "timeout_ms"?}`` →
  answer codes via the scheduler (admission control + coalescing).
* ``POST /register`` — ``{"view_id", "expression"}`` → 201 on
  success, 409 on a duplicate id.
* ``POST /edit``     — ``{"op": "insert", "parent", "subtree"}`` or
  ``{"op": "delete", "node"}`` → the maintenance report.  Runs under
  the engine's writer gate, so in-flight answers drain first and the
  edit is a single linearization point.
* ``GET /stats``     — engine + scheduler counter snapshot.
* ``GET /metrics``   — Prometheus text exposition (version 0.0.4) of
  the system's shared metrics registry.
* ``GET /debug/slow[?limit=N]`` — slow-query log, slowest first, each
  record carrying its stage timings and (when sampled) span tree.
* ``GET /healthz``   — liveness plus the current epoch sequence.

The handler delegates every status decision to
:func:`repro.service.protocol.error_payload`, so the HTTP layer stays
a thin socket adapter that tests can bypass entirely.

Connections are kept alive (HTTP/1.1): a client reuses one TCP
connection, and with it one handler thread, for all its requests.
Every response carries ``Content-Length``, and TCP_NODELAY is set:
headers and body leave in separate writes, and without it Nagle's
algorithm holds the body back for the client's delayed ACK (~40 ms
per request).  A request whose body is refused unread (413, or a
missing or malformed ``Content-Length``) gets ``Connection: close``,
since its unread bytes would otherwise be parsed as the next request.
:meth:`QueryServiceServer.shutdown` shuts every open connection down,
so idle kept-alive handlers end with the server, and a connection that
sends nothing for :attr:`_Handler.timeout` seconds is closed, so an
idle client cannot pin a handler thread for the server's lifetime.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from ..delta import DocumentEditor, MaintenanceReport
from ..obs import render_prometheus
from .engine import SnapshotEngine
from .protocol import (
    ProtocolError,
    encode_outcome,
    error_payload,
    parse_edit_request,
    parse_query_request,
    parse_register_request,
)
from .scheduler import QueryScheduler

__all__ = ["QueryServiceServer"]

#: Request bodies past this size are rejected before reading (413).
_MAX_BODY_BYTES = 1 << 20
#: How long ``shutdown`` waits, in total, for handler threads to end.
_HANDLER_JOIN_SECONDS = 5.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Seconds a kept-alive connection may sit idle (or stall inside a
    #: request) before the handler closes it and its thread ends.  Far
    #: above any pause of a live client between requests.
    timeout = 120.0
    #: Injected by :class:`QueryServiceServer` via subclassing.
    service: "QueryServiceServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.service.verbose:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        content_type: str,
        payload: bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        body: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        self._send(status, "application/json", payload, headers)

    def _send_error(self, error: BaseException) -> None:
        status, body, headers = error_payload(error)
        self._send_json(status, body, headers)

    def _read_body(self) -> bytes:
        """The request body.  A body left unread would be parsed as the
        next request on this connection, so every case that does not
        read it closes the connection after the response."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            self.close_connection = True
            return b""
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ProtocolError(
                "Content-Length must be a non-negative integer"
            )
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ProtocolError("request body too large", status=413)
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def do_POST(self) -> None:
        try:
            raw = self._read_body()
            if self.path == "/query":
                query, strategy, timeout = parse_query_request(raw)
                outcome = self.service.scheduler.submit(
                    query, strategy, timeout=timeout
                )
                self._send_json(200, encode_outcome(outcome))
            elif self.path == "/register":
                view_id, expression = parse_register_request(raw)
                fits = self.service.engine.register_view(
                    view_id, expression
                )
                self._send_json(
                    201, {"view_id": view_id, "materialized": fits}
                )
            elif self.path == "/edit":
                op, code, subtree = parse_edit_request(raw)
                editor = self.service.editor

                def run(system: Any) -> MaintenanceReport:
                    if op == "insert":
                        assert subtree is not None
                        return editor.insert_subtree(code, subtree)
                    return editor.delete_subtree(code)

                report = self.service.engine.maintain(run)
                self._send_json(200, report.as_dict())
            else:
                self._send_json(404, {"error": "NotFound",
                                      "message": self.path})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except BaseException as error:
            self._send_error(error)

    def _send_metrics(self) -> None:
        telemetry = self.service.engine.system.telemetry
        payload = render_prometheus(
            telemetry.registry.collect()
        ).encode("utf-8")
        self._send(
            200, "text/plain; version=0.0.4; charset=utf-8", payload
        )

    def _send_slowlog(self, query_string: str) -> None:
        params = parse_qs(query_string)
        limit: int | None = None
        raw_limit = params.get("limit", [""])[0]
        if raw_limit:
            try:
                limit = int(raw_limit)
            except ValueError:
                limit = 0
            if limit < 1:
                raise ProtocolError("limit must be a positive integer")
        slowlog = self.service.engine.system.telemetry.slowlog
        body: dict[str, Any] = dict(slowlog.stats())
        body["slow_queries"] = [
            record.as_dict() for record in slowlog.entries(limit)
        ]
        self._send_json(200, body)

    def do_GET(self) -> None:
        path, _, query_string = self.path.partition("?")
        try:
            if path == "/stats":
                self._send_json(
                    200,
                    {
                        "engine": self.service.engine.stats(),
                        "scheduler": self.service.scheduler.stats(),
                    },
                )
            elif path == "/metrics":
                self._send_metrics()
            elif path == "/debug/slow":
                self._send_slowlog(query_string)
            elif path == "/healthz":
                epoch = self.service.engine.system.current_epoch()
                self._send_json(
                    200, {"status": "ok", "epoch": epoch.seq}
                )
            else:
                self._send_json(404, {"error": "NotFound",
                                      "message": self.path})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except BaseException as error:
            self._send_error(error)


class _HTTPServer(ThreadingHTTPServer):
    """A threading server that knows its open connections.

    ``ThreadingHTTPServer`` neither tracks nor joins its daemon handler
    threads, so a kept-alive connection would outlive ``shutdown`` and
    keep being served.  This one records each connection with its
    handler thread until the handler closes it.
    """

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
    ) -> None:
        super().__init__(address, handler)
        self._connections_lock = threading.Lock()
        #: guarded-by: _connections_lock
        self._connections: dict[Any, threading.Thread] = {}

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def end_connections(self) -> list[threading.Thread]:
        """Shut every open connection down (a handler waiting for the
        next request reads end-of-file and exits; one mid-request
        finishes it, then exits) and return their handler threads."""
        with self._connections_lock:
            connections = list(self._connections.items())
        for connection, _thread in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already closed
                pass
        return [thread for _connection, thread in connections]


class QueryServiceServer:
    """Owns the listening socket; start/serve/shutdown lifecycle."""

    def __init__(
        self,
        engine: SnapshotEngine,
        scheduler: QueryScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.verbose = verbose
        #: One editor per server: its metrics handles and fragment
        #: patcher are reused across edits; ``maintain`` serializes use.
        self.editor = DocumentEditor(engine.system)
        service = self

        class _BoundHandler(_Handler):
            pass

        _BoundHandler.service = service
        self._httpd = _HTTPServer((host, port), _BoundHandler)
        self._thread: threading.Thread | None = None
        #: Whether a serve loop was started; ``ThreadingHTTPServer.
        #: shutdown`` waits for a loop to acknowledge, so without one
        #: it would block forever.
        self._loop_started = False

    @property
    def address(self) -> tuple[str, int]:
        """(host, bound port) — the port is concrete even when 0 was
        requested (ephemeral bind)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Serve in a daemon thread (tests / smoke mode)."""
        self._loop_started = True
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        thread.start()
        self._thread = thread

    def serve_forever(self) -> None:
        """Serve on the calling thread until ``shutdown``/interrupt."""
        self._loop_started = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting, join the serve thread, end the open
        connections, close the scheduler's worker pool (queued flights
        drain first), join the handler threads and close the socket.
        A server that never served has no loop to stop."""
        if self._loop_started:
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        handlers = self._httpd.end_connections()
        self.scheduler.close()
        deadline = time.monotonic() + _HANDLER_JOIN_SECONDS
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._httpd.server_close()

    def __enter__(self) -> "QueryServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
