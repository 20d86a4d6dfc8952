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

The handler reads each request itself: the request line, then the
header lines split on their first ``:``, of which only
``Content-Length``, ``Connection`` and ``Expect`` are looked at (the
stdlib's ``email``-based header parser costs more than a plan-cache
hit).  Input it cannot read gets the stdlib's statuses and
``Connection: close``: 400 for a bad request line, version or header
line, 414 for a request line over 64 KiB, 431 for a header line over
64 KiB or more than 100 headers, 505 for HTTP/2 and later, 501 for a
method other than GET and POST.  ``Expect: 100-continue`` gets an
interim ``100 Continue`` before the body is read.

Connections are kept alive: HTTP/1.1 by default, HTTP/1.0 only with
``Connection: keep-alive``, and ``Connection: close`` is honoured.  A
client reuses one TCP connection, and with it one handler thread, for
all its requests.  Each response, status line to body, leaves in a
single write carrying ``Content-Length`` (the ``Date`` header is
formatted at most once a second), and TCP_NODELAY is set.  A request
whose body goes unread (413, a missing or malformed
``Content-Length``, or a body sent with a GET) gets ``Connection:
close``, since its unread bytes would otherwise be parsed as the next
request.  A write that fails (the client reset or went away) closes
the connection without another write.
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
from email.utils import formatdate
from http import HTTPStatus
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
#: Longest request or header line read, the stdlib's limit: a longer
#: request line is refused with 414, a longer header line with 431.
_MAX_LINE = 65536
#: Most header lines one request may carry (431 past it).
_MAX_HEADERS = 100
#: How long ``shutdown`` waits, in total, for handler threads to end.
_HANDLER_JOIN_SECONDS = 5.0
#: Reason phrase of every status the handler can send.
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _version(word: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as a pair of integers; None for any
    other word."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(
        number.isdecimal() and len(number) <= 10 for number in numbers
    ):
        return None
    return int(numbers[0]), int(numbers[1])


class _DateHeader:
    """The ``Date`` header line, formatted at most once per second."""

    def __init__(self) -> None:
        #: Benign race: handler threads may both reformat one second;
        #: each assignment replaces the whole (second, line) pair.
        self._cached: tuple[int, str] = (-1, "")

    def line(self) -> str:
        now = time.time()
        second, line = self._cached
        if int(now) != second:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n"
            self._cached = (int(now), line)
        return line


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    #: A write made while an earlier segment on the connection is still
    #: unacknowledged (the final response after an interim ``100
    #: Continue``, answers to pipelined requests) would otherwise wait
    #: for the client's delayed ACK under Nagle's algorithm (~40 ms).
    disable_nagle_algorithm = True
    #: Seconds a kept-alive connection may sit idle (or stall inside a
    #: request) before the handler closes it and its thread ends.  Far
    #: above any pause of a live client between requests.
    timeout = 120.0
    #: Injected by :class:`QueryServiceServer` via subclassing.
    service: "QueryServiceServer"
    date: _DateHeader
    #: The ``Content-Length`` value of the current request, if any.
    _length: str | None
    #: Whether the current request waits for ``100 Continue``.
    _expect_continue: bool
    _server_header = f"{server_version} {BaseHTTPRequestHandler.sys_version}"

    # ------------------------------------------------------------------
    # request reader
    # ------------------------------------------------------------------
    def handle_one_request(self) -> None:
        """Read one request's line and header block and dispatch it.
        Headers are split by hand: only ``Content-Length``,
        ``Connection`` and ``Expect`` are read, so the stdlib's
        ``email``-based header parser never runs."""
        self.close_connection = True
        try:
            if not self._read_head():
                return
            if self.command == "POST":
                self.do_POST()
            elif self.command == "GET":
                if self._length not in (None, "0"):
                    # GET reads no body; one sent anyway would be
                    # parsed as the next request.
                    self.close_connection = True
                self.do_GET()
            else:
                self._refuse(501, f"unsupported method {self.command!r}")
        except TimeoutError:
            # A read or write timed out: discard the connection.
            self.close_connection = True

    def _read_head(self) -> bool:
        """Parse the request line and headers into ``command``,
        ``path``, ``close_connection``, ``_length`` and
        ``_expect_continue``.  False when there is nothing to serve:
        end of file, a blank line, or a request refused here (its
        refusal already written)."""
        raw = self.rfile.readline(_MAX_LINE + 1)
        if not raw:
            return False
        self.command = ""
        self.requestline = line = str(raw, "iso-8859-1").rstrip("\r\n")
        if len(raw) > _MAX_LINE:
            return self._refuse(414, "request line too long")
        words = line.split()
        if not words:
            return False
        if len(words) != 3:
            return self._refuse(400, f"bad request line {line!r}")
        command, path, version_word = words
        version = _version(version_word)
        if version is None:
            return self._refuse(400, f"bad HTTP version {version_word!r}")
        if version >= (2, 0):
            return self._refuse(505, f"HTTP version {version_word} "
                                     "not supported")
        self.request_version = version_word
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        length: str | None = None
        connection = expect = ""
        readline = self.rfile.readline
        for _ in range(_MAX_HEADERS + 1):
            raw = readline(_MAX_LINE + 1)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > _MAX_LINE:
                return self._refuse(431, "header line too long")
            name, colon, value = str(raw, "iso-8859-1").partition(":")
            if not colon or not name or name.strip() != name:
                return self._refuse(400, f"malformed header line {name!r}")
            name = name.lower()
            if name == "content-length":
                value = value.strip()
                # Two different lengths frame the body ambiguously.
                length = value if length in (None, value) else ""
            elif name == "connection":
                connection = value.strip().lower()
            elif name == "expect":
                expect = value.strip().lower()
        else:
            return self._refuse(431, f"more than {_MAX_HEADERS} headers")
        self.close_connection = version < (1, 1)
        if connection:
            tokens = {token.strip() for token in connection.split(",")}
            if "close" in tokens:
                self.close_connection = True
            elif "keep-alive" in tokens:
                self.close_connection = False
        self._length = length
        self._expect_continue = (
            expect == "100-continue" and version >= (1, 1)
        )
        return True

    def _read_body(self) -> bytes:
        """The request body.  A body left unread would be parsed as the
        next request on this connection, so every case that does not
        read it closes the connection after the response."""
        raw = self._length
        if raw is None:
            self.close_connection = True
            return b""
        if not raw.isdecimal():
            self.close_connection = True
            raise ProtocolError(
                "Content-Length must be a non-negative integer"
            )
        length = int(raw)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ProtocolError("request body too large", status=413)
        if self._expect_continue and length:
            self._write(_CONTINUE)
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # response writer
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
        """Write the whole response, status line to body, in one write
        (one loopback wake-up for the client).  A failed write (reset,
        broken pipe, timeout) leaves the connection unusable: it is
        closed, and the failure is not answered with another write."""
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Server: {self._server_header}\r\n"
            f"{self.date.line()}"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if headers:
            for name, value in headers.items():
                head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self._write(head.encode("latin-1") + b"\r\n" + payload)
        if self.service.verbose:
            self.log_request(status, len(payload))

    def _write(self, data: bytes) -> None:
        try:
            self.wfile.write(data)
        except OSError:
            self.close_connection = True

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

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a request that cannot be read or served and close the
        connection: the rest of its bytes cannot be framed.  Returns
        False, for :meth:`_read_head`."""
        self.close_connection = True
        self._send_error(ProtocolError(message, status=status))
        return False

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
        _BoundHandler.date = _DateHeader()
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
