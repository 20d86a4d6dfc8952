"""HTTP front end and wire protocol (repro.service.server/protocol)."""

from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import threading
import time

import pytest

from repro.core.system import MaterializedViewSystem
from repro.errors import ViewNotAnswerableError, XPathSyntaxError
from repro.obs import parse_exposition
from repro.service import (
    AdmissionRejectedError,
    DeadlineExceededError,
    HTTPClient,
    ProtocolError,
    QueryScheduler,
    QueryServiceServer,
    SnapshotEngine,
    error_payload,
)
from repro.service.protocol import (
    parse_query_request,
    parse_register_request,
)
from repro.workload.xmark import generate_xmark
from repro.xmltree.builder import encode_tree


# ----------------------------------------------------------------------
# protocol unit tests (no sockets)
# ----------------------------------------------------------------------
def test_parse_query_request_defaults_and_timeout():
    query, strategy, timeout = parse_query_request(
        json.dumps({"query": "//a/b"}).encode()
    )
    assert (query, strategy, timeout) == ("//a/b", "HV", None)
    _, strategy, timeout = parse_query_request(
        json.dumps({"query": "//a", "strategy": "MN",
                    "timeout_ms": 250}).encode()
    )
    assert strategy == "MN"
    assert timeout == pytest.approx(0.25)


@pytest.mark.parametrize("raw", [
    b"not json",
    b"[]",
    json.dumps({"query": ""}).encode(),
    json.dumps({"query": "//a", "strategy": "XX"}).encode(),
    json.dumps({"query": "//a", "timeout_ms": -5}).encode(),
    json.dumps({"query": "//a", "timeout_ms": "soon"}).encode(),
])
def test_parse_query_request_rejects_bad_input(raw):
    with pytest.raises(ProtocolError):
        parse_query_request(raw)


def test_parse_register_request():
    view_id, expression = parse_register_request(
        json.dumps({"view_id": "v1", "expression": "//a"}).encode()
    )
    assert (view_id, expression) == ("v1", "//a")
    with pytest.raises(ProtocolError):
        parse_register_request(json.dumps({"view_id": "v1"}).encode())


@pytest.mark.parametrize("error,status", [
    (ProtocolError("bad"), 400),
    (ProtocolError("big", status=413), 413),
    (XPathSyntaxError("nope"), 400),
    (ViewNotAnswerableError("uncovered"), 422),
    (ValueError("duplicate view id 'v1'"), 409),
    (DeadlineExceededError("late"), 504),
    (RuntimeError("boom"), 500),
])
def test_error_payload_status_mapping(error, status):
    got_status, body, _ = error_payload(error)
    assert got_status == status
    assert body["error"] == type(error).__name__


def test_error_payload_backpressure_carries_retry_after():
    status, body, headers = error_payload(
        AdmissionRejectedError("full", retry_after=0.125)
    )
    assert status == 503
    assert headers["Retry-After"] == "0.125"
    assert body["retry_after"] == pytest.approx(0.125)


# ----------------------------------------------------------------------
# live server round trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=3))
    )
    system.register_view("name", "//item/name")
    engine = SnapshotEngine(system)
    scheduler = QueryScheduler(engine, workers=2, queue_limit=16)
    server = QueryServiceServer(engine, scheduler)
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


def _call(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, payload,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data), dict(response.getheaders())
    finally:
        connection.close()


def test_healthz_reports_epoch(served):
    status, body, _ = _call(served, "GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["epoch"] >= 1


def test_query_roundtrip_matches_direct_evaluation(served):
    status, body, _ = _call(
        served, "POST", "/query", {"query": "//item/name"}
    )
    assert status == 200
    system = served.engine.system
    from repro.xmltree.dewey import format_code

    expected = [format_code(code)
                for code in system.direct_codes("//item/name")]
    assert body["codes"] == expected
    assert body["views"] == ["name"]
    assert body["epoch"] >= 1


def test_query_error_statuses(served):
    assert _call(served, "POST", "/query", {"query": "!!"})[0] == 400
    assert _call(served, "POST", "/query", {"bad": 1})[0] == 400
    status, body, _ = _call(
        served, "POST", "/query", {"query": "//no/such"}
    )
    assert status == 422
    assert body["error"] == "ViewNotAnswerableError"
    assert _call(served, "GET", "/nope")[0] == 404
    assert _call(served, "POST", "/nope")[0] == 404


def test_register_then_duplicate(served):
    status, body, _ = _call(
        served, "POST", "/register",
        {"view_id": "desc", "expression": "//item/description"},
    )
    assert (status, body["materialized"]) == (201, True)
    assert _call(
        served, "POST", "/register",
        {"view_id": "desc", "expression": "//item/description"},
    )[0] == 409
    # The new view serves queries immediately.
    status, body, _ = _call(
        served, "POST", "/query", {"query": "//item/description"}
    )
    assert status == 200 and body["views"] == ["desc"]


def test_stats_exposes_engine_and_scheduler(served):
    status, body, _ = _call(served, "GET", "/stats")
    assert status == 200
    assert body["engine"]["views"]["registered"] >= 1
    assert body["scheduler"]["workers"] == 2
    assert "queue_depth" in body["scheduler"]


def test_http_client_reports_statuses(served):
    host, port = served.address
    client = HTTPClient(host, port)
    try:
        assert client.query("//item/name") == 200
        assert client.query("//no/such") == 422
    finally:
        client.close()


def _call_raw(server, path):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        data = response.read()
        return response.status, data, dict(response.getheaders())
    finally:
        connection.close()


def test_metrics_endpoint_serves_prometheus_text(served):
    _call(served, "POST", "/query", {"query": "//item/name"})
    status, payload, headers = _call_raw(served, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    families = parse_exposition(payload.decode("utf-8"))
    answers = families["repro_answers_total"]
    assert sum(answers.samples.values()) >= 1.0
    requests = families["repro_requests_total"]
    assert (requests.value(event="completed") or 0.0) >= 1.0
    # The second read of a query is a plan-cache hit served inline.
    assert (requests.value(event="inline") or 0.0) >= 1.0
    assert "repro_stage_seconds" in families
    assert "repro_queue_depth" in families
    assert "repro_queue_wait_seconds" in families


def test_debug_slow_exposes_traced_requests(served):
    _call(served, "POST", "/query", {"query": "//item/name"})
    status, body, _ = _call(served, "GET", "/debug/slow?limit=4")
    assert status == 200
    assert body["resident"] >= 1
    assert len(body["slow_queries"]) <= 4
    record = body["slow_queries"][0]
    assert record["trace_id"].startswith("query-")
    assert record["total_seconds"] > 0.0
    if served.engine.system.telemetry.tracer.sample_every != 1:
        # REPRO_TRACE_SAMPLE: an unsampled request keeps no span tree.
        return
    (serve,) = record["spans"]
    assert serve["name"] == "serve"
    assert any(
        child["name"] == "answer" for child in serve["children"]
    )


def test_debug_slow_rejects_bad_limit(served):
    assert _call(served, "GET", "/debug/slow?limit=frog")[0] == 400
    assert _call(served, "GET", "/debug/slow?limit=-1")[0] == 400


# ----------------------------------------------------------------------
# keep-alive connections
# ----------------------------------------------------------------------
def _accepted_socket(server, client_end):
    """The server's accepted socket whose peer is ``client_end``."""
    httpd = server._httpd
    with httpd._connections_lock:
        connections = list(httpd._connections)
    found = []
    for connection in connections:
        try:
            if connection.getpeername() == client_end:
                found.append(connection)
        except OSError:  # a connection another test just closed
            continue
    assert len(found) == 1, found
    return found[0]


def test_keep_alive_serves_many_requests_on_one_socket(served):
    """HTTP/1.1 keeps the connection; TCP_NODELAY on the accepted
    socket keeps each response from waiting on the client's delayed
    ACK (~40 ms per request with Nagle).  The latency bound is on the
    median, so one scheduling stall on a busy host cannot fail it."""
    host, port = served.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    body = json.dumps({"query": "//item/name"})
    headers = {"Content-Type": "application/json"}
    try:
        socket_ids = set()
        latencies = []
        for _ in range(200):
            started = time.perf_counter()
            connection.request("POST", "/query", body, headers)
            response = connection.getresponse()
            response.read()
            latencies.append(time.perf_counter() - started)
            assert response.status == 200
            socket_ids.add(id(connection.sock))
        assert len(socket_ids) == 1
        accepted = _accepted_socket(served, connection.sock.getsockname())
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert statistics.median(latencies) < 0.040, sorted(latencies)[-5:]
    finally:
        connection.close()


def test_unread_oversize_body_closes_the_connection(served):
    """A 413 leaves the body unread; the server must close rather than
    parse those bytes as the next request."""
    host, port = served.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str((1 << 20) + 1))
        connection.endheaders(b"x" * 4096)
        response = connection.getresponse()
        response.read()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        connection.request(
            "POST", "/query", json.dumps({"query": "//item/name"}),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 200
    finally:
        connection.close()


@pytest.mark.parametrize("length", ["soon", "-1", None])
def test_missing_or_malformed_content_length_closes_the_connection(
    served, length
):
    host, port = served.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/query")
        if length is not None:
            connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        response.read()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
    finally:
        connection.close()


def test_shutdown_ends_open_keep_alive_connections():
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=3))
    )
    system.register_view("name", "//item/name")
    engine = SnapshotEngine(system)
    server = QueryServiceServer(
        engine, QueryScheduler(engine, workers=1, queue_limit=4)
    )
    before = set(threading.enumerate())
    server.start()
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 2.0
        survivors = [
            thread for thread in threading.enumerate()
            if thread not in before
            and "process_request_thread" in thread.name
        ]
        assert survivors == []
        try:
            connection.request("GET", "/healthz")
            status = connection.getresponse().status
        except (http.client.HTTPException, OSError):
            status = None
        assert status != 200
    finally:
        connection.close()


def test_idle_keep_alive_connection_is_closed_after_the_timeout():
    """A client that connects and sends nothing does not pin a handler
    thread: the handler's socket timeout closes the connection."""
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=3))
    )
    engine = SnapshotEngine(system)
    server = QueryServiceServer(
        engine, QueryScheduler(engine, workers=1, queue_limit=4)
    )
    assert server._httpd.RequestHandlerClass.timeout >= 60

    class _QuickHandler(server._httpd.RequestHandlerClass):
        timeout = 0.3

    server._httpd.RequestHandlerClass = _QuickHandler
    server.start()
    try:
        silent = socket.create_connection(server.address, timeout=10)
        try:
            started = time.monotonic()
            assert silent.recv(1) == b""  # the server closed it
            assert time.monotonic() - started < 5.0
        finally:
            silent.close()
        deadline = time.monotonic() + 5.0
        while server._httpd._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._httpd._connections
        # The server still serves new connections.
        status, body, _ = _call(server, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
    finally:
        server.shutdown()


def test_shutdown_of_a_server_that_never_served_returns():
    """``ThreadingHTTPServer.shutdown`` waits for a serve loop to
    acknowledge; a server that never served has none, so ``shutdown``
    must not call it (``repro serve`` shuts down in a ``finally``)."""
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=3))
    )
    engine = SnapshotEngine(system)
    server = QueryServiceServer(
        engine, QueryScheduler(engine, workers=1, queue_limit=4)
    )
    listening = server._httpd.socket
    assert listening.fileno() != -1
    closer = threading.Thread(target=server.shutdown, daemon=True)
    closer.start()
    closer.join(2.0)
    assert not closer.is_alive()
    assert listening.fileno() == -1


# ----------------------------------------------------------------------
# wire conformance over raw sockets
# ----------------------------------------------------------------------
_QUERY = json.dumps({"query": "//item/name"}).encode()


def _post_query(body=_QUERY, version="HTTP/1.1", extra=b""):
    return (
        f"POST /query {version}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n".encode()
        + extra + b"\r\n" + body
    )


class _Wire:
    """A raw client socket with a response reader that keeps its read
    buffer across responses (pipelined answers share one read)."""

    def __init__(self, server):
        self.sock = socket.create_connection(server.address, timeout=10)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.reader.close()
        self.sock.close()

    def send(self, data):
        self.sock.sendall(data)

    def response(self):
        """(status, lower-cased headers, body), or None at end of file."""
        status_line = self.reader.readline()
        if not status_line:
            return None
        version, status, _reason = status_line.decode().split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", "0")))
        return int(status), headers, body

    def closed(self):
        """Whether the server closed the connection (end of file)."""
        return self.reader.read(1) == b""


def _refused(server, request, status):
    with _Wire(server) as wire:
        wire.send(request)
        got, headers, body = wire.response()
        assert got == status, body
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == "ProtocolError"
        assert wire.closed()


def test_expect_100_continue_gets_an_interim_response(served):
    body = json.dumps({"query": "//item/name", "pad": "x" * 2048}).encode()
    with _Wire(served) as wire:
        wire.send(_post_query(body, extra=b"Expect: 100-continue\r\n")
                  .split(b"\r\n\r\n", 1)[0] + b"\r\n\r\n")
        assert wire.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert wire.reader.readline() == b"\r\n"
        wire.send(body)
        status, headers, payload = wire.response()
        assert status == 200
        assert json.loads(payload)["count"] > 0
        assert "connection" not in headers  # kept alive


@pytest.mark.parametrize("line", [
    b"GARBAGE",
    b"GET /healthz",  # HTTP/0.9
    b"GET /healthz HTTP/1.1 extra",
    b"GET /healthz HTP/1.1",
    b"GET /healthz HTTP/1.1.0",
    b"GET /healthz HTTP/x.1",
])
def test_malformed_request_line_is_refused_and_closed(served, line):
    _refused(served, line + b"\r\nHost: x\r\n\r\n", 400)


def test_header_line_without_colon_is_refused(served):
    _refused(served, b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400)
    _refused(served, b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n", 400)


def test_header_count_limit(served):
    hundred = b"".join(b"X-Pad-%d: 1\r\n" % index for index in range(100))
    with _Wire(served) as wire:
        wire.send(b"GET /healthz HTTP/1.1\r\n" + hundred + b"\r\n")
        assert wire.response()[0] == 200
    _refused(
        served,
        b"GET /healthz HTTP/1.1\r\n" + hundred + b"X-Pad: 101\r\n\r\n",
        431,
    )


def test_overlong_request_and_header_lines(served):
    _refused(served, b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414)
    _refused(
        served,
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n",
        431,
    )


def test_http_2_is_not_supported(served):
    _refused(served, b"GET /healthz HTTP/2.0\r\n\r\n", 505)


def test_unknown_method_is_not_implemented(served):
    _refused(
        served, b"PUT /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501
    )


@pytest.mark.parametrize("extra,kept", [
    (b"", False),
    (b"Connection: keep-alive\r\n", True),
])
def test_http_1_0_closes_unless_asked_to_keep_alive(served, extra, kept):
    with _Wire(served) as wire:
        wire.send(_post_query(version="HTTP/1.0", extra=extra))
        status, headers, _ = wire.response()
        assert status == 200
        if not kept:
            assert headers["connection"] == "close"
            assert wire.closed()
            return
        assert "connection" not in headers
        wire.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert wire.response()[0] == 200


def test_connection_close_is_honoured(served):
    with _Wire(served) as wire:
        wire.send(_post_query(extra=b"Connection: close\r\n"))
        status, headers, _ = wire.response()
        assert status == 200
        assert headers["connection"] == "close"
        assert wire.closed()


def test_get_with_a_body_closes_the_connection(served):
    """GET reads no body; the server closes rather than parse the body
    as the next request."""
    with _Wire(served) as wire:
        wire.send(b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        status, headers, _ = wire.response()
        assert status == 200
        assert headers["connection"] == "close"
        assert wire.closed()


def test_pipelined_requests_are_answered_in_order(served):
    with _Wire(served) as wire:
        wire.send(_post_query() + b"GET /healthz HTTP/1.1\r\n\r\n")
        status, _, body = wire.response()
        assert status == 200 and "codes" in json.loads(body)
        status, _, body = wire.response()
        assert status == 200 and json.loads(body)["status"] == "ok"


def test_body_split_across_sends_is_read_whole(served):
    request = _post_query()
    with _Wire(served) as wire:
        wire.send(request[:-5])
        time.sleep(0.05)
        wire.send(request[-5:])
        status, _, body = wire.response()
        assert status == 200
        assert json.loads(body)["count"] > 0


class _CountingSocket:
    """An accepted socket that records each ``sendall``."""

    def __init__(self, sock, sent):
        self._sock = sock
        self._sent = sent

    def sendall(self, data):
        self._sent.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_json_response_leaves_in_one_sendall(served):
    sent: list[bytes] = []
    server = QueryServiceServer(served.engine, QueryScheduler(served.engine))

    class _Counting(server._httpd.RequestHandlerClass):
        def setup(self):
            self.request = _CountingSocket(self.request, sent)
            super().setup()

    server._httpd.RequestHandlerClass = _Counting
    server.start()
    try:
        with _Wire(server) as wire:
            for _ in range(2):  # a cold read, then a plan-cache hit
                sent.clear()
                wire.send(_post_query())
                status, headers, body = wire.response()
                assert status == 200
                assert len(sent) == 1
                assert sent[0].startswith(b"HTTP/1.1 200 OK\r\n")
                assert sent[0].endswith(b"\r\n\r\n" + body)
                assert headers["content-type"] == "application/json"
                assert headers["server"].startswith("repro-service/1.0")
                assert headers["date"].endswith(" GMT")
    finally:
        server.shutdown()


class _ResetWriter:
    """A ``wfile`` whose peer has reset the connection."""

    def __init__(self):
        self.attempts = 0

    def write(self, data):
        self.attempts += 1
        raise ConnectionResetError("connection reset by peer")


@pytest.mark.parametrize("request_bytes", [
    _post_query(),
    b"GET /healthz HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/2.0\r\n\r\n",
])
def test_client_reset_on_the_write_path_writes_nothing_more(
    served, request_bytes
):
    """A reset while the response is written closes the connection;
    the failure is not answered with a second write to the dead
    socket, and nothing escapes the handler."""
    handler_class = served._httpd.RequestHandlerClass
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(request_bytes)
    handler.wfile = _ResetWriter()
    handler.handle_one_request()
    assert handler.wfile.attempts == 1
    assert handler.close_connection
