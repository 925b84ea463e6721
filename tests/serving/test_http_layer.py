"""The gateway's own HTTP/1.1 reader and writer, over raw sockets.

One request at a time and no load, so these run in tier-1: every case sends
exact bytes and reads back status, headers and body. None may answer 500 or
leave the client waiting.
"""

import json
import socket
import time

import pytest

from repro.serving import gateway as gateway_module
from repro.serving.gateway import MAX_BODY_BYTES, MAX_HEADERS, MAX_K, MAX_LINE_BYTES

from .test_gateway import dataset, make_gateway, raw_item  # noqa: F401 (dataset is a fixture)

READ_TIMEOUT_S = 0.2  # the gateway's, shortened for the stalled-client cases
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.fixture(scope="module")
def gateway(dataset):  # noqa: F811
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway_module, "READ_TIMEOUT_S", READ_TIMEOUT_S)
        with make_gateway(dataset) as gw:
            gw.ingest("u", raw_item(dataset, 5), 0)
            yield gw


class Connection:
    """A client socket that fails the test instead of hanging it."""

    def __init__(self, gateway):
        self.sock = socket.create_connection((gateway.config.host, gateway.port), timeout=5.0)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """(status, headers, decoded JSON body) of the next response."""
        status = int(self.reader.readline().split()[1])
        headers = {}
        for line in iter(self.reader.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            headers[name.lower()] = value.strip()
        return status, headers, json.loads(self.reader.read(int(headers["content-length"])))

    def closed(self) -> bool:
        """Has the server closed its side? (EOF, or a reset if it had input unread.)"""
        try:
            return self.reader.read(1) == b""
        except ConnectionResetError:
            return True


def exchange(gateway, data: bytes):
    """Send ``data`` on a fresh connection: (status, headers, body, server closed)."""
    with Connection(gateway) as conn:
        conn.send(data)
        status, headers, body = conn.response()
        closed = headers.get("connection") == "close"
        if closed:
            assert conn.closed()
        return status, headers, body, closed


def post(path: str, body: bytes, length=None, header: str = "Content-Length") -> bytes:
    length = len(body) if length is None else length
    return f"POST {path} HTTP/1.1\r\n{header}: {length}\r\n\r\n".encode() + body


class TestFraming:
    def test_two_requests_on_one_keep_alive_connection(self, gateway):
        with Connection(gateway) as conn:
            for _ in range(2):
                conn.send(HEALTHZ)
                status, headers, body = conn.response()
                assert status == 200 and body["status"] == "ok"
                assert "connection" not in headers

    def test_two_pipelined_in_one_segment(self, gateway):
        with Connection(gateway) as conn:
            conn.send(HEALTHZ + b"GET /recommend?session_id=u&k=3 HTTP/1.1\r\n\r\n")
            assert conn.response()[0] == 200
            status, _, body = conn.response()
            assert status == 200 and len(body["items"]) == 3

    def test_response_has_exactly_the_headers_it_needs(self, gateway):
        _, headers, _, _ = exchange(gateway, HEALTHZ)
        assert set(headers) == {"content-type", "content-length"}

    def test_connection_close_is_honoured(self, gateway):
        status, _, _, closed = exchange(gateway, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert status == 200 and closed

    def test_http_1_0_closes_by_default(self, gateway):
        status, _, _, closed = exchange(gateway, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200 and closed

    def test_http_1_0_keep_alive_on_request(self, gateway):
        with Connection(gateway) as conn:
            for _ in range(2):
                conn.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                assert conn.response()[0] == 200

    def test_lf_only_line_endings(self, gateway):
        status, _, body, closed = exchange(gateway, b"GET /healthz HTTP/1.1\nHost: t\n\n")
        assert status == 200 and body["status"] == "ok" and not closed

    def test_lower_case_content_length(self, gateway, dataset):  # noqa: F811
        event = json.dumps({"session_id": "lc", "item": raw_item(dataset, 5), "operation": 0}).encode()
        status, _, body, _ = exchange(gateway, post("/events", event, header="content-length"))
        assert status == 200 and body["applied"] is True

    def test_idle_keep_alive_outlives_the_read_timeout(self, gateway):
        with Connection(gateway) as conn:
            conn.send(HEALTHZ)
            assert conn.response()[0] == 200
            time.sleep(3 * READ_TIMEOUT_S)
            conn.send(HEALTHZ)
            assert conn.response()[0] == 200


REFUSED = {
    "unknown-method": (b"BREW /healthz HTTP/1.1\r\n\r\n", 501),
    "HEAD-is-not-served": (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
    "request-line-too-long": (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1)) + b"\r\n",
        431,
    ),
    "header-line-too-long": (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * MAX_LINE_BYTES + b"\r\n\r\n", 431),
    "header-without-a-colon": (b"GET /healthz HTTP/1.1\r\nnonsense\r\n\r\n", 400),
    "not-HTTP": (b"\x16\x03\x01\x02\x00\x01\r\n\r\n", 400),
    "two-word-request-line": (b"GET /healthz\r\n\r\n", 400),
    "HTTP/2-preface": (b"PRI * HTTP/2.0\r\n\r\n", 505),
    "POST-without-Content-Length": (b"POST /events HTTP/1.1\r\n\r\n", 400),
    "non-integer-Content-Length": (post("/events", b"{}", length="two"), 400),
    "negative-Content-Length": (post("/events", b"{}", length=-1), 400),
    "astronomical-Content-Length": (post("/events", b"", length="9" * 5000), 400),
    "body-over-the-limit-not-sent": (post("/events", b"", length=MAX_BODY_BYTES + 1), 413),
    "body-shorter-than-Content-Length": (post("/events", b"{}", length=50), 408),
    "request-line-never-finished": (b"GET /heal", 408),
    "headers-never-finished": (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", 408),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_by_the_http_layer(gateway, case):
    """Framing errors get a named 4xx/5xx (never 500), and the connection closes."""
    data, expected = REFUSED[case]
    started = time.monotonic()
    status, _, body, closed = exchange(gateway, data)
    assert status == expected and body["error"] and closed
    assert time.monotonic() - started < 2.0  # nobody waits for bytes that are not coming


def event_body(**fields) -> bytes:
    return json.dumps({"session_id": "v", "item": 1, "operation": 0, **fields}).encode()


BAD_REQUESTS = {
    "k-not-an-integer": b"GET /recommend?session_id=u&k=ten HTTP/1.1\r\n\r\n",
    "k-a-float": b"GET /recommend?session_id=u&k=2.5 HTTP/1.1\r\n\r\n",
    "k-zero": b"GET /recommend?session_id=u&k=0 HTTP/1.1\r\n\r\n",
    "k-negative": b"GET /recommend?session_id=u&k=-3 HTTP/1.1\r\n\r\n",
    "k-over-the-limit": f"GET /recommend?session_id=u&k={MAX_K + 1} HTTP/1.1\r\n\r\n".encode(),
    "k-the-whole-catalogue": b"GET /recommend?session_id=u&k=1000000000 HTTP/1.1\r\n\r\n",
    "session_id-missing": b"GET /recommend?k=3 HTTP/1.1\r\n\r\n",
    "body-is-a-JSON-list": post("/events", b"[1, 2]"),
    "body-is-a-JSON-string": post("/sessions/end", b'"u"'),
    "body-is-a-JSON-number": post("/deploy/promote", b"7"),
    "body-is-not-JSON": post("/events", b"{session"),
    "body-is-not-UTF-8": post("/events", b"\xff\xfe{}"),
    "field-missing": post("/events", b'{"session_id": "v"}'),
    "item-is-a-list": post("/events", event_body(item=[1])),
    "item-is-null": post("/events", event_body(item=None)),
    "operation-is-a-word": post("/events", event_body(operation="click")),
}


@pytest.mark.parametrize("case", BAD_REQUESTS)
def test_bad_request_keeps_the_connection(gateway, case):
    """A well-framed request that asks for nonsense: 400 by name, then business as usual."""
    with Connection(gateway) as conn:
        conn.send(BAD_REQUESTS[case])
        status, _, body = conn.response()
        assert status == 400 and body["error"]
        conn.send(HEALTHZ)
        assert conn.response()[0] == 200


def test_k_at_the_limit_is_served(gateway):
    status, _, body, _ = exchange(gateway, f"GET /recommend?session_id=u&k={MAX_K} HTTP/1.1\r\n\r\n".encode())
    assert status == 200 and 0 < len(body["items"]) <= MAX_K


def test_unknown_routes_are_404(gateway):
    assert exchange(gateway, b"GET /nope HTTP/1.1\r\n\r\n")[0] == 404
    assert exchange(gateway, post("/nope", b"{}"))[0] == 404


def test_expect_100_continue(gateway):
    with Connection(gateway) as conn:
        conn.send(b"POST /sessions/end HTTP/1.1\r\nContent-Length: 21\r\nExpect: 100-continue\r\n\r\n")
        assert conn.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert conn.reader.readline() == b"\r\n"
        conn.send(b'{"session_id": "zzz"}')
        status, _, body = conn.response()
        assert status == 200 and body == {"ended": True}
