"""Unit tests of the shared HTTP/1.1 framing and the debug-plane parser."""

import pytest

from repro.service.framing import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    match_route,
    parse_head,
    render_response,
)
from repro.service.protocol import ServiceError
from repro.service.server import ROUTES, parse_debug


def raises_code(code, call, *args):
    with pytest.raises(ServiceError) as exc:
        call(*args)
    assert exc.value.code == code
    return exc.value


class TestParseHead:
    HEAD = ("POST /diagnose?x=1&y=2 HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/json\r\nContent-Length: 12\r\n"
            "X-Mixed-Case:  spaced value \r\n\r\n")

    def test_crlf_and_bare_lf_parse_alike(self):
        crlf = parse_head(self.HEAD.encode())
        lf = parse_head(self.HEAD.replace("\r\n", "\n").encode())
        assert crlf == lf
        assert crlf.method == "POST"
        assert crlf.path == "/diagnose"
        assert crlf.query == "x=1&y=2"
        assert crlf.content_length == 12
        assert crlf.headers["x-mixed-case"] == "spaced value"
        assert crlf.headers["content-type"] == "application/json"

    def test_method_upper_cased_and_length_defaults_to_zero(self):
        head = parse_head(b"get /healthz HTTP/1.0\r\n\r\n")
        assert head.method == "GET"
        assert head.content_length == 0
        assert head.headers == {}

    @pytest.mark.parametrize("raw", [
        b"GARBAGE\r\n\r\n",
        b"GET /healthz\r\n\r\n",
        b"GET /healthz SPDY/3\r\n\r\n",
        b"\r\n",
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n \r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nContent-Length: many\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
        b"POST /diagnose HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST /diagnose HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
        b"POST /diagnose HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1),
        b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n",
    ])
    def test_bad_heads_are_malformed(self, raw):
        raises_code("malformed_payload", parse_head, raw)

    @pytest.mark.parametrize("value,keep_alive", [
        (None, True), ("keep-alive", True), ("close", False),
        ("Close", False), ("CLOSE", False), ("keep-alive, Close", False),
        ("closed", True),
    ])
    def test_keep_alive_reads_connection_tokens(self, value, keep_alive):
        raw = "GET / HTTP/1.1\r\n"
        if value is not None:
            raw += f"Connection: {value}\r\n"
        assert parse_head((raw + "\r\n").encode()).keep_alive is keep_alive

    @pytest.mark.parametrize("value,keep_alive", [
        (None, False), ("keep-alive", True), ("Keep-Alive", True),
        ("close", False), ("keep-alive, close", False),
    ])
    def test_http10_closes_unless_asked_to_keep_alive(self, value,
                                                      keep_alive):
        raw = "GET / HTTP/1.0\r\n"
        if value is not None:
            raw += f"Connection: {value}\r\n"
        head = parse_head((raw + "\r\n").encode())
        assert head.version == "HTTP/1.0"
        assert head.keep_alive is keep_alive


class TestHeadEnd:
    def test_incomplete_head_is_none(self):
        assert parse_head(b"") is None
        assert parse_head(b"GET / HTTP/1.1\r\nHost: t\r\n") is None

    @pytest.mark.parametrize("head", [
        b"GET / HTTP/1.1\r\nHost: t\r\n\r\n",
        b"GET / HTTP/1.1\nHost: t\n\n",
        b"GET / HTTP/1.1\nHost: t\n\r\n",
    ])
    def test_ends_at_the_blank_line(self, head):
        parsed = parse_head(head + b"{not: a header}")
        assert parsed.headers == {"host": "t"}

    def test_no_blank_line_within_limit_raises(self):
        raises_code("malformed_payload", parse_head,
                    b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES)
        raises_code("malformed_payload", parse_head,
                    b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES
                    + b"\r\n\r\n")

    def test_head_of_exactly_the_limit_parses(self):
        start = b"GET / HTTP/1.1\r\nX-Pad: "
        pad = MAX_HEADER_BYTES - len(start) - 4
        assert parse_head(start + b"a" * pad + b"\r\n\r\n") is not None


class TestRenderResponse:
    def test_server_ok_head_is_pinned(self):
        body = b'{"status": "ok"}'
        assert render_response(200, body, "application/json", False) == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 16\r\n"
            b"Connection: keep-alive\r\n"
            b"\r\n" + body)

    def test_close_and_extra_headers_follow_in_order(self):
        rendered = render_response(429, b"{}", "application/json", True,
                                   {"Retry-After": "2"})
        assert rendered == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\n"
            b"Connection: close\r\n"
            b"Retry-After: 2\r\n"
            b"\r\n{}")


class TestMatchRoute:
    def test_exact_and_prefix_routes(self):
        assert match_route(ROUTES, "POST", "/diagnose") == "/diagnose"
        assert match_route(ROUTES, "GET", "/debug/trace/abc") == "/debug/trace/"
        assert match_route(ROUTES, "POST", "/debug/flightrec") == \
            "/debug/flightrec"

    def test_unknown_route_then_wrong_method(self):
        raises_code("no_such_route", match_route, ROUTES, "POST", "/nope")
        error = raises_code("method_not_allowed", match_route, ROUTES, "GET",
                            "/diagnose")
        assert error.message == "use POST /diagnose"


class TestParseDebug:
    def test_defaults(self):
        assert parse_debug("/debug/requests", "") == ("requests", {"limit": 50})
        assert parse_debug("/debug/profile", "") == (
            "profile", {"seconds": 1.0, "hz": None})

    @pytest.mark.parametrize("query,limit", [
        ("limit=0", 1), ("limit=-7", 1), ("limit=5", 5), ("limit=99999", 1000),
    ])
    def test_limit_clamped(self, query, limit):
        assert parse_debug("/debug/requests", query)[1] == {"limit": limit}

    @pytest.mark.parametrize("query,seconds,hz", [
        ("seconds=0", 0.05, None),
        ("seconds=1e6", 30.0, None),
        ("seconds=0.5&hz=97", 0.5, 97),
        ("hz=1000000000", 1.0, 1000),
        ("hz=0", 1.0, None),
        ("hz=-3", 1.0, None),
    ])
    def test_profile_seconds_and_hz_clamped(self, query, seconds, hz):
        assert parse_debug("/debug/profile", query) == (
            "profile", {"seconds": seconds, "hz": hz})

    @pytest.mark.parametrize("path,query", [
        ("/debug/requests", "limit=many"),
        ("/debug/requests", "limit=2.5"),
        ("/debug/profile", "seconds=soon"),
        ("/debug/profile", "seconds=nan"),
        ("/debug/profile", "seconds=inf"),
        ("/debug/profile", "seconds=-inf"),
        ("/debug/profile", "hz=fast"),
        ("/debug/trace/", ""),
        ("/debug/trace/%20%20", ""),
    ])
    def test_bad_values_are_invalid_argument(self, path, query):
        raises_code("invalid_argument", parse_debug, path, query)

    def test_trace_id_unquoted_stripped_and_lowered(self):
        assert parse_debug("/debug/trace/%20ABC%2Fdef%20", "") == (
            "trace", {"trace_id": "abc/def"})

    def test_other_paths_have_no_route(self):
        raises_code("no_such_route", parse_debug, "/debug/flightrec", "")
