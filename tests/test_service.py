"""HTTP surface: endpoints, status codes, structured errors, CLI parity."""

from __future__ import annotations

import http.client
import json
import re
import socket
import subprocess
import sys
import urllib.error
import urllib.request
from itertools import takewhile
from pathlib import Path

import pytest

from msa import errors
from msa.dialogue.llm import StubLlmClient
from msa.errors import LlmTimeout, LlmUnavailable
from msa.service import MAX_BODY_BYTES, MsaRequestHandler, analyze_graph_report
from helpers import get_json, make_graph, post_json, running_server

SAMPLE_BODY = {
    "prompt": (
        "Please analyze the impact of 'emotional restraint' "
        "in American cultural social interactions."
    ),
    "speaker_module": [
        "#T_SOFTASSERT",
        "#P_SELFREF",
        "#C_LOOP",
        "#CTX_MERGE",
        "#L_CASCADE",
        "#E_TIGHT",
    ],
}

README = Path(__file__).resolve().parent.parent / "README.md"

FULL_DIRECTIVES = (
    "[TONE=SOFTASSERT] [POSITION=SELFREF] [CLOSURE=LOOP] "
    "[CONTEXT_ALIGNMENT=MERGE] [LOGICAL_FLOW=CASCADE] [AFFECTIVE_TENSION=TIGHT]"
)


def test_health():
    with running_server() as port:
        status, body = get_json(port, "/health")
    assert (status, body) == (200, {"status": "ok"})


def test_generate_with_tag_list_body():
    with running_server() as port:
        status, body = post_json(port, "/generate_with_speaker_module", SAMPLE_BODY)
    assert status == 200
    assert body == {
        "output": f"<ECHO directives='{FULL_DIRECTIVES}' last='{SAMPLE_BODY['prompt']}'>"
    }


def test_generate_with_keyed_body():
    keyed = {
        "prompt": "Same prompt, other form.",
        "speaker_module": {
            "tone": "SOFTASSERT",
            "position": "SELFREF",
            "closure": "LOOP",
            "context_alignment": "MERGE",
            "logical_flow": "CASCADE",
            "affective_tension": "TIGHT",
        },
    }
    with running_server() as port:
        status, body = post_json(port, "/generate_with_speaker_module", keyed)
    assert status == 200
    assert FULL_DIRECTIVES in body["output"]


@pytest.mark.parametrize(
    "payload,code",
    [
        ({"prompt": "", "speaker_module": ["#T_NEUTRAL"]}, "InvalidRequest"),
        ({"prompt": "x", "speaker_module": ["#T_WHISPER"]}, "UnknownValue"),
        ({"prompt": "x", "speaker_module": ["#Z_NEUTRAL"]}, "UnknownPrefix"),
        ({"prompt": "x", "speaker_module": ["T_NEUTRAL"]}, "MalformedToken"),
        ({"prompt": "x", "speaker_module": {"mood": "NEUTRAL"}}, "UnknownKey"),
        ({"prompt": "x"}, "InvalidRequest"),
    ],
)
def test_validation_errors_are_400_with_code(payload, code):
    with running_server() as port:
        status, body = post_json(port, "/generate_with_speaker_module", payload)
    assert status == 400
    assert body["code"] == code
    assert isinstance(body["message"], str) and body["message"]


def test_non_json_body_is_400():
    with running_server() as port:
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/generate_with_speaker_module",
            data=b"definitely not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            status, body = 200, {}
        except urllib.error.HTTPError as err:
            status, body = err.code, json.loads(err.read())
    assert status == 400
    assert body["code"] == "MalformedJson"


@pytest.mark.parametrize("path", ["/generate_with_speaker_module", "/annotate", "/analyze_graph"])
def test_deeply_nested_body_is_400(path):
    with running_server() as port:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", path, b"[" * 1000 + b"]" * 1000)
        response = conn.getresponse()
        status, body = response.status, json.loads(response.read())
        conn.close()
    assert (status, body["code"]) == (400, "MalformedJson")


def _exchange_until_close(port: int, request: bytes) -> bytes:
    """Send raw request bytes and read everything the server writes until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


@pytest.mark.parametrize("length", ["abc", "-1", str(MAX_BODY_BYTES + 1)],
                         ids=["non-numeric", "negative", "oversize"])
def test_bad_content_length_is_400(length):
    with running_server() as port:
        reply = _exchange_until_close(
            port,
            f"POST /annotate HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}".encode("ascii"),
        )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(body)["code"] == "InvalidRequest"


def test_short_body_times_out_with_400(monkeypatch):
    monkeypatch.setattr(MsaRequestHandler, "timeout", 0.5)
    with running_server() as port:
        reply = _exchange_until_close(
            port, b"POST /annotate HTTP/1.1\r\nHost: localhost\r\nContent-Length: 10\r\n\r\n{}"
        )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(body)["code"] == "InvalidRequest"


def test_chunked_body_gets_one_json_reply_then_eof():
    graph = b'{"nodes": ["a"], "edges": []}'
    request = (
        b"POST /analyze_graph HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(graph), graph)
    )
    with running_server() as port:
        reply = _exchange_until_close(port, request)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(body)["code"] == "InvalidRequest"  # one JSON document: no second reply


@pytest.mark.parametrize(
    "version,header",
    [("HTTP/1.0", ""), ("HTTP/1.1", "Connection: close\r\n")],
    ids=["http-1.0", "connection-close"],
)
def test_success_before_a_close_says_connection_close(version, header):
    request = f"GET /health {version}\r\nHost: localhost\r\n{header}\r\n".encode("ascii")
    with running_server() as port:
        reply = _exchange_until_close(port, request)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"200"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(body) == {"status": "ok"}


@pytest.mark.parametrize(
    "framing,body",
    [("Content-Length: 12", b"XYZW 1 2 3\r\n"), ("Transfer-Encoding: chunked", b"0\r\n\r\n")],
    ids=["content-length", "chunked"],
)
def test_get_with_a_body_gets_one_400_then_eof(framing, body):
    request = f"GET /health HTTP/1.1\r\nHost: localhost\r\n{framing}\r\n\r\n".encode("ascii") + body
    with running_server() as port:
        reply = _exchange_until_close(port, request)
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    expected = {"code": "InvalidRequest", "message": "GET /health takes no body"}
    assert json.loads(rest) == expected  # one JSON document: the body got no reply of its own


@pytest.mark.parametrize(
    "line,status,code",
    [("GET /health HTTP/x.y", b"400", "BadRequest"),
     ("GET /health HTTP/2.0", b"505", "HTTPVersionNotSupported")],
    ids=["no-valid-version", "version-2"],
)
def test_refused_request_line_gets_a_status_line(line, status, code):
    with running_server() as port:
        reply = _exchange_until_close(port, f"{line}\r\n\r\n".encode("ascii"))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[:2] == [b"HTTP/1.1", status]
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(body)["code"] == code


@pytest.mark.parametrize("method", ["PUT", "HEAD"])
def test_unsupported_method_is_json_501(method):
    request = f"{method} /health HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("ascii")
    with running_server() as port:
        reply = _exchange_until_close(port, request)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"501"
    assert b"\r\nConnection: close\r\n" in head
    if method == "HEAD":
        assert body == b""
    else:
        expected = {"code": "NotImplemented", "message": "Unsupported method ('PUT')"}
        assert json.loads(body) == expected


def test_unknown_path_is_404():
    with running_server() as port:
        status, body = post_json(port, "/no_such_route", {})
        get_status, _ = get_json(port, "/no_such_route")
    assert status == 404
    assert body["code"] == "NotFound"
    assert get_status == 404


class _TimeoutLlm:
    def generate(self, directives, context):
        raise LlmTimeout("backend never answered")


class _DownLlm:
    def generate(self, directives, context):
        raise LlmUnavailable("backend is down")


def test_llm_timeout_maps_to_504():
    with running_server(_TimeoutLlm()) as port:
        status, body = post_json(
            port, "/generate_with_speaker_module",
            {"prompt": "x", "speaker_module": ["#T_NEUTRAL"]},
        )
    assert status == 504
    assert body["code"] == "LlmTimeout"


def test_llm_unavailable_maps_to_502():
    with running_server(_DownLlm()) as port:
        status, body = post_json(
            port, "/generate_with_speaker_module",
            {"prompt": "x", "speaker_module": ["#T_NEUTRAL"]},
        )
    assert status == 502
    assert body["code"] == "LlmUnavailable"


def test_readme_error_table_gives_each_class_its_http_status():
    section = README.read_text(encoding="utf-8").split("\n## HTTP service\n", 1)[1]
    rows = section.split("\n| condition | status | code |\n", 1)[1].splitlines()[1:]
    documented = {}
    for row in takewhile(lambda line: line.startswith("|"), rows):
        _, status, codes = row.strip("|").rsplit("|", 2)
        documented |= {code: int(status) for code in re.findall(r"`(\w+)`", codes)}
    classes = {code: getattr(errors, code) for code in documented if hasattr(errors, code)}
    assert {"InvalidRequest", "MalformedJson", "LlmUnavailable", "LlmTimeout"} <= set(classes)
    assert {code: cls.http_status for code, cls in classes.items()} == {
        code: documented[code] for code in classes
    }


def test_annotate_endpoint_matches_cli_byte_for_byte(tmp_path):
    from msa.fixtures import load_fixture
    from msa.dialogue.transcript import dump_transcript_jsonl

    fixture = load_fixture("case2")
    path = tmp_path / "case2.jsonl"
    dump_transcript_jsonl(fixture.transcript, path)
    turns = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    with running_server() as port:
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/annotate",
            data=json.dumps({"turns": turns}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            service_bytes = resp.read()

    proc = subprocess.run(
        [sys.executable, "-m", "msa.cli", "annotate", str(path)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == service_bytes


def test_analyze_graph_endpoint():
    with running_server() as port:
        status, body = post_json(
            port,
            "/analyze_graph",
            {
                "nodes": ["a", "b", "c"],
                "edges": [
                    {"from": "a", "to": "b", "utterance_index": 0},
                    {"from": "b", "to": "a", "utterance_index": 1},
                ],
            },
        )
    assert status == 200
    assert body == {
        "loops": [["a", "b"]],
        "self_retention": [],
        "exhaustive": True,
        "partial_drift": ["c"],
    }


def test_analyze_graph_report_degrades_above_node_limit():
    graph = make_graph([f"s{i}" for i in range(10_001)], [("s0", "s1"), ("s1", "s0"), ("s5", "s5")])
    report = analyze_graph_report(graph)
    assert report["exhaustive"] is False
    assert report["loops"] is None and report["self_retention"] is None
    assert report["cyclic_components"] == [["s0", "s1"], ["s5"]]
    assert len(report["partial_drift"]) == 10_001 - 3


def test_analyze_graph_rejects_bad_shape():
    with running_server() as port:
        status, body = post_json(port, "/analyze_graph", {"edges": "nope"})
    assert status == 400
    assert body["code"] == "MalformedJson"


def test_stub_generation_handles_unicode():
    body = {"prompt": "Re-read the case — it’s nuanced.", "speaker_module": ["#T_NEUTRAL"]}
    with running_server() as port:
        status, reply = post_json(port, "/generate_with_speaker_module", body)
    assert status == 200
    assert "it’s nuanced" in reply["output"]


@pytest.mark.parametrize(
    "edges",
    [[1], [["a", "b"]], [None], [{"from": "a", "to": "b", "utterance_index": True}]],
    ids=["number", "array", "null", "boolean-index"],
)
def test_analyze_graph_rejects_bad_edges(edges):
    with running_server() as port:
        status, body = post_json(port, "/analyze_graph", {"nodes": ["a", "b"], "edges": edges})
    assert status == 400
    assert body["code"] == "MalformedJson"


@pytest.mark.parametrize(
    "field,value",
    [("speaker", ["a"]), ("text", {"x": 1}), ("turn_role", 1), ("index", True)],
)
def test_annotate_rejects_non_string_turn_fields(field, value):
    row = {"speaker": "a", "text": "The deploy is done.", "turn_role": "user", "index": 0}
    with running_server() as port:
        status, body = post_json(port, "/annotate", {"turns": [dict(row, **{field: value})]})
    assert status == 400
    assert body["code"] == "InvalidRequest"
    assert field in body["message"]
