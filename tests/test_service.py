"""HTTP surface: endpoints, status codes, structured errors, CLI parity."""

from __future__ import annotations

import http.client
import json
import random
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from itertools import takewhile
from pathlib import Path
from statistics import median

import pytest
from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from msa import errors
from msa.cli import main
from msa.dialogue.llm import StubLlmClient
from msa.errors import LlmTimeout, LlmUnavailable
from msa.jsonio import MAX_BODY_BYTES
from msa.service import MsaRequestHandler, analyze_graph_report
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


@pytest.mark.parametrize(
    "path,body",
    [
        ("/generate_with_speaker_module", r'{"prompt": "x \ud800", "speaker_module": []}'),
        ("/annotate", r'{"turns": [{"speaker": "a", "text": "\udc00", "turn_role": "user"}]}'),
        ("/analyze_graph", r'{"nodes": ["\ud800"], "edges": []}'),
    ],
    ids=["generate", "annotate", "analyze-graph"],
)
def test_lone_surrogate_body_is_400(path, body):
    with running_server() as port:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", path, body.encode("ascii"))
        response = conn.getresponse()
        status, reply = response.status, json.loads(response.read())
        conn.close()
    assert (status, reply["code"]) == (400, "MalformedJson")


def test_escaped_surrogate_pair_in_a_prompt_is_one_character():
    body = {"prompt": "smile \U0001F600", "speaker_module": ["#T_NEUTRAL"]}
    with running_server() as port:
        status, reply = post_json(port, "/generate_with_speaker_module", body)
    assert status == 200
    assert "smile \U0001F600" in reply["output"]


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


def _health_seconds(conn: http.client.HTTPConnection) -> float:
    """One ``GET /health`` round trip on ``conn``, which connects first if it is not open."""
    started = time.perf_counter()
    conn.request("GET", "/health")
    response = conn.getresponse()
    assert (response.status, json.loads(response.read())) == (200, {"status": "ok"})
    return time.perf_counter() - started


def test_kept_alive_request_is_not_held_for_the_delayed_ack():
    # A reply's headers and body go out as two writes. Without TCP_NODELAY the body
    # waits for the client's delayed ACK, about 40 ms, on each request after the first
    # on a connection, so a kept-alive round trip would cost more than one that opens
    # its own connection. Both timings come from this machine: no absolute bound.
    with running_server() as port:
        kept = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            _health_seconds(kept)  # opens the connection
            kept_alive = [_health_seconds(kept) for _ in range(10)]
        finally:
            kept.close()
        fresh = []
        for _ in range(10):  # one socket at a time
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                fresh.append(_health_seconds(conn))
            finally:
                conn.close()
    assert median(kept_alive) < median(fresh), (kept_alive, fresh)


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
    "start,body", [("POST /analyze_graph", b"{}"), ("GET /health", b"")], ids=["post", "get"]
)
def test_repeated_content_length_gets_one_400_then_eof(start, body):
    smuggled = b"GET /smuggled HTTP/1.1\r\nHost: localhost\r\n\r\n"
    request = (
        f"{start} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n"
        f"Content-Length: {len(body) + len(smuggled)}\r\n\r\n"
    ).encode("ascii") + body + smuggled
    with running_server() as port:
        reply = _exchange_until_close(port, request)
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(rest)["code"] == "InvalidRequest"  # one JSON document: /smuggled got no reply


@pytest.mark.parametrize(
    "start,body", [("POST /analyze_graph", b"{}"), ("GET /health", b"")], ids=["post", "get"]
)
def test_empty_content_length_gets_one_400_then_eof(start, body):
    # an empty value is not a missing header: it is refused, not read as 0
    request = f"{start} HTTP/1.1\r\nHost: localhost\r\nContent-Length: \r\n\r\n".encode("ascii")
    with running_server() as port:
        reply = _exchange_until_close(port, request + body)
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"400"
    assert b"\r\nConnection: close\r\n" in head
    assert json.loads(rest)["code"] == "InvalidRequest"  # one JSON document: the body got no reply


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



TEXTS = ("I will check the figures.", "You take the summary, then.", "Why that order?",
         "We agreed on Friday.", "Maybe someone else should.", "Fine.")
SPEAKERS = ("amy", "bo", "cy", "dee", "eve", "fay")


def _transcript_rows(rng: random.Random) -> list[str]:
    """The JSON text of one to five turns; about half the transcripts carry one fault."""
    rows = [
        {"speaker": rng.choice(SPEAKERS[:3]), "text": rng.choice(TEXTS),
         "turn_role": rng.choice(("user", "assistant")), "index": i}
        for i in range(rng.randint(1, 5))
    ]
    k = rng.randrange(len(rows))
    fault = rng.choice(["none"] * 8 + ["turn-role", "empty-text", "index-gap", "unknown-key",
                                       "function-role", "text-number", "not-object"])
    if fault == "turn-role":
        rows[k]["turn_role"] = "narrator"
    elif fault == "empty-text":
        rows[k]["text"] = ""
    elif fault == "index-gap":
        rows[k]["index"] += 2
    elif fault == "unknown-key":
        rows[k]["speakr"] = rows[k].pop("speaker")
    elif fault == "function-role":
        rows[k]["function_role"] = "oracle"
    elif fault == "text-number":
        rows[k]["text"] = 7
    lines = [json.dumps(row) for row in rows]
    if fault == "not-object":
        lines[k] = json.dumps(list(rows[k].values()))
    elif rng.random() < 0.1:  # refused by the JSON reader itself
        lines[k] = lines[k][:-1] + ', "text": NaN}'
    return lines


def _graph_text(rng: random.Random) -> str:
    """One graph document, about half of them with one fault."""
    nodes = rng.sample(SPEAKERS, rng.randint(1, len(SPEAKERS)))
    edges = [{"from": rng.choice(nodes), "to": rng.choice(nodes), "utterance_index": i}
             for i in range(rng.randint(0, 9))]
    doc = {"nodes": nodes, "edges": edges}
    fault = rng.choice(["none"] * 8 + ["unknown-endpoint", "missing-to", "misspelt-key",
                                       "bool-index", "empty-speaker", "number-label", "array-edge"])
    if fault == "unknown-endpoint":
        edges.append({"from": nodes[0], "to": "zed"})
    elif fault == "missing-to":
        edges.append({"from": nodes[0]})
    elif fault == "misspelt-key":
        doc["edgez"] = doc.pop("edges")
    elif fault == "bool-index":
        edges.append({"from": nodes[0], "to": nodes[0], "utterance_index": True})
    elif fault == "empty-speaker":
        nodes.append("")
    elif fault == "number-label":
        edges.append({"from": nodes[0], "to": nodes[0], "label": 3})
    elif fault == "array-edge":
        edges.append([nodes[0], nodes[0]])
    text = json.dumps(doc)
    if rng.random() < 0.1:  # refused by the JSON reader itself
        text = text[:-1] + ', "nodes": []}'
    return text


def _post_raw(port: int, path: str, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_cli_and_service_give_one_outcome_for_each_transcript_and_graph(tmp_path, capsys):
    # The service frames a transcript as {"turns": [...]} and takes a graph as its
    # whole body; every input here is sent in the framing both surfaces accept.
    rng = random.Random(20)
    cases = []
    for i in range(20):
        lines = _transcript_rows(rng)
        path = tmp_path / f"t{i}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        body = '{"turns": [' + ", ".join(lines) + "]}"
        cases.append(("annotate", path, "/annotate", body))
    for i in range(20):
        text = _graph_text(rng)
        path = tmp_path / f"g{i}.json"
        path.write_text(text, encoding="utf-8")
        cases.append(("graph", path, "/analyze_graph", text))
    # no turns, and a graph that is not an object: the engine refuses both
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    cases.append(("annotate", tmp_path / "empty.jsonl", "/annotate", '{"turns": []}'))
    (tmp_path / "array.json").write_text("[]", encoding="utf-8")
    cases.append(("graph", tmp_path / "array.json", "/analyze_graph", "[]"))

    outcomes = []
    with running_server() as port:
        for command, path, route, body in cases:
            status, reply = _post_raw(port, route, body.encode("utf-8"))
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            if status == 200:
                assert (code, json.loads(out)) == (0, reply), path.name
            else:
                assert code == (2 if status < 500 else 1), path.name
                assert out == "", path.name
                assert err.startswith(f"error [{reply['code']}]: "), (path.name, err)
            outcomes.append((command, status == 200))
    for command in ("annotate", "graph"):  # each surface saw both outcomes
        assert 5 <= sum(ok for c, ok in outcomes if c == command) <= 15, outcomes


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


# --- HTTP/1.1 framing, explored as request sequences on one kept-alive socket ---


def _raw(start: str, body: bytes = b"", framing: str | None = None) -> bytes:
    """Request bytes: ``framing`` replaces the Content-Length header the body implies."""
    if framing is None:
        framing = f"Content-Length: {len(body)}\r\n" if body else ""
    return f"{start} HTTP/1.1\r\nHost: localhost\r\n{framing}\r\n".encode("ascii") + body


GENERATE_BODIES = (
    SAMPLE_BODY,
    {"prompt": "", "speaker_module": ["#T_NEUTRAL"]},
    {"prompt": "x", "speaker_module": ["#T_WHISPER"]},
    {"prompt": "x", "speaker_module": {"mood": "NEUTRAL"}},
    {"prompt": "x"},
    [],
)


def _annotate_request(rng_seed: int) -> bytes:
    rows = _transcript_rows(random.Random(rng_seed))
    return _raw("POST /annotate", ('{"turns": [' + ", ".join(rows) + "]}").encode("utf-8"))


def _graph_request(rng_seed: int) -> bytes:
    return _raw("POST /analyze_graph", _graph_text(random.Random(rng_seed)).encode("utf-8"))


# Requests framed correctly: each gets one reply and the connection stays open.
WELL_FRAMED = st.one_of(
    st.sampled_from([
        _raw("GET /health"),
        _raw("GET /no_such_route"),
        _raw("POST /no_such_route", b"{}"),
        _raw("POST /annotate", b"not json"),
        *(_raw("POST /generate_with_speaker_module", json.dumps(body).encode("utf-8"))
          for body in GENERATE_BODIES),
    ]),
    st.builds(_annotate_request, st.integers(0, 2**16)),
    st.builds(_graph_request, st.integers(0, 2**16)),
)

SMUGGLED = _raw("GET /smuggled")
SHORT_BODY = _raw("POST /annotate", b"{}", "Content-Length: 10\r\n")

# Requests the service refuses, with the status and code of the one reply
# each gets before the connection closes.
REFUSED = (
    (_raw("GET /health", b"XYZW 1 2 3\r\n"), 400, "InvalidRequest"),
    (_raw("GET /health", b"0\r\n\r\n", "Transfer-Encoding: chunked\r\n"), 400, "InvalidRequest"),
    (_raw("POST /analyze_graph", b"2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding: chunked\r\n"),
     400, "InvalidRequest"),
    (_raw("POST /annotate", b"{}", "Content-Length: abc\r\n"), 400, "InvalidRequest"),
    (_raw("POST /annotate", b"{}", "Content-Length: -1\r\n"), 400, "InvalidRequest"),
    (_raw("POST /annotate", b"{}", "Content-Length: \r\n"), 400, "InvalidRequest"),
    (_raw("GET /health", b"", "Content-Length: \r\n"), 400, "InvalidRequest"),
    (_raw("POST /annotate", b"{}" + SMUGGLED, f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"),
     400, "InvalidRequest"),
    (_raw("POST /analyze_graph", b"{}" + SMUGGLED,
          f"Content-Length: 2\r\nContent-Length: {2 + len(SMUGGLED)}\r\n"), 400, "InvalidRequest"),
    (_raw("GET /health", SMUGGLED, f"Content-Length: 0\r\nContent-Length: {len(SMUGGLED)}\r\n"),
     400, "InvalidRequest"),
    (b"XYZW 1 2 3\r\n\r\n", 400, "BadRequest"),
    (b"GET /health HTTP/x.y\r\n\r\n", 400, "BadRequest"),
    (b"GET /health HTTP/2.0\r\n\r\n", 505, "HTTPVersionNotSupported"),
    (_raw("HEAD /health"), 501, None),  # a HEAD reply carries no body
    (SHORT_BODY, 400, "InvalidRequest"),
)


class _Connection:
    """One client socket that reads replies framed by their Content-Length."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.buffer = b""

    def _fill(self) -> bool:
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        self.buffer += chunk
        return bool(chunk)

    def exchange(self, request: bytes, replies: int = 1) -> list[tuple[str, dict, bytes]]:
        """Send ``request`` and read ``replies`` replies: (status line, headers, body) each."""
        self.sock.sendall(request)
        out = []
        for _ in range(replies):
            while b"\r\n\r\n" not in self.buffer:
                assert self._fill(), f"closed before a reply; read {self.buffer!r}"
            head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
            status_line, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            length = 0 if request.startswith(b"HEAD ") else int(headers["Content-Length"])
            while len(self.buffer) < length:
                assert self._fill(), f"closed inside a reply body; read {self.buffer!r}"
            body, self.buffer = self.buffer[:length], self.buffer[length:]
            headers.pop("Date")
            out.append((status_line, headers, body))
        return out

    def at_eof(self) -> bool:
        return not self.buffer and not self._fill()


@seed(20261)
class FramingMachine(RuleBasedStateMachine):
    """One kept-alive socket to one server; the port is set before a run."""

    port = 0

    def __init__(self) -> None:
        super().__init__()
        self.conn = _Connection(self.port)

    def _check(self, reply: tuple[str, dict, bytes]) -> tuple[int, str | None]:
        """The reply's status and code, after the invariants every reply keeps."""
        status_line, headers, body = reply
        status = int(status_line.split(" ", 2)[1])
        assert status != 500, reply
        code = None
        if body:
            payload = json.loads(body)
            code = payload.get("code")
            assert status < 400 or code, reply
        if headers.get("Connection") == "close":
            assert self.conn.at_eof(), f"{reply} said close; read {self.conn.buffer!r}"
            self.conn.sock.close()
            self.conn = _Connection(self.port)
        return status, code

    def _fresh(self, request: bytes) -> tuple[str, dict, bytes]:
        conn = _Connection(self.port)
        try:
            return conn.exchange(request)[0]
        finally:
            conn.sock.close()

    @rule(requests=st.lists(WELL_FRAMED, min_size=1, max_size=2))
    def well_framed(self, requests):
        # two requests in one send must get the replies each gets on a fresh connection
        replies = self.conn.exchange(b"".join(requests), len(requests))
        for request, reply in zip(requests, replies):
            self._check(reply)
            assert reply == self._fresh(request), request
            assert "Connection" not in reply[1], reply

    @rule(case=st.sampled_from(REFUSED))
    def refused(self, case):
        request, status, code = case
        if request is SHORT_BODY:  # on a fresh connection, with a short read timeout
            self.conn.sock.close()
            patched, MsaRequestHandler.timeout = MsaRequestHandler.timeout, 0.3
            try:
                self.conn = _Connection(self.port)
                [reply] = self.conn.exchange(request)  # the handler set its timeout before replying
            finally:
                MsaRequestHandler.timeout = patched
        else:
            [reply] = self.conn.exchange(request)
        assert reply[1].get("Connection") == "close", reply
        assert self._check(reply) == (status, code), reply

    def teardown(self) -> None:
        self.conn.sock.close()


def test_framing_holds_over_request_sequences():
    with running_server() as port:
        FramingMachine.port = port
        run_state_machine_as_test(
            FramingMachine,
            settings=settings(max_examples=25, stateful_step_count=10, deadline=None, database=None),
        )
