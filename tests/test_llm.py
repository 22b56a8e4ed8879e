"""LLM client behavior: stub echo format, remote wire protocol, failure modes."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import msa.dialogue.llm
from msa.dialogue.llm import (
    ENV_BASE_URL,
    ENV_MODEL,
    RemoteLlmClient,
    StubLlmClient,
    client_from_name,
)
from msa.errors import InvalidRequest, LlmTimeout, LlmUnavailable
from msa.jsonio import MAX_BODY_BYTES
from helpers import make_transcript


def test_stub_echo_shape():
    ctx = make_transcript([("u", "check the logs", "user")])
    out = StubLlmClient().generate("[TONE=NEUTRAL]", ctx)
    assert out == "<ECHO directives='[TONE=NEUTRAL]' last='check the logs'>"


def test_stub_is_deterministic():
    ctx = make_transcript([("u", "same input", "user")])
    stub = StubLlmClient()
    assert stub.generate("[TONE=FLAT]", ctx) == stub.generate("[TONE=FLAT]", ctx)


def test_client_from_name():
    assert isinstance(client_from_name("stub"), StubLlmClient)
    with pytest.raises(InvalidRequest):
        client_from_name("nonsense")


def test_remote_from_env_requires_base_url(monkeypatch):
    monkeypatch.delenv(ENV_BASE_URL, raising=False)
    with pytest.raises(InvalidRequest):
        RemoteLlmClient.from_env()


# Replies that decode to no JSON object: an array, a string, and an array
# nested deeper than the decoder's recursion limit.
REPLY_BODIES = {"array": b"[]", "string": b'"text"', "deep": b"[" * 1000 + b"]" * 1000}


def _output_of_length(size: int) -> bytes:
    """A well-formed reply of exactly ``size`` bytes."""
    return b'{"output": "' + b"x" * (size - 14) + b'"}'


# Replies that are well formed and differ only in size: the cap, and one byte past it.
SIZED_BODIES = {
    "at-cap": _output_of_length(MAX_BODY_BYTES),
    "over-cap": _output_of_length(MAX_BODY_BYTES + 1),
}
CANNED_BODIES = REPLY_BODIES | SIZED_BODIES


class _Script(BaseHTTPRequestHandler):
    """One-behavior fake endpoint; the behavior is set on the server object."""

    def log_message(self, *args):  # quiet
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append(body)
        mode = self.server.mode
        if mode == "ok":
            payload = json.dumps({"output": f"reply to {body['messages'][-1]['content']}"})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload.encode())
        elif mode in CANNED_BODIES:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(CANNED_BODIES[mode])
        elif mode in ("missing-field", "empty-output"):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(b'{"unexpected": true}' if mode == "missing-field" else b'{"output": ""}')
        else:  # error
            self.send_response(500)
            self.end_headers()


@pytest.fixture
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Script)
    server.mode = "ok"
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _client_for(server):
    port = server.server_address[1]
    return RemoteLlmClient(base_url=f"http://127.0.0.1:{port}", model="test-model")


@pytest.fixture
def no_retries(monkeypatch):
    monkeypatch.setattr(msa.dialogue.llm, "RETRIES", 0)


def test_remote_round_trip(fake_endpoint):
    client = _client_for(fake_endpoint)
    ctx = make_transcript([("u", "ping", "user"), ("a", "pong", "assistant")])
    out = client.generate("[TONE=NEUTRAL]", ctx)
    assert out == "reply to pong"
    sent = fake_endpoint.seen[0]
    assert sent["model"] == "test-model"
    assert sent["directives"] == "[TONE=NEUTRAL]"
    assert sent["messages"] == [
        {"role": "user", "content": "ping"},
        {"role": "assistant", "content": "pong"},
    ]


def test_remote_env_construction(fake_endpoint, monkeypatch):
    port = fake_endpoint.server_address[1]
    monkeypatch.setenv(ENV_BASE_URL, f"http://127.0.0.1:{port}")
    monkeypatch.setenv(ENV_MODEL, "env-model")
    client = RemoteLlmClient.from_env()
    ctx = make_transcript([("u", "hello", "user")])
    client.generate("", ctx)
    assert fake_endpoint.seen[0]["model"] == "env-model"


def test_remote_server_error_maps_to_unavailable(fake_endpoint, monkeypatch):
    monkeypatch.setattr(msa.dialogue.llm, "RETRIES", 1)
    fake_endpoint.mode = "error"
    client = _client_for(fake_endpoint)
    ctx = make_transcript([("u", "ping", "user")])
    with pytest.raises(LlmUnavailable):
        client.generate("", ctx)
    assert len(fake_endpoint.seen) == 2  # first try plus one retry


def test_remote_missing_output_field(fake_endpoint, no_retries):
    fake_endpoint.mode = "missing-field"
    client = _client_for(fake_endpoint)
    ctx = make_transcript([("u", "ping", "user")])
    with pytest.raises(LlmUnavailable):
        client.generate("", ctx)


def test_remote_empty_output_is_unavailable(fake_endpoint, no_retries):
    fake_endpoint.mode = "empty-output"
    client = _client_for(fake_endpoint)
    ctx = make_transcript([("u", "ping", "user")])
    with pytest.raises(LlmUnavailable, match="no 'output' text"):
        client.generate("", ctx)


@pytest.mark.parametrize("mode", list(REPLY_BODIES))
def test_remote_reply_that_is_no_json_object_is_unavailable(fake_endpoint, no_retries, mode):
    fake_endpoint.mode = mode
    client = _client_for(fake_endpoint)
    ctx = make_transcript([("u", "ping", "user")])
    with pytest.raises(LlmUnavailable):
        client.generate("", ctx)


def test_remote_reply_past_the_size_cap_is_unavailable_without_retry(fake_endpoint):
    client = _client_for(fake_endpoint)  # two retries, none of which may run
    ctx = make_transcript([("u", "ping", "user")])
    fake_endpoint.mode = "at-cap"
    assert len(client.generate("", ctx)) == MAX_BODY_BYTES - 14
    fake_endpoint.mode = "over-cap"
    with pytest.raises(LlmUnavailable, match=f"exceeds {MAX_BODY_BYTES} bytes"):
        client.generate("", ctx)
    assert len(fake_endpoint.seen) == 2  # one request per call


def test_remote_connection_refused_is_unavailable(no_retries):
    client = RemoteLlmClient(base_url="http://127.0.0.1:1", model="m")
    ctx = make_transcript([("u", "ping", "user")])
    with pytest.raises(LlmUnavailable):
        client.generate("", ctx)


def test_remote_timeout(no_retries, monkeypatch):
    monkeypatch.setattr(msa.dialogue.llm, "TIMEOUT_S", 0.2)
    # a listener that accepts the connection and then stays silent
    import socket

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    try:
        client = RemoteLlmClient(base_url=f"http://127.0.0.1:{port}", model="m")
        ctx = make_transcript([("u", "ping", "user")])
        with pytest.raises(LlmTimeout):
            client.generate("", ctx)
    finally:
        listener.close()
