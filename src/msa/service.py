"""Minimal threaded HTTP surface over the engine.

Endpoints:
    POST /generate_with_speaker_module  {"prompt", "speaker_module"} -> {"output"}
    POST /annotate                      transcript turns -> score card
    POST /analyze_graph                 graph JSON -> loops and drift summary
    GET  /health                        {"status": "ok"}

/generate_with_speaker_module is the simulation shell's core endpoint; the
other three are auxiliary tooling. Validation failures return a 4xx with a
structured body {"code", "message"} (plus "detail" when available), where the
code is the error class name, e.g. UnknownValue, DuplicateDimension,
MalformedJson, UnknownKey.

The service holds no mutable state: every request is handled from scratch,
so the threading server is safe.
"""

from __future__ import annotations

import json
import sys
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import takewhile

from .dialogue.llm import LlmClient
from .dialogue.transcript import DialogueTurn, Transcript
from .errors import GraphTooLarge, InvalidRequest, MalformedJson, MsaError
from .gcode.registry import load_registry
from .gcode.tags import build_prompt_directives, speaker_module_from_obj
from .jsonio import MAX_BODY_BYTES, parse_json
from .msl.cycles import cyclic_components, detect_closed_loops
from .msl.graph import ResponsibilityGraph, detect_partial_drift
from .scoring.report import annotate_transcript, scorecard_json


def analyze_graph_report(graph: ResponsibilityGraph) -> dict[str, object]:
    """Loop and drift summary shared by the CLI and the HTTP endpoint.

    When detect_closed_loops refuses the graph as too large, this degrades to
    naming the cyclic strongly connected components instead of the loops.
    """
    report: dict[str, object] = {}
    try:
        loops = detect_closed_loops(graph)
    except GraphTooLarge:
        report["loops"] = None
        report["self_retention"] = None
        report["cyclic_components"] = sorted(sorted(c) for c in cyclic_components(graph))
        report["exhaustive"] = False
    else:
        report["loops"] = loops  # already by length, then by nodes
        self_loops = takewhile(lambda loop: len(loop) == 1, loops)  # the length-1 bucket leads
        report["self_retention"] = [loop[0] for loop in self_loops]
        report["exhaustive"] = True
    report["partial_drift"] = sorted(detect_partial_drift(graph))
    return report


def generate_output(
    prompt: str,
    speaker_module: object,
    llm: LlmClient,
    registry: object,
) -> dict[str, str]:
    """The reply to ``prompt`` under ``speaker_module``. ``registry`` is unread, since
    ``GCodeTag`` checks each tag itself; ROADMAP item 10 removes the parameter."""
    if not isinstance(prompt, str) or not prompt.strip():
        raise InvalidRequest("prompt must be a non-empty string")
    config = speaker_module_from_obj(speaker_module)
    directives = build_prompt_directives(config)
    context = Transcript(
        turns=(DialogueTurn(speaker="user", text=prompt, turn_role="user", index=0),)
    )
    return {"output": llm.generate(directives, context)}


class MsaHttpServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], llm: LlmClient) -> None:
        self.llm = llm
        super().__init__(address, MsaRequestHandler)


class MsaRequestHandler(BaseHTTPRequestHandler):
    server: MsaHttpServer
    protocol_version = "HTTP/1.1"
    timeout = 10  # seconds a socket read or write may stall before the connection is dropped
    # TCP_NODELAY: the headers and the body go out as two writes, and Nagle's algorithm
    # would hold the body until the client's delayed ACK, about 40 ms per kept-alive request
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # keep test output quiet; operators can wrap serve() for logging

    def _send(self, status: int, body: dict[str, object] | bytes) -> None:
        """Reply with ``body``: bytes as they are, a dict as one line of JSON.

        The reply says ``Connection: close`` exactly when the connection closes after it.
        """
        if isinstance(body, dict):
            body = (json.dumps(body, ensure_ascii=False) + "\n").encode("utf-8")
        self.send_response(status)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Answer http.server's own refusals (400, 414, 431, 501, 505) as structured JSON.

        The code is the status phrase without spaces or punctuation, e.g.
        NotImplemented. The request was not read to its end, so the
        connection closes after the reply.
        """
        self.request_version = "HTTP/1.1"  # a line with no valid version would get the HTTP/0.9 form
        phrase = HTTPStatus(code).phrase
        payload = {"code": "".join(filter(str.isalnum, phrase)), "message": message or phrase}
        self.close_connection = True
        self._send(code, payload)

    def _read_body(self) -> object:
        """The JSON body, or None for a GET, which must declare none: the one framing check.

        A missing Content-Length means no body; an empty one is refused.
        """
        declared = self.headers.get("Content-Length", "0").strip()
        encoded = "Transfer-Encoding" in self.headers
        repeated = len(self.headers.get_all("Content-Length", ())) > 1
        refusal = None
        if self.command == "GET" and (encoded or declared.lstrip("0")) and not repeated:
            refusal = f"GET {self.path} takes no body"
        elif encoded or repeated:
            refusal = "send one Content-Length and no Transfer-Encoding"
        elif not (declared.isascii() and declared.isdigit()):
            refusal = f"Content-Length must be a non-negative integer: {declared!r}"
        elif int(declared) > MAX_BODY_BYTES:
            refusal = f"body exceeds {MAX_BODY_BYTES} bytes"
        if refusal:
            self.close_connection = True  # the unread body must not parse as the next request
            raise InvalidRequest(refusal)
        if self.command == "GET":
            return None
        length = int(declared)
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # the rest of the body may still arrive
            raise InvalidRequest(
                f"body shorter than its Content-Length of {length}: no data for {self.timeout} s"
            ) from None
        if not raw:
            raise MalformedJson("empty request body")
        return parse_json(raw, "")

    def do_POST(self) -> None:
        route = f"{self.command} {self.path}"
        try:
            body = self._read_body()
            if route == "POST /generate_with_speaker_module":
                if not isinstance(body, dict):
                    raise InvalidRequest("request body must be a JSON object")
                if "speaker_module" not in body:
                    raise InvalidRequest("request needs a 'speaker_module' field")
                payload = generate_output(
                    body.get("prompt", ""),
                    body["speaker_module"],
                    self.server.llm,
                    load_registry(),
                )
                self._send(200, payload)
            elif route == "POST /annotate":
                if not isinstance(body, dict) or "turns" not in body:
                    raise InvalidRequest("request needs a 'turns' array")
                turns = body["turns"]
                if not isinstance(turns, list):
                    raise InvalidRequest("'turns' must be an array")
                transcript = Transcript.from_dicts(turns)
                card = annotate_transcript(transcript)
                self._send(200, scorecard_json(card).encode("utf-8"))
            elif route == "POST /analyze_graph":
                graph = ResponsibilityGraph.from_dict(body)
                self._send(200, analyze_graph_report(graph))
            elif route == "GET /health":
                self._send(200, {"status": "ok"})
            else:
                self._send(404, {"code": "NotFound", "message": f"no route for {route}"})
        except MsaError as exc:
            self._send(exc.http_status, {"code": exc.code, "message": str(exc)})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send(500, {"code": "InternalError", "message": str(exc)})

    do_GET = do_POST  # one request path: GET runs the same framing check and dispatch


def serve(host: str, port: int, llm: LlmClient) -> None:
    """Bind, name the bound port on stderr (port 0 picks one), and run until interrupted."""
    server = MsaHttpServer((host, port), llm)
    print(f"listening on http://{host}:{server.server_address[1]}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
