"""Language-model clients behind one small protocol.

generate() takes the compiled directive string and the running context and
returns the reply text. The stub client is fully deterministic and is what
tests and offline simulation use. The remote client speaks a minimal
JSON-over-HTTP contract and is configured from the environment:

    MSA_LLM_BASE_URL   endpoint receiving POST requests (required)
    MSA_LLM_MODEL      model name forwarded in the payload
    MSA_LLM_TOKEN      bearer token, sent when present

Request body: {"model": ..., "directives": ..., "messages": [{"role",
"content"}, ...]}. Expected response body: {"output": "..."}; a reply that
is not a JSON object, or has a missing or empty "output", is LlmUnavailable,
and so is one longer than MAX_BODY_BYTES, which is not read past that size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Protocol, TYPE_CHECKING

from ..errors import InvalidRequest, LlmTimeout, LlmUnavailable, MalformedJson
from ..jsonio import MAX_BODY_BYTES, parse_json
from ..text import excerpt

if TYPE_CHECKING:
    from .transcript import Transcript

ENV_BASE_URL = "MSA_LLM_BASE_URL"
ENV_MODEL = "MSA_LLM_MODEL"
ENV_TOKEN = "MSA_LLM_TOKEN"

TIMEOUT_S = 30.0  # seconds each attempt may wait on the backend
RETRIES = 2  # attempts after the first


class LlmClient(Protocol):
    def generate(self, directives: str, context: "Transcript") -> str: ...


@dataclass(frozen=True)
class StubLlmClient:
    """Deterministic echo client; same inputs give byte-identical output.

    The reply quotes the last turn through ``excerpt``, so its length is bounded.
    """

    def generate(self, directives: str, context: "Transcript") -> str:
        last = excerpt(context.turns[-1].text) if context.turns else ""
        return f"<ECHO directives='{directives}' last='{last}'>"


@dataclass(frozen=True)
class RemoteLlmClient:
    base_url: str
    model: str
    token: str | None = None

    @classmethod
    def from_env(cls) -> "RemoteLlmClient":
        base_url = os.environ.get(ENV_BASE_URL, "")
        if not base_url:
            raise InvalidRequest(f"{ENV_BASE_URL} is not set")
        return cls(
            base_url=base_url,
            model=os.environ.get(ENV_MODEL, "default"),
            token=os.environ.get(ENV_TOKEN) or None,
        )

    def generate(self, directives: str, context: "Transcript") -> str:
        # imported here, so that a process with no remote backend never loads urllib.request
        # and the hashlib it pulls in, about 1 MiB of resident memory
        import urllib.error
        import urllib.request

        payload = json.dumps(
            {
                "model": self.model,
                "directives": directives,
                "messages": [
                    {"role": turn.turn_role, "content": turn.text} for turn in context.turns
                ],
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"

        last_error: Exception | None = None
        timed_out = False
        for _ in range(RETRIES + 1):
            request = urllib.request.Request(self.base_url, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                    raw = response.read(MAX_BODY_BYTES + 1)
                    if len(raw) > MAX_BODY_BYTES:
                        raise LlmUnavailable(f"backend reply exceeds {MAX_BODY_BYTES} bytes")
                    body = parse_json(raw, "")
                    output = body.get("output") if isinstance(body, dict) else None
                    if not isinstance(output, str) or not output:
                        raise LlmUnavailable(f"backend returned no 'output' text: {body!r}")
                    return output
            except TimeoutError as exc:
                last_error, timed_out = exc, True
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, TimeoutError):
                    timed_out = True
                last_error = exc
            except (OSError, ValueError, MalformedJson) as exc:
                last_error = exc
        if timed_out:
            raise LlmTimeout(f"no reply from {self.base_url} in {TIMEOUT_S}s") from last_error
        raise LlmUnavailable(f"{self.base_url} unreachable: {last_error}") from last_error


def client_from_name(name: str) -> LlmClient:
    """Resolve 'stub' or 'remote' to a configured client."""
    if name == "stub":
        return StubLlmClient()
    if name == "remote":
        return RemoteLlmClient.from_env()
    raise InvalidRequest(f"unknown llm client {name!r} (expected 'stub' or 'remote')")
