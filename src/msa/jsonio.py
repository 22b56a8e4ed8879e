"""The one JSON decoder for documents the program reads.

Every file, request body and backend reply goes through ``parse_json``, so
each failure a decode can raise becomes the same structured error.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .errors import MalformedJson

# The most bytes read as one JSON document from a peer: a service request body, or a
# remote backend's reply
MAX_BODY_BYTES = 4 * 1024 * 1024


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not a JSON value")


def _refuse_repeated_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"repeated key {next(k for k in counts if counts[k] > 1)!r} in one object")
    return obj


# json accepts NaN, Infinity and -Infinity, and keeps the last of a repeated key;
# JSON has no such constants, and which of two values a repeated key means is unsaid
_DECODER = json.JSONDecoder(
    object_pairs_hook=_refuse_repeated_keys, parse_constant=_refuse_constant
)
# strict UTF-8 bytes hold no surrogate: only an escape, or str input, can give a lone one
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(data: str | bytes, source: str) -> object:
    """Decode one JSON document; bytes must be UTF-8.

    A document that is not UTF-8, is not JSON (``NaN``, ``Infinity`` and
    ``-Infinity`` included), repeats a key within one object, holds a lone
    surrogate (``"\\ud800"``, not a pair), or nests deeper than the decoder's
    recursion limit raises MalformedJson. The message starts with ``source``
    (a path, or ``path:line``) unless it is empty.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        obj = _DECODER.decode(text)
        if isinstance(data, str) or _SURROGATE_ESCAPE.search(text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError if lone
        return obj
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise MalformedJson(f"{source}: {exc}" if source else str(exc)) from exc
