"""The one JSON decoder for documents the program reads.

Every file, request body and backend reply goes through ``parse_json``, so
each failure a decode can raise becomes the same structured error.
"""

from __future__ import annotations

import json

from .errors import MalformedJson


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not a JSON value")


# json accepts NaN, Infinity and -Infinity by default; JSON itself does not
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(data: str | bytes, source: str) -> object:
    """Decode one JSON document; bytes must be UTF-8.

    A document that is not UTF-8, is not JSON (``NaN``, ``Infinity`` and
    ``-Infinity`` included), or nests deeper than the decoder's recursion
    limit raises MalformedJson. The message starts with ``source`` (a path,
    or ``path:line``) unless it is empty.
    """
    try:
        return _DECODER.decode(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise MalformedJson(f"{source}: {exc}" if source else str(exc)) from exc
