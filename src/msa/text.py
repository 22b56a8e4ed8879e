"""Text helpers shared by drift detection, context rules, annotation, cue tables and the stub client.

Both token helpers read one normalization of the text (lowercased, ASCII
punctuation stripped), so ``content_tokens`` is exactly the set of
``tokenize``'s tokens of four or more characters.
"""

from __future__ import annotations

import re

# string.punctuation, written out: the CLI's set-up imports this module
# (through gcode.inference), and loading `string` cost it about 1 ms
_PUNCT_TABLE = str.maketrans("", "", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
_CONTENT_TOKEN = re.compile(r"\S{4,}")
_EXCERPT_CHARS = 120


def _normalize(text: str) -> str:
    return text.lower().translate(_PUNCT_TABLE)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens of ``text``, lowercased with ASCII punctuation stripped."""
    return _normalize(text).split()


def content_tokens(text: str) -> set[str]:
    """Normalized tokens of at least four characters."""
    return set(_CONTENT_TOKEN.findall(_normalize(text)))


def contains_any(text: str, phrases: tuple[str, ...]) -> bool:
    """Whether ``text`` contains one of ``phrases`` as a case-sensitive substring.

    Every cue table is matched through this; a plain loop beats ``any(...)``.
    """
    for phrase in phrases:
        if phrase in text:
            return True
    return False


def excerpt(text: str) -> str:
    """``text`` if it has at most 120 characters, else its first 120 plus ``...``.

    Every quotation of one turn in another goes through this, so a reply that
    quotes the turn before it cannot grow turn by turn.
    """
    if len(text) > _EXCERPT_CHARS:
        return text[:_EXCERPT_CHARS] + "..."
    return text
