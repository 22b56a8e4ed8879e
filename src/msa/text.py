"""Token helpers shared by drift detection, context rules, and annotation.

Both helpers read one normalization of the text (lowercased, ASCII
punctuation stripped), so ``content_tokens`` is exactly the set of
``tokenize``'s tokens of four or more characters.
"""

from __future__ import annotations

import re
import string

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_CONTENT_TOKEN = re.compile(r"\S{4,}")


def _normalize(text: str) -> str:
    return text.lower().translate(_PUNCT_TABLE)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens of ``text``, lowercased with ASCII punctuation stripped."""
    return _normalize(text).split()


def content_tokens(text: str) -> set[str]:
    """Normalized tokens of at least four characters."""
    return set(_CONTENT_TOKEN.findall(_normalize(text)))
