"""Token helpers shared by drift detection, context rules, and annotation."""

from __future__ import annotations

import string

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens of ``text``, lowercased with ASCII punctuation stripped."""
    return text.lower().translate(_PUNCT_TABLE).split()


def content_tokens(text: str) -> set[str]:
    """Normalized tokens of at least four characters."""
    return {tok for tok in tokenize(text) if len(tok) >= 4}
