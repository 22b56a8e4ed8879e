"""The closed tag vocabulary: the values each dimension permits.

``VOCABULARY`` holds all 19 tag values, in the canonical dimension order, the
way ``dimensions.py`` holds the prefixes. It is the one copy of the
vocabulary; the tag parsers check values against it through ``TagRegistry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dimensions import Dimension

VOCABULARY: dict[Dimension, tuple[str, ...]] = {
    Dimension.TONE: ("NEUTRAL", "ASSERTIVE", "SOFTASSERT", "HIGHASSERT"),
    Dimension.POSITION: ("SELFREF", "DETACH", "SHADOW"),
    Dimension.CLOSURE: ("LOOP", "CUT", "SINK"),
    Dimension.CONTEXT_ALIGNMENT: ("MIRROR", "MERGE", "STANDALONE"),
    Dimension.LOGICAL_FLOW: ("CASCADE", "PIVOT", "SCATTER"),
    Dimension.AFFECTIVE_TENSION: ("FLAT", "TIGHT", "DRIFT"),
}


@dataclass(frozen=True)
class TagRegistry:
    """Immutable vocabulary: permitted values per dimension."""

    vocab: Mapping[Dimension, frozenset[str]]

    def is_registered(self, dimension: Dimension, value: str) -> bool:
        return value in self.vocab[dimension]


_REGISTRY = TagRegistry(vocab={dim: frozenset(values) for dim, values in VOCABULARY.items()})


def load_registry() -> TagRegistry:
    """The registry over ``VOCABULARY``, built once at import."""
    return _REGISTRY
