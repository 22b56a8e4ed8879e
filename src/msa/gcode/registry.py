"""The closed tag vocabulary: the values each dimension permits.

``VOCABULARY`` holds all 19 tag values, in the canonical dimension order, the
way ``dimensions.py`` holds the prefixes. It is the one copy of the
vocabulary; the tag parsers check values against it.
"""

from __future__ import annotations

from .dimensions import Dimension

VOCABULARY: dict[Dimension, tuple[str, ...]] = {
    Dimension.TONE: ("NEUTRAL", "ASSERTIVE", "SOFTASSERT", "HIGHASSERT"),
    Dimension.POSITION: ("SELFREF", "DETACH", "SHADOW"),
    Dimension.CLOSURE: ("LOOP", "CUT", "SINK"),
    Dimension.CONTEXT_ALIGNMENT: ("MIRROR", "MERGE", "STANDALONE"),
    Dimension.LOGICAL_FLOW: ("CASCADE", "PIVOT", "SCATTER"),
    Dimension.AFFECTIVE_TENSION: ("FLAT", "TIGHT", "DRIFT"),
}


def load_registry() -> dict[Dimension, tuple[str, ...]]:
    """The vocabulary the tag parsers check against: ``VOCABULARY`` itself."""
    return VOCABULARY
