"""The tag language's one table: the six dimensions, their prefixes and their values.

``Dimension`` lists the control dimensions in canonical serialization order.
Each has one surface prefix and a closed set of values, 19 in all, which
``GCodeTag`` checks every tag against.
"""

from __future__ import annotations

from enum import Enum


class Dimension(Enum):
    """Closed set of control dimensions; a value is its keyed-object JSON key."""

    TONE = "tone"
    POSITION = "position"
    CLOSURE = "closure"
    CONTEXT_ALIGNMENT = "context_alignment"
    LOGICAL_FLOW = "logical_flow"
    AFFECTIVE_TENSION = "affective_tension"

    @property
    def prefix(self) -> str:
        """Surface prefix used by the ``#<PREFIX>_<VALUE>`` form."""
        return _TABLE[self][0]


# dimension: (surface prefix, permitted values), in canonical order
_TABLE = {
    Dimension.TONE: ("T", ("NEUTRAL", "ASSERTIVE", "SOFTASSERT", "HIGHASSERT")),
    Dimension.POSITION: ("P", ("SELFREF", "DETACH", "SHADOW")),
    Dimension.CLOSURE: ("C", ("LOOP", "CUT", "SINK")),
    Dimension.CONTEXT_ALIGNMENT: ("CTX", ("MIRROR", "MERGE", "STANDALONE")),
    Dimension.LOGICAL_FLOW: ("L", ("CASCADE", "PIVOT", "SCATTER")),
    Dimension.AFFECTIVE_TENSION: ("E", ("FLAT", "TIGHT", "DRIFT")),
}

DIMENSION_ORDER: tuple[Dimension, ...] = tuple(Dimension)
VOCABULARY: dict[Dimension, tuple[str, ...]] = {dim: values for dim, (_, values) in _TABLE.items()}
# the prefixes are distinct, so both lookups are total
DIMENSION_BY_PREFIX = {prefix: dim for dim, (prefix, _) in _TABLE.items()}
DIMENSION_BY_KEY = {dim.value: dim for dim in Dimension}


def load_registry() -> dict[Dimension, tuple[str, ...]]:
    """The vocabulary ``GCodeTag`` checks against: ``VOCABULARY`` itself."""
    return VOCABULARY
