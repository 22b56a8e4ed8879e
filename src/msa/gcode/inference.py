"""Tag inference from dialogue context, driven by the ``INFERENCE_CUES`` table.

Each cue row names phrases and the tag they set. Every row whose phrases the
final turn of the context contains sets its tag, in table order, so a later
row wins over an earlier one on the same dimension. Inference never removes a
dimension already present in the previous configuration.

The one shipped cue maps interrogative final turns to TONE=NEUTRAL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import EmptyContext
from ..text import contains_any
from .registry import Dimension
from .tags import GCodeTag, SpeakerModuleConfig

if TYPE_CHECKING:
    from ..dialogue.transcript import Transcript

# (phrases, dimension, value) rows, matched through ``contains_any``; every
# value is registered for its dimension.
INFERENCE_CUES: tuple[tuple[tuple[str, ...], Dimension, str], ...] = (
    (("?",), Dimension.TONE, "NEUTRAL"),
)


def default_inference_rules() -> tuple[tuple[tuple[str, ...], Dimension, str], ...]:
    """The cue rows ``infer_tags`` applies, in order."""
    return INFERENCE_CUES


def infer_tags(context: "Transcript", prev: SpeakerModuleConfig) -> SpeakerModuleConfig:
    """Derive the next tag configuration from context.

    Starts from ``prev`` and applies every matching cue, in order, against
    the text of the final turn. Raises EmptyContext when there is no turn to
    inspect.
    """
    if not context.turns:
        raise EmptyContext("tag inference needs at least one turn of context")
    last_text = context.turns[-1].text
    config = prev
    for phrases, dimension, value in default_inference_rules():
        if contains_any(last_text, phrases):
            config = config.with_tag(GCodeTag(dimension=dimension, value=value))
    return config
