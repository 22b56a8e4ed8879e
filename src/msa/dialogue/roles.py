"""Turn-role alternation and the pragmatic-role cue table."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .commitments import DEFAULT_PATTERNS_TRANSFER
from .transcript import PragmaticRole

if TYPE_CHECKING:
    from .transcript import Transcript

# (phrases, role) pairs, first match wins; a text matching none is an
# information provider. Phrases match as case-sensitive substrings.
ROLE_CUES = (
    (("?",), PragmaticRole.CLARIFIER),
    (
        ("I will", "I'll handle", "I shall", "I promise", "I can take"),
        PragmaticRole.RESPONSIBILITY_ACCEPTOR,
    ),
    (
        ("you should", "you must", "you need to", *DEFAULT_PATTERNS_TRANSFER, "please "),
        PragmaticRole.RESPONSIBILITY_DELEGATOR,
    ),
)


def classify_role(text: str) -> PragmaticRole:
    for phrases, role in ROLE_CUES:
        for phrase in phrases:
            if phrase in text:
                return role
    return PragmaticRole.INFORMATION_PROVIDER


def assign_role(context: "Transcript") -> tuple[str, PragmaticRole]:
    """Role pair for the next reply.

    The turn role alternates off the final turn of the context. With no
    context the alternation seed behaves like a system turn, so the first
    assigned slot is ``user``. The pragmatic role is the first cue in
    ``ROLE_CUES`` that the final turn's text matches.
    """
    last_role = context.turns[-1].turn_role if context.turns else "system"
    turn_role = "assistant" if last_role == "user" else "user"
    if not context.turns:
        return turn_role, PragmaticRole.INFORMATION_PROVIDER
    return turn_role, classify_role(context.turns[-1].text)
