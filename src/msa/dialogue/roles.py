"""Turn-role alternation and declarative pragmatic-role policies."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .commitments import DEFAULT_PATTERNS_TRANSFER
from .transcript import PragmaticRole

if TYPE_CHECKING:
    from .transcript import Transcript


@dataclass(frozen=True)
class RoleRule:
    """First-match keyword rule: ``kind`` is contains_char or contains_phrase."""

    kind: str
    args: tuple[str, ...]
    role: PragmaticRole

    def matches(self, text: str) -> bool:
        if self.kind == "contains_char":
            return any(ch in text for ch in self.args)
        return any(phrase in text for phrase in self.args)


@dataclass(frozen=True)
class RolePolicy:
    rules: tuple[RoleRule, ...]
    default: PragmaticRole = PragmaticRole.INFORMATION_PROVIDER

    def classify(self, text: str) -> PragmaticRole:
        for rule in self.rules:
            if rule.matches(text):
                return rule.role
        return self.default


DEFAULT_ROLE_POLICY = RolePolicy(
    rules=(
        RoleRule(kind="contains_char", args=("?",), role=PragmaticRole.CLARIFIER),
        RoleRule(
            kind="contains_phrase",
            args=("I will", "I'll handle", "I shall", "I promise", "I can take"),
            role=PragmaticRole.RESPONSIBILITY_ACCEPTOR,
        ),
        RoleRule(
            kind="contains_phrase",
            args=("you should", "you must", "you need to", *DEFAULT_PATTERNS_TRANSFER, "please "),
            role=PragmaticRole.RESPONSIBILITY_DELEGATOR,
        ),
    ),
)


def assign_role(
    context: "Transcript", policy: RolePolicy = DEFAULT_ROLE_POLICY
) -> tuple[str, PragmaticRole]:
    """Role pair for the next reply.

    The turn role alternates off the final turn of the context. With no
    context the alternation seed behaves like a system turn, so the first
    assigned slot is ``user``. The pragmatic role comes from the first
    matching policy rule applied to the final turn's text.
    """
    last_role = context.turns[-1].turn_role if context.turns else "system"
    turn_role = "assistant" if last_role == "user" else "user"
    if not context.turns:
        return turn_role, policy.default
    return turn_role, policy.classify(context.turns[-1].text)


class TransitionVerdict(Enum):
    SMOOTH = "smooth"
    FLAGGED = "flagged"


def monitor_role_transition(
    prev: PragmaticRole, next_role: PragmaticRole, cause: str | None = None
) -> TransitionVerdict:
    """A role change without a recorded cause is flagged; all else is smooth."""
    if prev != next_role and not cause:
        return TransitionVerdict.FLAGGED
    return TransitionVerdict.SMOOTH
