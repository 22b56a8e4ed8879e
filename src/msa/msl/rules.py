"""Context constraint rules over transcripts.

Each rule applies one predicate from a closed set to every utterance, paired
with its context window. Evaluation is exhaustive and non-short-circuiting:
checking n utterances against m rules performs exactly n*m predicate
evaluations, and findings come back ordered by (utterance index, rule
position).

Predicate semantics (a finding marks an utterance that violates the rule):
    keyword-presence      text must contain ``arg`` (case-insensitive)
    keyword-absence       text must not contain ``arg``
    max-new-token-ratio   share of tokens unseen in the window must be <= arg;
                          the opening utterance is exempt
    topic-anchor-presence ``arg`` must appear in the utterance or within the
                          previous ``window`` turns
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, TYPE_CHECKING

from ..errors import MalformedJson
from ..jsonio import parse_json
from ..text import tokenize

if TYPE_CHECKING:
    from ..dialogue.transcript import Transcript

PREDICATES = (
    "keyword-presence",
    "keyword-absence",
    "max-new-token-ratio",
    "topic-anchor-presence",
)
SEVERITIES = ("warn", "violation")
DEFAULT_WINDOW = 4


@dataclass(frozen=True)
class ContextRule:
    rule_id: str
    predicate: str
    arg: str | float
    severity: str = "violation"
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if not isinstance(self.rule_id, str) or not self.rule_id:
            raise MalformedJson(f"rule_id must be a non-empty string, got {self.rule_id!r}")
        if self.predicate not in PREDICATES:
            raise MalformedJson(f"unknown predicate {self.predicate!r}")
        if self.severity not in SEVERITIES:
            raise MalformedJson(f"severity must be one of {SEVERITIES}, got {self.severity!r}")
        if self.predicate == "max-new-token-ratio":
            if not isinstance(self.arg, (int, float)) or isinstance(self.arg, bool):
                raise MalformedJson("max-new-token-ratio needs a numeric arg")
            if not abs(self.arg) <= sys.float_info.max:  # NaN, infinities and ints past float range
                raise MalformedJson(f"max-new-token-ratio needs a finite arg, got {self.arg!r}")
        elif not isinstance(self.arg, str) or not self.arg:
            raise MalformedJson(f"{self.predicate} needs a non-empty string arg")
        if type(self.window) is not int or self.window < 1:  # bool is an int subclass
            raise MalformedJson(f"window must be an integer >= 1, got {self.window!r}")


@dataclass(frozen=True)
class RuleFinding:
    rule_id: str
    utterance_index: int
    severity: str


def _holds(
    rule: ContextRule,
    i: int,
    lowered: str,
    tokens: set[str],
    last_token: dict[str, int],
    last_anchor: dict[str, int],
) -> bool:
    """Does utterance ``i`` keep ``rule``?

    ``last_token`` and ``last_anchor`` map each token and topic anchor to the
    last earlier utterance that held it, so a window test is one lookup; never
    seen is ``-inf``, outside every window.
    """
    if rule.predicate == "keyword-presence":
        return str(rule.arg).lower() in lowered
    if rule.predicate == "keyword-absence":
        return str(rule.arg).lower() not in lowered
    oldest = i - rule.window
    if rule.predicate == "max-new-token-ratio":
        if i == 0 or not tokens:
            return True
        new = sum(1 for token in tokens if last_token.get(token, -math.inf) < oldest)
        return new / len(tokens) <= float(rule.arg)
    # topic-anchor-presence
    needle = str(rule.arg).lower()
    return needle in lowered or last_anchor.get(needle, -math.inf) >= oldest


def check_context_constraints(
    transcript: "Transcript", rules: Sequence[ContextRule]
) -> list[RuleFinding]:
    """Evaluate every rule against every utterance, exactly once each.

    One pass, whatever the windows: each text is lowercased once and, when some
    rule is ``max-new-token-ratio``, tokenized once. Tokens and anchors get
    separate last-seen maps, since an anchor is a substring test (``bud-get``
    tokenizes to ``budget`` but does not contain it).
    """
    anchors = {str(r.arg).lower() for r in rules if r.predicate == "topic-anchor-presence"}
    counts_tokens = any(r.predicate == "max-new-token-ratio" for r in rules)
    last_token: dict[str, int] = {}
    last_anchor: dict[str, int] = {}
    findings: list[RuleFinding] = []
    for i, turn in enumerate(transcript.turns):
        lowered = turn.text.lower()
        tokens = set(tokenize(turn.text)) if counts_tokens else set()
        for rule in rules:
            if not _holds(rule, i, lowered, tokens, last_token, last_anchor):
                findings.append(
                    RuleFinding(rule_id=rule.rule_id, utterance_index=i, severity=rule.severity)
                )
        for token in tokens:
            last_token[token] = i
        for anchor in anchors:
            if anchor in lowered:
                last_anchor[anchor] = i
    return findings


_RULE_KEYS = tuple(field.name for field in fields(ContextRule))


def load_context_rules(path: str | Path) -> list[ContextRule]:
    """Read an ordered rules file (JSON array of rule objects).

    A rule's keys are ContextRule's fields; any other key raises MalformedJson.
    """
    raw = parse_json(Path(path).read_bytes(), str(path))
    if not isinstance(raw, list):
        raise MalformedJson("rules file must hold a JSON array")
    rules = []
    for row in raw:
        if not isinstance(row, dict):
            raise MalformedJson(f"rule must be an object, got {type(row).__name__}")
        for key in row:
            if key not in _RULE_KEYS:
                raise MalformedJson(f"unknown rule key {key!r}; keys are {', '.join(_RULE_KEYS)}")
        # a missing required key fails ContextRule's own check on the blank
        rules.append(ContextRule(**{"rule_id": "", "predicate": "", "arg": "", **row}))
    return rules
