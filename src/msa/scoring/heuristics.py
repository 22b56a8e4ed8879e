"""Mechanical scoring: the coarse heuristic triple and advisory annotation.

heuristic_score reproduces the reference arithmetic exactly: speaker
alternation gives role continuity 9 or 5, the count of turns containing a
commitment phrase maps through >=3 / ==2 / else to 9 / 7 / 5, and context
integrity is max(1, 9 - 2 * short_turns) where a short turn has fewer than
three whitespace tokens.

auto_annotate is a best-effort lexical realization of the rubric guidelines.
It produces sub-scores, each with the fixed confidence in CONFIDENCE, and is
advisory only. It does not claim to replicate human annotation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from ..errors import EmptyContext
from ..text import content_tokens
from ..dialogue.commitments import DEFAULT_PATTERNS_TRANSFER, mentions_commitment
from ..dialogue.roles import classify_role
from .rubric import SubScores

if TYPE_CHECKING:
    from ..dialogue.transcript import Transcript


@dataclass(frozen=True)
class HeuristicScores:
    role_continuity: int
    responsibility_trace: int
    context_integrity: int

    def to_dict(self) -> dict[str, int]:
        return {
            "role_continuity": self.role_continuity,
            "responsibility_trace": self.responsibility_trace,
            "context_integrity": self.context_integrity,
        }


def heuristic_score(dialog: "Transcript") -> HeuristicScores:
    """Coarse 0-9 triple from surface features alone."""
    turns = dialog.turns
    if not turns:
        raise EmptyContext("heuristic scoring needs at least one turn")

    alternating = all(
        turns[i].speaker != turns[i + 1].speaker for i in range(len(turns) - 1)
    )
    commits = sum(1 for turn in turns if mentions_commitment(turn.text))
    drifts = sum(1 for turn in turns if len(turn.text.split()) < 3)

    return HeuristicScores(
        role_continuity=9 if alternating else 5,
        responsibility_trace=9 if commits >= 3 else 7 if commits == 2 else 5,
        context_integrity=max(1, 9 - 2 * drifts),
    )


# --- advisory annotation ---

CASUAL_MARKERS = ("lol", "haha", "lmao", "dunno", "meme", "idk", "!!")
BLUR_MARKERS = ("lol", "i guess", "kinda", "sort of", "dunno", "or something", "idk")
ATTRIBUTION_MARKERS = ("you should", "you must", "no one is willing")
CONTINUITY_MARKERS = ("as you said", "you promised", "i still", "as we discussed", "as i said")
TRANSFER_MARKERS = tuple(p.lower() for p in DEFAULT_PATTERNS_TRANSFER) + (
    "i leave that to", "over to you", "your turn"
)
EVASIVE_MARKERS = ("whatever", "not my problem", "who cares", "let's talk about", "anyway")
MIRROR_MARKERS = ("i see your point", "i follow", "let me add", "you're right", "i agree",
                  "as you say", "good point")
REPAIR_MARKERS = ("we're off", "off topic", "off-topic", "not quite what i",
                  "let me rephrase", "to clarify", "wait,")


# One alternation per marker family, in _TurnFeatures flag order; every
# marker matches as a literal substring of the lowered text.
_MARKER_REGEXES = tuple(
    re.compile("|".join(map(re.escape, markers)))
    for markers in (CASUAL_MARKERS, BLUR_MARKERS, ATTRIBUTION_MARKERS, CONTINUITY_MARKERS,
                    TRANSFER_MARKERS, EVASIVE_MARKERS, MIRROR_MARKERS, REPAIR_MARKERS)
)

# Fixed confidence per sub-dimension. These are crude lexical proxies and the
# numbers say so.
CONFIDENCE = {
    "P1": 0.4, "P2": 0.3, "P3": 0.5, "P4": 0.5,
    "R1": 0.6, "R2": 0.3, "R3": 0.3, "R4": 0.3,
    "C1": 0.6, "C2": 0.4, "C3": 0.3, "C4": 0.3,
}


class _TurnFeatures(NamedTuple):
    """Everything the sub-scores read from one turn."""

    speaker: str
    text: str
    tokens: set[str]
    short: bool  # fewer than three raw tokens
    first_person: bool
    casual: bool
    blur: bool
    attribution: bool
    continuity: bool
    transfer: bool
    evasive: bool
    mirror: bool
    repair: bool


def auto_annotate(transcript: "Transcript") -> SubScores:
    """Lexical sub-score estimate; CONFIDENCE says how far to trust each one.

    Advisory only. See the comments above each block for what each
    sub-dimension actually measures here. Each turn is lowered, tokenized,
    split and matched against every marker family once; the blocks read
    those features only.
    """
    turns = transcript.turns
    if not turns:
        raise EmptyContext("annotation needs at least one turn")
    n = len(turns)
    rows = []
    for t in turns:
        text, lowered, words = t.text, t.text.lower(), t.text.split()
        first_person = ("I" in words or text.startswith("I ") or " I'" in text
                        or text.startswith("I'"))
        rows.append(_TurnFeatures(
            t.speaker, text, content_tokens(text), len(words) < 3, first_person,
            *[rx.search(lowered) is not None for rx in _MARKER_REGEXES]))
    pairs = list(zip(rows, rows[1:]))
    overlaps = [not a.tokens.isdisjoint(b.tokens) for a, b in pairs]

    # P1: style flips between casual and sober adjacent turns
    flips = sum(1 for a, b in pairs if a.casual != b.casual)
    p1 = 2 if flips == 0 else 1 if flips == 1 else 0

    # P2: stability of cue-inferred pragmatic roles
    inferred = [classify_role(r.text) for r in rows]
    if n == 1:
        p2 = 2
    else:
        shift_frac = sum(1 for a, b in zip(inferred, inferred[1:]) if a != b) / (n - 1)
        p2 = 2 if shift_frac <= 1 / 3 else 1 if shift_frac <= 2 / 3 else 0

    # P3: fragment share; a fragment is under three raw tokens or lacks
    # terminal punctuation
    fragments = sum(
        1 for r in rows if r.short or r.text.rstrip()[-1:] not in (".", "?", "!", "…")
    )
    frag_ratio = fragments / n
    p3 = 2 if fragments == 0 else 1 if frag_ratio <= 0.25 else 0

    # P4: register-blurring markers
    blur_turns = sum(1 for r in rows if r.blur)
    p4 = 3 if blur_turns == 0 else 2 if blur_turns == 1 else 1 if blur_turns == 2 else 0

    # R1: first or second person attribution
    attributing = sum(1 for r in rows if r.first_person or r.attribution)
    r1 = 2 if attributing >= 3 else 1 if attributing >= 1 else 0

    # R2: explicit continuity markers, or reuse of one's own earlier content
    marker_r2 = sum(1 for r in rows if r.continuity)
    marker_score = 2 if marker_r2 >= 2 else 1 if marker_r2 == 1 else 0
    reuse_hits = 0
    reuse_total = 0
    vocab_by_speaker: dict[str, set[str]] = {}
    for r in rows:
        if r.speaker in vocab_by_speaker:
            reuse_total += 1
            if not r.tokens.isdisjoint(vocab_by_speaker[r.speaker]):
                reuse_hits += 1
            vocab_by_speaker[r.speaker] |= r.tokens
        else:
            vocab_by_speaker[r.speaker] = set(r.tokens)
    reuse_frac = reuse_hits / reuse_total if reuse_total else 0.0
    reuse_score = 2 if reuse_frac >= 0.6 else 1 if reuse_frac >= 0.3 else 0
    r2 = max(marker_score, reuse_score)

    # R3: explicit handoff phrasing beats silence; repeated evasion scores zero
    evasive_turns = sum(1 for r in rows if r.evasive)
    if any(r.transfer for r in rows):
        r3 = 2
    elif evasive_turns >= 2:
        r3 = 0
    else:
        r3 = 1

    # R4: how the dialogue ends
    final = rows[-1]
    if final.short:
        r4 = 0
    elif final.evasive or final.blur:
        r4 = 1
    elif "?" in final.text:
        r4 = 1
    elif final.first_person:
        r4 = 3
    else:
        r4 = 2

    # C1: adjacent-turn content overlap
    if not pairs:
        c1 = 2
        overlap_frac = 1.0
    else:
        overlap_frac = sum(overlaps) / len(pairs)
        c1 = 2 if overlap_frac >= 0.6 else 1 if overlap_frac >= 0.3 else 0

    # C2: mirroring markers or echo of the other side's previous turn
    marker_c2 = sum(1 for r in rows if r.mirror)
    marker_score = 2 if marker_c2 >= 2 else 1 if marker_c2 == 1 else 0
    echo_hits = sum(
        1 for (a, b), overlap in zip(pairs, overlaps) if overlap and a.speaker != b.speaker
    )
    echo_frac = echo_hits / len(pairs) if pairs else 0.0
    echo_score = 2 if echo_frac >= 0.5 else 1 if echo_frac >= 0.25 else 0
    c2 = max(marker_score, echo_score)

    # C3: repair when drifting, quiet stability otherwise
    if any(r.repair for r in rows):
        c3 = 2
    elif overlap_frac >= 0.3:
        c3 = 1
    else:
        c3 = 0

    # C4: shared content vocabulary across speakers (R2's per-speaker unions)
    if len(vocab_by_speaker) < 2:
        c4 = 0
    else:
        vocabularies = list(vocab_by_speaker.values())
        shared = set.intersection(*vocabularies)
        union = set.union(*vocabularies)
        jaccard = len(shared) / len(union) if union else 0.0
        c4 = 3 if jaccard >= 0.12 else 2 if jaccard >= 0.06 else 1 if jaccard >= 0.02 else 0

    return SubScores(
        pragmatic=(p1, p2, p3, p4),
        responsibility=(r1, r2, r3, r4),
        context=(c1, c2, c3, c4),
    )
