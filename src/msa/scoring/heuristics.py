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

from dataclasses import asdict, dataclass
from operator import add
from typing import TYPE_CHECKING

from ..errors import EmptyContext
from ..text import contains_any, content_tokens
from ..dialogue.commitments import DEFAULT_PATTERNS_COMMIT, DEFAULT_PATTERNS_TRANSFER
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
        return asdict(self)


def heuristic_score(dialog: "Transcript") -> HeuristicScores:
    """Coarse 0-9 triple from surface features alone."""
    turns = dialog.turns
    if not turns:
        raise EmptyContext("heuristic scoring needs at least one turn")

    alternating = all(
        turns[i].speaker != turns[i + 1].speaker for i in range(len(turns) - 1)
    )
    commits = sum(1 for turn in turns if contains_any(turn.text, DEFAULT_PATTERNS_COMMIT))
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


# The marker families in the order auto_annotate unpacks its matches. Each
# family is one contains_any over the lowered text, so a marker matches as a
# literal substring and a turn costs O(marker phrases): 45 in 8 families.
_MARKER_FAMILIES = (CASUAL_MARKERS, BLUR_MARKERS, ATTRIBUTION_MARKERS, CONTINUITY_MARKERS,
                    TRANSFER_MARKERS, EVASIVE_MARKERS, MIRROR_MARKERS, REPAIR_MARKERS)

# Fixed confidence per sub-dimension. These are crude lexical proxies and the
# numbers say so.
CONFIDENCE = {
    "P1": 0.4, "P2": 0.3, "P3": 0.5, "P4": 0.5,
    "R1": 0.6, "R2": 0.3, "R3": 0.3, "R4": 0.3,
    "C1": 0.6, "C2": 0.4, "C3": 0.3, "C4": 0.3,
}


def auto_annotate(transcript: "Transcript") -> SubScores:
    """Lexical sub-score estimate; CONFIDENCE says how far to trust each one.

    Advisory only. See the comments above each block for what each
    sub-dimension actually measures here. One pass lowers, tokenizes, splits
    and matches every marker family once per turn, and keeps only running
    counts, the previous turn and each speaker's content vocabulary, so its
    memory grows with distinct content tokens, not with turns.
    """
    turns = transcript.turns
    if not turns:
        raise EmptyContext("annotation needs at least one turn")
    n = len(turns)
    marked = [0] * len(_MARKER_FAMILIES)  # turns matching each marker family
    flips = shifts = fragments = attributing = overlaps = echoes = 0
    reuse_hits = reuse_total = 0
    vocab_by_speaker: dict[str, set[str]] = {}
    prev = None  # the previous turn's speaker, tokens, casual flag and inferred role
    for t in turns:
        text, lowered, words = t.text, t.text.lower(), t.text.split()
        tokens = content_tokens(text)
        role = classify_role(text)
        short = len(words) < 3
        first_person = ("I" in words or text.startswith("I ") or " I'" in text
                        or text.startswith("I'"))
        matches = [contains_any(lowered, family) for family in _MARKER_FAMILIES]
        marked = list(map(add, marked, matches))
        casual, blur, attribution, _, _, evasive, _, _ = matches
        if prev is not None:
            prev_speaker, prev_tokens, prev_casual, prev_role = prev
            overlap = not prev_tokens.isdisjoint(tokens)
            flips += prev_casual != casual
            shifts += prev_role != role
            overlaps += overlap
            echoes += overlap and prev_speaker != t.speaker
        prev = (t.speaker, tokens, casual, role)
        fragments += short or text.rstrip()[-1:] not in (".", "?", "!", "…")
        attributing += first_person or attribution
        vocabulary = vocab_by_speaker.get(t.speaker)
        if vocabulary is None:
            vocab_by_speaker[t.speaker] = set(tokens)
        else:
            reuse_total += 1
            reuse_hits += not tokens.isdisjoint(vocabulary)
            vocabulary |= tokens
    _, blur_turns, _, marker_r2, transfer_turns, evasive_turns, marker_c2, repair_turns = marked

    # P1: style flips between casual and sober adjacent turns
    p1 = 2 if flips == 0 else 1 if flips == 1 else 0

    # P2: stability of cue-inferred pragmatic roles
    if n == 1:
        p2 = 2
    else:
        shift_frac = shifts / (n - 1)
        p2 = 2 if shift_frac <= 1 / 3 else 1 if shift_frac <= 2 / 3 else 0

    # P3: fragment share; a fragment is under three raw tokens or lacks
    # terminal punctuation
    frag_ratio = fragments / n
    p3 = 2 if fragments == 0 else 1 if frag_ratio <= 0.25 else 0

    # P4: register-blurring markers
    p4 = 3 if blur_turns == 0 else 2 if blur_turns == 1 else 1 if blur_turns == 2 else 0

    # R1: first or second person attribution
    r1 = 2 if attributing >= 3 else 1 if attributing >= 1 else 0

    # R2: explicit continuity markers, or reuse of one's own earlier content
    marker_score = 2 if marker_r2 >= 2 else 1 if marker_r2 == 1 else 0
    reuse_frac = reuse_hits / reuse_total if reuse_total else 0.0
    reuse_score = 2 if reuse_frac >= 0.6 else 1 if reuse_frac >= 0.3 else 0
    r2 = max(marker_score, reuse_score)

    # R3: explicit handoff phrasing beats silence; repeated evasion scores zero
    if transfer_turns:
        r3 = 2
    elif evasive_turns >= 2:
        r3 = 0
    else:
        r3 = 1

    # R4: how the dialogue ends, read from the last turn's features, which
    # the loop leaves bound
    if short:
        r4 = 0
    elif evasive or blur:
        r4 = 1
    elif "?" in text:
        r4 = 1
    elif first_person:
        r4 = 3
    else:
        r4 = 2

    # C1: adjacent-turn content overlap
    if n == 1:
        c1 = 2
        overlap_frac = 1.0
    else:
        overlap_frac = overlaps / (n - 1)
        c1 = 2 if overlap_frac >= 0.6 else 1 if overlap_frac >= 0.3 else 0

    # C2: mirroring markers or echo of the other side's previous turn
    marker_score = 2 if marker_c2 >= 2 else 1 if marker_c2 == 1 else 0
    echo_frac = echoes / (n - 1) if n > 1 else 0.0
    echo_score = 2 if echo_frac >= 0.5 else 1 if echo_frac >= 0.25 else 0
    c2 = max(marker_score, echo_score)

    # C3: repair when drifting, quiet stability otherwise
    if repair_turns:
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
