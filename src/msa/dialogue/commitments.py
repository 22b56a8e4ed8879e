"""Commitments and the responsibility chain they form.

A commitment is live from the turn that opens it until a transfer phrase by
its holder hands it on; there is no other state and no state machine. The
fold writes the transfer turn and the new holder onto the record, and the
chain's responsibility graph is derived from those two fields. The silent
abandonment detector below only reports candidates and mutates nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..msl.graph import ResponsibilityEdge, ResponsibilityGraph
from ..text import contains_any, content_tokens
from .transcript import DialogueTurn

if TYPE_CHECKING:
    from .transcript import Transcript


@dataclass(frozen=True, slots=True)
class Commitment:
    holder: str
    text: str
    created_at: int
    transferred_at: int | None = None
    transferred_to: str | None = None

    @property
    def id(self) -> str:
        return f"c{self.created_at}"

    @property
    def is_live(self) -> bool:
        return self.transferred_at is None


# Both tables are matched through ``contains_any``. The transfer phrase comes
# from the delegation guideline.
DEFAULT_PATTERNS_COMMIT = ("I will", "will", "should")
DEFAULT_PATTERNS_TRANSFER = ("I'll leave that to",)


@dataclass(frozen=True, slots=True)
class ChainState:
    """Ordered commitments, from which the responsibility graph is derived.

    ``last_speaker`` resolves who "you" is when a transfer phrase fires.
    """

    commitments: tuple[Commitment, ...] = ()
    last_speaker: str | None = None

    @property
    def graph(self) -> ResponsibilityGraph:
        """One edge ``holder -> transferred_to`` per transferred commitment.

        Each edge carries the transfer turn as its utterance index and the
        commitment id as its label; edges run in transfer order, and the
        nodes are the edges' endpoints. One pass plus a sort: O(n log n).
        """
        edges = sorted(
            (
                ResponsibilityEdge(
                    source=c.holder,
                    target=c.transferred_to,
                    utterance_index=c.transferred_at,
                    label=c.id,
                )
                for c in self.commitments
                if c.transferred_at is not None
            ),
            key=lambda edge: edge.utterance_index,
        )
        nodes = {edge.source for edge in edges} | {edge.target for edge in edges}
        return ResponsibilityGraph(nodes=frozenset(nodes), edges=tuple(edges))


def update_commitments(state: ChainState, turn: DialogueTurn) -> ChainState:
    """Fold one turn into the chain state; returns a new state.

    A transfer phrase moves the speaker's most recent live commitment to the
    previous turn's speaker, or keeps it with the speaker when there is no
    previous turn or that turn was the speaker's own.
    Otherwise a commitment phrase adds one live commitment, de-duplicated by
    stripped text across the whole chain, at most one per turn.

    A turn that changes no commitment shares ``state.commitments`` with the
    new state; a transfer rebuilds the tuple around the moved commitment and
    a new commitment is appended to a copy.
    """
    commitments = state.commitments

    if contains_any(turn.text, DEFAULT_PATTERNS_TRANSFER):
        for pos in range(len(commitments) - 1, -1, -1):
            candidate = commitments[pos]
            if candidate.holder == turn.speaker and candidate.is_live:
                target = state.last_speaker
                if not target or target == turn.speaker:
                    target = turn.speaker
                moved = Commitment(
                    holder=candidate.holder,
                    text=candidate.text,
                    created_at=candidate.created_at,
                    transferred_at=turn.index,
                    transferred_to=target,
                )
                commitments = commitments[:pos] + (moved,) + commitments[pos + 1:]
                break
    elif contains_any(turn.text, DEFAULT_PATTERNS_COMMIT):
        key = turn.text.strip()
        if all(c.text != key for c in commitments):
            commitments += (Commitment(holder=turn.speaker, text=key, created_at=turn.index),)

    return ChainState(commitments=commitments, last_speaker=turn.speaker)


def replay(transcript: "Transcript") -> ChainState:
    state = ChainState()
    for turn in transcript.turns:
        state = update_commitments(state, turn)
    return state


# later turns by a commitment's holder that must all skip it before it is flagged
_SILENT_TURNS = 5


def flag_silent_abandonment(state: ChainState, transcript: "Transcript") -> list[str]:
    """Ids of live commitments whose holder went quiet on them.

    A commitment is reported when its holder produced at least five
    (``_SILENT_TURNS``) later turns and none of them references it. Reference
    detection is lexical: sharing a normalized token of four or more characters
    with the commitment text. Reporting only; the state is never mutated.

    One pass records each speaker's turn indices and the last index at which
    they used each content token, so a commitment costs one bisection and one
    lookup per token of its text.
    """
    indices: dict[str, list[int]] = {}
    last_use: dict[tuple[str, str], int] = {}
    for turn in transcript.turns:
        indices.setdefault(turn.speaker, []).append(turn.index)
        for token in content_tokens(turn.text):
            last_use[turn.speaker, token] = turn.index
    flagged = []
    for commitment in state.commitments:
        if not commitment.is_live:
            continue
        holder, since = commitment.holder, commitment.created_at
        held = indices.get(holder, [])
        if len(held) - bisect_right(held, since) < _SILENT_TURNS:
            continue
        if not any(
            last_use.get((holder, token), since) > since
            for token in content_tokens(commitment.text)
        ):
            flagged.append(commitment.id)
    return flagged
