"""Commitment lifecycle and responsibility chain tracking.

Commitments follow a small state machine:

    active -> updated | transferred | closed | abandoned
    updated -> updated | transferred | closed | abandoned
    transferred, closed, abandoned -> (terminal)

``abandoned`` is terminal and flagged in reports; nothing ever re-enters
``active``. Closing is a deliberate act recorded by whoever runs the
analysis, never something the tracker infers on its own. The silent
abandonment detector below therefore only reports candidates and mutates
nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from ..errors import InvalidTransition
from ..msl.graph import ResponsibilityEdge, ResponsibilityGraph
from ..text import content_tokens
from .transcript import DialogueTurn

if TYPE_CHECKING:
    from .transcript import Transcript


class CommitmentStatus(Enum):
    ACTIVE = "active"
    UPDATED = "updated"
    TRANSFERRED = "transferred"
    CLOSED = "closed"
    ABANDONED = "abandoned"


LIVE_STATUSES = (CommitmentStatus.ACTIVE, CommitmentStatus.UPDATED)


@dataclass(frozen=True)
class StatusChange:
    status: CommitmentStatus
    turn_index: int


@dataclass(frozen=True)
class Commitment:
    id: str
    holder: str
    text: str
    status: CommitmentStatus
    created_at: int
    history: tuple[StatusChange, ...] = ()
    transferred_to: str | None = None

    def transition(
        self, status: CommitmentStatus, turn_index: int, target: str | None = None
    ) -> "Commitment":
        if not self.is_live or status is CommitmentStatus.ACTIVE:  # the state machine above
            raise InvalidTransition(
                f"commitment {self.id}: {self.status.value} -> {status.value} is not allowed"
            )
        if status is CommitmentStatus.TRANSFERRED and not target:
            raise InvalidTransition(f"commitment {self.id}: transfer needs a target speaker")
        return replace(
            self,
            status=status,
            history=self.history + (StatusChange(status=status, turn_index=turn_index),),
            transferred_to=target if status is CommitmentStatus.TRANSFERRED else self.transferred_to,
        )

    @property
    def is_live(self) -> bool:
        return self.status in LIVE_STATUSES


# Commitment patterns are matched case-sensitively, mirroring the legacy
# membership check. The transfer phrase comes from the delegation guideline.
DEFAULT_PATTERNS_COMMIT = ("I will", "will", "should")
DEFAULT_PATTERNS_TRANSFER = ("I'll leave that to",)


def mentions_commitment(text: str) -> bool:
    """The commitment test shared by the chain fold and the heuristic triple."""
    for pat in DEFAULT_PATTERNS_COMMIT:
        if pat in text:
            return True
    return False


def _mentions_transfer(text: str) -> bool:
    for pat in DEFAULT_PATTERNS_TRANSFER:
        if pat in text:
            return True
    return False


@dataclass(frozen=True)
class ChainState:
    """Ordered commitments, from which the responsibility graph is derived.

    ``last_index`` makes ingestion idempotent: a turn at an index the state
    has already consumed is skipped, so replaying a transcript is a no-op.
    ``last_speaker`` resolves who "you" is when a transfer phrase fires.
    """

    commitments: tuple[Commitment, ...] = ()
    last_speaker: str | None = None
    last_index: int = -1

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
                    utterance_index=c.history[-1].turn_index,
                    label=c.id,
                )
                for c in self.commitments
                if c.status is CommitmentStatus.TRANSFERRED
            ),
            key=lambda edge: edge.utterance_index,
        )
        nodes = {edge.source for edge in edges} | {edge.target for edge in edges}
        return ResponsibilityGraph(nodes=frozenset(nodes), edges=tuple(edges))


def update_commitments(state: ChainState, turn: DialogueTurn) -> ChainState:
    """Fold one turn into the chain state; returns a new state.

    A transfer phrase moves the speaker's most recent live commitment to the
    previous distinct speaker (or retains it reflexively when there is none).
    Otherwise a commitment phrase adds one active commitment, de-duplicated by
    stripped text across the whole chain, at most one per turn.

    A turn that changes no commitment shares ``state.commitments`` with the
    new state; a transfer rebuilds the tuple around the moved commitment and
    a new commitment is appended to a copy.
    """
    if turn.index <= state.last_index:
        return state

    commitments = state.commitments

    if _mentions_transfer(turn.text):
        for pos in range(len(commitments) - 1, -1, -1):
            candidate = commitments[pos]
            if candidate.holder == turn.speaker and candidate.is_live:
                target = state.last_speaker
                if not target or target == turn.speaker:
                    target = turn.speaker
                moved = candidate.transition(
                    CommitmentStatus.TRANSFERRED, turn.index, target=target
                )
                commitments = commitments[:pos] + (moved,) + commitments[pos + 1:]
                break
    elif mentions_commitment(turn.text):
        key = turn.text.strip()
        if all(c.text != key for c in commitments):
            commitments += (
                Commitment(
                    id=f"c{turn.index}",
                    holder=turn.speaker,
                    text=key,
                    status=CommitmentStatus.ACTIVE,
                    created_at=turn.index,
                    history=(StatusChange(status=CommitmentStatus.ACTIVE, turn_index=turn.index),),
                ),
            )

    return ChainState(
        commitments=commitments,
        last_speaker=turn.speaker,
        last_index=turn.index,
    )


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
