"""Commitment lifecycle, chain replay, transfer, silent abandonment."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import msa.dialogue.commitments
from msa.dialogue.commitments import (
    ChainState,
    Commitment,
    CommitmentStatus,
    StatusChange,
    flag_silent_abandonment,
    replay,
    update_commitments,
)
from msa.dialogue.transcript import DialogueTurn, Transcript
from msa.errors import InvalidTransition
from helpers import (
    best_seconds,
    count_calls,
    make_transcript,
    reference_chain_edges,
    reference_silent_abandonment,
)


def turn(i, speaker, text, role="user"):
    return DialogueTurn(speaker=speaker, text=text, turn_role=role, index=i)


def fresh(text="I will file it"):
    return Commitment(
        id="c0", holder="a", text=text, status=CommitmentStatus.ACTIVE, created_at=0
    )


# --- status machine ---

def test_active_can_close():
    done = fresh().transition(CommitmentStatus.CLOSED, turn_index=4)
    assert done.status == CommitmentStatus.CLOSED
    assert not done.is_live


def test_terminal_states_are_final():
    closed = fresh().transition(CommitmentStatus.CLOSED, turn_index=1)
    for target in CommitmentStatus:
        with pytest.raises(InvalidTransition):
            closed.transition(target, turn_index=2)
    gone = fresh().transition(CommitmentStatus.ABANDONED, turn_index=1)
    with pytest.raises(InvalidTransition):
        gone.transition(CommitmentStatus.ACTIVE, turn_index=2)


def test_updated_keeps_full_choice():
    c = fresh().transition(CommitmentStatus.UPDATED, turn_index=1)
    assert c.is_live
    c = c.transition(CommitmentStatus.UPDATED, turn_index=2)
    assert c.transition(CommitmentStatus.ABANDONED, turn_index=3).status is CommitmentStatus.ABANDONED


def test_no_transition_back_to_active():
    with pytest.raises(InvalidTransition):
        fresh().transition(CommitmentStatus.ACTIVE, turn_index=1)


def test_transfer_requires_target():
    with pytest.raises(InvalidTransition):
        fresh().transition(CommitmentStatus.TRANSFERRED, turn_index=1)
    moved = fresh().transition(CommitmentStatus.TRANSFERRED, turn_index=1, target="b")
    assert moved.transferred_to == "b"
    assert moved.holder == "a"
    assert not moved.is_live


S = CommitmentStatus
LIFECYCLE = {  # the lifecycle table, as allowed target sets
    S.ACTIVE: {S.UPDATED, S.TRANSFERRED, S.CLOSED, S.ABANDONED},
    S.UPDATED: {S.UPDATED, S.TRANSFERRED, S.CLOSED, S.ABANDONED},
    S.TRANSFERRED: set(),
    S.CLOSED: set(),
    S.ABANDONED: set(),
}


@pytest.mark.parametrize("source", list(S), ids=lambda s: s.value)
@pytest.mark.parametrize("status", list(S), ids=lambda s: s.value)
def test_lifecycle_table(source, status):
    commitment = replace(fresh(), status=source)
    for target in ("b", "", None):
        if status not in LIFECYCLE[source]:
            expected = f"commitment c0: {source.value} -> {status.value} is not allowed"
        elif status is S.TRANSFERRED and not target:
            expected = "commitment c0: transfer needs a target speaker"
        else:
            moved = commitment.transition(status, turn_index=7, target=target)
            assert moved.status is status
            assert moved.transferred_to == (target if status is S.TRANSFERRED else None)
            continue
        with pytest.raises(InvalidTransition) as err:
            commitment.transition(status, turn_index=7, target=target)
        assert str(err.value) == expected


def test_transition_records_history():
    c = fresh().transition(CommitmentStatus.UPDATED, turn_index=3)
    assert c.history == (StatusChange(status=CommitmentStatus.UPDATED, turn_index=3),)


# --- chain folding ---

def test_commitment_detected_and_deduplicated():
    state = ChainState()
    state = update_commitments(state, turn(0, "a", "I will write the summary."))
    state = update_commitments(state, turn(1, "b", "I will write the summary."))
    assert len(state.commitments) == 1
    assert state.commitments[0].holder == "a"
    assert state.commitments[0].id == "c0"


def test_patterns_match_exact_case():
    state = update_commitments(ChainState(), turn(0, "a", "i shall try"))
    assert state.commitments == ()


def test_transfer_moves_most_recent_live_commitment():
    state = ChainState()
    state = update_commitments(state, turn(0, "a", "I will draft the doc."))
    state = update_commitments(state, turn(1, "b", "Sounds good."))
    state = update_commitments(state, turn(2, "a", "I'll leave that to you."))
    moved = state.commitments[0]
    assert moved.status is CommitmentStatus.TRANSFERRED
    assert moved.transferred_to == "b"
    edges = {(e.source, e.target, e.label) for e in state.graph.edges}
    assert ("a", "b", "c0") in edges


def test_transfer_without_partner_retains_self():
    state = update_commitments(ChainState(), turn(0, "a", "I will own this."))
    state = update_commitments(state, turn(1, "a", "I'll leave that to whoever's next."))
    moved = state.commitments[0]
    assert moved.transferred_to == "a"
    assert ("a", "a") in {(e.source, e.target) for e in state.graph.edges}


def test_transfer_with_no_live_commitment_is_a_noop():
    state = update_commitments(ChainState(), turn(0, "a", "I'll leave that to you."))
    assert state.commitments == ()
    assert state.graph.edges == ()


def test_turn_that_changes_no_commitment_shares_the_tuple():
    # Start from a non-empty chain: an empty one would pass even if the fold
    # copied, since every empty tuple is the same object.
    state = update_commitments(ChainState(), turn(0, "a", "I will draft the doc."))
    for i, (speaker, text) in enumerate(
        [
            ("b", "Sounds good."),  # no phrase at all
            ("b", "I will draft the doc."),  # a commitment the chain already holds
            ("b", "I'll leave that to you."),  # a transfer with no live commitment of b's
        ],
        start=1,
    ):
        after = update_commitments(state, turn(i, speaker, text))
        assert after.commitments is state.commitments, text
        assert (after.last_speaker, after.last_index) == (speaker, i)
        state = after


_SWEEP_TEXTS = (
    "I will draft the {}.",
    "We should check the {}.",
    "The {} will ship.",
    "I'll leave that to you.",
    "I'll leave that to whoever owns the {}.",
    "ok",
    "Looks fine to me, the {}.",
)


def test_derived_graph_matches_append_oracle():
    """replay(t).graph equals the graph built by appending an edge per transfer."""
    out_of_creation_order = 0
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(75):
            speakers = [f"p{i}" for i in range(rng.randint(1, 4))]
            rows = [
                (
                    rng.choice(speakers),
                    rng.choice(_SWEEP_TEXTS).format(rng.choice(("doc", "plan", "fix"))),
                    rng.choice(("user", "assistant")),
                )
                for _ in range(rng.randint(1, 40))
            ]
            transcript = make_transcript(rows)
            state = replay(transcript)
            assert state.graph == reference_chain_edges(transcript)
            labels = [edge.label for edge in state.graph.edges]
            out_of_creation_order += labels != sorted(labels, key=lambda c: int(c[1:]))
    assert out_of_creation_order > 0  # the sweep exercises the ordering by transfer turn


def test_replay_is_idempotent():
    transcript = make_transcript(
        [
            ("a", "I will draft the doc.", "user"),
            ("b", "Thanks.", "assistant"),
            ("a", "I'll leave that to you.", "user"),
        ]
    )
    once = replay(transcript)
    twice = once
    for t in transcript.turns:
        twice = update_commitments(twice, t)
    assert twice == once


def test_at_most_one_commitment_per_turn():
    state = update_commitments(
        ChainState(), turn(0, "a", "I will do A. I will also do B. We should do C.")
    )
    assert len(state.commitments) == 1


def test_commitment_text_is_stripped():
    state = update_commitments(ChainState(), turn(0, "a", "  I will check.  "))
    assert state.commitments[0].text == "I will check."


# --- abandonment report ---

def test_silent_abandonment_flagged_after_k_turns():
    rows = [("a", "I will update the roadmap.", "user")]
    for i in range(5):
        rows.append(("b", f"filler {i}", "assistant"))
        rows.append(("a", f"chatter number {i}", "user"))
    transcript = make_transcript(rows)
    state = replay(transcript)
    assert flag_silent_abandonment(state, transcript) == ["c0"]


def test_mentioning_the_commitment_clears_the_flag():
    rows = [("a", "I will update the roadmap.", "user")]
    for i in range(4):
        rows.append(("b", f"filler {i}", "assistant"))
        rows.append(("a", f"chatter number {i}", "user"))
    rows.append(("b", "ping", "assistant"))
    rows.append(("a", "still planning the roadmap refresh", "user"))
    transcript = make_transcript(rows)
    state = replay(transcript)
    assert flag_silent_abandonment(state, transcript) == []


def test_too_few_later_turns_is_quiet():
    transcript = make_transcript(
        [("a", "I will ship it.", "user"), ("a", "unrelated", "user")]
    )
    state = replay(transcript)
    assert flag_silent_abandonment(state, transcript) == []


def test_report_does_not_mutate_state():
    rows = [("a", "I will ship the fix.", "user")]
    rows += [("a", f"noise token {i}", "user") for i in range(7)]
    transcript = make_transcript(rows)
    state = replay(transcript)
    flag_silent_abandonment(state, transcript)
    assert state.commitments[0].status is CommitmentStatus.ACTIVE


_REPORT_TEXTS = (
    "I will update the {}.",
    "We should review the {} today.",
    "I'll leave that to you.",
    "ok, sure",
    "yes and no",
    "the {} again",
    "Moving on.",
)


def test_report_matches_the_rescan_reference():
    """Seeded transcripts, states replayed from the whole or a prefix, indices from any start."""
    flagged = 0
    rng = random.Random(20261021)
    for _ in range(1_200):
        speakers = ["a", "b", "c"][: rng.randint(1, 3)]
        start = rng.choice((0, 0, 1, 7, 500))
        transcript = Transcript(
            turns=tuple(
                DialogueTurn(
                    speaker=rng.choice(speakers),
                    text=rng.choice(_REPORT_TEXTS).format(rng.choice(("plan", "doc", "roadmap"))),
                    turn_role="user",
                    index=start + i,
                )
                for i in range(rng.randint(1, 30))
            )
        )
        state = replay(Transcript(turns=transcript.turns[: rng.randint(0, len(transcript))]))
        got = flag_silent_abandonment(state, transcript)
        assert got == reference_silent_abandonment(state, transcript)
        flagged += bool(got)
    assert flagged > 100  # the sweep reaches the flagging branch, not only the quiet one


def _committing_transcript(n: int) -> Transcript:
    """Two speakers who each open a distinct live commitment on every turn."""
    return make_transcript(
        [("ab"[i % 2], f"I will draft part {i} of the plan.", "user") for i in range(n)]
    )


def test_report_tokenizes_each_turn_once(monkeypatch):
    calls = count_calls(monkeypatch, msa.dialogue.commitments, "content_tokens")
    per_turn = {}
    for n in (500, 4_000):
        transcript = _committing_transcript(n)
        state = replay(transcript)
        calls.clear()
        flag_silent_abandonment(state, transcript)
        per_turn[n] = len(calls) / n
    # one call per turn, plus at most one per live commitment's text
    assert all(1 < calls <= 2 for calls in per_turn.values()), f"calls per turn: {per_turn}"


def test_report_time_per_turn_is_flat():
    per_turn = {}
    for n in (1_000, 8_000):
        transcript = _committing_transcript(n)
        state = replay(transcript)
        per_turn[n] = best_seconds(lambda: flag_silent_abandonment(state, transcript), 3) / n
    assert per_turn[8_000] <= 3 * per_turn[1_000], f"seconds per turn: {per_turn}"
