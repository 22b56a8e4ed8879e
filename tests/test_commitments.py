"""Chain folding, replay, transfer and the silent-abandonment report."""

from __future__ import annotations

import random
from dataclasses import asdict

import msa.dialogue.commitments
from msa.dialogue.commitments import (
    ChainState,
    flag_silent_abandonment,
    replay,
    update_commitments,
)
from msa.dialogue.transcript import DialogueTurn, Transcript
from helpers import (
    best_seconds,
    count_calls,
    make_transcript,
    reference_chain,
    reference_silent_abandonment,
)


def turn(i, speaker, text, role="user"):
    return DialogueTurn(speaker=speaker, text=text, turn_role=role, index=i)


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
    # a transferred commitment is never moved again
    state = update_commitments(state, turn(3, "c", "Fine."))
    state = update_commitments(state, turn(4, "a", "I'll leave that to you."))
    moved = state.commitments[0]
    assert (moved.transferred_at, moved.transferred_to) == (2, "b")
    assert not moved.is_live
    edges = [(e.source, e.target, e.utterance_index, e.label) for e in state.graph.edges]
    assert edges == [("a", "b", 2, "c0")]


def test_transfer_goes_to_the_previous_turns_speaker():
    # b committed on the turn before b's own transfer, so b keeps it; a, the
    # previous distinct speaker, does not get it
    state = update_commitments(ChainState(), turn(0, "a", "Sounds good."))
    state = update_commitments(state, turn(1, "b", "I will draft the doc."))
    state = update_commitments(state, turn(2, "b", "I'll leave that to you."))
    moved = state.commitments[0]
    assert (moved.holder, moved.transferred_at, moved.transferred_to) == ("b", 2, "b")


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
        assert after.last_speaker == speaker
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
    """replay(t) holds the reference's records, and its graph equals the one
    built by appending an edge per transfer."""
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
            records, graph = reference_chain(transcript)
            assert [{"id": c.id, **asdict(c)} for c in state.commitments] == records
            assert state.graph == graph
            labels = [edge.label for edge in state.graph.edges]
            out_of_creation_order += labels != sorted(labels, key=lambda c: int(c[1:]))
    assert out_of_creation_order > 0  # the sweep exercises the ordering by transfer turn


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
    kept = state.commitments[0]
    assert (kept.transferred_at, kept.transferred_to) == (None, None)
    assert kept.is_live


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
