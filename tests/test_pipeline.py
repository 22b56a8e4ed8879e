"""The per-turn orchestration: tags, role, commitments, drift, reply."""

from __future__ import annotations

import pytest

from msa.dialogue.llm import StubLlmClient
from msa.dialogue.pipeline import run_pipeline
from msa.dialogue.transcript import PragmaticRole
from msa.errors import EmptyContext
from msa.gcode.tags import SpeakerModuleConfig, parse_tag_list
from msa.scoring.heuristics import heuristic_score
from helpers import make_transcript

STUB = StubLlmClient()


def test_empty_context_rejected():
    with pytest.raises(EmptyContext):
        run_pipeline(make_transcript([]), SpeakerModuleConfig(), STUB, "assistant")


def test_reply_turn_and_echo():
    ctx = make_transcript([("u", "Please plan the rollout schedule.", "user")])
    result = run_pipeline(ctx, parse_tag_list(["#T_NEUTRAL"]), STUB, "assistant")
    assert result.reply.turn_role == "assistant"
    assert result.reply.index == 1
    assert result.directives == "[TONE=NEUTRAL]"
    assert result.reply.text == (
        "<ECHO directives='[TONE=NEUTRAL]' last='Please plan the rollout schedule.'>"
    )


def test_question_flips_tone_before_compiling():
    ctx = make_transcript([("u", "What broke overnight?", "user")])
    result = run_pipeline(ctx, parse_tag_list(["#T_HIGHASSERT", "#C_CUT"]), STUB, "assistant")
    assert result.directives == "[TONE=NEUTRAL] [CLOSURE=CUT]"


def test_function_role_assigned_from_last_turn():
    ctx = make_transcript([("u", "I will take the incident review.", "user")])
    result = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    assert result.reply.function_role == PragmaticRole.RESPONSIBILITY_ACCEPTOR


def test_no_drift_on_coherent_turns():
    ctx = make_transcript(
        [
            ("u", "The deploy pipeline is stuck on stage three.", "user"),
            ("a", "Stage three of the deploy pipeline needs a manual gate.", "assistant"),
        ]
    )
    result = run_pipeline(ctx, parse_tag_list(["#T_NEUTRAL"]), STUB, "user")
    assert result.drift is not None
    assert not result.drift.drifted
    assert "(please confirm first:" not in result.directives


def test_drift_appends_realignment_to_directives():
    ctx = make_transcript(
        [
            ("u", "The deploy pipeline is stuck on stage three.", "user"),
            ("a", "Lunch options nearby include ramen.", "assistant"),
        ]
    )
    result = run_pipeline(ctx, parse_tag_list(["#T_NEUTRAL"]), STUB, "user")
    assert result.drift.drifted
    assert result.directives == (
        "[TONE=NEUTRAL] (please confirm first: 'Lunch options nearby include ramen.')"
    )
    assert result.directives in result.reply.text


def test_single_turn_context_skips_drift():
    ctx = make_transcript([("u", "Only one turn here.", "user")])
    result = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    assert result.drift is None


def test_commitments_folded_including_reply():
    ctx = make_transcript(
        [
            ("u", "I will write the postmortem.", "user"),
            ("a", "Noted.", "assistant"),
            ("u", "Someone should own the timeline.", "user"),
        ]
    )
    result = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    # the stub's echo quotes the last turn's "should", so the reply opens one too
    assert [(c.id, c.holder) for c in result.chain.commitments] == [
        ("c0", "u"), ("c2", "u"), ("c3", "assistant")
    ]
    assert result.chain.commitments[-1].text == result.reply.text


def test_scores_cover_extended_transcript():
    ctx = make_transcript(
        [
            ("u", "I will write the postmortem today for the team.", "user"),
            ("a", "You should also tag the oncall rotation first.", "assistant"),
            ("u", "The summary will need sign off before Friday.", "user"),
        ]
    )
    result = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    scores = heuristic_score(ctx.with_turn(result.reply))
    # three commitment-bearing turns, alternating speakers, no short turns
    assert scores.role_continuity == 9
    assert scores.responsibility_trace == 9
    assert scores.context_integrity == 9


def test_pipeline_is_deterministic():
    ctx = make_transcript([("u", "Summarize the sprint review?", "user")])
    a = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    b = run_pipeline(ctx, SpeakerModuleConfig(), STUB, "assistant")
    assert a == b


def test_reply_speaker_override():
    ctx = make_transcript([("u", "Who takes notes?", "user")])
    result = run_pipeline(ctx, SpeakerModuleConfig(), STUB, speaker="scribe")
    assert result.reply.speaker == "scribe"
