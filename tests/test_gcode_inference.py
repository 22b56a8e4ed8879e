"""Tag inference from context."""

from __future__ import annotations

import pytest

from msa.errors import EmptyContext
from msa.gcode import inference
from msa.gcode.inference import INFERENCE_CUES, default_inference_rules, infer_tags
from msa.gcode.registry import VOCABULARY, Dimension
from msa.gcode.tags import SpeakerModuleConfig, parse_tag_list
from helpers import make_transcript


def test_default_rule_marks_questions_neutral():
    context = make_transcript([("u", "Could you check the logs?", "user")])
    out = infer_tags(context, SpeakerModuleConfig())
    assert out.to_document()["speaker_module"]["tone"] == "NEUTRAL"


def test_no_match_keeps_previous_tags():
    prev = parse_tag_list(["#T_HIGHASSERT", "#C_CUT"])
    context = make_transcript([("u", "The logs are clean.", "user")])
    out = infer_tags(context, prev)
    assert out == prev


def test_match_overrides_only_named_dimension():
    prev = parse_tag_list(["#T_HIGHASSERT", "#C_CUT"])
    context = make_transcript([("u", "Are the logs clean?", "user")])
    out = infer_tags(context, prev)
    assert out.to_document()["speaker_module"]["tone"] == "NEUTRAL"
    assert out.to_document()["speaker_module"]["closure"] == "CUT"


def test_only_final_turn_is_inspected():
    context = make_transcript(
        [("u", "Why though?", "user"), ("a", "Because of the retry loop.", "assistant")]
    )
    out = infer_tags(context, parse_tag_list(["#T_ASSERTIVE"]))
    assert out.to_document()["speaker_module"]["tone"] == "ASSERTIVE"


def test_empty_context_raises():
    with pytest.raises(EmptyContext):
        infer_tags(make_transcript([]), SpeakerModuleConfig())


def test_later_rules_win(monkeypatch):
    monkeypatch.setattr(
        inference,
        "INFERENCE_CUES",
        ((("?",), Dimension.TONE, "NEUTRAL"), (("?!",), Dimension.TONE, "HIGHASSERT")),
    )
    context = make_transcript([("u", "You deleted it?!", "user")])
    out = infer_tags(context, SpeakerModuleConfig())
    assert out.to_document()["speaker_module"]["tone"] == "HIGHASSERT"


def test_bundled_default_matches_constructed():
    assert default_inference_rules() == INFERENCE_CUES == ((("?",), Dimension.TONE, "NEUTRAL"),)


def test_every_cue_is_registered_and_has_phrases():
    for phrases, dimension, value in INFERENCE_CUES:
        assert phrases and all(phrases)
        assert value in VOCABULARY[dimension]
