"""Tag inference from context."""

from __future__ import annotations

import json

import pytest

from msa.errors import EmptyContext, MalformedJson, UnknownValue
from msa.gcode.dimensions import Dimension
from msa.gcode.inference import InferenceRule, default_inference_rules, infer_tags, load_inference_rules
from msa.gcode.tags import SpeakerModuleConfig, parse_tag_list
from helpers import make_transcript


def test_default_rule_marks_questions_neutral():
    context = make_transcript([("u", "Could you check the logs?", "user")])
    out = infer_tags(context, SpeakerModuleConfig())
    assert out.to_keyed_object()["tone"] == "NEUTRAL"


def test_no_match_keeps_previous_tags():
    prev = parse_tag_list(["#T_HIGHASSERT", "#C_CUT"])
    context = make_transcript([("u", "The logs are clean.", "user")])
    out = infer_tags(context, prev)
    assert out == prev


def test_match_overrides_only_named_dimension():
    prev = parse_tag_list(["#T_HIGHASSERT", "#C_CUT"])
    context = make_transcript([("u", "Are the logs clean?", "user")])
    out = infer_tags(context, prev)
    assert out.to_keyed_object()["tone"] == "NEUTRAL"
    assert out.to_keyed_object()["closure"] == "CUT"


def test_only_final_turn_is_inspected():
    context = make_transcript(
        [("u", "Why though?", "user"), ("a", "Because of the retry loop.", "assistant")]
    )
    out = infer_tags(context, parse_tag_list(["#T_ASSERTIVE"]))
    assert out.to_keyed_object()["tone"] == "ASSERTIVE"


def test_empty_context_raises():
    with pytest.raises(EmptyContext):
        infer_tags(make_transcript([]), SpeakerModuleConfig())


def test_later_rules_win(tmp_path):
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(
        json.dumps(
            [
                {"predicate": "contains_char", "arg": "?", "dimension": "tone", "value": "NEUTRAL"},
                {"predicate": "ends_with", "arg": "?!", "dimension": "tone", "value": "HIGHASSERT"},
            ]
        ),
        encoding="utf-8",
    )
    rules = load_inference_rules(rules_path)
    context = make_transcript([("u", "You deleted it?!", "user")])
    out = infer_tags(context, SpeakerModuleConfig(), rules)
    assert out.to_keyed_object()["tone"] == "HIGHASSERT"


def test_rule_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"predicate": "regex", "arg": ".", "dimension": "tone", "value": "NEUTRAL"}]))
    with pytest.raises(MalformedJson):
        load_inference_rules(bad)
    bad.write_text(json.dumps({"predicate": "contains_char"}))
    with pytest.raises(MalformedJson):
        load_inference_rules(bad)
    bad.write_text(json.dumps([{"predicate": "contains_char", "arg": "?", "dimension": "tone", "value": "WHISPER"}]))
    with pytest.raises(UnknownValue):
        load_inference_rules(bad)


def test_bundled_default_matches_constructed():
    assert default_inference_rules() == (
        InferenceRule(predicate="contains_char", arg="?", dimension=Dimension.TONE, value="NEUTRAL"),
    )
