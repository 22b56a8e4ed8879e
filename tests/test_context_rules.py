"""Declarative context constraints: predicates, ordering, evaluation count."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import msa.msl.rules
from msa.errors import MalformedJson
from msa.fixtures import load_fixture
from msa.msl.rules import (
    DEFAULT_WINDOW,
    ContextRule,
    check_context_constraints,
    load_context_rules,
)
from helpers import best_seconds, count_calls, make_transcript, reference_context_findings

PRESENT = ContextRule("r-budget", predicate="keyword-presence", arg="budget", severity="warn")
ABSENT = ContextRule("r-lawyer", predicate="keyword-absence", arg="lawyer", severity="violation")


def texts(*items):
    return make_transcript([("s", t, "user") for t in items])


def test_keyword_presence_flags_missing_keyword():
    findings = check_context_constraints(texts("about the budget", "off we go"), [PRESENT])
    assert [(f.utterance_index, f.rule_id) for f in findings] == [(1, "r-budget")]


def test_keyword_absence_flags_occurrence():
    findings = check_context_constraints(texts("call the Lawyer now"), [ABSENT])
    assert len(findings) == 1
    assert findings[0].severity == "violation"


def test_exact_evaluation_count_n_times_m(monkeypatch):
    transcript = texts(*[f"turn {i} budget" for i in range(7)])
    rules = [PRESENT, ABSENT, ContextRule("r-new", predicate="max-new-token-ratio", arg=0.9)]
    calls = count_calls(monkeypatch, msa.msl.rules, "_holds")
    check_context_constraints(transcript, rules)
    assert len(calls) == 7 * 3


def test_tokenize_calls_per_turn_are_flat_across_windows(monkeypatch):
    # ROADMAP item 5's sweep over the context-rule window, as a work counter.
    calls = count_calls(monkeypatch, msa.msl.rules, "tokenize")
    turns = 300
    transcript = texts(*[f"turn {i} keeps the budget review going" for i in range(turns)])
    per_turn = {}
    for window in (4, 256):
        calls.clear()
        rule = ContextRule("r-new", predicate="max-new-token-ratio", arg=0.9, window=window)
        check_context_constraints(transcript, [rule])
        per_turn[window] = len(calls) / turns
    assert per_turn[256] <= 3 * per_turn[4], f"tokenize calls per turn: {per_turn}"
    assert per_turn == {4: 1.0, 256: 1.0}  # each turn once, whatever the window


def test_keyword_and_anchor_rules_tokenize_nothing(monkeypatch):
    calls = count_calls(monkeypatch, msa.msl.rules, "tokenize")
    anchor = ContextRule("a", predicate="topic-anchor-presence", arg="budget")
    check_context_constraints(texts("the budget", "next", "more"), [PRESENT, ABSENT, anchor])
    assert calls == []


def test_time_is_independent_of_the_window():
    # 2,000 turns that share a little vocabulary, against one rule of each windowed kind
    rng = random.Random(13)
    words = [f"w{k}" for k in range(400)]
    transcript = texts(*[" ".join(rng.choices(words, k=8)) for _ in range(2_000)])

    def rules(window):
        return [
            ContextRule("n", predicate="max-new-token-ratio", arg=0.5, window=window),
            ContextRule("a", predicate="topic-anchor-presence", arg="w7", window=window),
        ]

    seconds = {
        window: best_seconds(lambda: check_context_constraints(transcript, rules(window)), 3)
        for window in (4, 2_000)
    }
    assert seconds[2_000] <= 3 * seconds[4], f"seconds by window: {seconds}"


# Case, punctuation, multi-word and punctuated anchors, and tokenless turns ("...", "?!")
RULE_WORDS = ["budget", "Budget", "bud-get", "plan", "plan.", "the", "owner", "risk", "...", "?!"]
ANCHORS = ["budget", "bud-get", "the plan", "plan.", "owner risk", "risk", "?", "zzz"]


@st.composite
def rule_cases(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    turns = [
        " ".join(draw(st.lists(st.sampled_from(RULE_WORDS), min_size=1, max_size=6)))
        for _ in range(n)
    ]
    rules = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        predicate = draw(st.sampled_from(msa.msl.rules.PREDICATES))
        if predicate == "max-new-token-ratio":
            arg = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
        else:
            arg = draw(st.sampled_from(ANCHORS))
        window = draw(st.integers(min_value=1, max_value=n + 5))
        rules.append(ContextRule(f"r{k}", predicate=predicate, arg=arg, window=window))
    return texts(*turns), rules


@seed(20261021)
@settings(max_examples=400, deadline=None)
@given(rule_cases())
def test_findings_match_the_window_rescan_reference(case):
    transcript, rules = case
    assert check_context_constraints(transcript, rules) == reference_context_findings(
        transcript, rules
    )


def test_findings_ordered_by_turn_then_rule_position():
    both_fail = texts("nothing here", "lawyer, no b-word")
    findings = check_context_constraints(both_fail, [PRESENT, ABSENT])
    assert [(f.utterance_index, f.rule_id) for f in findings] == [
        (0, "r-budget"),
        (1, "r-budget"),
        (1, "r-lawyer"),
    ]


def test_new_token_ratio_first_turn_exempt():
    rule = ContextRule("r0", predicate="max-new-token-ratio", arg=0.0)
    findings = check_context_constraints(texts("completely novel opening"), [rule])
    assert findings == []


def test_new_token_ratio_windowed():
    rule = ContextRule("r1", predicate="max-new-token-ratio", arg=0.5, window=2)
    transcript = texts("alpha beta", "alpha gamma", "delta epsilon")
    # turn 1: 1 new of 2 (0.5, not above); turn 2: 2 new of 2 (1.0, above)
    findings = check_context_constraints(transcript, [rule])
    assert [f.utterance_index for f in findings] == [2]


def test_topic_anchor_window_on_case4():
    fixture = load_fixture("case4")
    rule = ContextRule(
        "anchor", predicate="topic-anchor-presence", arg="responsibility", window=DEFAULT_WINDOW
    )
    findings = check_context_constraints(fixture.transcript, [rule])
    assert [f.utterance_index for f in findings] == [5]


def test_rule_validation():
    with pytest.raises(MalformedJson):
        ContextRule("x", predicate="keyword-presence", arg=1.5)
    with pytest.raises(MalformedJson):
        ContextRule("x", predicate="max-new-token-ratio", arg="high")
    for arg in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises(MalformedJson, match="finite"):
            ContextRule("x", predicate="max-new-token-ratio", arg=arg)
    with pytest.raises(MalformedJson):
        ContextRule("x", predicate="keyword-presence", arg="x", severity="fatal")
    with pytest.raises(MalformedJson):
        ContextRule("x", predicate="keyword-presence", arg="x", window=0)
    with pytest.raises(MalformedJson):
        ContextRule("", predicate="keyword-presence", arg="x")


def test_load_context_rules(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            [
                {"rule_id": "a", "predicate": "keyword-presence", "arg": "budget", "severity": "warn"},
                {"rule_id": "b", "predicate": "max-new-token-ratio", "arg": 0.4, "window": 2},
            ]
        ),
        encoding="utf-8",
    )
    rules = load_context_rules(path)
    assert len(rules) == 2
    assert rules[1].window == 2
    path.write_text(json.dumps([{"rule_id": "c", "predicate": "unknown", "arg": "x"}]))
    with pytest.raises(MalformedJson):
        load_context_rules(path)
    path.write_text("{}")
    with pytest.raises(MalformedJson):
        load_context_rules(path)


def test_load_context_rules_parse_error_names_the_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text("[", encoding="utf-8")
    with pytest.raises(MalformedJson, match=f"^{re.escape(str(path))}: Expecting value"):
        load_context_rules(path)


@pytest.mark.parametrize(
    "field,value",
    [("window", "abc"), ("window", None), ("window", 2.7), ("window", True), ("rule_id", None),
     ("rule_id", 7)],
)
def test_load_context_rules_does_not_coerce(tmp_path, field, value):
    path = tmp_path / "rules.json"
    row = {"rule_id": "a", "predicate": "keyword-presence", "arg": "budget", field: value}
    path.write_text(json.dumps([row]), encoding="utf-8")
    with pytest.raises(MalformedJson):
        load_context_rules(path)


@pytest.mark.parametrize("arg", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_load_context_rules_refuses_a_non_finite_ratio(tmp_path, arg):
    # read as a bound, NaN would flag every utterance after the first and Infinity none
    path = tmp_path / "rules.json"
    path.write_text(f'[{{"rule_id": "r", "predicate": "max-new-token-ratio", "arg": {arg}}}]')
    with pytest.raises(MalformedJson):
        load_context_rules(path)


@pytest.mark.parametrize("key", ["severty", "windw", "id"])
def test_load_context_rules_refuses_unknown_keys(tmp_path, key):
    path = tmp_path / "rules.json"
    row = {"rule_id": "a", "predicate": "keyword-presence", "arg": "budget", key: "warn"}
    path.write_text(json.dumps([row]), encoding="utf-8")
    with pytest.raises(MalformedJson, match=f"unknown rule key '{key}'"):
        load_context_rules(path)


@pytest.mark.parametrize(
    "missing,message",
    [
        ("rule_id", "rule_id must be a non-empty string, got ''"),
        ("predicate", "unknown predicate ''"),
        ("arg", "keyword-presence needs a non-empty string arg"),
    ],
)
def test_load_context_rules_missing_key_message(tmp_path, missing, message):
    path = tmp_path / "rules.json"
    row = {"rule_id": "a", "predicate": "keyword-presence", "arg": "budget"}
    del row[missing]
    path.write_text(json.dumps([row]), encoding="utf-8")
    with pytest.raises(MalformedJson) as info:
        load_context_rules(path)
    assert str(info.value) == message


def test_load_context_rules_takes_the_rule_defaults(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"rule_id": "a", "predicate": "keyword-absence", "arg": "x"}]))
    assert load_context_rules(path) == [ContextRule("a", predicate="keyword-absence", arg="x")]
    assert load_context_rules(path)[0].window == DEFAULT_WINDOW
