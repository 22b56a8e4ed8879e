"""Declarative context constraints: predicates, ordering, evaluation count."""

from __future__ import annotations

import json
import re

import pytest

import msa.msl.rules
from msa.errors import MalformedJson
from msa.fixtures import load_fixture
from msa.msl.rules import (
    DEFAULT_WINDOW,
    ContextRule,
    check_context_constraints,
    load_context_rules,
)
from helpers import make_transcript

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
    calls = []
    holds = msa.msl.rules._holds

    def counting(*args):
        calls.append(args)
        return holds(*args)

    monkeypatch.setattr(msa.msl.rules, "_holds", counting)
    check_context_constraints(transcript, rules)
    assert len(calls) == 7 * 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="max-new-token-ratio re-tokenizes every turn in its window for every turn; "
    "ROADMAP item 13, context rules independent of the window, tokenizes each turn once",
)
def test_tokenize_calls_per_turn_are_flat_across_windows(monkeypatch):
    # ROADMAP item 5's sweep over the context-rule window, as a work counter.
    calls = 0
    tokenize = msa.msl.rules.tokenize

    def counting(text):
        nonlocal calls
        calls += 1
        return tokenize(text)

    monkeypatch.setattr(msa.msl.rules, "tokenize", counting)
    turns = 300
    transcript = texts(*[f"turn {i} keeps the budget review going" for i in range(turns)])
    per_turn = {}
    for window in (4, 256):
        calls = 0
        rule = ContextRule("r-new", predicate="max-new-token-ratio", arg=0.9, window=window)
        check_context_constraints(transcript, [rule])
        per_turn[window] = calls / turns
    assert per_turn[256] <= 3 * per_turn[4], f"tokenize calls per turn: {per_turn}"


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
