"""The one JSON decoder refuses what is not JSON, a key repeated within one object, and a
lone surrogate."""

from __future__ import annotations

import pytest

from msa.errors import MalformedJson
from msa.jsonio import parse_json


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("template", ["{}", "[1, {}]", '{{"arg": {}}}'])
def test_refuses_the_non_json_constants(template, constant):
    with pytest.raises(MalformedJson, match=f"rules.json: {constant} is not a JSON value"):
        parse_json(template.format(constant), "rules.json")


@pytest.mark.parametrize(
    "document,key",
    [('{"a": 1, "a": 1}', "a"), ('[{"x": {"k": 1, "j": 2, "k": 3}}]', "k")],
)
def test_refuses_a_repeated_key(document, key):
    with pytest.raises(MalformedJson, match=f"doc.json: repeated key {key!r}"):
        parse_json(document, "doc.json")


def test_keys_differing_in_case_are_distinct():
    assert parse_json('{"tone": 1, "TONE": 2}', "") == {"tone": 1, "TONE": 2}


@pytest.mark.parametrize(
    "document",
    [r'"\ud800"', r'{"\uDC00": 1}', r'["ok", "\ud83d"]', r'"\ude00\ud83d"', '"raw \ud800"',
     b'"\\ud800"'],
    ids=["high", "low-key", "unpaired-high", "reversed-pair", "raw-in-str", "bytes"],
)
def test_refuses_a_lone_surrogate(document):
    with pytest.raises(MalformedJson, match="doc.json: .*surrogates not allowed"):
        parse_json(document, "doc.json")


def test_an_escaped_pair_and_an_escaped_backslash_decode():
    assert parse_json(r'["\ud83d\ude00", "\\ud800"]', "") == ["\U0001F600", "\\ud800"]
