"""Bundled case fixtures: integrity checking and content invariants."""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from msa.dialogue.transcript import (
    DialogueTurn,
    Transcript,
    dump_transcript_jsonl,
    load_transcript_jsonl,
)
from msa.errors import CorruptFixture, InvalidRequest, MalformedJson
from msa.fixtures import FIXTURE_CASES, load_fixture
from helpers import make_transcript

EXPECTED_TURNS = {"case1": 9, "case2": 4, "case3": 6, "case4": 6}


def test_all_cases_load():
    assert [load_fixture(case_id).case_id for case_id in FIXTURE_CASES] == list(FIXTURE_CASES)


@pytest.mark.parametrize("case_id", FIXTURE_CASES)
def test_turn_counts(case_id):
    fixture = load_fixture(case_id)
    assert len(fixture.transcript.turns) == EXPECTED_TURNS[case_id]


@pytest.mark.parametrize("case_id", FIXTURE_CASES)
def test_indices_are_consecutive(case_id):
    fixture = load_fixture(case_id)
    assert [t.index for t in fixture.transcript.turns] == list(
        range(EXPECTED_TURNS[case_id])
    )


def test_case1_alternates_speaker_then_llm():
    fixture = load_fixture("case1")
    speakers = [t.speaker for t in fixture.transcript.turns]
    assert speakers[0] == "Speaker"
    assert all(
        s == ("Speaker" if i % 2 == 0 else "LLM") for i, s in enumerate(speakers)
    )


def test_case4_starts_with_llm():
    fixture = load_fixture("case4")
    assert fixture.transcript.turns[0].speaker == "LLM"


def test_subscores_have_function_roles():
    for case_id in FIXTURE_CASES:
        fixture = load_fixture(case_id)
        assert len(fixture.function_roles) >= 2


def test_unknown_case_rejected():
    with pytest.raises(CorruptFixture):
        load_fixture("case9")


def _bundle_dir() -> Path:
    import msa.fixtures as fx

    return Path(fx.__file__).parent / "data" / "fixtures"


def test_tampered_transcript_detected(tmp_path):
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    victim = work / "case2.jsonl"
    victim.write_text(
        victim.read_text(encoding="utf-8").replace("language", "grammar"), encoding="utf-8"
    )
    with pytest.raises(CorruptFixture):
        load_fixture("case2", base_dir=work)
    # untouched cases still load from the same directory
    load_fixture("case1", base_dir=work)


def test_tampered_subscores_detected(tmp_path):
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    victim = work / "case3.subscores.json"
    data = json.loads(victim.read_text(encoding="utf-8"))
    data["pragmatic"][0] = 0
    victim.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CorruptFixture):
        load_fixture("case3", base_dir=work)


def test_jsonl_round_trip_keeps_unicode_line_separators(tmp_path):
    # json.dumps writes U+0085, U+2028 and U+2029 raw, and str.splitlines()
    # would split a turn there; JSONL lines end at "\n" only.
    transcript = make_transcript(
        [("a", "one\u2028two\u0085three\u2029four", "user"), ("b", "five", "assistant")]
    )
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    path = work / "case2.jsonl"
    dump_transcript_jsonl(transcript, path)
    assert load_transcript_jsonl(path) == transcript
    sums_path = work / "checksums.json"
    sums = json.loads(sums_path.read_text(encoding="utf-8"))
    sums["case2.jsonl"] = hashlib.sha256(path.read_bytes()).hexdigest()
    sums_path.write_text(json.dumps(sums), encoding="utf-8")
    assert load_fixture("case2", base_dir=work).transcript == transcript


def test_bare_carriage_return_is_json_whitespace(tmp_path):
    # A bare "\r" is JSON whitespace, not a line end: both transcript loaders
    # split on "\n" only and read the same turns from the same bytes.
    data = (
        b'{"speaker": "a",\r "text": "hi there", "turn_role": "user"}\n'
        b'{"speaker": "b", "text": "hello",\r"turn_role": "assistant", "index": 1}\r\n'
    )
    expected = make_transcript([("a", "hi there", "user"), ("b", "hello", "assistant")])
    path = tmp_path / "cr.jsonl"
    path.write_bytes(data)
    assert load_transcript_jsonl(path) == expected
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    (work / "case2.jsonl").write_bytes(data)
    sums_path = work / "checksums.json"
    sums = json.loads(sums_path.read_text(encoding="utf-8"))
    sums["case2.jsonl"] = hashlib.sha256(data).hexdigest()
    sums_path.write_text(json.dumps(sums), encoding="utf-8")
    assert load_fixture("case2", base_dir=work).transcript == expected


@pytest.mark.parametrize(
    "field,value",
    [("speaker", 5), ("text", b"x"), ("turn_role", None), ("index", True), ("index", "1"),
     ("function_role", "clarifier")],
)
def test_turn_built_in_code_meets_the_json_checks(field, value):
    fields = {"speaker": "a", "text": "x", "turn_role": "user", "index": 0, field: value}
    with pytest.raises(InvalidRequest) as raised:
        DialogueTurn(**fields)
    assert field in str(raised.value)


def test_turn_with_an_unknown_key_is_refused():
    row = {"speaker": "a", "text": "hi", "turn_role": "user", "indx": 1}
    with pytest.raises(InvalidRequest) as raised:
        Transcript.from_dicts([row])
    assert str(raised.value) == (
        "unknown turn key 'indx'; keys are speaker, text, turn_role, function_role, index"
    )
    with pytest.raises(InvalidRequest, match="must be a string"):  # the other fault comes first
        Transcript.from_dicts([dict(row, speaker=5)])


@pytest.mark.parametrize("index", [0, 1, 3])
def test_appended_turn_meets_the_constructor_index_rule(index):
    transcript = make_transcript([("a", "one", "user"), ("b", "two", "assistant")])
    turn = DialogueTurn(speaker="a", text="three", turn_role="user", index=index)
    with pytest.raises(InvalidRequest) as built:
        Transcript(turns=transcript.turns + (turn,))
    with pytest.raises(InvalidRequest) as appended:
        transcript.with_turn(turn)
    assert str(appended.value) == str(built.value) == (
        f"turn indices must be consecutive: 1 then {index}"
    )


def test_appended_turn_extends_the_transcript():
    transcript = make_transcript([("a", "one", "user"), ("b", "two", "assistant")])
    turn = DialogueTurn(speaker="a", text="three", turn_role="user", index=transcript.next_index)
    extended = transcript.with_turn(turn)
    assert extended == Transcript(turns=transcript.turns + (turn,))
    assert extended.next_index == 3 and len(transcript) == 2
    # an empty transcript takes any first index, as the constructor does
    first = DialogueTurn(speaker="a", text="late start", turn_role="user", index=7)
    assert Transcript().with_turn(first) == Transcript(turns=(first,))


def test_malformed_line_names_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"speaker": "a", "text": "hi", "turn_role": "user"}\n\n{"speaker": \n')
    with pytest.raises(MalformedJson, match=f"{re.escape(str(path))}:3: "):
        load_transcript_jsonl(path)


@pytest.mark.parametrize(
    "sums",
    [{"case1.subscores.json": "0" * 64}, ["case1.jsonl"], "case1.jsonl"],
    ids=["entry-missing", "array", "string"],
)
def test_checksums_without_the_files_entry_detected(tmp_path, sums):
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    (work / "checksums.json").write_text(json.dumps(sums), encoding="utf-8")
    with pytest.raises(CorruptFixture):
        load_fixture("case1", base_dir=work)


def test_missing_file_detected(tmp_path):
    work = tmp_path / "fixtures"
    shutil.copytree(_bundle_dir(), work)
    (work / "case4.jsonl").unlink()
    with pytest.raises(CorruptFixture):
        load_fixture("case4", base_dir=work)
