"""Mechanical scores: the coarse transcript heuristic and the advisory annotator."""

from __future__ import annotations

import json
import random
import string
import sys

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from msa.dialogue.commitments import DEFAULT_PATTERNS_COMMIT, DEFAULT_PATTERNS_TRANSFER
from msa.dialogue.roles import ROLE_CUES, classify_role
from msa.dialogue.transcript import Transcript
from msa.errors import EmptyContext
from msa.fixtures import load_fixture
from msa.jsonio import parse_json
from msa.scoring import heuristics
from msa.scoring.heuristics import CONFIDENCE, auto_annotate, heuristic_score
from msa.scoring.report import annotate_transcript, scorecard_json
from msa.text import contains_any, content_tokens
from helpers import (
    count_calls,
    make_transcript,
    reference_auto_annotate,
    reference_classify_role,
    reference_content_tokens,
    traced_peak,
)


def dialog(*rows):
    return make_transcript(list(rows))


# --- coarse heuristic: role continuity ---

def test_alternating_speakers_score_nine():
    d = dialog(("a", "first point made here", "user"), ("b", "second point made here", "assistant"))
    assert heuristic_score(d).role_continuity == 9


def test_repeated_speaker_scores_five():
    d = dialog(
        ("a", "first point made here", "user"),
        ("a", "second point made here", "user"),
    )
    assert heuristic_score(d).role_continuity == 5


# --- coarse heuristic: commitments ---

@pytest.mark.parametrize(
    "texts,expected",
    [
        (["I will do it soon", "they will see results", "we should hurry now"], 9),
        (["I will do it soon", "we should hurry now", "nothing to add here"], 7),
        (["I will do it soon", "nothing to add here", "nothing more to say"], 5),
        (["nothing to add here", "nothing more to say", "still nothing at all"], 5),
    ],
)
def test_commitment_count_mapping(texts, expected):
    rows = [(("a", "b")[i % 2], t, ("user", "assistant")[i % 2]) for i, t in enumerate(texts)]
    assert heuristic_score(dialog(*rows)).responsibility_trace == expected


def test_commitment_counts_turns_not_phrases():
    d = dialog(("a", "I will do it and I will check and we should start", "user"),
               ("b", "plain reply text here", "assistant"),
               ("a", "another plain line here", "user"))
    assert heuristic_score(d).responsibility_trace == 5  # one matching turn


# --- coarse heuristic: context integrity ---

def test_short_turns_penalized_two_points_each():
    base = [("a", "a perfectly long utterance", "user"), ("b", "another long reply follows", "assistant")]
    assert heuristic_score(dialog(*base)).context_integrity == 9
    one = base + [("a", "too short", "user")]
    assert heuristic_score(dialog(*one)).context_integrity == 7
    two = one + [("b", "me too", "assistant")]
    assert heuristic_score(dialog(*two)).context_integrity == 5


def test_context_integrity_floor_is_one():
    rows = [("a", "hm", "user") for _ in range(9)]
    assert heuristic_score(dialog(*rows)).context_integrity == 1


def test_split_is_raw_whitespace():
    # "ok." is one raw token; the period does not save it
    d = dialog(("a", "ok.", "user"), ("b", "fine then, proceed carefully", "assistant"))
    assert heuristic_score(d).context_integrity == 7


def test_empty_transcript_rejected():
    with pytest.raises(EmptyContext):
        heuristic_score(dialog())


def test_to_dict_keys():
    d = dialog(("a", "hello over there friend", "user"))
    assert set(heuristic_score(d).to_dict()) == {
        "role_continuity",
        "responsibility_trace",
        "context_integrity",
    }


# --- advisory annotator ---

def test_annotate_case1_attribution_is_full():
    fixture = load_fixture("case1")
    out = auto_annotate(fixture.transcript)
    assert out.responsibility[0] == 2


def test_annotate_no_attribution_scores_zero():
    d = dialog(
        ("a", "the weather turned cold", "user"),
        ("b", "indeed the frost came early", "assistant"),
    )
    out = auto_annotate(d)
    assert out.responsibility[0] == 0


def test_annotate_case4_thematic_stability_is_zero():
    fixture = load_fixture("case4")
    out = auto_annotate(fixture.transcript)
    assert out.context[0] == 0


def test_annotate_confidence_is_fixed_map():
    assert set(CONFIDENCE) == {
        "P1", "P2", "P3", "P4", "R1", "R2", "R3", "R4", "C1", "C2", "C3", "C4",
    }
    assert all(0.0 < v <= 1.0 for v in CONFIDENCE.values())


def test_annotate_outputs_valid_subscores():
    for case_id in ("case1", "case2", "case3", "case4"):
        fixture = load_fixture(case_id)
        out = auto_annotate(fixture.transcript)
        for metric in (out.pragmatic, out.responsibility, out.context):
            assert len(metric) == 4
            for value, cap in zip(metric, (2, 2, 2, 3)):
                assert 0 <= value <= cap


def test_annotate_empty_rejected():
    with pytest.raises(EmptyContext):
        auto_annotate(dialog())


# --- advisory annotator against the rescan-every-block oracle ---

MARKER_PHRASES = sorted({
    marker
    for family in (heuristics.CASUAL_MARKERS, heuristics.BLUR_MARKERS,
                   heuristics.ATTRIBUTION_MARKERS, heuristics.CONTINUITY_MARKERS,
                   heuristics.TRANSFER_MARKERS, heuristics.EVASIVE_MARKERS,
                   heuristics.MIRROR_MARKERS, heuristics.REPAIR_MARKERS)
    for marker in family
})
FILLER = ("budget", "plan", "the deadline", "I", "we", "ok", "review", "tomorrow", "?", ".")


def _random_turn(rng: random.Random, alphabet: tuple[str, ...]) -> str:
    words = [rng.choice(alphabet) for _ in range(rng.randint(1, 7))]
    text = " ".join(w.upper() if rng.random() < 0.1 else w for w in words)
    return text + rng.choice(("", ".", "!", "?", "…", " "))


def _assert_matches_oracle(rows):
    for k in range(1, len(rows) + 1):
        prefix = dialog(*rows[:k])
        assert auto_annotate(prefix) == reference_auto_annotate(prefix), rows[:k]


@pytest.mark.parametrize("seed", range(4), ids=lambda seed: f"default-{seed}")
def test_annotate_matches_oracle_on_every_prefix(seed):
    rng = random.Random(seed)
    alphabet = tuple(MARKER_PHRASES) + FILLER + ("a.b", "(x)", "[over]", "*", "a|b", "\\")
    for _ in range(60):
        speakers = rng.sample(("a", "b", "c"), rng.randint(1, 3))
        rows = [(rng.choice(speakers), _random_turn(rng, alphabet), "user")
                for _ in range(rng.randint(1, 10))]
        _assert_matches_oracle(rows)
    # every turn short: under three raw tokens
    words = [w for w in alphabet if len(w.split()) == 1]
    rows = [(rng.choice("ab"), " ".join(rng.choices(words, k=rng.randint(1, 2))), "user")
            for _ in range(10)]
    _assert_matches_oracle(rows)
    # a long transcript, compared whole
    rows = [(rng.choice("abc"), _random_turn(rng, alphabet), "user")
            for _ in range(rng.randint(200, 300))]
    assert auto_annotate(dialog(*rows)) == reference_auto_annotate(dialog(*rows))


def test_annotate_single_turn_matches_oracle():
    _assert_matches_oracle([("a", "I will review the budget tomorrow.", "user")])
    _assert_matches_oracle([("a", "lol", "user")])


def test_annotate_single_speaker_matches_oracle():
    rows = [("a", "I still think the budget is fine.", "user"),
            ("a", "as I said, the budget is fine, kinda", "user"),
            ("a", "over to you", "user")]
    _assert_matches_oracle(rows)
    assert auto_annotate(dialog(*rows)).context[3] == 0


# --- per-turn primitives against their references ---

# Texts built from these atoms cross every rule the primitives implement:
# all 29 code points str.split() splits on, lowercasings that change length
# ("İ"), leave a letter alone ("ß") or depend on the next character ("Σ"),
# and every cue phrase.
PRIMITIVE_ATOMS = (
    tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    + tuple(string.punctuation)
    + ("İ", "ß", "Σ")
    + tuple(string.digits)
    + tuple(string.ascii_letters)
    + tuple(phrase for phrases, _ in ROLE_CUES for phrase in phrases)
    + DEFAULT_PATTERNS_COMMIT
    + DEFAULT_PATTERNS_TRANSFER
)


@seed(20260)
@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PRIMITIVE_ATOMS), max_size=40).map("".join))
@example(f"word{string.punctuation}word {string.punctuation}")
def test_per_turn_primitives_match_their_references(text):
    assert content_tokens(text) == reference_content_tokens(text)
    assert classify_role(text) is reference_classify_role(text)
    for phrases in (DEFAULT_PATTERNS_COMMIT, DEFAULT_PATTERNS_TRANSFER,
                    *(phrases for phrases, _ in ROLE_CUES)):
        assert contains_any(text, phrases) == any(p in text for p in phrases)


@pytest.mark.parametrize("n_turns", [6, 600])
def test_annotate_tokenizes_each_turn_once(monkeypatch, n_turns):
    calls = count_calls(monkeypatch, heuristics, "content_tokens")
    rows = [("ab"[i % 2], f"turn {i} keeps the budget review going.", "user")
            for i in range(n_turns)]
    auto_annotate(dialog(*rows))
    assert len(calls) == n_turns


# --- memory: annotation holds running counts, not rows per turn ---

VOCABULARY = ("budget", "plan", "deadline", "review", "tomorrow", "owner", "scope",
              "risk", "launch", "draft", "metric", "team", "quarter")


def _turn_row(index, words_per_turn):
    words = (VOCABULARY[(index + k) % len(VOCABULARY)] for k in range(words_per_turn))
    return {"speaker": "ab"[index % 2], "text": " ".join(words), "turn_role": "user",
            "index": index}


@pytest.mark.parametrize("words_per_turn", [1, 4])
def test_annotate_request_peaks_under_seven_times_its_body(words_per_turn):
    # the service path of POST /annotate, from the body bytes to the reply text
    row_bytes = len(json.dumps(_turn_row(10_000, words_per_turn))) + 2
    rows = [_turn_row(i, words_per_turn) for i in range((1 << 20) // row_bytes)]
    body = json.dumps({"turns": rows}).encode("utf-8")

    def serve_one():
        turns = parse_json(body, "")["turns"]
        scorecard_json(annotate_transcript(Transcript.from_dicts(turns)))

    peak = traced_peak(serve_one)
    assert peak <= 7 * len(body), (peak / len(body), len(body))


def test_annotate_transient_does_not_grow_with_turns():
    small, large = (Transcript.from_dicts(_turn_row(i, 4) for i in range(n))
                    for n in (2_000, 8_000))
    small_peak = traced_peak(lambda: auto_annotate(small))
    large_peak = traced_peak(lambda: auto_annotate(large))
    assert large_peak <= 1.5 * small_peak, (small_peak, large_peak)
