"""Token-overlap drift detection and realignment directives."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msa.dialogue.drift import DEFAULT_DRIFT_THRESHOLD, detect_drift, generate_realignment

WORDS = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=5), min_size=1, max_size=12
)


def test_identical_turns_do_not_drift():
    report = detect_drift("the same words", "the same words", turn_index=1)
    assert report.overlap_ratio == 1.0
    assert not report.drifted
    assert report.realignment is None


def test_disjoint_turns_drift_with_realignment():
    report = detect_drift("alpha beta gamma", "delta epsilon zeta", turn_index=3)
    assert report.overlap_ratio == 0.0
    assert report.drifted
    assert report.realignment == "(please confirm first: 'delta epsilon zeta')"


def test_boundary_ratio_is_not_drift():
    # 1 shared token, 5 current tokens: ratio exactly 0.2
    report = detect_drift("anchor one two", "anchor b c d e", turn_index=1)
    assert report.overlap_ratio == pytest.approx(0.2)
    assert not report.drifted


def test_just_below_boundary_is_drift():
    # 1 shared token of 6: ratio 0.1666...
    report = detect_drift("anchor one two", "anchor b c d e f", turn_index=1)
    assert report.overlap_ratio < DEFAULT_DRIFT_THRESHOLD
    assert report.drifted


def test_denominator_counts_raw_tokens_not_unique():
    # current has 5 tokens, 2 unique; intersection {echo}; ratio 1/5
    report = detect_drift("echo", "echo echo echo echo solo", turn_index=1)
    assert report.overlap_ratio == pytest.approx(0.2)
    assert not report.drifted


def test_punctuation_and_case_fold_by_default():
    report = detect_drift("Deploy the Fix.", "deploy the fix", turn_index=1)
    assert report.overlap_ratio == 1.0


def test_tokenless_current_utterance_gets_no_report():
    assert detect_drift("something", "", turn_index=1) is None
    assert detect_drift("something", "...", turn_index=1) is None


def test_realignment_quotes_text_verbatim():
    assert generate_realignment("why's that?") == "(please confirm first: 'why's that?')"


def test_realignment_quotes_a_bounded_excerpt():
    edge = "x" * 120  # the excerpt's documented length
    assert generate_realignment(edge) == f"(please confirm first: '{edge}')"
    assert generate_realignment(edge + "yz") == f"(please confirm first: '{edge}...')"


@given(WORDS, WORDS)
def test_ratio_bounds(prev, curr):
    report = detect_drift(" ".join(prev), " ".join(curr), turn_index=1)
    assert 0.0 <= report.overlap_ratio <= 1.0


@given(WORDS)
def test_self_overlap_is_unique_share(words):
    # the denominator counts raw tokens, so repeats dilute the ratio by design
    text = " ".join(words)
    report = detect_drift(text, text, turn_index=1)
    assert report.overlap_ratio == len(set(words)) / len(words)


@given(WORDS, WORDS)
def test_drift_flag_consistent_with_ratio(prev, curr):
    report = detect_drift(" ".join(prev), " ".join(curr), turn_index=1)
    assert report.drifted == (report.overlap_ratio < DEFAULT_DRIFT_THRESHOLD)
    if report.drifted:
        assert report.realignment is not None
    else:
        assert report.realignment is None
