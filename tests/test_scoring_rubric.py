"""Rubric arithmetic: sub-score validation, totals, bands, shift rates."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msa.dialogue.transcript import PragmaticRole
from msa.errors import RangeViolation
from msa.scoring.rubric import (
    SUB_MAXIMA,
    SubScores,
    all_totals,
    band,
    shift_rate,
)

IP = PragmaticRole.INFORMATION_PROVIDER
CL = PragmaticRole.CLARIFIER
CH = PragmaticRole.CHALLENGER
EV = PragmaticRole.EVADER


def test_totals_sum_the_four_sub_dimensions():
    sub = SubScores(pragmatic=(2, 2, 2, 3), responsibility=(2, 2, 1, 3), context=(1, 1, 1, 2))
    assert all_totals(sub) == (9, 8, 5)


def test_maximum_is_nine():
    top = SubScores(pragmatic=SUB_MAXIMA, responsibility=SUB_MAXIMA, context=SUB_MAXIMA)
    assert all_totals(top) == (9, 9, 9)


@pytest.mark.parametrize(
    "bad",
    [
        (3, 2, 2, 3),   # first three capped at 2
        (2, 2, 2, 4),   # fourth capped at 3
        (-1, 2, 2, 3),
        (2, 2, 2),      # wrong arity
        (2, 2, 2, 3, 0),
        (0.5, 2, 2, 3), # non-integer
        (True, 2, 2, 3),
    ],
)
def test_out_of_range_subscores_rejected(bad):
    with pytest.raises(RangeViolation):
        SubScores(pragmatic=tuple(bad), responsibility=(0, 0, 0, 0), context=(0, 0, 0, 0))


def test_from_dict_requires_all_metrics():
    with pytest.raises(RangeViolation):
        SubScores.from_dict({"pragmatic": [2, 2, 2, 3]})
    with pytest.raises(RangeViolation):
        SubScores.from_dict({"pragmatic": [2, 2, 2, 3], "responsibility": 7, "context": [0, 0, 0, 0]})


def test_from_dict_round_trip():
    obj = {"pragmatic": [2, 2, 2, 3], "responsibility": [1, 2, 2, 3], "context": [0, 1, 2, 3]}
    assert SubScores.from_dict(obj).to_dict() == obj


def test_band_labels():
    assert band(9) == "fully consistent"
    assert band(8) == "mostly stable"
    assert band(6) == "mostly stable"
    assert band(5) == "fragmented"
    assert band(0) == "fragmented"


def test_count_role_shifts():
    def shifts(roles):
        return round(shift_rate(roles)[0] * (len(roles) - 1))

    assert shifts([IP, IP, IP]) == 0
    assert shifts([IP, CL, IP]) == 2
    assert shifts([IP, CL, CL, CH]) == 2


def test_shift_rate_denominator_is_turns_minus_one():
    assert shift_rate([IP] * 5)[0] == 0.0
    assert shift_rate([IP, CH, EV, EV, CL])[0] == pytest.approx(3 / 4)


def test_shift_rate_needs_two_turns():
    assert shift_rate([IP]) is None
    assert shift_rate([]) is None


def test_percent_truncates_toward_zero():
    assert shift_rate([IP, CL, IP, IP])[1] == 66   # 2/3
    assert shift_rate([CL, CL, CH, CH])[1] == 33   # 1/3
    assert shift_rate([IP, CL])[1] == 100
    assert shift_rate([IP, IP])[1] == 0


@given(st.lists(st.sampled_from([IP, CL, CH, EV]), min_size=2, max_size=30))
def test_percent_matches_float_rate(roles):
    rate, percent = shift_rate(roles)
    assert percent == int(rate * 100)


@given(st.lists(st.sampled_from([IP, CL]), min_size=2, max_size=30))
def test_rate_bounds(roles):
    assert 0.0 <= shift_rate(roles)[0] <= 1.0
