"""Group comparison arithmetic checked against an independent statistics library."""

from __future__ import annotations

import math
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from msa.errors import DegenerateVariance, RangeViolation
from msa.scoring.stats import (
    GroupStats,
    format_interval,
    mean_confidence_interval,
    two_sample_t,
)

GROUP_A = GroupStats(n=1102, mean=7.8, std_dev=0.57)
GROUP_B = GroupStats(n=373, mean=6.4, std_dev=0.24)

groups = st.builds(
    GroupStats,
    n=st.integers(min_value=2, max_value=5000),
    mean=st.floats(min_value=-50, max_value=50, allow_nan=False),
    std_dev=st.floats(min_value=0.01, max_value=20, allow_nan=False),
)


def test_pooled_t_matches_library():
    t, df = two_sample_t(GROUP_A, GROUP_B)
    ref_t, _ = scipy_stats.ttest_ind_from_stats(
        GROUP_A.mean, GROUP_A.std_dev, GROUP_A.n,
        GROUP_B.mean, GROUP_B.std_dev, GROUP_B.n,
        equal_var=True,
    )
    assert df == 1102 + 373 - 2
    assert math.isclose(t, float(ref_t), rel_tol=0, abs_tol=1e-9)


def test_welch_t_matches_library():
    t, df = two_sample_t(GROUP_A, GROUP_B, variant="welch")
    ref_t, _ = scipy_stats.ttest_ind_from_stats(
        GROUP_A.mean, GROUP_A.std_dev, GROUP_A.n,
        GROUP_B.mean, GROUP_B.std_dev, GROUP_B.n,
        equal_var=False,
    )
    assert math.isclose(t, float(ref_t), rel_tol=0, abs_tol=1e-9)
    # Welch-Satterthwaite df for these groups is large but below pooled
    assert 0 < df < 1473


@given(groups, groups)
def test_pooled_matches_library_everywhere(a, b):
    t, _ = two_sample_t(a, b)
    ref_t, _ = scipy_stats.ttest_ind_from_stats(
        a.mean, a.std_dev, a.n, b.mean, b.std_dev, b.n, equal_var=True
    )
    assert math.isclose(t, float(ref_t), rel_tol=1e-9, abs_tol=1e-9)


@given(groups, groups)
def test_welch_matches_library_everywhere(a, b):
    t, _ = two_sample_t(a, b, variant="welch")
    ref_t, _ = scipy_stats.ttest_ind_from_stats(
        a.mean, a.std_dev, a.n, b.mean, b.std_dev, b.n, equal_var=False
    )
    assert math.isclose(t, float(ref_t), rel_tol=1e-9, abs_tol=1e-9)


@given(groups, groups)
def test_antisymmetry(a, b):
    t_ab, df_ab = two_sample_t(a, b)
    t_ba, df_ba = two_sample_t(b, a)
    assert math.isclose(t_ab, -t_ba, rel_tol=1e-12, abs_tol=1e-12)
    assert df_ab == df_ba


def test_degenerate_variance_needs_both_zero():
    flat = GroupStats(n=10, mean=5.0, std_dev=0.0)
    wide = GroupStats(n=10, mean=6.0, std_dev=1.0)
    with pytest.raises(DegenerateVariance):
        two_sample_t(flat, GroupStats(n=8, mean=4.0, std_dev=0.0))
    t, _ = two_sample_t(flat, wide)
    assert math.isfinite(t)


@pytest.mark.parametrize("variant", ["pooled", "welch"])
def test_underflowing_standard_error_is_degenerate(variant):
    with pytest.raises(DegenerateVariance):
        two_sample_t(GroupStats(2, 1.0, 1e-320), GroupStats(2, 1.0, 0.0), variant)


@pytest.mark.parametrize(
    "a,b,variant",
    [
        ((2, 1e308, 1e308), (2, -1e308, 1e308), "pooled"),
        ((2, 1e308, 1e308), (2, -1e308, 1e308), "welch"),
        ((2, 1e308, 1.0), (2, -1e308, 1.0), "pooled"),
        ((2, 1e308, 1.0), (2, -1e308, 1.0), "welch"),
        ((2, 1.0, 1.4e-85), (2, 0.0, 0.0), "welch"),  # the df's squared terms underflow
        ((10**400, 1.0, 1.0), (2, 1.0, 1.0), "pooled"),
    ],
    ids=["variance-pooled", "variance-welch", "mean-pooled", "mean-welch", "welch-df",
         "huge-n"],
)
def test_arithmetic_out_of_float_range_is_a_range_violation(a, b, variant):
    with pytest.raises(RangeViolation):
        two_sample_t(GroupStats(*a), GroupStats(*b), variant)


def test_group_validation():
    with pytest.raises(RangeViolation):
        GroupStats(n=1, mean=5.0, std_dev=1.0)
    with pytest.raises(RangeViolation):
        GroupStats(n=10, mean=5.0, std_dev=-0.1)


@pytest.mark.parametrize("mean,std_dev", [(math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan),
                                          (5.0, math.inf)])
def test_group_rejects_non_finite_values(mean, std_dev):
    with pytest.raises(RangeViolation):
        GroupStats(n=10, mean=mean, std_dev=std_dev)


def test_parse_triplet():
    g = GroupStats.parse("1102,7.8,0.57")
    assert (g.n, g.mean, g.std_dev) == (1102, 7.8, 0.57)
    g = GroupStats.parse(" 373 , 6.4 , 0.24 ")
    assert g.n == 373
    with pytest.raises(RangeViolation):
        GroupStats.parse("373,6.4")
    with pytest.raises(RangeViolation):
        GroupStats.parse("a,b,c")


def test_confidence_interval_against_closed_form():
    lo, hi = mean_confidence_interval(GROUP_B, 0.95)
    z = NormalDist().inv_cdf(0.975)
    margin = z * GROUP_B.std_dev / math.sqrt(GROUP_B.n)
    assert lo == pytest.approx(GROUP_B.mean - margin, abs=1e-12)
    assert hi == pytest.approx(GROUP_B.mean + margin, abs=1e-12)


def test_confidence_level_bounds():
    with pytest.raises(RangeViolation):
        mean_confidence_interval(GROUP_B, 0.0)
    with pytest.raises(RangeViolation):
        mean_confidence_interval(GROUP_B, 1.0)


@given(groups, st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]))
def test_interval_contains_mean_and_widens(g, level):
    lo, hi = mean_confidence_interval(g, level)
    assert lo <= g.mean <= hi
    wider_lo, wider_hi = mean_confidence_interval(g, min(level + 0.009, 0.999))
    assert wider_hi - wider_lo >= hi - lo


def test_format_interval_two_decimals():
    assert format_interval(6.375644, 6.424356) == "[6.38, 6.42]"
    assert format_interval(1.0, 2.5) == "[1.00, 2.50]"
