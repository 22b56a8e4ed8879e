"""Two-sample comparisons from summary statistics.

Works entirely from (n, mean, sd) triples; raw samples are never needed.
The pooled-variance t statistic is the default, Welch's correction is opt-in.
Confidence intervals use the normal approximation. Intervals are computed at
full precision and rounded to two decimals only at presentation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from ..errors import DegenerateVariance, RangeViolation

VARIANTS = ("pooled", "welch")


@dataclass(frozen=True)
class GroupStats:
    n: int
    mean: float
    std_dev: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise RangeViolation(f"group size must be >= 2, got {self.n}")
        if not (math.isfinite(self.mean) and math.isfinite(self.std_dev)):
            raise RangeViolation(f"mean and standard deviation must be finite, got {self}")
        if self.std_dev < 0:
            raise RangeViolation(f"standard deviation must be >= 0, got {self.std_dev}")

    @classmethod
    def parse(cls, text: str) -> "GroupStats":
        """Parse the CLI shape ``N,MEAN,SD``."""
        parts = text.split(",")
        if len(parts) != 3:
            raise RangeViolation(f"expected N,MEAN,SD, got {text!r}")
        try:
            return cls(n=int(parts[0]), mean=float(parts[1]), std_dev=float(parts[2]))
        except ValueError as exc:
            raise RangeViolation(f"bad group stats {text!r}: {exc}") from exc


def two_sample_t(a: GroupStats, b: GroupStats, variant: str = "pooled") -> tuple[float, float]:
    """(t, degrees of freedom) for the difference of means a - b.

    Pooled assumes equal variances with df = n_a + n_b - 2. Welch drops the
    assumption and uses the Welch-Satterthwaite df. Raises DegenerateVariance
    when the standard error is zero (both groups have no spread, or it
    underflows), where no t exists, and RangeViolation when the arithmetic
    leaves the float range.
    """
    if variant not in VARIANTS:
        raise RangeViolation(f"variant must be one of {VARIANTS}, got {variant!r}")
    try:
        var_a, var_b = a.std_dev**2, b.std_dev**2
        if variant == "pooled":
            df = float(a.n + b.n - 2)
            pooled_var = ((a.n - 1) * var_a + (b.n - 1) * var_b) / df
            se = math.sqrt(pooled_var * (1 / a.n + 1 / b.n))
        else:
            se_sq_a, se_sq_b = var_a / a.n, var_b / b.n
            se = math.sqrt(se_sq_a + se_sq_b)
        if se == 0:
            raise DegenerateVariance("the standard error of the difference is zero")
        if variant == "welch":
            df = (se_sq_a + se_sq_b) ** 2 / (
                se_sq_a**2 / (a.n - 1) + se_sq_b**2 / (b.n - 1)
            )
        t = (a.mean - b.mean) / se
    except ArithmeticError as exc:  # overflow, or a Welch df whose terms underflow to 0
        raise RangeViolation(f"summary statistics leave the float range: {exc}") from exc
    if not (math.isfinite(t) and math.isfinite(df)):
        raise RangeViolation(f"summary statistics leave the float range: t={t}, df={df}")
    return t, df


def mean_confidence_interval(g: GroupStats, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval for the group mean."""
    if not 0 < level < 1:
        raise RangeViolation(f"confidence level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf((1 + level) / 2)
    half = z * g.std_dev / math.sqrt(g.n)
    return g.mean - half, g.mean + half


def format_interval(lo: float, hi: float) -> str:
    """Presentation form, endpoints rounded to two decimals."""
    return f"[{lo:.2f}, {hi:.2f}]"
