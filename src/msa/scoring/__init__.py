"""Evaluation rubric, heuristic scoring, and group statistics."""

from .heuristics import (
    HeuristicScores,
    auto_annotate,
    heuristic_score,
)
from .report import ScoreCard, annotate_transcript, render_case_table, scorecard_json
from .rubric import (
    METRIC_KEYS,
    SUB_MAXIMA,
    SubScores,
    all_totals,
    band,
    count_role_shifts,
    role_shift_rate,
    shift_rate_percent,
)
from .stats import (
    GroupStats,
    format_interval,
    mean_confidence_interval,
    two_sample_t,
)

__all__ = [
    "GroupStats",
    "HeuristicScores",
    "METRIC_KEYS",
    "SUB_MAXIMA",
    "ScoreCard",
    "SubScores",
    "all_totals",
    "annotate_transcript",
    "auto_annotate",
    "band",
    "count_role_shifts",
    "format_interval",
    "heuristic_score",
    "mean_confidence_interval",
    "render_case_table",
    "role_shift_rate",
    "scorecard_json",
    "shift_rate_percent",
    "two_sample_t",
]
