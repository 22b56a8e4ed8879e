"""Evaluation rubric: sub-scores, their document, metric totals, and role shift rate.

Three metrics, four sub-dimensions each. The first three sub-dimensions of a
metric score 0 to 2, the fourth scores 0 to 3, so each metric totals 0 to 9.
All sub-scores are integers; anything out of range raises RangeViolation at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import InvalidRequest, RangeViolation
from ..dialogue.transcript import PragmaticRole

SUB_MAXIMA = (2, 2, 2, 3)

METRIC_KEYS = ("pragmatic", "responsibility", "context")

METRIC_TITLES = {
    "pragmatic": "Pragmatic Consistency",
    "responsibility": "Responsibility Chain",
    "context": "Context Stability",
}

SUB_TITLES = {
    "pragmatic": ("Tone Consistency", "Functional Role Stability",
                  "Syntax and Rhythm Coherence", "Discursive Domain Clarity"),
    "responsibility": ("Attribution Clarity", "Responsibility Continuity",
                       "Legitimate Transfer", "Chain Closure"),
    "context": ("Thematic Stability", "Contextual Mirroring",
                "Repair Capability", "Presuppositional Alignment"),
}


def _check_four(name: str, values: Sequence[int]) -> tuple[int, int, int, int]:
    if len(values) != 4:
        raise RangeViolation(f"{name}: expected 4 sub-scores, got {len(values)}")
    for value, maximum in zip(values, SUB_MAXIMA):
        if not isinstance(value, int) or isinstance(value, bool):
            raise RangeViolation(f"{name}: sub-score {value!r} is not an integer")
        if not 0 <= value <= maximum:
            raise RangeViolation(f"{name}: sub-score {value} outside 0..{maximum}")
    return tuple(values)  # type: ignore[return-value]


@dataclass(frozen=True)
class SubScores:
    pragmatic: tuple[int, int, int, int]
    responsibility: tuple[int, int, int, int]
    context: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for key in METRIC_KEYS:
            object.__setattr__(self, key, _check_four(key, getattr(self, key)))

    @classmethod
    def from_dict(cls, obj: Mapping[str, object]) -> "SubScores":
        if not isinstance(obj, Mapping):
            raise RangeViolation(f"sub-scores must be an object, got {type(obj).__name__}")
        missing = [key for key in METRIC_KEYS if key not in obj]
        if missing:
            raise RangeViolation(f"sub-score object missing {missing}")
        rows = {}
        for key in METRIC_KEYS:
            values = obj[key]
            if not isinstance(values, (list, tuple)):
                raise RangeViolation(f"{key}: expected an array of 4 sub-scores")
            rows[key] = tuple(values)
        return cls(**rows)

    def to_dict(self) -> dict[str, list[int]]:
        return {key: list(getattr(self, key)) for key in METRIC_KEYS}


def read_subscores(obj: object) -> tuple[SubScores, tuple[PragmaticRole, ...]]:
    """Read a sub-scores document: its rows and its optional ``function_roles``.

    Bad rows raise RangeViolation; a ``function_roles`` that is not an array
    or names an unknown role raises InvalidRequest.
    """
    sub = SubScores.from_dict(obj)
    raw = obj.get("function_roles", [])
    if not isinstance(raw, list):
        raise InvalidRequest(f"function_roles must be an array, got {type(raw).__name__}")
    try:
        return sub, tuple(PragmaticRole(role) for role in raw)
    except ValueError as exc:
        raise InvalidRequest(f"function_roles: {exc}") from None


def all_totals(sub: SubScores) -> tuple[int, int, int]:
    """Each metric's sum of its four sub-scores (0 to 9), in METRIC_KEYS order."""
    return tuple(sum(getattr(sub, key)) for key in METRIC_KEYS)  # type: ignore[return-value]


def band(total: int) -> str:
    """Coarse reading of a metric total."""
    if total == 9:
        return "fully consistent"
    if total >= 6:
        return "mostly stable"
    return "fragmented"


def shift_rate(roles: Sequence[PragmaticRole]) -> tuple[float, int] | None:
    """Share of consecutive role pairs that differ, and that share as a whole percent.

    The percent is truncated, so one third renders as 33. None below two
    roles, where no pair exists.
    """
    if len(roles) < 2:
        return None
    shifts = sum(1 for prev, curr in zip(roles, roles[1:]) if prev != curr)
    return shifts / (len(roles) - 1), shifts * 100 // (len(roles) - 1)
