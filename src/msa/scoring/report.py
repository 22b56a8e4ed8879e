"""Score cards, their canonical JSON form, and plain-text tables.

The canonical serializer is the single source for both the CLI and the HTTP
surface, so the two emit byte-identical documents for the same input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from ..dialogue.transcript import PragmaticRole
from .heuristics import CONFIDENCE, HeuristicScores, auto_annotate, heuristic_score
from .rubric import (
    METRIC_KEYS,
    METRIC_TITLES,
    SUB_TITLES,
    SubScores,
    all_totals,
    band,
    shift_rate,
)

if TYPE_CHECKING:
    from ..dialogue.transcript import Transcript

TOTAL_KEYS = ("pragmatic_consistency", "responsibility_chain", "context_stability")


@dataclass(frozen=True)
class ScoreCard:
    """The values a card cannot derive; ``to_dict`` derives the rest.

    A card that carries the heuristic triple comes from mechanical
    annotation: it is advisory and reports CONFIDENCE.
    """

    subscores: SubScores
    roles: Sequence[PragmaticRole] = ()
    heuristic: HeuristicScores | None = None

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "totals": dict(zip(TOTAL_KEYS, all_totals(self.subscores))),
            "subscores": self.subscores.to_dict(),
        }
        if self.heuristic is not None:
            out["confidence"] = dict(CONFIDENCE)
        out["shift_rate"], out["shift_rate_percent"] = shift_rate(self.roles) or (None, None)
        if self.heuristic is not None:
            out["heuristic"] = self.heuristic.to_dict()
        out["advisory"] = self.heuristic is not None
        return out


def scorecard_json(card: ScoreCard) -> str:
    """Canonical JSON document, trailing newline included."""
    return json.dumps(card.to_dict(), indent=2, ensure_ascii=False) + "\n"


def annotate_transcript(transcript: "Transcript") -> ScoreCard:
    """Mechanical annotation of a transcript.

    Combines the advisory sub-score estimate, the coarse heuristic triple,
    and, when the turns carry pragmatic roles, the role shift rate.
    """
    return ScoreCard(
        auto_annotate(transcript),
        [t.function_role for t in transcript.turns if t.function_role is not None],
        heuristic_score(transcript),
    )


def render_case_table(card: ScoreCard, title: str) -> str:
    """Readable evaluation breakdown, one block per metric."""
    lines = [title, "=" * len(title)]
    prefixes = {"pragmatic": "P", "responsibility": "R", "context": "C"}
    sub = card.subscores
    for metric, total in zip(METRIC_KEYS, all_totals(sub)):
        lines.append(f"{METRIC_TITLES[metric]:<34}{total}/9  ({band(total)})")
        values = getattr(sub, metric)
        for i, (label, value) in enumerate(zip(SUB_TITLES[metric], values), start=1):
            lines.append(f"  {prefixes[metric]}{i} {label:<29}{value}")
    shift = shift_rate(card.roles)
    if shift is not None:
        lines.append(f"{'Speaker Role Shift Rate':<34}{shift[1]}%")
    return "\n".join(lines) + "\n"
