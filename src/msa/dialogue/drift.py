"""Context drift detection and realignment.

The overlap ratio divides the number of distinct shared tokens by the total
token count of the current utterance. An utterance drifts exactly when that
ratio falls strictly below DEFAULT_DRIFT_THRESHOLD (0.2), so a ratio equal to
the threshold does not drift. The realignment directive is computed from the
current turn alone; no history re-scan is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..text import excerpt, tokenize

DEFAULT_DRIFT_THRESHOLD = 0.2


@dataclass(frozen=True)
class DriftReport:
    overlap_ratio: float
    realignment: str | None

    @property
    def drifted(self) -> bool:
        return self.realignment is not None


def generate_realignment(last_user_text: str) -> str:
    """Directive suffix asking the counterpart to re-anchor before replying.

    The utterance is quoted through ``excerpt`` (at most 120 characters plus
    ``...``), so a reply that echoes its directives cannot double in length
    every turn.
    """
    return f"(please confirm first: '{excerpt(last_user_text)}')"


def detect_drift(prev_text: str, curr_text: str) -> DriftReport | None:
    """Compare the current utterance against the previous one.

    Both texts are lowercased and stripped of ASCII punctuation before
    splitting. A current utterance with no tokens (say ``...``) has nothing
    to compare, so it gets no report: the result is None.
    """
    prev_tokens = tokenize(prev_text)
    curr_tokens = tokenize(curr_text)
    if not curr_tokens:
        return None
    overlap = len(set(prev_tokens) & set(curr_tokens))
    ratio = overlap / len(curr_tokens)
    return DriftReport(
        overlap_ratio=ratio,
        realignment=generate_realignment(curr_text) if ratio < DEFAULT_DRIFT_THRESHOLD else None,
    )
