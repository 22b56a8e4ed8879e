"""Dialogue turns and transcripts, with JSONL persistence.

A turn carries two distinct notions of role. ``turn_role`` is the
conversational slot (user, assistant, system) that alternates turn by turn.
``function_role`` is the pragmatic stance of the utterance and changes only
for discourse reasons. They are never conflated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import InvalidRequest
from ..jsonio import parse_json

TURN_ROLES = ("user", "assistant", "system")


class PragmaticRole(Enum):
    INFORMATION_PROVIDER = "information_provider"
    CONTEXT_CONFIRMER = "context_confirmer"
    RESPONSIBILITY_ACCEPTOR = "responsibility_acceptor"
    RESPONSIBILITY_DELEGATOR = "responsibility_delegator"
    CLARIFIER = "clarifier"
    CONCEPTUAL_BUILDER = "conceptual_builder"
    CHALLENGER = "challenger"
    EVADER = "evader"


@dataclass(frozen=True)
class DialogueTurn:
    speaker: str
    text: str
    turn_role: str
    function_role: PragmaticRole | None = None
    index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.speaker, str):
            raise InvalidRequest(f"turn speaker must be a string, got {self.speaker!r}")
        if not isinstance(self.text, str):
            raise InvalidRequest(f"turn text must be a string, got {self.text!r}")
        if not isinstance(self.turn_role, str):
            raise InvalidRequest(f"turn turn_role must be a string, got {self.turn_role!r}")
        if type(self.index) is not int:  # bool is an int subclass, and not an index
            raise InvalidRequest(f"turn index must be an integer, got {self.index!r}")
        if self.function_role is not None and type(self.function_role) is not PragmaticRole:
            raise InvalidRequest(f"unknown function_role {self.function_role!r}")
        if not self.speaker:
            raise InvalidRequest("turn speaker must be non-empty")
        if not self.text:
            raise InvalidRequest("turn text must be non-empty")
        if self.turn_role not in TURN_ROLES:
            raise InvalidRequest(f"turn_role must be one of {TURN_ROLES}, got {self.turn_role!r}")
        if self.index < 0:
            raise InvalidRequest(f"turn index must be >= 0, got {self.index}")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "speaker": self.speaker,
            "text": self.text,
            "turn_role": self.turn_role,
        }
        if self.function_role is not None:
            out["function_role"] = self.function_role.value
        out["index"] = self.index
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, object]) -> "DialogueTurn":
        """The turn a transcript row describes; a key that is not a field is refused."""
        if not isinstance(obj, Mapping):
            raise InvalidRequest(f"turn must be an object, got {type(obj).__name__}")
        role_raw = obj.get("function_role")
        function_role = None
        if role_raw is not None:
            try:
                function_role = PragmaticRole(str(role_raw))
            except ValueError:
                raise InvalidRequest(f"unknown function_role {role_raw!r}") from None
        turn = cls(
            speaker=obj.get("speaker", ""),
            text=obj.get("text", ""),
            turn_role=obj.get("turn_role", ""),
            function_role=function_role,
            index=obj.get("index", 0),
        )
        if not obj.keys() <= _TURN_KEYS:
            key = next(key for key in obj if key not in _TURN_KEYS)
            raise InvalidRequest(f"unknown turn key {key!r}; keys are {', '.join(_TURN_KEYS)}")
        return turn


# a dict's keys view: a set for the check, in field order for the message
_TURN_KEYS = dict.fromkeys(field.name for field in fields(DialogueTurn)).keys()


def _check_follows(prev: DialogueTurn, curr: DialogueTurn) -> None:
    if curr.index != prev.index + 1:
        raise InvalidRequest(f"turn indices must be consecutive: {prev.index} then {curr.index}")


@dataclass(frozen=True)
class Transcript:
    turns: tuple[DialogueTurn, ...] = ()

    def __post_init__(self) -> None:
        for prev, curr in zip(self.turns, self.turns[1:]):
            _check_follows(prev, curr)

    def __len__(self) -> int:
        return len(self.turns)

    @property
    def next_index(self) -> int:
        return self.turns[-1].index + 1 if self.turns else 0

    def with_turn(self, turn: DialogueTurn) -> "Transcript":
        """This transcript and then ``turn``. The earlier pairs were checked when
        this transcript was built, so only the new turn's index is checked."""
        if self.turns:
            _check_follows(self.turns[-1], turn)
        extended = object.__new__(Transcript)
        object.__setattr__(extended, "turns", self.turns + (turn,))
        return extended

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[str, object]]) -> "Transcript":
        return cls(turns=tuple(DialogueTurn.from_dict(row) for row in rows))


def parse_transcript_jsonl(data: bytes, source: str) -> Transcript:
    """Transcript from JSONL bytes: one turn object per line, blank lines skipped.

    Lines end at a line feed only: a bare carriage return is JSON whitespace
    inside a line, and U+0085 or U+2028, which json.dumps writes raw, stay in
    the turn text. A line that is not UTF-8 JSON raises MalformedJson naming
    ``source:line``.
    """
    rows = [
        parse_json(line, f"{source}:{lineno}")
        for lineno, line in enumerate(data.split(b"\n"), start=1)
        if line.strip()
    ]
    return Transcript.from_dicts(rows)


def load_transcript_jsonl(path: str | Path) -> Transcript:
    return parse_transcript_jsonl(Path(path).read_bytes(), str(path))


def dump_transcript_jsonl(transcript: Transcript, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for turn in transcript.turns:
            handle.write(json.dumps(turn.to_dict(), ensure_ascii=False) + "\n")
