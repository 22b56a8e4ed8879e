"""Multi-speaker simulation driven by per-speaker tag profiles.

A task file names at least two speaker profiles, each under a non-empty
name other than ``moderator`` (the task turn's speaker), plus a task
statement:

    {"speaker_A": {"tone": "NEUTRAL", ...},
     "speaker_B": {"tone": "HIGHASSERT", ...},
     "task": "Simulate a debate ..."}

Simulation seeds the transcript with the task as a system turn, then lets the
speakers take turns through the full reply pipeline. With the stub client and
a fixed seed the generated transcript is byte-identical across runs; the seed
only feeds the speaking-order shuffle, never wall-clock state. Output files
follow the ``<task-id>.<timestamp>.jsonl`` convention, and the timestamp
lives only in the file name, never in the content.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .dialogue.llm import LlmClient
from .dialogue.pipeline import run_pipeline
from .dialogue.transcript import DialogueTurn, Transcript, dump_transcript_jsonl
from .errors import InvalidRequest, MalformedJson
from .gcode.tags import SpeakerModuleConfig, speaker_module_from_obj
from .jsonio import parse_json

TASK_TURN_SPEAKER = "moderator"


@dataclass(frozen=True)
class MultiSpeakerTask:
    speakers: dict[str, SpeakerModuleConfig]
    task: str

    def __post_init__(self) -> None:
        if len(self.speakers) < 2:
            raise InvalidRequest(f"a task needs at least 2 speakers, got {len(self.speakers)}")
        if "" in self.speakers:
            raise InvalidRequest("speaker names must be non-empty")
        if not self.task:
            raise InvalidRequest("task statement must be non-empty")
        if TASK_TURN_SPEAKER in self.speakers:
            raise InvalidRequest(f"speaker name {TASK_TURN_SPEAKER!r} is taken by the task turn")

    @classmethod
    def from_obj(cls, obj: Mapping[str, object]) -> "MultiSpeakerTask":
        """Parse the task document: every key except ``task`` is a profile."""
        if not isinstance(obj, Mapping):
            raise MalformedJson(f"task must be a JSON object, got {type(obj).__name__}")
        task = obj.get("task")
        if not isinstance(task, str):
            raise InvalidRequest(f"task document needs a 'task' string, got {type(task).__name__}")
        speakers = {
            key: speaker_module_from_obj(value) for key, value in obj.items() if key != "task"
        }
        return cls(speakers=speakers, task=task)


def load_task(path: str | Path) -> MultiSpeakerTask:
    return MultiSpeakerTask.from_obj(parse_json(Path(path).read_bytes(), ""))


def simulate(
    task: MultiSpeakerTask,
    llm: LlmClient,
    turns: int,
    seed: int,
) -> Transcript:
    """Run ``turns`` pipeline replies over the task's speakers."""
    if turns < 1:
        raise InvalidRequest(f"turn budget must be >= 1, got {turns}")
    rng = random.Random(seed)
    order = sorted(task.speakers)
    rng.shuffle(order)

    transcript = Transcript(
        turns=(
            DialogueTurn(
                speaker=TASK_TURN_SPEAKER, text=task.task, turn_role="system", index=0
            ),
        ),
    )
    for i in range(turns):
        name = order[i % len(order)]
        result = run_pipeline(transcript, task.speakers[name], llm, speaker=name)
        transcript = transcript.with_turn(result.reply)
    return transcript


def run_simulation_to_file(
    task: MultiSpeakerTask,
    llm: LlmClient,
    out_dir: str | Path,
    task_id: str,
    turns: int,
    seed: int,
) -> Path:
    """Simulate and write ``<task-id>.<timestamp>.jsonl`` under ``out_dir``."""
    transcript = simulate(task, llm, turns=turns, seed=seed)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = directory / f"{task_id}.{stamp}.jsonl"
    dump_transcript_jsonl(transcript, path)
    return path
