"""Multi-speaker simulation: task documents, ordering, determinism."""

from __future__ import annotations

import json

import pytest

import msa.dialogue.commitments
import msa.dialogue.pipeline
import msa.simulate
from msa.dialogue.llm import StubLlmClient
from msa.errors import InvalidRequest, LlmUnavailable, MalformedJson, UnknownValue
from msa.simulate import MultiSpeakerTask, load_task, run_simulation_to_file, simulate
from helpers import best_seconds, count_calls

STUB = StubLlmClient()

TASK_OBJ = {
    "speaker_A": {
        "tone": "NEUTRAL",
        "position": "DETACH",
        "closure": "SINK",
        "logical_flow": "SCATTER",
        "context_alignment": "STANDALONE",
        "affective_tension": "FLAT",
    },
    "speaker_B": {
        "tone": "HIGHASSERT",
        "position": "SELFREF",
        "closure": "CUT",
        "logical_flow": "PIVOT",
        "context_alignment": "MERGE",
        "affective_tension": "TIGHT",
    },
    "task": (
        "Simulate a debate between Speaker A and Speaker B on whether "
        "traditional examination systems should be abolished."
    ),
}


def test_task_parses_profiles_and_task_text():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    assert set(task.speakers) == {"speaker_A", "speaker_B"}
    assert task.task.startswith("Simulate a debate")


def test_task_requires_two_speakers_and_task():
    with pytest.raises(InvalidRequest):
        MultiSpeakerTask.from_obj({"solo": {}, "task": "x"})
    with pytest.raises(InvalidRequest):
        MultiSpeakerTask.from_obj({"a": {}, "b": {}, "task": ""})
    with pytest.raises(InvalidRequest):
        MultiSpeakerTask.from_obj({"a": {}, "b": {}})
    with pytest.raises(InvalidRequest, match="speaker names must be non-empty"):
        MultiSpeakerTask.from_obj({"": {"tone": "NEUTRAL"}, "b": {}, "task": "x"})


def test_task_rejects_bad_profile():
    with pytest.raises(UnknownValue):
        MultiSpeakerTask.from_obj({"a": {"tone": "WHISPER"}, "b": {}, "task": "x"})
    with pytest.raises(MalformedJson):
        MultiSpeakerTask.from_obj({"a": "loud", "b": {}, "task": "x"})


@pytest.mark.parametrize("statement", [None, 3, ["x"]], ids=["null", "number", "array"])
def test_task_statement_must_be_a_string(statement):
    with pytest.raises(InvalidRequest):
        MultiSpeakerTask.from_obj({"a": {}, "b": {}, "task": statement})


def test_task_accepts_both_speaker_module_forms():
    task = MultiSpeakerTask.from_obj(
        {"a": ["#T_NEUTRAL", "#C_CUT"], "b": {"tone": "neutral", "closure": "cut"}, "task": "x"}
    )
    assert task.speakers["a"] == task.speakers["b"]


def test_round_trip_object_form(tmp_path):
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(TASK_OBJ), encoding="utf-8")
    assert load_task(path) == task


def test_simulation_structure():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    transcript = simulate(task, STUB, turns=4, seed=3)
    assert len(transcript.turns) == 5
    head = transcript.turns[0]
    assert (head.speaker, head.turn_role, head.text) == ("moderator", "system", task.task)
    speakers = [t.speaker for t in transcript.turns[1:]]
    assert set(speakers) == {"speaker_A", "speaker_B"}
    assert speakers[0] != speakers[1] and speakers[0] == speakers[2]


def test_seed_changes_speaker_order():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    first = {
        simulate(task, STUB, turns=1, seed=seed).turns[1].speaker for seed in range(12)
    }
    assert first == {"speaker_A", "speaker_B"}


def test_same_seed_same_transcript():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    assert simulate(task, STUB, turns=5, seed=9) == simulate(task, STUB, turns=5, seed=9)


def test_turn_budget_validated():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    with pytest.raises(InvalidRequest):
        simulate(task, STUB, turns=0, seed=0)


def test_three_runs_byte_identical(tmp_path):
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        path = run_simulation_to_file(task, STUB, out_dir=out, task_id="debate", turns=6, seed=0)
        assert path.name.startswith("debate.")
        assert path.name.endswith(".jsonl")
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_directive_profiles_reach_the_stub():
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    transcript = simulate(task, STUB, turns=2, seed=0)
    by_speaker = {t.speaker: t.text for t in transcript.turns[1:]}
    assert "[TONE=HIGHASSERT]" in by_speaker["speaker_B"]
    assert "[TONE=NEUTRAL]" in by_speaker["speaker_A"]


def _record_pipeline_results(monkeypatch) -> list:
    """Wrap simulate's run_pipeline; the returned list fills with its results."""
    results = []
    run_pipeline = msa.simulate.run_pipeline

    def recording(*args, **kwargs):
        results.append(run_pipeline(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(msa.simulate, "run_pipeline", recording)
    return results


def test_pipeline_credits_the_real_speaker(monkeypatch):
    results = _record_pipeline_results(monkeypatch)
    task = MultiSpeakerTask.from_obj(dict(TASK_OBJ, task="We will decide who owns the rollout."))
    simulate(task, STUB, turns=6, seed=0)
    speakers = set(task.speakers)
    assert len(results) == 6
    for result in results:
        assert result.reply.speaker in speakers
        assert result.chain.commitments  # every echoed reply commits ("will")
        assert {c.holder for c in result.chain.commitments} <= speakers | {"moderator"}


class _GrowthGuard:
    """Stub client that fails as soon as one reply outgrows the turn before it."""

    def __init__(self, max_growth: int) -> None:
        self.max_growth = max_growth

    def generate(self, directives, context):
        reply = STUB.generate(directives, context)
        growth = len(reply) - len(context.turns[-1].text)
        assert growth <= self.max_growth, f"turn {len(context.turns)} grew by {growth} chars"
        return reply


def test_long_stub_simulation_grows_linearly():
    task = MultiSpeakerTask.from_obj({
        "speaker_A": {"tone": "NEUTRAL"},
        "speaker_B": {"tone": "HIGHASSERT"},
        "task": "Simulate a debate on remote work.",
    })
    transcript = simulate(task, _GrowthGuard(max_growth=400), turns=200, seed=0)
    assert len(transcript.turns) == 201


def test_stub_turn_length_is_flat_as_the_transcript_grows():
    # ROADMAP item 5's sweep over simulate --turns, on the stub's echo length.
    # Untagged speakers keep the directives, and so the 200-turn run, short.
    task = MultiSpeakerTask.from_obj({"speaker_A": {}, "speaker_B": {}, "task": "Debate exams."})
    last = {turns: len(simulate(task, STUB, turns=turns, seed=0).turns[-1].text)
            for turns in (50, 200)}
    assert last[200] <= 1.5 * last[50], f"last stub turn in chars: {last}"


class _Scripted:
    """Client that plays back fixed replies in order."""

    def __init__(self, replies) -> None:
        self.replies = iter(replies)

    def generate(self, directives, context):
        return next(self.replies)


def test_tokenless_reply_skips_the_next_drift_check(monkeypatch):
    results = _record_pipeline_results(monkeypatch)
    replies = ["I will draft the exam plan.", "...", "The exam plan is drafted."]
    transcript = simulate(MultiSpeakerTask.from_obj(TASK_OBJ), _Scripted(replies), turns=3, seed=0)
    assert [t.text for t in transcript.turns[1:]] == replies
    assert results[1].drift is not None
    assert results[2].drift is None  # its context ends with "...", which has no tokens


def test_empty_reply_is_the_clients_fault():
    replies = ["I will draft the exam plan.", ""]
    with pytest.raises(LlmUnavailable, match="empty reply for turn 2"):
        simulate(MultiSpeakerTask.from_obj(TASK_OBJ), _Scripted(replies), turns=3, seed=0)


class _Committing:
    """Scripted client whose every reply opens a new commitment."""

    def generate(self, directives, context):
        return f"I will draft part {len(context.turns)} of the exam plan."


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every reply replays the whole context; "
    "ROADMAP item 3, the reply-only pipeline, makes the per-reply cost flat",
)
def test_per_reply_cost_is_flat_as_the_transcript_grows():
    # ROADMAP item 3's ratio gate. A reply should cost the same at any
    # position; replaying the context makes it grow with the turn count, and
    # commitment-bearing replies expose the cubic term. It reads about 4x to 8x.
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    short = best_seconds(lambda: simulate(task, _Committing(), turns=50, seed=0)) / 50
    long = best_seconds(lambda: simulate(task, _Committing(), turns=200, seed=0), repeats=3) / 200
    assert long / short < 2.5, f"{long / short:.1f}x per reply at 200 turns vs 50"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every reply replays the whole context, so it folds every earlier turn again; "
    "ROADMAP item 3, the reply-only pipeline, folds no turn per reply",
)
def test_chain_folds_per_reply_are_flat_as_the_transcript_grows(monkeypatch):
    # The work counter beside the ratio gate above: deterministic, no wall clock.
    # replay() looks update_commitments up in its own module, run_pipeline in its.
    folds = [
        count_calls(monkeypatch, module, "update_commitments")
        for module in (msa.dialogue.commitments, msa.dialogue.pipeline)
    ]
    task = MultiSpeakerTask.from_obj(TASK_OBJ)
    per_reply = {}
    for turns in (50, 200):
        for calls in folds:
            calls.clear()
        simulate(task, _Committing(), turns=turns, seed=0)
        per_reply[turns] = sum(map(len, folds)) / turns
    assert per_reply[200] <= per_reply[50], f"chain folds per reply: {per_reply}"
