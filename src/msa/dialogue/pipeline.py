"""The full per-reply pipeline.

Order of operations, fixed:

1. infer tags from context, compile the directive string
2. assign the reply's turn role and pragmatic role
3. rebuild the commitment chain by replaying the context
4. drift-check the last two turns, unless the last has no tokens; when
   drifted, append the realignment directive to the compiled string
5. ask the client for a reply
6. fold the reply into the commitment chain

Every stage runs with its module's one policy: the inference cue table, the
role cue table, the commitment phrases, and the drift threshold.
Deterministic end to end with the stub client: same context, same previous
tags, same speaker give byte-identical directives, reply, and chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EmptyContext, LlmUnavailable
from ..gcode.inference import infer_tags
from ..gcode.tags import SpeakerModuleConfig, build_prompt_directives
# Unread here since run_pipeline stopped scoring; perfbench's SimulateLong patches the
# name in this module, so it stays bound until ROADMAP item 6 frees it.
from ..scoring.heuristics import heuristic_score  # noqa: F401
from .commitments import ChainState, replay, update_commitments
from .drift import DriftReport, detect_drift
from .llm import LlmClient
from .roles import assign_role
from .transcript import DialogueTurn, Transcript


@dataclass(frozen=True)
class PipelineResult:
    reply: DialogueTurn
    directives: str
    chain: ChainState
    drift: DriftReport | None


def run_pipeline(
    context: Transcript,
    prev_tags: SpeakerModuleConfig,
    llm: LlmClient,
    speaker: str,
) -> PipelineResult:
    """Produce one reply turn, credited to ``speaker``, and the bookkeeping around it.

    Raises EmptyContext for an empty context and LlmUnavailable for an empty
    reply; client errors propagate after the client's own retry policy is
    exhausted.
    """
    if not context.turns:
        raise EmptyContext("pipeline needs at least one turn of context")

    tags = infer_tags(context, prev_tags)
    directives = build_prompt_directives(tags)

    turn_role, function_role = assign_role(context)
    chain = replay(context)

    drift = None
    if len(context.turns) >= 2:
        prev, last = context.turns[-2:]
        drift = detect_drift(prev.text, last.text, turn_index=last.index)
    if drift is not None and drift.realignment:  # set exactly when the turn drifted
        directives = f"{directives} {drift.realignment}" if directives else drift.realignment

    reply_text = llm.generate(directives, context)
    if not reply_text:
        raise LlmUnavailable(f"client returned an empty reply for turn {context.next_index}")
    reply = DialogueTurn(
        speaker=speaker,
        text=reply_text,
        turn_role=turn_role,
        function_role=function_role,
        index=context.next_index,
    )
    chain = update_commitments(chain, reply)
    return PipelineResult(reply=reply, directives=directives, chain=chain, drift=drift)
