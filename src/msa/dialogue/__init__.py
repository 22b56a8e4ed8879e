"""Dialogue runtime: turns, roles, commitments, drift, and LLM clients.

The reply pipeline is imported from msa.dialogue.pipeline, not from here: it
uses msa.scoring, which uses this package.
"""

from .commitments import (
    ChainState,
    Commitment,
    CommitmentStatus,
    DEFAULT_PATTERNS,
    PatternSet,
    flag_silent_abandonment,
    replay,
    update_commitments,
)
from .drift import DEFAULT_DRIFT_THRESHOLD, DriftReport, detect_drift, generate_realignment
from .llm import (
    LlmClient,
    RemoteLlmClient,
    StubLlmClient,
    client_from_name,
)
from .roles import (
    DEFAULT_ROLE_POLICY,
    RolePolicy,
    RoleRule,
    TransitionVerdict,
    assign_role,
    monitor_role_transition,
)
from .transcript import (
    DialogueTurn,
    PragmaticRole,
    TURN_ROLES,
    Transcript,
    dump_transcript_jsonl,
    load_transcript_jsonl,
)

__all__ = [
    "ChainState",
    "Commitment",
    "CommitmentStatus",
    "DEFAULT_DRIFT_THRESHOLD",
    "DEFAULT_PATTERNS",
    "DEFAULT_ROLE_POLICY",
    "DialogueTurn",
    "DriftReport",
    "LlmClient",
    "PatternSet",
    "PragmaticRole",
    "RemoteLlmClient",
    "RolePolicy",
    "RoleRule",
    "StubLlmClient",
    "TURN_ROLES",
    "Transcript",
    "TransitionVerdict",
    "assign_role",
    "client_from_name",
    "detect_drift",
    "dump_transcript_jsonl",
    "flag_silent_abandonment",
    "generate_realignment",
    "load_transcript_jsonl",
    "monitor_role_transition",
    "replay",
    "update_commitments",
]
