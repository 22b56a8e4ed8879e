"""Dialogue runtime: turns, roles, commitments, drift, and LLM clients.

The reply pipeline is imported from msa.dialogue.pipeline, not from here: it
uses msa.scoring, which uses this package.
"""

from .commitments import (
    ChainState,
    Commitment,
    CommitmentStatus,
    DEFAULT_PATTERNS_COMMIT,
    DEFAULT_PATTERNS_TRANSFER,
    flag_silent_abandonment,
    mentions_commitment,
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
from .roles import ROLE_CUES, assign_role, classify_role
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
    "DEFAULT_PATTERNS_COMMIT",
    "DEFAULT_PATTERNS_TRANSFER",
    "DialogueTurn",
    "DriftReport",
    "LlmClient",
    "PragmaticRole",
    "ROLE_CUES",
    "RemoteLlmClient",
    "StubLlmClient",
    "TURN_ROLES",
    "Transcript",
    "assign_role",
    "classify_role",
    "client_from_name",
    "detect_drift",
    "dump_transcript_jsonl",
    "flag_silent_abandonment",
    "generate_realignment",
    "load_transcript_jsonl",
    "mentions_commitment",
    "replay",
    "update_commitments",
]
