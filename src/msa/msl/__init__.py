"""Responsibility-transfer graph analysis and context constraints."""

from .cycles import (
    EXHAUSTIVE_NODE_LIMIT,
    cyclic_components,
    detect_closed_loops,
)
from .graph import (
    ResponsibilityEdge,
    ResponsibilityGraph,
    SpeakerId,
    detect_partial_drift,
    transitive_closure,
)
from .rules import (
    ContextRule,
    OpCounter,
    RuleFinding,
    check_context_constraints,
    load_context_rules,
)

__all__ = [
    "EXHAUSTIVE_NODE_LIMIT",
    "ContextRule",
    "OpCounter",
    "ResponsibilityEdge",
    "ResponsibilityGraph",
    "RuleFinding",
    "SpeakerId",
    "check_context_constraints",
    "cyclic_components",
    "detect_closed_loops",
    "detect_partial_drift",
    "load_context_rules",
    "transitive_closure",
]
