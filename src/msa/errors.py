"""Exception taxonomy for the engine.

Every error type's class name doubles as its machine-readable code, which the
HTTP layer and the CLI reuse verbatim when reporting failures.
"""

from __future__ import annotations


class MsaError(Exception):
    """Base class for all engine-level errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- tag language ---

class MalformedToken(MsaError):
    pass


class UnknownPrefix(MsaError):
    pass


class UnknownValue(MsaError):
    pass


class DuplicateDimension(MsaError):
    pass


class UnknownKey(MsaError):
    pass


class MalformedJson(MsaError):
    pass


# --- responsibility graph ---

class UnknownSpeaker(MsaError):
    pass


class GraphTooLarge(MsaError):
    pass


# --- dialogue runtime ---

class EmptyContext(MsaError):
    pass


class InvalidTransition(MsaError):
    pass


class LlmUnavailable(MsaError):
    pass


class LlmTimeout(MsaError):
    pass


# --- scoring ---

class RangeViolation(MsaError):
    pass


class DegenerateVariance(MsaError):
    pass


# --- interface ---

class CorruptFixture(MsaError):
    pass


class InvalidRequest(MsaError):
    pass
