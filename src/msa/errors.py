"""Exception taxonomy for the engine.

Every error type's class name doubles as its machine-readable code, which the
HTTP layer and the CLI reuse verbatim when reporting failures. Its
``http_status`` is the status the service answers with, and the CLI's exit
code follows from it: 1 when it is 500 or more, 2 otherwise.
"""

from __future__ import annotations


class MsaError(Exception):
    """Base class for all engine-level errors."""

    http_status = 400

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


class LlmUnavailable(MsaError):
    http_status = 502


class LlmTimeout(MsaError):
    http_status = 504


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
