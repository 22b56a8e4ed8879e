"""Parsing, canonicalization, and compilation of pragmatic control tags.

Surface form is ``#<PREFIX>_<VALUE>`` with prefixes T, P, C, CTX, L, and E.
Input is case-insensitive everywhere; canonical output is uppercase. A
speaker-module configuration is read from two JSON forms, a list of tag
surfaces and a keyed object such as ``{"tone": "SOFTASSERT", ...}``, either one
optionally inside a ``{"speaker_module": ...}`` wrapper document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import (
    DuplicateDimension,
    MalformedJson,
    MalformedToken,
    UnknownKey,
    UnknownPrefix,
    UnknownValue,
)
from .registry import DIMENSION_BY_KEY, DIMENSION_BY_PREFIX, DIMENSION_ORDER, VOCABULARY, Dimension


@dataclass(frozen=True)
class GCodeTag:
    """One (dimension, value) pair, checked against ``VOCABULARY`` however it is built."""

    dimension: Dimension
    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, Dimension):
            raise UnknownKey(f"unknown dimension {self.dimension!r}")
        if self.value not in VOCABULARY[self.dimension]:
            raise UnknownValue(
                f"{self.surface!r}: {self.value!r} is not registered for {self.dimension.name}"
            )

    @property
    def surface(self) -> str:
        return f"#{self.dimension.prefix}_{self.value}"


@dataclass(frozen=True)
class SpeakerModuleConfig:
    """Immutable partial assignment of tags to dimensions.

    Tags are stored in canonical dimension order, so two configs built from
    the same assignments compare equal regardless of input order.
    """

    tags: tuple[GCodeTag, ...] = ()

    def __post_init__(self) -> None:
        seen: set[Dimension] = set()
        for tag in self.tags:
            if not isinstance(tag, GCodeTag):
                raise MalformedToken(f"a tag must be a GCodeTag, got {type(tag).__name__}")
            if tag.dimension in seen:
                raise DuplicateDimension(
                    f"{tag.surface!r}: dimension {tag.dimension.name} already set"
                )
            seen.add(tag.dimension)
        ordered = tuple(sorted(self.tags, key=lambda t: DIMENSION_ORDER.index(t.dimension)))
        object.__setattr__(self, "tags", ordered)

    def with_tag(self, tag: GCodeTag) -> "SpeakerModuleConfig":
        """Copy with ``tag`` set, overriding any prior value for its dimension."""
        kept = tuple(t for t in self.tags if t.dimension is not tag.dimension)
        return SpeakerModuleConfig(tags=kept + (tag,))

    def to_document(self) -> dict[str, dict[str, str]]:
        """The wrapper document around the keyed-object form."""
        return {"speaker_module": {tag.dimension.value: tag.value for tag in self.tags}}


def parse_tag(surface: str) -> GCodeTag:
    """Parse one tag surface into a canonical GCodeTag.

    Raises:
        MalformedToken: missing ``#``, missing ``_``, or embedded whitespace.
        UnknownPrefix: prefix not in the closed prefix set.
        UnknownValue: value not registered for the prefix's dimension.
    """
    if not isinstance(surface, str):
        raise MalformedToken(f"tag surface must be a string, got {type(surface).__name__}")
    token = surface.strip()
    if not token.startswith("#"):
        raise MalformedToken(f"{surface!r}: tag must start with '#'")
    if len(token.split()) != 1:
        raise MalformedToken(f"{surface!r}: tag must be a single token")
    body = token[1:]
    if "_" not in body:
        raise MalformedToken(f"{surface!r}: expected '#PREFIX_VALUE'")
    prefix_part, value_part = body.split("_", 1)
    prefix = prefix_part.upper()
    dimension = DIMENSION_BY_PREFIX.get(prefix)
    if dimension is None:
        raise UnknownPrefix(f"{surface!r}: unknown prefix {prefix!r}")
    return GCodeTag(dimension, value_part.upper())


def parse_tag_list(surfaces: Sequence[str]) -> SpeakerModuleConfig:
    """Parse a sequence of tag surfaces into a config.

    Each tag joins the config as soon as it is parsed, so a second tag on one
    dimension raises DuplicateDimension before any later surface is read.
    """
    config = SpeakerModuleConfig()
    for surface in surfaces:
        config = SpeakerModuleConfig(tags=config.tags + (parse_tag(surface),))
    return config


def speaker_module_from_obj(obj: object) -> SpeakerModuleConfig:
    """Read a speaker module in any JSON form.

    Lists are tag-surface lists and objects are keyed objects. A one-key
    ``{"speaker_module": ...}`` wrapper document is unwrapped first.
    """
    if isinstance(obj, dict) and set(obj) == {"speaker_module"}:
        obj = obj["speaker_module"]
    if isinstance(obj, list):
        return parse_tag_list(obj)
    if not isinstance(obj, dict):
        raise MalformedJson(
            f"speaker module must be a tag list or keyed object, got {type(obj).__name__}"
        )
    tags: list[GCodeTag] = []
    for key, raw_value in obj.items():
        dimension = DIMENSION_BY_KEY.get(str(key).lower())
        if dimension is None:
            raise UnknownKey(f"unknown dimension key {key!r}")
        if not isinstance(raw_value, str):
            raise UnknownValue(f"{key}: value must be a string, got {raw_value!r}")
        tags.append(GCodeTag(dimension, raw_value.upper()))
    return SpeakerModuleConfig(tags=tuple(tags))


def build_prompt_directives(config: SpeakerModuleConfig) -> str:
    """Compile a config to the directive string injected into prompts.

    One ``[KEY=VALUE]`` segment per configured dimension, space-joined, in
    canonical dimension order. Pure: no I/O, no hidden state.
    """
    return " ".join(f"[{tag.dimension.value.upper()}={tag.value}]" for tag in config.tags)
