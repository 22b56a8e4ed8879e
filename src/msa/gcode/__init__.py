"""Pragmatic control tag language: parse, canonicalize, compile, infer."""

from .dimensions import DIMENSION_BY_KEY, DIMENSION_BY_PREFIX, DIMENSION_ORDER, Dimension
from .inference import INFERENCE_CUES, default_inference_rules, infer_tags
from .registry import VOCABULARY, TagRegistry, load_registry
from .tags import (
    GCodeTag,
    SpeakerModuleConfig,
    build_prompt_directives,
    config_from_keyed_object,
    parse_config_document,
    parse_tag,
    parse_tag_list,
    speaker_module_from_obj,
)

__all__ = [
    "DIMENSION_BY_KEY",
    "DIMENSION_BY_PREFIX",
    "DIMENSION_ORDER",
    "Dimension",
    "GCodeTag",
    "INFERENCE_CUES",
    "SpeakerModuleConfig",
    "TagRegistry",
    "VOCABULARY",
    "build_prompt_directives",
    "config_from_keyed_object",
    "default_inference_rules",
    "infer_tags",
    "load_registry",
    "parse_config_document",
    "parse_tag",
    "parse_tag_list",
    "speaker_module_from_obj",
]
