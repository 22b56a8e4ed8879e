"""Closed tag vocabulary, loaded from a bundled JSON registry.

The registry file maps each dimension name to the list of permitted values.
A malformed registry is a startup failure: loading raises RegistryError and
nothing downstream runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

from ..errors import RegistryError
from .dimensions import Dimension


@dataclass(frozen=True)
class TagRegistry:
    """Immutable vocabulary: permitted values per dimension."""

    vocab: Mapping[Dimension, frozenset[str]]

    def is_registered(self, dimension: Dimension, value: str) -> bool:
        return value in self.vocab[dimension]

    @classmethod
    def from_mapping(cls, raw: object) -> "TagRegistry":
        if not isinstance(raw, dict):
            raise RegistryError("registry must be a JSON object")
        expected = {dim.name for dim in Dimension}
        if set(raw) != expected:
            raise RegistryError(
                f"registry dimensions {sorted(raw)} != expected {sorted(expected)}"
            )
        vocab: dict[Dimension, frozenset[str]] = {}
        for dim in Dimension:
            values = raw[dim.name]
            if not isinstance(values, list) or not values:
                raise RegistryError(f"{dim.name}: values must be a non-empty list")
            seen: set[str] = set()
            for value in values:
                if not isinstance(value, str) or not value.isalpha() or value != value.upper():
                    raise RegistryError(
                        f"{dim.name}: {value!r} is not an uppercase letters-only token"
                    )
                if value in seen:
                    raise RegistryError(f"{dim.name}: duplicate value {value!r}")
                seen.add(value)
            vocab[dim] = frozenset(seen)
        return cls(vocab=vocab)


_default_registry: TagRegistry | None = None


def load_registry(path: str | Path | None = None) -> TagRegistry:
    """Load a registry from ``path``, or the bundled default when omitted.

    The bundled registry is parsed once and cached; it is read-only for the
    lifetime of the process.
    """
    global _default_registry
    if path is None:
        if _default_registry is None:
            text = (resources.files("msa.data") / "registry.json").read_text("utf-8")
            _default_registry = _parse(text)
        return _default_registry
    return _parse(Path(path).read_text(encoding="utf-8"))


def _parse(text: str) -> TagRegistry:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise RegistryError(f"registry is not valid JSON: {exc}") from exc
    return TagRegistry.from_mapping(raw)
