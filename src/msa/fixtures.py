"""Bundled reference cases: four transcripts with recorded sub-scores.

Every fixture file is integrity-checked against a frozen SHA-256 before use.
A mismatch raises CorruptFixture rather than silently feeding altered data
into evaluation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .dialogue.transcript import PragmaticRole, Transcript, parse_transcript_jsonl
from .errors import CorruptFixture
from .jsonio import parse_json
from .scoring.rubric import SubScores, read_subscores

FIXTURE_CASES = ("case1", "case2", "case3", "case4")


@dataclass(frozen=True)
class CaseFixture:
    case_id: str
    transcript: Transcript
    subscores: SubScores
    function_roles: tuple[PragmaticRole, ...]


def _read_bytes(name: str, base_dir: Path | None) -> bytes:
    try:
        if base_dir is not None:
            return (base_dir / name).read_bytes()
        return (resources.files("msa.data") / "fixtures" / name).read_bytes()
    except OSError as exc:
        raise CorruptFixture(f"{name}: missing or unreadable ({exc})") from exc


def _checksums(base_dir: Path | None) -> dict[str, object]:
    sums = parse_json(_read_bytes("checksums.json", base_dir), "checksums.json")
    if not isinstance(sums, dict):
        raise CorruptFixture(f"checksums.json: expected an object, got {type(sums).__name__}")
    return sums


def _verified(name: str, sums: dict[str, object], base_dir: Path | None) -> bytes:
    """The file's bytes, if their SHA-256 is the one ``sums`` records for it."""
    expected_sha = sums.get(name)
    data = _read_bytes(name, base_dir)
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected_sha:
        raise CorruptFixture(f"{name}: sha256 {actual} != recorded {expected_sha}")
    return data


def load_fixture(case_id: str, base_dir: Path | None = None) -> CaseFixture:
    """Load one verified case. ``base_dir`` overrides the bundled data."""
    if case_id not in FIXTURE_CASES:
        raise CorruptFixture(f"unknown case {case_id!r}, expected one of {FIXTURE_CASES}")
    sums = _checksums(base_dir)

    jsonl_name = f"{case_id}.jsonl"
    transcript = parse_transcript_jsonl(_verified(jsonl_name, sums, base_dir), jsonl_name)

    sub_name = f"{case_id}.subscores.json"
    subscores, roles = read_subscores(parse_json(_verified(sub_name, sums, base_dir), sub_name))
    return CaseFixture(
        case_id=case_id, transcript=transcript, subscores=subscores, function_roles=roles
    )
