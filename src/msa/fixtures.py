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

from .dialogue.transcript import PragmaticRole, Transcript
from .errors import CorruptFixture
from .jsonio import parse_json
from .scoring.rubric import SubScores

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


def _checksums(base_dir: Path | None) -> dict[str, str]:
    return parse_json(_read_bytes("checksums.json", base_dir), "checksums.json")


def _verified(name: str, expected_sha: str, base_dir: Path | None) -> bytes:
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
    rows = []
    for line in _verified(jsonl_name, sums[jsonl_name], base_dir).split(b"\n"):
        if line.strip():
            rows.append(parse_json(line, jsonl_name))
    transcript = Transcript.from_dicts(rows)

    sub_name = f"{case_id}.subscores.json"
    sub_raw = parse_json(_verified(sub_name, sums[sub_name], base_dir), sub_name)
    subscores = SubScores.from_dict(sub_raw)
    roles = tuple(PragmaticRole(r) for r in sub_raw.get("function_roles", []))
    return CaseFixture(
        case_id=case_id, transcript=transcript, subscores=subscores, function_roles=roles
    )
