"""The vocabulary tables in docs/formats.md match the tables the code reads.

Each row of *Tag vocabulary*, *Inference cues* and *Sub-scores* is compared,
cell by cell and in order, with ``VOCABULARY`` (and ``Dimension.prefix``),
with ``INFERENCE_CUES`` and with ``RUBRIC`` (and ``SUB_MAXIMA``), so an edit
to either side alone fails here.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from msa.gcode.inference import INFERENCE_CUES
from msa.gcode.registry import VOCABULARY
from msa.scoring.heuristics import _MARKER_FAMILIES
from msa.scoring.rubric import RUBRIC, SUB_MAXIMA, SubScores

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def table_rows(heading: str) -> list[list[list[str]]]:
    """Body rows of the first table under ``## heading``, each cell as its code spans."""
    section = FORMATS.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert len(lines) > 2 and set(lines[1]) <= set("|- "), f"no table under {heading!r}"
    return [
        [re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
        for line in lines[2:]
    ]


def test_tag_vocabulary_table_matches_the_registry():
    documented = table_rows("Tag vocabulary")
    expected = [
        [[dimension.value], [dimension.prefix], list(values)]
        for dimension, values in VOCABULARY.items()
    ]
    assert documented == expected


def test_inference_cues_table_matches_the_cue_rows():
    documented = table_rows("Inference cues")
    expected = [
        [list(phrases), [dimension.value], [value]] for phrases, dimension, value in INFERENCE_CUES
    ]
    assert documented == expected


def test_rubric_table_matches_the_rubric():
    documented = table_rows("Sub-scores")
    expected = [
        [[metric], [row.total_key], [row.title]]
        + [
            [f"{row.prefix}{i}", title, str(cap)]
            for i, (title, cap) in enumerate(zip(row.sub_titles, SUB_MAXIMA), start=1)
        ]
        for metric, row in RUBRIC.items()
    ]
    assert documented == expected
    # the rubric and report code reads SubScores rows by getattr over these keys
    assert [field.name for field in fields(SubScores)] == list(RUBRIC)


def test_marker_phrase_count_matches_the_families():
    phrases = sum(map(len, _MARKER_FAMILIES))
    stated = f"{phrases} marker phrases in {len(_MARKER_FAMILIES)} families"
    assert stated in " ".join(FORMATS.read_text(encoding="utf-8").split())
