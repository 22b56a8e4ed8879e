"""Score-card bytes are pinned: `score-case` and `annotate` print exactly what they printed.

Each case records the SHA-256 of the command's whole stdout, so any change to
a card's keys, key order, number formatting, table layout or trailing newline
fails here, not only a change to the values other tests read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import msa.fixtures
from msa.cli import main

FIXTURE_DIR = Path(msa.fixtures.__file__).parent / "data" / "fixtures"

# case id -> (table only, table then --json card)
SCORE_CASE = {
    "case1": ("fda4bbef5a4cf2678ae3a4af4452269ce2c9362d0c0e67e5d044005cf7ae8d00",
              "cf42693d21e4783a656a3539601a18ab5e2f9f0b2d6c600282babca7e42c9b5c"),
    "case2": ("427c84af7d2f0a6bdb79a411e5e79a29637ef448c1d5fc5aaa0f006587002569",
              "4ebfba77fa2f142b2b10e6447447eee8526bf439a4168ee3c61cd37f3716429e"),
    "case3": ("d452da80fbdff9c9e776410e45746fc8649b8edec592e4938940c38f8952a05c",
              "70f38447e86147dbd0e8e5fee646bdbb4812eecd9ceda46f4f6f48b24ccae885"),
    "case4": ("df22851d47177907a3d20110e025597f1d8a2d675bbe85a898e23a8b1d89dded",
              "f85927547479b314e16760df37e550807d59869e2f2bcfa4ffba76b08cf60e5d"),
}

ANNOTATE = {
    "case1": "4efed9bbd57a70649e162d54703fd8b71c3cc61de91e56f9113f3fbd3fcd3bb9",
    "case2": "69a0a9ffe3df84b5585011ea192aecd96bbdc3e42caf32ab9fea605e1db08eee",
    "case3": "ac97c7dcbe52e233030e6f855f63f27ee19b2e2c0e77a42096fd55f259d940f6",
    "case4": "19a6699849dfa896600ca4f9505207f0b98705cb8a45014377eccafb057a52be",
}

SUBSCORES = {"pragmatic": [1, 1, 1, 1], "responsibility": [0, 1, 0, 1], "context": [2, 2, 2, 3]}
ROLES = ["clarifier", "challenger", "clarifier"]

# file stem (the table's title) -> (document, hash of table then --json card)
SCORE_FILE = {
    "absent": (SUBSCORES,
               "cec577d90e559dab8babf203824b9bb428ede0243478cb5eeab9969c1d4ec3dd"),
    "len0": (dict(SUBSCORES, function_roles=ROLES[:0]),
             "a8d44c68da7c3264dc7d5c001b0ee7a5b534804c8190a8bdfd46aeee7c65319a"),
    "len1": (dict(SUBSCORES, function_roles=ROLES[:1]),
             "f042ce9376e6c4116a6583708593d354786b88de0ae6b8bd753b692ed5b86324"),
    "len2": (dict(SUBSCORES, function_roles=ROLES[:2]),
             "86751e9e65e4230f02107971a892dfba401543bc383aacf1476f5bc5c55131e1"),
    "len3": (dict(SUBSCORES, function_roles=ROLES[:3]),
             "a66539db41168802c1b213f4a27290b72c6dd15fea1df961e80f6e3482e203f3"),
}


def _stdout_sha(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case_id", sorted(SCORE_CASE))
def test_score_case_bundled_bytes(capsys, case_id):
    table, with_card = SCORE_CASE[case_id]
    assert _stdout_sha(capsys, ["score-case", case_id]) == table
    assert _stdout_sha(capsys, ["score-case", case_id, "--json"]) == with_card


@pytest.mark.parametrize("stem", sorted(SCORE_FILE))
def test_score_case_file_bytes(tmp_path, capsys, stem):
    doc, expected = SCORE_FILE[stem]
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _stdout_sha(capsys, ["score-case", str(path), "--json"]) == expected


@pytest.mark.parametrize("case_id", sorted(ANNOTATE))
def test_annotate_fixture_bytes(capsys, case_id):
    path = FIXTURE_DIR / f"{case_id}.jsonl"
    assert _stdout_sha(capsys, ["annotate", str(path)]) == ANNOTATE[case_id]
