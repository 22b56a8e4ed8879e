"""Turn-role alternation and pragmatic function classification."""

from __future__ import annotations

import pytest

from msa.dialogue.roles import assign_role
from msa.dialogue.transcript import PragmaticRole
from helpers import make_transcript


def test_turn_role_alternates():
    empty = make_transcript([])
    assert assign_role(empty)[0] == "user"
    after_user = make_transcript([("u", "hi", "user")])
    assert assign_role(after_user)[0] == "assistant"
    after_assistant = make_transcript([("u", "hi", "user"), ("a", "hello", "assistant")])
    assert assign_role(after_assistant)[0] == "user"


def test_system_seed_counts_as_non_user():
    ctx = make_transcript([("moderator", "Find the bug.", "system")])
    assert assign_role(ctx)[0] == "user"


@pytest.mark.parametrize(
    "text,role",
    [
        ("What happened here?", PragmaticRole.CLARIFIER),
        ("I will write the report.", PragmaticRole.RESPONSIBILITY_ACCEPTOR),
        ("I'll handle the rollout.", PragmaticRole.RESPONSIBILITY_ACCEPTOR),
        ("I promise to follow up.", PragmaticRole.RESPONSIBILITY_ACCEPTOR),
        ("I think you should own the retro.", PragmaticRole.RESPONSIBILITY_DELEGATOR),
        ("I'll leave that to Dana.", PragmaticRole.RESPONSIBILITY_DELEGATOR),
        ("please take the incident channel", PragmaticRole.RESPONSIBILITY_DELEGATOR),
        ("The deploy finished at noon.", PragmaticRole.INFORMATION_PROVIDER),
    ],
)
def test_default_policy_classification(text, role):
    ctx = make_transcript([("u", text, "user")])
    assert assign_role(ctx)[1] == role


def test_first_match_wins():
    # question mark beats the acceptor phrase because the '?' cue is first
    ctx = make_transcript([("u", "I will fix it, ok?", "user")])
    assert assign_role(ctx)[1] == PragmaticRole.CLARIFIER

