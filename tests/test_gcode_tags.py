"""Tag language: parsing, validation, canonical ordering, directive output."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msa.errors import (
    DuplicateDimension,
    MalformedJson,
    MalformedToken,
    UnknownKey,
    UnknownPrefix,
    UnknownValue,
)
from msa.gcode.registry import DIMENSION_ORDER, VOCABULARY, Dimension, load_registry
from msa.gcode.tags import (
    GCodeTag,
    SpeakerModuleConfig,
    build_prompt_directives,
    parse_tag,
    parse_tag_list,
    speaker_module_from_obj,
)
from msa.jsonio import parse_json

ALL_SURFACES = sorted(
    GCodeTag(dim, value).surface for dim, values in VOCABULARY.items() for value in values
)


def test_registry_shape():
    assert sum(len(values) for values in VOCABULARY.values()) == 19
    assert {d.value for d in Dimension} == {
        "tone",
        "position",
        "closure",
        "context_alignment",
        "logical_flow",
        "affective_tension",
    }
    assert set(VOCABULARY[Dimension.TONE]) == {"NEUTRAL", "ASSERTIVE", "SOFTASSERT", "HIGHASSERT"}


def test_vocabulary_is_well_formed():
    assert list(VOCABULARY) == list(Dimension)
    for dimension, values in VOCABULARY.items():
        assert values, dimension
        assert len(set(values)) == len(values), dimension
        for value in values:
            assert value.isascii() and value.isalpha() and value == value.upper(), value
    assert load_registry() is VOCABULARY


def test_parse_single_tag():
    tag = parse_tag("#T_SOFTASSERT")
    assert tag == GCodeTag(Dimension.TONE, "SOFTASSERT")
    assert tag.surface == "#T_SOFTASSERT"


def test_parse_is_case_insensitive_and_canonicalizes():
    assert parse_tag("#t_softassert").surface == "#T_SOFTASSERT"
    assert parse_tag("#Ctx_merge").surface == "#CTX_MERGE"


@pytest.mark.parametrize("surface", ALL_SURFACES)
def test_round_trip_every_registered_tag(surface):
    assert parse_tag(parse_tag(surface).surface).surface == surface


@pytest.mark.parametrize(
    "bad,err",
    [
        ("T_SOFTASSERT", MalformedToken),
        ("#TSOFTASSERT", MalformedToken),
        ("#T_SOFT ASSERT", MalformedToken),
        ("", MalformedToken),
        ("#Q_SOFTASSERT", UnknownPrefix),
        ("#T_MELLOW", UnknownValue),
        ("#CTX_LOOP", UnknownValue),
    ],
)
def test_rejects_bad_tokens(bad, err):
    with pytest.raises(err):
        parse_tag(bad)


def test_malformed_token_for_non_string():
    with pytest.raises(MalformedToken):
        parse_tag(42)  # type: ignore[arg-type]


def test_parse_tag_list_orders_canonically():
    config = parse_tag_list(["#E_TIGHT", "#T_NEUTRAL", "#C_LOOP"])
    assert [t.dimension for t in config.tags] == [
        Dimension.TONE,
        Dimension.CLOSURE,
        Dimension.AFFECTIVE_TENSION,
    ]


def test_parse_tag_list_rejects_duplicate_dimension():
    with pytest.raises(DuplicateDimension):
        parse_tag_list(["#T_NEUTRAL", "#T_ASSERTIVE"])


def test_duplicate_dimension_stops_before_a_later_surface_is_read():
    with pytest.raises(DuplicateDimension):
        parse_tag_list(["#T_NEUTRAL", "#T_ASSERTIVE", "#Q_NOPE"])


@pytest.mark.parametrize(
    "module",
    [["#t_neutral", "#T_ASSERTIVE"], ["#T_NEUTRAL", " #t_assertive "],
     {"tone": "neutral", "TONE": "assertive"}],
    ids=["list", "list-lowercase-later", "keyed"],
)
def test_duplicate_dimension_names_the_later_canonical_surface(module):
    with pytest.raises(DuplicateDimension) as raised:
        speaker_module_from_obj(module)
    assert str(raised.value) == "'#T_ASSERTIVE': dimension TONE already set"


@pytest.mark.parametrize(
    "module", [["#t_smug"], [" #T_smug "], {"Tone": "smug"}], ids=["list", "list-padded", "keyed"]
)
def test_unknown_value_names_the_canonical_surface(module):
    with pytest.raises(UnknownValue) as raised:
        speaker_module_from_obj(module)
    assert str(raised.value) == "'#T_SMUG': 'SMUG' is not registered for TONE"


@pytest.mark.parametrize(
    "build,err",
    [
        (lambda: GCodeTag(Dimension.TONE, "smug"), UnknownValue),
        (lambda: GCodeTag(Dimension.TONE, "SMUG"), UnknownValue),
        (lambda: GCodeTag(Dimension.POSITION, "NEUTRAL"), UnknownValue),
        (lambda: GCodeTag("tone", "NEUTRAL"), UnknownKey),
        (lambda: SpeakerModuleConfig(tags=("#T_NEUTRAL",)), MalformedToken),
    ],
    ids=["lowercase", "unregistered", "other-dimension", "string-dimension", "string-tag"],
)
def test_values_built_in_code_meet_the_same_checks(build, err):
    with pytest.raises(err):
        build()


def test_keyed_object_form():
    config = speaker_module_from_obj(
        {"tone": "SOFTASSERT", "closure": "loop", "POSITION": "selfref"}
    )
    assert config.to_document() == {
        "speaker_module": {"tone": "SOFTASSERT", "position": "SELFREF", "closure": "LOOP"}
    }


def test_keyed_object_rejects_unknown_key_and_value():
    with pytest.raises(UnknownKey):
        speaker_module_from_obj({"mood": "NEUTRAL"})
    with pytest.raises(UnknownValue):
        speaker_module_from_obj({"tone": "SMUG"})
    with pytest.raises(UnknownValue):
        speaker_module_from_obj({"tone": 3})


def test_document_forms_agree():
    listed = speaker_module_from_obj(
        {
            "speaker_module": [
                "#T_SOFTASSERT",
                "#P_SELFREF",
                "#C_LOOP",
                "#CTX_MERGE",
                "#L_CASCADE",
                "#E_TIGHT",
            ]
        }
    )
    keyed = speaker_module_from_obj(
        {
            "speaker_module": {
                "tone": "SOFTASSERT",
                "position": "SELFREF",
                "closure": "LOOP",
                "context_alignment": "MERGE",
                "logical_flow": "CASCADE",
                "affective_tension": "TIGHT",
            }
        }
    )
    assert listed == keyed


def test_document_rejects_garbage():
    with pytest.raises(MalformedJson):
        speaker_module_from_obj(parse_json("not json", ""))
    with pytest.raises(MalformedJson):
        speaker_module_from_obj(parse_json('"just a string"', ""))
    with pytest.raises(MalformedJson):
        speaker_module_from_obj(parse_json('{"speaker_module": 12}', ""))


def test_directive_string_fixed_order():
    config = parse_tag_list(
        ["#E_TIGHT", "#L_CASCADE", "#CTX_MERGE", "#C_LOOP", "#P_SELFREF", "#T_SOFTASSERT"]
    )
    assert build_prompt_directives(config) == (
        "[TONE=SOFTASSERT] [POSITION=SELFREF] [CLOSURE=LOOP] "
        "[CONTEXT_ALIGNMENT=MERGE] [LOGICAL_FLOW=CASCADE] [AFFECTIVE_TENSION=TIGHT]"
    )


def test_partial_config_compiles_partial_directives():
    config = parse_tag_list(["#T_NEUTRAL", "#E_FLAT"])
    assert build_prompt_directives(config) == "[TONE=NEUTRAL] [AFFECTIVE_TENSION=FLAT]"


@given(
    st.lists(
        st.sampled_from(ALL_SURFACES),
        min_size=1,
        max_size=6,
        unique_by=lambda s: s.split("_")[0],
    )
)
def test_tag_list_order_never_matters(surfaces):
    configs = {
        parse_tag_list(list(reversed(surfaces))),
        parse_tag_list(surfaces),
    }
    assert len(configs) == 1
    ordered = [t.dimension for t in parse_tag_list(surfaces).tags]
    assert ordered == sorted(ordered, key=DIMENSION_ORDER.index)


def test_to_document_round_trip():
    config = parse_tag_list(["#T_HIGHASSERT", "#C_CUT"])
    doc = json.dumps(config.to_document())
    assert speaker_module_from_obj(parse_json(doc, "")) == config
