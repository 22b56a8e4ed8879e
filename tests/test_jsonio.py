"""The one JSON decoder refuses what is not JSON."""

from __future__ import annotations

import pytest

from msa.errors import MalformedJson
from msa.jsonio import parse_json


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("template", ["{}", "[1, {}]", '{{"arg": {}}}'])
def test_refuses_the_non_json_constants(template, constant):
    with pytest.raises(MalformedJson, match=f"rules.json: {constant} is not a JSON value"):
        parse_json(template.format(constant), "rules.json")
