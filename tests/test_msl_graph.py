"""Responsibility graph container, JSON form, drift, closure, loops."""

from __future__ import annotations

import pytest

from msa.errors import GraphTooLarge, MalformedJson, UnknownSpeaker
from msa.msl.cycles import cyclic_components, detect_closed_loops
from msa.msl.graph import (
    ResponsibilityEdge,
    ResponsibilityGraph,
    detect_partial_drift,
    transitive_closure,
)
from helpers import is_closed_loop, make_graph


def test_parallel_and_self_edges_are_legal():
    g = make_graph(["a", "b"], [("a", "b"), ("a", "b"), ("b", "b")])
    assert len(g.edges) == 3
    assert g.adjacency()["a"] == {"b"}


def test_edge_order_is_preserved():
    g = make_graph(["a", "b", "c"], [("b", "c"), ("a", "b")])
    assert [(e.source, e.target) for e in g.edges] == [("b", "c"), ("a", "b")]


def test_rejects_empty_speaker():
    with pytest.raises(UnknownSpeaker):
        ResponsibilityEdge(source="", target="b", utterance_index=0)


@pytest.mark.parametrize(
    "fields", [{"utterance_index": True}, {"utterance_index": "x"}, {"label": 7}],
    ids=["boolean-index", "string-index", "number-label"],
)
def test_edge_built_in_code_meets_the_json_checks(fields):
    # a bad index or label beats a bad endpoint, as it does in from_dict
    with pytest.raises(MalformedJson):
        ResponsibilityEdge(source="", target="b", **fields)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"nodes": ["a"], "edgez": [{"from": "a", "to": "a"}]},
         "unknown graph key 'edgez'; keys are nodes, edges"),
        ({"nodes": ["a"], "edges": [{"from": "a", "to": "a", "lable": "c1"}]},
         "unknown edge key 'lable'; keys are from, to, utterance_index, label"),
    ],
    ids=["graph", "edge"],
)
def test_from_dict_refuses_unknown_keys(doc, message):
    with pytest.raises(MalformedJson) as raised:
        ResponsibilityGraph.from_dict(doc)
    assert str(raised.value) == message


def test_unknown_keys_are_checked_after_every_other_fault():
    doc = {"nodes": ["a"], "edges": [{"from": "a", "to": "a", "x": 1}, {"from": "a", "to": "zz"}]}
    with pytest.raises(UnknownSpeaker):
        ResponsibilityGraph.from_dict(doc)
    with pytest.raises(UnknownSpeaker):
        ResponsibilityGraph.from_dict({"nodes": [""], "edgez": []})


def test_from_dict_rejects_dangling_endpoint():
    with pytest.raises(UnknownSpeaker):
        ResponsibilityGraph.from_dict(
            {"nodes": ["a"], "edges": [{"from": "a", "to": "zz", "utterance_index": 0}]}
        )


def test_detect_partial_drift():
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c")])
    assert detect_partial_drift(g) == frozenset({"c", "d"})


def test_drift_everything_when_no_edges():
    g = make_graph(["x", "y"], [])
    assert detect_partial_drift(g) == frozenset({"x", "y"})


def test_transitive_closure_is_paths_of_length_one_or_more():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert transitive_closure(g) == frozenset({("a", "b"), ("a", "c"), ("b", "c")})


def test_transitive_closure_cycle_reaches_itself():
    g = make_graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert transitive_closure(g) == frozenset(
        {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    )


def test_loop_detection_canonical_rotation():
    g = make_graph(["b", "c", "a"], [("b", "c"), ("c", "a"), ("a", "b")])
    assert detect_closed_loops(g) == [["a", "b", "c"]]


def test_loop_detection_self_loop_is_length_one():
    g = make_graph(["a"], [("a", "a")])
    assert detect_closed_loops(g) == [["a"]]


def test_loop_detection_collapses_parallel_edges():
    g = make_graph(["a", "b"], [("a", "b"), ("a", "b"), ("b", "a")])
    assert detect_closed_loops(g) == [["a", "b"]]


def test_two_overlapping_loops():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    assert detect_closed_loops(g) == [["a", "b"], ["b", "c"]]


def test_acyclic_graph_has_no_loops():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    assert detect_closed_loops(g) == []


def test_loops_from_different_components_mix_inside_a_length_bucket():
    # Two strongly connected components, {a, c, e} and {b, d}, with
    # interleaved labels: each length bucket holds loops of both, by anchor.
    pairs = [("d", "b"), ("b", "d"), ("e", "a"), ("c", "e"), ("a", "c"), ("c", "a")]
    pairs += [("e", "e"), ("b", "b"), ("d", "d"), ("a", "e")]
    g = make_graph(["e", "d", "c", "b", "a"], pairs)
    assert detect_closed_loops(g) == [
        ["b"], ["d"], ["e"],
        ["a", "c"], ["a", "e"], ["b", "d"],
        ["a", "c", "e"],
    ]


def test_loops_follow_code_point_order_not_insertion_order():
    # "Zed" < "alpha" < "é" by code point; nodes and edges arrive reversed.
    nodes = ["é", "alpha", "Zed"]
    pairs = [("é", "é"), ("é", "alpha"), ("alpha", "é"), ("é", "Zed"), ("Zed", "é"),
             ("alpha", "Zed"), ("alpha", "alpha"), ("Zed", "alpha")]
    g = make_graph(nodes, pairs)
    assert detect_closed_loops(g) == [
        ["alpha"], ["é"],
        ["Zed", "alpha"], ["Zed", "é"], ["alpha", "é"],
        ["Zed", "alpha", "é"], ["Zed", "é", "alpha"],
    ]


def test_too_large_graph_raises_and_fallback_works():
    g = make_graph([f"s{i}" for i in range(10_001)], [("s0", "s1"), ("s1", "s0")])
    with pytest.raises(GraphTooLarge):
        detect_closed_loops(g)
    assert cyclic_components(g) == frozenset({frozenset({"s0", "s1"})})


def test_is_closed_loop_checks_wraparound():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert is_closed_loop(g, ["a", "b", "c"])
    assert is_closed_loop(g, ["b", "c", "a"])
    assert not is_closed_loop(g, ["a", "c", "b"])
    assert not is_closed_loop(g, [])
    assert not is_closed_loop(g, ["a", "b", "a"])  # repeated node
