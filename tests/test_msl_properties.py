"""Property-based checks for loop and drift detection against naive oracles."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msa.msl.cycles import cyclic_components, detect_closed_loops
from msa.msl.graph import detect_partial_drift, transitive_closure
from msa.service import analyze_graph_report
from helpers import (
    brute_force_drift,
    brute_force_loops,
    in_report_order,
    is_closed_loop,
    make_graph,
)

NODE_POOL = ["a", "b", "c", "d", "e", "f", "g", "h"]
# Listed out of code-point order, so insertion order and report order differ.
MIXED_POOL = ["é", "alpha", "Zed", "b", "_", "B", "Ω", "a1"]


def assert_loops_match(graph, expected) -> None:
    """Every loop of ``expected`` exactly once, in report order."""
    got = detect_closed_loops(graph)
    assert len({tuple(loop) for loop in got}) == len(got), "a loop is reported twice"
    assert got == in_report_order(expected)


@st.composite
def small_graphs(draw, pool=NODE_POOL):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = pool[:n]
    m = draw(st.integers(min_value=0, max_value=16))
    pairs = [
        (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))) for _ in range(m)
    ]
    return make_graph(nodes, pairs)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_loops_match_oracle(graph):
    assert_loops_match(graph, brute_force_loops(graph))


@settings(max_examples=300, deadline=None)
@given(small_graphs(MIXED_POOL))
def test_loops_match_oracle_with_labels_out_of_code_point_order(graph):
    assert_loops_match(graph, brute_force_loops(graph))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_drift_matches_oracle(graph):
    assert detect_partial_drift(graph) == frozenset(brute_force_drift(graph))


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.randoms())
def test_loops_invariant_under_edge_order(graph, rng):
    shuffled = list(graph.edges)
    rng.shuffle(shuffled)
    reordered = make_graph(sorted(graph.nodes), [(e.source, e.target) for e in shuffled])
    assert detect_closed_loops(reordered) == detect_closed_loops(graph)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_every_reported_loop_verifies(graph):
    for loop in detect_closed_loops(graph):
        assert is_closed_loop(graph, loop)
        assert loop[0] == min(loop)
        assert len(set(loop)) == len(loop)


def test_dense_eight_node_graph_exact():
    # complete digraph on 4 nodes, loop count known:
    # C(4,2) 2-loops + C(4,3)*2 3-loops + 3!*... enumerated by the oracle
    nodes = ["a", "b", "c", "d"]
    pairs = [(x, y) for x in nodes for y in nodes if x != y]
    g = make_graph(nodes, pairs)
    assert_loops_match(g, brute_force_loops(g))
    assert len(detect_closed_loops(g)) == 6 + 8 + 6  # 2-cycles, 3-cycles, 4-cycles


def test_thousand_random_graphs_seeded():
    rng = random.Random(20260816)
    for _ in range(250):
        n = rng.randint(1, 8)
        nodes = NODE_POOL[:n]
        pairs = [
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 16))
        ]
        g = make_graph(nodes, pairs)
        assert_loops_match(g, brute_force_loops(g))
        assert detect_partial_drift(g) == frozenset(brute_force_drift(g))


def _random_digraph(rng: random.Random, n: int, density: float):
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if rng.random() < density]
    return nodes, pairs


def _ring(n: int):
    nodes = [f"r{i:05d}" for i in range(n)]
    return make_graph(nodes, [(nodes[i], nodes[(i + 1) % n]) for i in range(n)])


def _complete(n: int):
    nodes = [f"k{i}" for i in range(n)]
    return make_graph(nodes, [(a, b) for a in nodes for b in nodes if a != b])


def test_loops_match_networkx_on_graphs_too_big_for_brute_force():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    sparse = [_random_digraph(rng, rng.randint(9, 16), rng.uniform(0.08, 0.22)) for _ in range(40)]
    # Dense graphs, where almost every node the search pushes closes a loop:
    # past the brute-force oracle's 16 edges.
    dense = [_random_digraph(rng, rng.randint(6, 8), rng.uniform(0.5, 0.95)) for _ in range(20)]
    for nodes, pairs in sparse + dense:
        oracle = nx.DiGraph()
        oracle.add_nodes_from(nodes)
        oracle.add_edges_from(pairs)
        expected = []
        for cycle in nx.simple_cycles(oracle):
            head = cycle.index(min(cycle))
            expected.append(cycle[head:] + cycle[:head])
        assert_loops_match(make_graph(nodes, pairs), expected)


def test_closure_and_cyclic_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261021)
    for _ in range(300):
        nodes, pairs = _random_digraph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.4))
        oracle = nx.DiGraph()
        oracle.add_nodes_from(nodes)
        oracle.add_edges_from(pairs)
        graph = make_graph(nodes, pairs)
        assert transitive_closure(graph) == set(nx.transitive_closure(oracle, reflexive=False).edges)
        cyclic = {
            frozenset(component)
            for component in nx.strongly_connected_components(oracle)
            if len(component) > 1 or any(oracle.has_edge(n, n) for n in component)
        }
        assert cyclic_components(graph) == cyclic


def test_large_ring_is_one_loop():
    graph = _ring(2_000)
    assert detect_closed_loops(graph) == [sorted(graph.nodes)]


def test_ring_enumeration_scales_linearly():
    # One loop per ring, so work should grow with V+E: 8x the nodes should
    # cost about 8x the time. A per-anchor sweep costs about 64x.
    small, large = _ring(500), _ring(4_000)
    best = {500: float("inf"), 4_000: float("inf")}
    for _ in range(3):
        for size, graph in ((500, small), (4_000, large)):
            start = time.perf_counter()
            detect_closed_loops(graph)
            best[size] = min(best[size], time.perf_counter() - start)
    assert best[4_000] / best[500] < 24


def test_dense_enumeration_scales_with_loops_found():
    # A complete digraph's loops outnumber its edges: K6 has 409 and K8 has
    # 16,064, so O((V+E)(C+1)) work makes the time per loop about flat.
    small, large = _complete(6), _complete(8)
    per_loop = {6: float("inf"), 8: float("inf")}
    for _ in range(3):
        for size, graph in ((6, small), (8, large)):
            start = time.perf_counter()
            loops = detect_closed_loops(graph)
            per_loop[size] = min(per_loop[size], (time.perf_counter() - start) / len(loops))
    assert len(detect_closed_loops(small)) == 409 and len(loops) == 16_064
    assert per_loop[8] / per_loop[6] < 3


def test_report_orders_loops_by_length_then_nodes():
    rng = random.Random(7)
    for _ in range(30):
        nodes, pairs = _random_digraph(rng, rng.randint(2, 9), 0.3)
        graph = make_graph(nodes, pairs)
        loops = detect_closed_loops(graph)
        report = analyze_graph_report(graph)
        assert report["loops"] == sorted(loops, key=lambda loop: (len(loop), loop))
        assert report["self_retention"] == sorted(n for n in nodes if (n, n) in pairs)


def test_loops_of_several_components_match_oracle():
    # Two or three strongly connected components over interleaved labels,
    # with self-loops, joined by edges that run one way only: anchors from
    # different components share every length bucket.
    rng = random.Random(20261019)
    for _ in range(200):
        labels = MIXED_POOL[:]
        rng.shuffle(labels)
        cut = sorted(rng.sample(range(1, len(labels)), rng.randint(1, 2)))
        parts = [labels[i:j] for i, j in zip([0] + cut, cut + [len(labels)])]
        pairs = []
        for part in parts:
            pairs += [(part[i], part[(i + 1) % len(part)]) for i in range(len(part))]
            pairs += [(rng.choice(part), rng.choice(part)) for _ in range(len(part))]
        for earlier, later in zip(parts, parts[1:]):
            pairs.append((rng.choice(earlier), rng.choice(later)))
        graph = make_graph(labels, pairs)
        assert_loops_match(graph, brute_force_loops(graph))
