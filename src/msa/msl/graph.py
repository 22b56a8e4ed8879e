"""Responsibility-transfer graphs.

Nodes are speaker ids, edges are individual transfer events. The edge list is
an insertion-ordered multiset: parallel edges and self-edges are both legal
and preserved. Graphs are immutable values, built whole in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView, Mapping

from ..errors import GraphTooLarge, MalformedJson, UnknownSpeaker

SpeakerId = str


def _check_speaker(speaker: object) -> str:
    if not isinstance(speaker, str) or not speaker:
        raise UnknownSpeaker(f"speaker id must be a non-empty string, got {speaker!r}")
    return speaker


# dict keys views: sets for the check, in document order for the message
_EDGE_KEYS = dict.fromkeys(("from", "to", "utterance_index", "label")).keys()
_GRAPH_KEYS = dict.fromkeys(("nodes", "edges")).keys()


def _refuse_unknown_keys(obj: Mapping[str, object], keys: KeysView[str], what: str) -> None:
    if not obj.keys() <= keys:
        key = next(key for key in obj if key not in keys)
        raise MalformedJson(f"unknown {what} key {key!r}; keys are {', '.join(keys)}")


@dataclass(frozen=True)
class ResponsibilityEdge:
    """One directed transfer event. ``source`` took an obligation to ``target``."""

    source: SpeakerId
    target: SpeakerId
    utterance_index: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        index = self.utterance_index
        if index is not None and type(index) is not int:  # bool is an int subclass
            raise MalformedJson(f"utterance_index must be an integer, got {index!r}")
        if self.label is not None and not isinstance(self.label, str):
            raise MalformedJson(f"label must be a string, got {self.label!r}")
        _check_speaker(self.source)
        _check_speaker(self.target)

    @classmethod
    def from_dict(cls, obj: object) -> "ResponsibilityEdge":
        if not isinstance(obj, dict):
            raise MalformedJson(f"edge must be an object, got {type(obj).__name__}")
        if "from" not in obj or "to" not in obj:
            raise MalformedJson(f"edge object needs 'from' and 'to': {obj!r}")
        index, label = obj.get("utterance_index"), obj.get("label")
        return cls(source=obj["from"], target=obj["to"], utterance_index=index, label=label)


@dataclass(frozen=True)
class ResponsibilityGraph:
    nodes: frozenset[SpeakerId] = frozenset()
    edges: tuple[ResponsibilityEdge, ...] = ()

    def adjacency(self) -> dict[SpeakerId, set[SpeakerId]]:
        """Successor sets with parallel edges collapsed."""
        adj: dict[SpeakerId, set[SpeakerId]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            adj[edge.source].add(edge.target)
        return adj

    @classmethod
    def from_dict(cls, obj: Mapping[str, object]) -> "ResponsibilityGraph":
        if not isinstance(obj, Mapping):
            raise MalformedJson(f"graph must be a JSON object, got {type(obj).__name__}")
        raw_nodes = obj.get("nodes", [])
        raw_edges = obj.get("edges", [])
        if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
            raise MalformedJson("graph 'nodes' and 'edges' must be arrays")
        nodes = frozenset(_check_speaker(n) for n in raw_nodes)
        edges = []
        for raw in raw_edges:
            edge = ResponsibilityEdge.from_dict(raw)
            for endpoint in (edge.source, edge.target):
                if endpoint not in nodes:
                    raise UnknownSpeaker(f"edge endpoint {endpoint!r} missing from nodes")
            edges.append(edge)
        # unknown keys last, so a graph refused for another fault keeps that fault's code
        for raw in raw_edges:
            _refuse_unknown_keys(raw, _EDGE_KEYS, "edge")
        _refuse_unknown_keys(obj, _GRAPH_KEYS, "graph")
        return cls(nodes=nodes, edges=tuple(edges))


def detect_partial_drift(graph: ResponsibilityGraph) -> frozenset[SpeakerId]:
    """Speakers that never transfer responsibility onward (out-degree zero)."""
    return graph.nodes - {edge.source for edge in graph.edges}


# The closure can hold V * V pairs: a 1,000-speaker ring in a 43 KB file has a million.
CLOSURE_PAIR_LIMIT = 100_000


def transitive_closure(graph: ResponsibilityGraph) -> frozenset[tuple[SpeakerId, SpeakerId]]:
    """All (x, y) pairs connected by a transfer path of length >= 1.

    Closure is an explicit, separate operation. Loop and drift detection work
    on the raw relation and never apply it implicitly. Raises GraphTooLarge
    as soon as the closure holds more than CLOSURE_PAIR_LIMIT pairs.
    """
    adj = graph.adjacency()
    reachable: set[tuple[SpeakerId, SpeakerId]] = set()
    for start in graph.nodes:
        frontier = list(adj[start])
        seen: set[SpeakerId] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            reachable.add((start, node))
            if len(reachable) > CLOSURE_PAIR_LIMIT:
                raise GraphTooLarge(
                    f"transitive closure exceeds the limit of {CLOSURE_PAIR_LIMIT} pairs"
                )
            frontier.extend(adj[node] - seen)
    return frozenset(reachable)
