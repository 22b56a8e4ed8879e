"""Closed-loop detection over responsibility graphs.

A closed loop is an elementary directed cycle: every node on it is distinct.
Loops are reported in canonical rotation (lexicographically smallest node
first), parallel edges collapse to one adjacency, and a self-edge counts as a
length-1 loop. Enumeration uses Johnson's algorithm (D. B. Johnson, "Finding
all the elementary circuits of a directed graph", SIAM J. Comput. 1975), whose
work is O((V+E)(C+1)) for V nodes, E edges and C loops: a single ring costs one
pass. The search runs on integer ids: each strongly connected component numbers
its nodes by code point order, so the anchor, its smallest node, is id 0, and
every other node carries its sorted successor ids plus a flag for an edge back
to the anchor. A circuit is emitted when its last node is pushed, so each
anchor's circuits leave the search in lexicographic order. Loops are emitted
once each, ordered by length and then by nodes (code point order): bucketing
the circuits by length, anchor by anchor, needs no sort over the loops.
C itself can be exponential in V, so exhaustive mode refuses graphs beyond
EXHAUSTIVE_NODE_LIMIT nodes; above the limit callers fall back to
cyclic_components, which only names the strongly connected components that
contain a cycle.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

from ..errors import GraphTooLarge
from .graph import ResponsibilityGraph, SpeakerId

EXHAUSTIVE_NODE_LIMIT = 10_000

_Node = TypeVar("_Node", bound=Hashable)


def _tarjan_sccs(adj: Mapping[_Node, Iterable[_Node]]) -> list[set[_Node]]:
    """Strongly connected components, iteratively (no recursion limit issues)."""
    index_of: dict[_Node, int] = {}
    low: dict[_Node, int] = {}
    on_stack: set[_Node] = set()
    stack: list[_Node] = []
    sccs: list[set[_Node]] = []
    counter = 0

    for root in adj:
        if root in index_of:
            continue
        work: list[tuple[_Node, Iterator[_Node]]] = [(root, iter(adj[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: set[_Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def detect_closed_loops(graph: ResponsibilityGraph) -> list[list[SpeakerId]]:
    """Every elementary directed cycle, canonically rotated, exactly once.

    Loops come ordered by length, then by nodes. Raises GraphTooLarge when
    the node count exceeds EXHAUSTIVE_NODE_LIMIT; use cyclic_components for
    graphs of that size.
    """
    if len(graph.nodes) > EXHAUSTIVE_NODE_LIMIT:
        raise GraphTooLarge(
            f"{len(graph.nodes)} nodes exceeds the exhaustive limit of "
            f"{EXHAUSTIVE_NODE_LIMIT}; use cyclic_components instead"
        )
    successors = graph.adjacency()
    adj = {node: sorted(succs) for node, succs in successors.items()}
    by_anchor: dict[SpeakerId, list[list[SpeakerId]]] = {}

    # Cycles of length >= 2 live entirely inside one SCC. Anchor each cyclic
    # SCC at its smallest node, which makes every circuit through the anchor
    # come out already in canonical rotation; then drop the anchor and split
    # the rest of the SCC again. Each SCC taken from `pending` yields at least
    # one circuit, which is what bounds the work by the number of loops.
    pending = [sorted(c) for c in _tarjan_sccs(adj) if len(c) > 1]
    longest = max(map(len, pending), default=1)
    while pending:
        names = pending.pop()  # sorted, so id order is code point order
        anchor = names[0]
        ids = {name: i for i, name in enumerate(names)}
        # step[i]: i's successor ids in the component, sorted (adj is), leaving
        # out i and the anchor; closes[i]: i has an edge back to the anchor.
        step: list[list[int]] = []
        closes: list[bool] = []
        for name in names:
            targets = [ids[s] for s in adj[name] if s in ids and s != name]
            closes.append(targets[:1] == [0])
            step.append(targets[1:] if closes[-1] else targets)
        # A circuit is emitted when its last node is pushed, before the search
        # goes deeper, so with sorted step lists the anchor's circuits come out
        # in lexicographic order.
        circuits: list[list[SpeakerId]] = []
        by_anchor[anchor] = circuits
        emit = circuits.append
        # Johnson's blocking: a node stays blocked until a circuit is found
        # through it, or until a node in its wait list (`waits`) is unblocked.
        blocked = [False] * len(names)
        waits: list[set[int]] = [set() for _ in names]
        found = [False] * len(names)  # found[i]: a circuit through i since i was pushed
        path = [0]  # the anchor is never popped, so path[-1] always exists
        named = [anchor]  # path, as names
        # untried: path[-1]'s successors not yet tried; frames[i]: path[i]'s
        frames: list[Iterator[int]] = []
        untried = iter(step[0])
        push, push_name, push_frame = path.append, named.append, frames.append
        while True:
            for succ in untried:
                if not blocked[succ]:
                    blocked[succ] = True
                    push(succ)
                    push_name(names[succ])
                    if closes[succ]:
                        emit(named[:])
                    found[succ] = closes[succ]
                    push_frame(untried)
                    untried = iter(step[succ])
                    break
            else:
                if not frames:
                    break
                untried = frames.pop()
                named.pop()
                node = path.pop()
                if found[node]:
                    if waits[node]:
                        release = [node]
                        while release:
                            freed = release.pop()
                            if blocked[freed]:
                                blocked[freed] = False
                                release.extend(waits[freed])
                                waits[freed].clear()
                    else:  # nothing waits on node: the common case on dense graphs
                        blocked[node] = False
                    found[path[-1]] = True
                else:
                    for succ in step[node]:
                        waits[succ].add(node)
        rest = {i: step[i] for i in range(1, len(names))}
        pending.extend([names[i] for i in sorted(c)] for c in _tarjan_sccs(rest) if len(c) > 1)

    # Every loop starts at its anchor, so joining the anchors' lists in anchor
    # order and bucketing by length gives (length, nodes) order with no sort.
    buckets: list[list[list[SpeakerId]]] = [[] for _ in range(longest + 1)]
    buckets[1] = [[node] for node in sorted(n for n, succs in successors.items() if n in succs)]
    for anchor in sorted(by_anchor):
        for circuit in by_anchor[anchor]:
            buckets[len(circuit)].append(circuit)
    return [loop for bucket in buckets for loop in bucket]


def cyclic_components(graph: ResponsibilityGraph) -> frozenset[frozenset[SpeakerId]]:
    """Strongly connected components that contain at least one cycle.

    The scalable summary for graphs too large to enumerate: every closed loop
    is confined to exactly one of the reported components.
    """
    adj = graph.adjacency()
    out: set[frozenset[SpeakerId]] = set()
    for component in _tarjan_sccs(adj):
        if len(component) > 1:
            out.add(frozenset(component))
        else:
            (node,) = component
            if node in adj[node]:
                out.add(frozenset(component))
    return frozenset(out)
