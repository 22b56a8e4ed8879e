"""Closed-loop detection over responsibility graphs.

A closed loop is an elementary directed cycle: every node on it is distinct.
Loops are reported in canonical rotation (lexicographically smallest node
first), parallel edges collapse to one adjacency, and a self-edge counts as a
length-1 loop. Enumeration uses Johnson's algorithm (D. B. Johnson, "Finding
all the elementary circuits of a directed graph", SIAM J. Comput. 1975), whose
work is O((V+E)(C+1)) for V nodes, E edges and C loops: a single ring costs one
pass. Loops are emitted once each, ordered by length and then by nodes (code
point order): each anchor's circuits leave the search in lexicographic order,
and bucketing them by length, anchor by anchor, needs no sort over the loops.
C itself can be exponential in V, so exhaustive mode refuses graphs beyond
EXHAUSTIVE_NODE_LIMIT nodes; above the limit callers fall back to
cyclic_components, which only names the strongly connected components that
contain a cycle.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import GraphTooLarge
from .graph import ResponsibilityGraph, SpeakerId

EXHAUSTIVE_NODE_LIMIT = 10_000


def _tarjan_sccs(adj: Mapping[str, Iterable[str]]) -> list[set[str]]:
    """Strongly connected components, iteratively (no recursion limit issues)."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in adj:
        if root in index_of:
            continue
        work: list[tuple[str, Iterable[str]]] = [(root, iter(adj[root]))]
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
                component: set[str] = set()
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
    pending = [c for c in _tarjan_sccs(adj) if len(c) > 1]
    longest = max(map(len, pending), default=1)
    while pending:
        component = pending.pop()
        step = {n: [s for s in adj[n] if s in component and s != n] for n in component}
        anchor = min(component)
        # Successor lists are sorted and the anchor, the component's smallest
        # node, leads any list it is in, so a path closes before it is
        # extended: the search meets the anchor's circuits in lexicographic
        # order.
        circuits: list[list[SpeakerId]] = []
        by_anchor[anchor] = circuits
        # Johnson's blocking: a node stays blocked until a circuit is found
        # through it, or until a node in its wait list (`waits`) is unblocked.
        blocked = {anchor}
        waits: dict[str, set[str]] = {n: set() for n in component}
        path = [anchor]
        closed = [False]  # closed[i]: a circuit was found below path[i]
        iters = [iter(step[anchor])]
        while iters:
            for succ in iters[-1]:
                if succ == anchor:
                    circuits.append(path[:])
                    closed[-1] = True
                elif succ not in blocked:
                    blocked.add(succ)
                    path.append(succ)
                    closed.append(False)
                    iters.append(iter(step[succ]))
                    break
            else:
                iters.pop()
                node = path.pop()
                found = closed.pop()
                if found:
                    release = [node]
                    while release:
                        freed = release.pop()
                        if freed in blocked:
                            blocked.discard(freed)
                            release.extend(waits[freed])
                            waits[freed].clear()
                    if closed:
                        closed[-1] = True
                else:
                    for succ in step[node]:
                        waits[succ].add(node)
        rest = {n: [s for s in step[n] if s != anchor] for n in component if n != anchor}
        pending.extend(c for c in _tarjan_sccs(rest) if len(c) > 1)

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
