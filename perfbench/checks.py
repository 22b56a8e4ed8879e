"""Output checks computed apart from the program.

Every expected value here is rebuilt from the benchmark's own inputs and the
rules the program documents (docstrings of `commitments.py`, `heuristics.py`,
`rubric.py`, `cycles.py`, `llm.py`), never copied from the program's output.
Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import random
from math import comb, factorial

from inputs import DIMENSION_TABLE, PREFIXES, TRANSFER_PHRASE

COMMIT_PATTERNS = ("I will", "will", "should")  # case-sensitive substrings
SUB_MAXIMA = (2, 2, 2, 3)
METRICS = (("pragmatic", "pragmatic_consistency"),
           ("responsibility", "responsibility_chain"),
           ("context", "context_stability"))


def complete_digraph_loops(n: int) -> int:
    """Elementary cycles of the complete digraph on n nodes: sum C(n,k)(k-1)!."""
    return sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))


def heuristic_triple(rows: list[dict]) -> dict[str, int]:
    """The reference arithmetic of `heuristic_score`."""
    alternating = all(a["speaker"] != b["speaker"] for a, b in zip(rows, rows[1:]))
    commits = sum(1 for r in rows if any(p in r["text"] for p in COMMIT_PATTERNS))
    short = sum(1 for r in rows if len(r["text"].split()) < 3)
    return {
        "role_continuity": 9 if alternating else 5,
        "responsibility_trace": 9 if commits >= 3 else 7 if commits == 2 else 5,
        "context_integrity": max(1, 9 - 2 * short),
    }


def fold_commitments(rows: list[dict]) -> tuple[int, int]:
    """(commitments, transfer edges) by the fold rules of `update_commitments`.

    A transfer phrase moves the speaker's most recent live commitment and adds
    one edge; otherwise a commitment phrase adds one commitment unless its
    stripped text is already in the chain.
    """
    chain: list[list] = []  # [holder, text, live]
    edges = 0
    for row in rows:
        text, speaker = row["text"], row["speaker"]
        if TRANSFER_PHRASE in text:
            for entry in reversed(chain):
                if entry[0] == speaker and entry[2]:
                    entry[2] = False
                    edges += 1
                    break
        elif any(p in text for p in COMMIT_PATTERNS):
            key = text.strip()
            if all(entry[1] != key for entry in chain):
                chain.append([speaker, key, True])
    return len(chain), edges


def check_simulation(task: dict, run: dict, rows: list[dict],
                     program_chain: tuple[int, int], program_triple: dict) -> list[str]:
    errors = []
    order = sorted(name for name in task if name != "task")
    random.Random(run["seed"]).shuffle(order)
    replies = run["replies"]
    if len(rows) != len(replies) + 1:
        return [f"simulate: {len(rows)} turns for {len(replies)} replies"]
    if rows[0]["text"] != task["task"] or rows[0]["turn_role"] != "system":
        errors.append("simulate: turn 0 is not the task statement")
    role = "system"
    for i, row in enumerate(rows):
        if row["index"] != i:
            errors.append(f"simulate: turn {i} has index {row['index']}")
        if i == 0:
            continue
        role = "assistant" if role == "user" else "user"
        if row["turn_role"] != role:
            errors.append(f"simulate: turn {i} role {row['turn_role']}, expected {role}")
        if row["speaker"] != order[(i - 1) % len(order)]:
            errors.append(f"simulate: turn {i} speaker {row['speaker']}")
        if row["text"] != replies[i - 1]:
            errors.append(f"simulate: turn {i} is not the scripted reply")
    if program_chain != fold_commitments(rows):
        errors.append(f"simulate: replay gives {program_chain}, fold gives {fold_commitments(rows)}")
    if program_triple != heuristic_triple(rows):
        errors.append(f"simulate: heuristic {program_triple} != {heuristic_triple(rows)}")
    return errors[:5]


def check_scorecard(rows: list[dict], card_text: str) -> list[str]:
    card = json.loads(card_text)
    errors = []
    if card["heuristic"] != heuristic_triple(rows):
        errors.append(f"annotate: heuristic {card['heuristic']} != {heuristic_triple(rows)}")
    for key, total_key in METRICS:
        subs = card["subscores"][key]
        if card["totals"][total_key] != sum(subs):
            errors.append(f"annotate: {total_key} total is not the sum of {subs}")
        if len(subs) != 4 or any(not 0 <= s <= m for s, m in zip(subs, SUB_MAXIMA)):
            errors.append(f"annotate: {key} sub-scores {subs} outside {SUB_MAXIMA}")
    roles = [r["function_role"] for r in rows if "function_role" in r]
    rate = pct = None
    if len(roles) >= 2:
        shifts = sum(1 for a, b in zip(roles, roles[1:]) if a != b)
        rate, pct = shifts / (len(roles) - 1), shifts * 100 // (len(roles) - 1)
    if (card["shift_rate"], card["shift_rate_percent"]) != (rate, pct):
        errors.append(f"annotate: shift {card['shift_rate']}/{card['shift_rate_percent']}, "
                      f"expected {rate}/{pct}")
    if card["advisory"] is not True:
        errors.append("annotate: card is not marked advisory")
    return errors


def check_graph_report(structure: str, graph: dict, report: dict) -> list[str]:
    """Loop validity, exact counts where a closed form exists, and drift.

    The caller compares the loop count of other dense graphs against
    `networkx_loop_count`.
    """
    edges = {(e["from"], e["to"]) for e in graph["edges"]}
    sources = {a for a, _ in edges}
    loops = report["loops"]
    errors = []
    if report["exhaustive"] is not True or loops is None:
        return [f"graph: {structure} report is not exhaustive"]
    for loop in loops:
        if len(set(loop)) != len(loop) or loop[0] != min(loop):
            errors.append(f"graph: loop {loop[:4]}... is not elementary and min-first")
            break
        if not edges.issuperset(zip(loop, loop[1:] + loop[:1])):
            errors.append(f"graph: loop {loop[:4]}... uses a missing edge")
            break
    if len({tuple(loop) for loop in loops}) != len(loops):
        errors.append("graph: a loop is reported twice")
    core = sorted(sources)
    if structure == "complete" and len(loops) != complete_digraph_loops(len(core)):
        errors.append(f"graph: K{len(core)} gave {len(loops)} loops, "
                      f"expected {complete_digraph_loops(len(core))}")
    if structure == "ring" and (len(loops) != 1 or sorted(loops[0]) != core):
        errors.append(f"graph: ring of {len(core)} gave {len(loops)} loops")
    if report["self_retention"] != sorted(a for a, b in edges if a == b):
        errors.append(f"graph: self_retention {report['self_retention']}")
    if report["partial_drift"] != sorted(set(graph["nodes"]) - sources):
        errors.append(f"graph: partial_drift {report['partial_drift']}")
    return errors


def networkx_loop_count(graph: dict) -> int:
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph["nodes"])
    g.add_edges_from((e["from"], e["to"]) for e in graph["edges"])
    return sum(1 for _ in nx.simple_cycles(g))


def expected_directives(module: object) -> str:
    """`build_prompt_directives` rebuilt from the benchmark's dimension-order table."""
    if isinstance(module, list):
        by_prefix = {prefix: key for key, prefix in PREFIXES.items()}
        pairs = {}
        for surface in module:
            prefix, value = surface[1:].split("_", 1)
            pairs[by_prefix[prefix.upper()]] = value.upper()
    else:
        pairs = {key: value.upper() for key, value in module.items()}
    return " ".join(f"[{key.upper()}={pairs[key]}]" for key, _ in DIMENSION_TABLE if key in pairs)


def check_service_reply(path: str, body: dict | None, reply: bytes,
                        annotate_expected: bytes | None) -> list[str]:
    """One 200 reply. `/annotate` must match the in-process score card bytes."""
    if path == "/annotate":
        return [] if reply == annotate_expected else ["service: /annotate bytes differ"]
    payload = json.loads(reply)
    if path == "/health":
        return [] if payload == {"status": "ok"} else [f"service: /health gave {payload}"]
    if path == "/generate_with_speaker_module":
        # StubLlmClient documents its echo of directives and the last turn.
        want = (f"<ECHO directives='{expected_directives(body['speaker_module'])}' "
                f"last='{body['prompt']}'>")
        return [] if payload == {"output": want} else [f"service: generate gave {payload}"]
    n = len({e["from"] for e in body["edges"]})
    sinks = sorted(set(body["nodes"]) - {e["from"] for e in body["edges"]})
    if (len(payload["loops"]), payload["partial_drift"]) != (complete_digraph_loops(n), sinks):
        return [f"service: /analyze_graph K{n} gave {len(payload['loops'])} loops"]
    return []
