"""Shared test helpers: brute-force oracles, small builders, a timer, a memory probe and a call counter.

The oracles here are deliberately naive. They enumerate candidate answers
exhaustively and check each one against the raw edge set, so they share no
code or strategy with the production graph algorithms.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import string
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from contextlib import contextmanager

from msa.dialogue.commitments import (
    DEFAULT_PATTERNS_COMMIT,
    DEFAULT_PATTERNS_TRANSFER,
    ChainState,
)
from msa.dialogue.llm import StubLlmClient
from msa.dialogue.roles import ROLE_CUES
from msa.dialogue.transcript import DialogueTurn, PragmaticRole, Transcript
from msa.errors import EmptyContext
from msa.msl.graph import ResponsibilityEdge, ResponsibilityGraph
from msa.msl.rules import ContextRule, RuleFinding
from msa.scoring.heuristics import (
    ATTRIBUTION_MARKERS,
    BLUR_MARKERS,
    CASUAL_MARKERS,
    CONTINUITY_MARKERS,
    EVASIVE_MARKERS,
    MIRROR_MARKERS,
    REPAIR_MARKERS,
    TRANSFER_MARKERS,
)
from msa.scoring.rubric import SubScores
from msa.service import MsaHttpServer
from msa.text import content_tokens, tokenize


def best_seconds(build, repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs, with the collector paused so that its
    passes, which fall unevenly across input sizes, do not skew a ratio."""
    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            build()
            best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
    return best


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` for the test; the returned list fills with each call's arguments."""
    calls: list[tuple] = []
    wrapped = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees Python allocate during ``fn()``.

    Only allocations made after the call starts count, so objects the caller
    built beforehand (say, a request body) are not part of the figure.
    """
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_loops(graph: ResponsibilityGraph) -> set[tuple[str, ...]]:
    """Every elementary cycle, min-first rotation, by exhaustive enumeration.

    For each node subset, keep only subsets where every member has at least
    one in-edge and one out-edge inside the subset, then try every
    arrangement that starts at the subset minimum and check all consecutive
    pairs plus the wrap-around pair against the edge set.
    """
    pairs = {(e.source, e.target) for e in graph.edges}
    nodes = sorted(graph.nodes)
    found: set[tuple[str, ...]] = set()
    for n in nodes:
        if (n, n) in pairs:
            found.add((n,))
    for size in range(2, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            inside_out = {a for (a, b) in pairs if a in subset and b in subset and a != b}
            inside_in = {b for (a, b) in pairs if a in subset and b in subset and a != b}
            if any(n not in inside_out or n not in inside_in for n in subset):
                continue
            head, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                seq = (head,) + perm
                closed = all(
                    (seq[i], seq[(i + 1) % size]) in pairs for i in range(size)
                )
                if closed:
                    found.add(seq)
    return found


def in_report_order(loops) -> list[list[str]]:
    """Loops as lists, sorted by length and then by nodes, as the report orders them."""
    return sorted((list(loop) for loop in loops), key=lambda loop: (len(loop), loop))


def brute_force_drift(graph: ResponsibilityGraph) -> set[str]:
    """Nodes that never appear as an edge source."""
    sources = {e.source for e in graph.edges}
    return {n for n in graph.nodes if n not in sources}


def reference_chain(transcript: Transcript) -> tuple[list[dict], ResponsibilityGraph]:
    """The chain's records and transfer graph, as first built: one edge appended per transfer.

    Folds the turns by the rules of update_commitments into one dict per
    commitment (its fields by name) and appends each edge, registering its
    endpoints, at the moment its transfer happens, instead of deriving the
    graph from the finished commitments.
    """
    commitments: list[dict] = []
    nodes: set[str] = set()
    edges: list[ResponsibilityEdge] = []
    last_speaker = None
    for turn in transcript.turns:
        if any(pat in turn.text for pat in DEFAULT_PATTERNS_TRANSFER):
            for commitment in reversed(commitments):
                if commitment["holder"] == turn.speaker and commitment["transferred_at"] is None:
                    target = last_speaker
                    if not target or target == turn.speaker:
                        target = turn.speaker
                    commitment["transferred_at"] = turn.index
                    commitment["transferred_to"] = target
                    nodes |= {turn.speaker, target}
                    edges.append(
                        ResponsibilityEdge(
                            source=turn.speaker,
                            target=target,
                            utterance_index=turn.index,
                            label=commitment["id"],
                        )
                    )
                    break
        elif any(pat in turn.text for pat in DEFAULT_PATTERNS_COMMIT):
            key = turn.text.strip()
            if all(c["text"] != key for c in commitments):
                commitments.append({
                    "id": f"c{turn.index}",
                    "holder": turn.speaker,
                    "text": key,
                    "created_at": turn.index,
                    "transferred_at": None,
                    "transferred_to": None,
                })
        last_speaker = turn.speaker
    return commitments, ResponsibilityGraph(nodes=frozenset(nodes), edges=tuple(edges))


def _reference_window_texts(transcript: Transcript, i: int, window: int) -> list[str]:
    lo = max(0, i - window)
    return [turn.text for turn in transcript.turns[lo:i]]


def _reference_holds(rule: ContextRule, transcript: Transcript, i: int) -> bool:
    text = transcript.turns[i].text
    if rule.predicate == "keyword-presence":
        return str(rule.arg).lower() in text.lower()
    if rule.predicate == "keyword-absence":
        return str(rule.arg).lower() not in text.lower()
    if rule.predicate == "max-new-token-ratio":
        if i == 0:
            return True
        tokens = set(tokenize(text))
        if not tokens:
            return True
        prior: set[str] = set()
        for prev in _reference_window_texts(transcript, i, rule.window):
            prior.update(tokenize(prev))
        new_ratio = len(tokens - prior) / len(tokens)
        return new_ratio <= float(rule.arg)
    # topic-anchor-presence
    needle = str(rule.arg).lower()
    if needle in text.lower():
        return True
    return any(
        needle in prev.lower() for prev in _reference_window_texts(transcript, i, rule.window)
    )


def reference_context_findings(transcript: Transcript, rules: list[ContextRule]) -> list[RuleFinding]:
    """Context rules as first written: each utterance rebuilds and rescans its window."""
    findings: list[RuleFinding] = []
    for i in range(len(transcript.turns)):
        for rule in rules:
            if not _reference_holds(rule, transcript, i):
                findings.append(
                    RuleFinding(rule_id=rule.rule_id, utterance_index=i, severity=rule.severity)
                )
    return findings


# later turns by a commitment's holder that must all skip it before it is flagged
_REFERENCE_SILENT_TURNS = 5


def reference_silent_abandonment(state: ChainState, transcript: Transcript) -> list[str]:
    """The silent-abandonment report as first written: each live commitment rescans the transcript."""
    flagged = []
    for commitment in state.commitments:
        if not commitment.is_live:
            continue
        anchor = content_tokens(commitment.text)
        later = [
            turn
            for turn in transcript.turns
            if turn.speaker == commitment.holder and turn.index > commitment.created_at
        ]
        if len(later) < _REFERENCE_SILENT_TURNS:
            continue
        if not any(anchor & content_tokens(turn.text) for turn in later):
            flagged.append(commitment.id)
    return flagged


_REFERENCE_PUNCT = str.maketrans("", "", string.punctuation)


def reference_content_tokens(text: str) -> set[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace, keep tokens of 4+ characters."""
    return {tok for tok in text.lower().translate(_REFERENCE_PUNCT).split() if len(tok) >= 4}


def reference_classify_role(text: str) -> PragmaticRole:
    """The role of the first ``ROLE_CUES`` row with a phrase in ``text``."""
    for phrases, role in ROLE_CUES:
        if any(phrase in text for phrase in phrases):
            return role
    return PragmaticRole.INFORMATION_PROVIDER


def _has_any(text: str, markers: tuple[str, ...]) -> bool:
    lowered = text.lower()
    return any(marker in lowered for marker in markers)


def _first_person(text: str) -> bool:
    return "I" in text.split() or text.startswith("I ") or " I'" in text or text.startswith("I'")


def reference_auto_annotate(transcript: Transcript) -> SubScores:
    """The advisory annotator as first written: every block rescans every turn.

    Each sub-dimension re-lowers, re-tokenizes and re-matches the turns it
    reads, so it shares no per-turn state with ``auto_annotate``, and it
    tokenizes and classifies through the references above, not the
    production helpers.
    """
    turns = transcript.turns
    if not turns:
        raise EmptyContext("annotation needs at least one turn")
    n = len(turns)
    pairs = list(zip(turns, turns[1:]))

    styles = [_has_any(t.text, CASUAL_MARKERS) for t in turns]
    flips = sum(1 for a, b in zip(styles, styles[1:]) if a != b)
    p1 = 2 if flips == 0 else 1 if flips == 1 else 0

    inferred = [reference_classify_role(t.text) for t in turns]
    if n == 1:
        p2 = 2
    else:
        shift_frac = sum(1 for a, b in zip(inferred, inferred[1:]) if a != b) / (n - 1)
        p2 = 2 if shift_frac <= 1 / 3 else 1 if shift_frac <= 2 / 3 else 0

    fragments = sum(
        1
        for t in turns
        if len(t.text.split()) < 3 or t.text.rstrip()[-1:] not in (".", "?", "!", "…")
    )
    frag_ratio = fragments / n
    p3 = 2 if fragments == 0 else 1 if frag_ratio <= 0.25 else 0

    blur_turns = sum(1 for t in turns if _has_any(t.text, BLUR_MARKERS))
    p4 = 3 if blur_turns == 0 else 2 if blur_turns == 1 else 1 if blur_turns == 2 else 0

    attributing = sum(
        1 for t in turns if _first_person(t.text) or _has_any(t.text, ATTRIBUTION_MARKERS)
    )
    r1 = 2 if attributing >= 3 else 1 if attributing >= 1 else 0

    marker_r2 = sum(1 for t in turns if _has_any(t.text, CONTINUITY_MARKERS))
    marker_score = 2 if marker_r2 >= 2 else 1 if marker_r2 == 1 else 0
    reuse_hits = 0
    reuse_total = 0
    seen_by_speaker: dict[str, set[str]] = {}
    for t in turns:
        tokens = reference_content_tokens(t.text)
        if t.speaker in seen_by_speaker:
            reuse_total += 1
            if tokens & seen_by_speaker[t.speaker]:
                reuse_hits += 1
            seen_by_speaker[t.speaker] |= tokens
        else:
            seen_by_speaker[t.speaker] = set(tokens)
    reuse_frac = reuse_hits / reuse_total if reuse_total else 0.0
    reuse_score = 2 if reuse_frac >= 0.6 else 1 if reuse_frac >= 0.3 else 0
    r2 = max(marker_score, reuse_score)

    evasive_turns = sum(1 for t in turns if _has_any(t.text, EVASIVE_MARKERS))
    if any(_has_any(t.text, TRANSFER_MARKERS) for t in turns):
        r3 = 2
    elif evasive_turns >= 2:
        r3 = 0
    else:
        r3 = 1

    final = turns[-1]
    final_tokens = len(final.text.split())
    if final_tokens < 3:
        r4 = 0
    elif _has_any(final.text, EVASIVE_MARKERS) or _has_any(final.text, BLUR_MARKERS):
        r4 = 1
    elif "?" in final.text:
        r4 = 1
    elif _first_person(final.text):
        r4 = 3
    else:
        r4 = 2

    if not pairs:
        c1 = 2
        overlap_frac = 1.0
    else:
        overlapping = sum(
            1
            for a, b in pairs
            if reference_content_tokens(a.text) & reference_content_tokens(b.text)
        )
        overlap_frac = overlapping / len(pairs)
        c1 = 2 if overlap_frac >= 0.6 else 1 if overlap_frac >= 0.3 else 0

    marker_c2 = sum(1 for t in turns if _has_any(t.text, MIRROR_MARKERS))
    marker_score = 2 if marker_c2 >= 2 else 1 if marker_c2 == 1 else 0
    echo_hits = sum(
        1
        for a, b in pairs
        if a.speaker != b.speaker
        and reference_content_tokens(a.text) & reference_content_tokens(b.text)
    )
    echo_frac = echo_hits / len(pairs) if pairs else 0.0
    echo_score = 2 if echo_frac >= 0.5 else 1 if echo_frac >= 0.25 else 0
    c2 = max(marker_score, echo_score)

    if any(_has_any(t.text, REPAIR_MARKERS) for t in turns):
        c3 = 2
    elif overlap_frac >= 0.3:
        c3 = 1
    else:
        c3 = 0

    vocab_by_speaker: dict[str, set[str]] = {}
    for t in turns:
        vocab_by_speaker.setdefault(t.speaker, set()).update(reference_content_tokens(t.text))
    if len(vocab_by_speaker) < 2:
        c4 = 0
    else:
        vocabularies = list(vocab_by_speaker.values())
        shared = set.intersection(*vocabularies)
        union = set.union(*vocabularies)
        jaccard = len(shared) / len(union) if union else 0.0
        c4 = 3 if jaccard >= 0.12 else 2 if jaccard >= 0.06 else 1 if jaccard >= 0.02 else 0

    return SubScores(
        pragmatic=(p1, p2, p3, p4),
        responsibility=(r1, r2, r3, r4),
        context=(c1, c2, c3, c4),
    )


def is_closed_loop(graph: ResponsibilityGraph, sequence: list[str]) -> bool:
    """Does ``sequence`` trace an elementary closed loop, edge by edge?

    Requires an edge from each element to the next and from the last back to
    the first, so a one-element sequence needs a self-edge. Repeated nodes
    make the sequence non-elementary, which is rejected.
    """
    if not sequence or len(set(sequence)) != len(sequence):
        return False
    pairs = {(e.source, e.target) for e in graph.edges}
    n = len(sequence)
    return all((sequence[i], sequence[(i + 1) % n]) in pairs for i in range(n))


def make_graph(nodes: list[str], pairs: list[tuple[str, str]]) -> ResponsibilityGraph:
    edges = tuple(
        ResponsibilityEdge(source=a, target=b, utterance_index=i)
        for i, (a, b) in enumerate(pairs)
    )
    return ResponsibilityGraph(nodes=frozenset(nodes), edges=edges)


def make_transcript(rows: list[tuple[str, str, str]]) -> Transcript:
    """rows: (speaker, text, turn_role) triples, indexed in order."""
    turns = tuple(
        DialogueTurn(speaker=s, text=t, turn_role=r, index=i)
        for i, (s, t, r) in enumerate(rows)
    )
    return Transcript(turns=turns)


@contextmanager
def running_server(llm=None):
    server = MsaHttpServer(("127.0.0.1", 0), llm or StubLlmClient())
    # a short poll interval, so shutdown() returns in about 10 ms, not 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def post_json(port: int, path: str, obj: object) -> tuple[int, dict]:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def get_json(port: int, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))
