"""Seeded, fixed-shape inputs for the four workloads.

Every generator takes the run's seed and the index of the round. The order
of the operations comes from `random.Random("<workload>:<seed>")`, so op k has
the same shape (reply kind, segment length, graph structure, route) in every
round of a run. The content of every op (names, words, labels) comes from
`random.Random("<workload>:<seed>:<round>")`, so each round is made of inputs
the program has not seen before in that process, and the same seed always
gives the same inputs. The shape of the work never changes: segment lengths,
reply kinds per block, graph structures and the route mix are fixed, so every
round costs the same to run and a spread between runs is the program's, not
the input's.

Nothing here imports the program; every generator returns plain Python data
(dicts, lists, strings) that the workloads hand to the program's entry points.
"""

from __future__ import annotations

import json
import random

# --- shared phrase pool ---------------------------------------------------

VERBS = ("draft", "review", "test", "ship", "measure", "revise", "publish", "audit")
NOUNS = ("budget", "schedule", "report", "prototype", "survey", "roadmap", "contract", "dataset")
ADJECTIVES = ("careful", "fresh", "narrow", "broad", "quiet", "solid")
WHEN = ("by friday", "next week", "today", "before noon", "this month")
SHORT_REPLIES = ("Agreed.", "Fine then.", "Noted.", "Sure, go.")
SPEAKER_NAMES = ("ana", "ben", "chen", "dara", "eli", "fay", "gus", "hana", "ivo", "jun")

# Registered values per dimension, in the canonical dimension order. The
# service checks rebuild directive strings from this table, not from the
# program's registry.
DIMENSION_TABLE = (
    ("tone", ("NEUTRAL", "ASSERTIVE", "SOFTASSERT", "HIGHASSERT")),
    ("position", ("SELFREF", "DETACH", "SHADOW")),
    ("closure", ("LOOP", "CUT", "SINK")),
    ("context_alignment", ("MIRROR", "MERGE", "STANDALONE")),
    ("logical_flow", ("CASCADE", "PIVOT", "SCATTER")),
    ("affective_tension", ("FLAT", "TIGHT", "DRIFT")),
)
PREFIXES = {"tone": "T", "position": "P", "closure": "C", "context_alignment": "CTX",
            "logical_flow": "L", "affective_tension": "E"}

TRANSFER_PHRASE = "I'll leave that to"


def _words(rng: random.Random) -> dict[str, str]:
    return {
        "verb": rng.choice(VERBS),
        "noun": rng.choice(NOUNS),
        "adj": rng.choice(ADJECTIVES),
        "when": rng.choice(WHEN),
    }


def _keyed_profile(rng: random.Random, dimensions: int) -> dict[str, str]:
    chosen = rng.sample(range(len(DIMENSION_TABLE)), dimensions)
    return {DIMENSION_TABLE[i][0]: rng.choice(DIMENSION_TABLE[i][1]) for i in sorted(chosen)}


# --- simulate-long --------------------------------------------------------

SIM_TRANSCRIPTS = 3  # simulate() calls per round
SIM_REPLIES = 500  # replies per simulate() call
# Reply kinds per block of ten; the seed shuffles the order inside a block.
SIM_BLOCK = ("commit", "commit_repeat", "transfer", "question", "question", "short",
             "plain", "plain", "plain", "plain")


def _sim_reply(kind: str, rng: random.Random, serial: int, earlier: list[str]) -> str:
    w = _words(rng)
    if kind == "commit_repeat" and earlier:
        return rng.choice(earlier)
    if kind in ("commit", "commit_repeat"):
        template = rng.choice((
            "I will {verb} the {noun} {when}, step {serial}.",
            "We should {verb} the {noun} {when}, step {serial}.",
            "The team will {verb} the {noun} {when}, step {serial}.",
        ))
        text = template.format(serial=serial, **w)
        earlier.append(text)
        return text
    if kind == "transfer":
        return f"{TRANSFER_PHRASE} you, the {w['noun']} needs {w['adj']} eyes."
    if kind == "question":
        return rng.choice((
            "Can we {verb} the {noun} {when}?",
            "What about the {adj} {noun}?",
        )).format(**w)
    if kind == "short":
        return rng.choice(SHORT_REPLIES)
    return rng.choice((
        "The {noun} looks {adj} {when}.",
        "Our {noun} seemed {adj} yesterday, and the {verb} step went fine.",
    )).format(**w)


def simulate_inputs(seed: int, round_index: int) -> dict[str, object]:
    """A three-speaker task plus, per simulate() call, its seed and scripted replies."""
    order = random.Random(f"simulate-long:{seed}")
    rng = random.Random(f"simulate-long:{seed}:{round_index}")
    names = rng.sample(SPEAKER_NAMES, 3)
    task = {name: _keyed_profile(rng, 3) for name in names}
    task["task"] = f"Plan the {rng.choice(NOUNS)} together and settle who owns each step."
    runs = []
    for t in range(SIM_TRANSCRIPTS):
        earlier: list[str] = []
        replies = []
        while len(replies) < SIM_REPLIES:
            block = list(SIM_BLOCK)
            order.shuffle(block)
            for kind in block:
                replies.append(_sim_reply(kind, rng, len(replies), earlier))
        runs.append({"seed": rng.randrange(1 << 30), "replies": replies[:SIM_REPLIES]})
    return {"task": task, "runs": runs}


# --- annotate-corpus ------------------------------------------------------

CORPUS_SEGMENTS = 1475  # the paper's corpus size
SEGMENT_LENGTHS = tuple(range(6, 31))  # 25 lengths, each used 59 times
ROLE_VALUES = ("information_provider", "context_confirmer", "responsibility_acceptor",
               "responsibility_delegator", "clarifier", "conceptual_builder",
               "challenger", "evader")
TURN_TEMPLATES = (
    "I will {verb} the {noun} {when}.",
    "You should {verb} the {noun} {when}.",
    "Can we {verb} the {noun} {when}?",
    "lol the {noun} is kinda {adj} haha.",
    "As we discussed, the {noun} stays {adj}.",
    "I'll leave that to you, the {noun} is yours.",
    "Whatever, let's talk about the {noun} anyway.",
    "I see your point about the {adj} {noun}.",
    "Wait, we're off topic, back to the {noun}.",
    "The {noun} looks {adj} {when}.",
    "I guess the {noun} is sort of {adj}",
    "{short}",
)


def segment_rows(
    rng: random.Random, n: int, with_roles: bool = True, repeat: bool = False
) -> list[dict[str, object]]:
    """One dialogue segment as transcript rows: two speakers, alternating turn roles."""
    speakers = rng.sample(SPEAKER_NAMES, 2)
    rows: list[dict[str, object]] = []
    for i in range(n):
        speaker = rows[-1]["speaker"] if repeat and i == 3 else speakers[i % 2]
        text = rng.choice(TURN_TEMPLATES).format(short=rng.choice(SHORT_REPLIES), **_words(rng))
        row: dict[str, object] = {"speaker": speaker, "text": text,
                                  "turn_role": "user" if i % 2 == 0 else "assistant"}
        if with_roles:
            row["function_role"] = rng.choice(ROLE_VALUES)
        row["index"] = i
        rows.append(row)
    return rows


def corpus_inputs(seed: int, round_index: int) -> list[str]:
    """1,475 segments as JSONL text, one string per segment."""
    order = random.Random(f"annotate-corpus:{seed}")
    rng = random.Random(f"annotate-corpus:{seed}:{round_index}")
    # Every other segment (before shuffling) carries a pragmatic role on each
    # turn; every fifth has one speaker talking twice in a row.
    shapes = [(SEGMENT_LENGTHS[i % len(SEGMENT_LENGTHS)], i % 2 == 0, i % 5 == 0)
              for i in range(CORPUS_SEGMENTS)]
    order.shuffle(shapes)
    return ["".join(json.dumps(row) + "\n" for row in segment_rows(rng, *shape))
            for shape in shapes]


# --- graph-loops ----------------------------------------------------------

# (family, structure, node count, copies per round). Dense graphs have
# thousands of loops; rings have one loop over every node.
GRAPH_PLAN = (
    ("dense", "complete", 7, 30),
    ("dense", "complete", 8, 10),
    ("dense", "complete-minus-matching", 8, 6),
    ("sparse", "ring", 500, 1),
    ("sparse", "ring", 1000, 1),
    ("sparse", "ring", 2000, 1),
)
SINKS = 2  # out-degree-zero nodes hung off every graph


def _labels(rng: random.Random, count: int) -> list[str]:
    return [f"s{k:06d}" for k in rng.sample(range(1_000_000), count)]


def build_graph(rng: random.Random, structure: str, n: int) -> dict[str, object]:
    """One graph as the JSON object `msa graph` and /analyze_graph accept."""
    labels = _labels(rng, n + SINKS)
    core, sinks = labels[:n], labels[n:]
    if structure == "ring":
        pairs = [(core[i], core[(i + 1) % n]) for i in range(n)]
    else:
        pairs = [(a, b) for a in core for b in core if a != b]
        if structure == "complete-minus-matching":
            dropped = {(core[i], core[i + 1]) for i in range(0, n - 1, 2)}
            pairs = [p for p in pairs if p not in dropped]
            pairs.append((core[0], core[0]))  # one self-retention loop
    pairs += [(core[i], sink) for i, sink in enumerate(sinks)]
    rng.shuffle(pairs)
    nodes = list(labels)
    rng.shuffle(nodes)
    return {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "utterance_index": i} for i, (a, b) in enumerate(pairs)],
    }


def graph_inputs(seed: int, round_index: int) -> list[tuple[str, str, dict[str, object]]]:
    """The round's graphs as (family, structure, graph object), in a seeded order."""
    order = random.Random(f"graph-loops:{seed}")
    rng = random.Random(f"graph-loops:{seed}:{round_index}")
    plan = [(family, structure, n) for family, structure, n, copies in GRAPH_PLAN
            for _ in range(copies)]
    order.shuffle(plan)
    return [(family, structure, build_graph(rng, structure, n)) for family, structure, n in plan]


# --- service-keepalive ----------------------------------------------------

# Requests per route in one round; the seed shuffles their order.
ROUTE_MIX = (
    ("/generate_with_speaker_module", 48),
    ("/annotate", 32),
    ("/analyze_graph", 24),
    ("/health", 16),
)
SERVICE_GRAPH_SIZES = (3, 4, 5, 6)  # complete digraphs; loop count has a closed form


def service_inputs(seed: int, round_index: int) -> list[tuple[str, dict[str, object] | None]]:
    """The round's requests as (path, JSON body or None for GET /health)."""
    order = random.Random(f"service-keepalive:{seed}")
    rng = random.Random(f"service-keepalive:{seed}:{round_index}")
    routes = [path for path, count in ROUTE_MIX for _ in range(count)]
    order.shuffle(routes)
    requests: list[tuple[str, dict[str, object] | None]] = []
    for i, path in enumerate(routes):
        if path == "/generate_with_speaker_module":
            profile = _keyed_profile(rng, 1 + i % len(DIMENSION_TABLE))
            module: object = profile
            if i % 2:
                module = [f"#{PREFIXES[key]}_{value}".lower() for key, value in profile.items()]
                rng.shuffle(module)
            w = _words(rng)
            body = {"prompt": f"Please {w['verb']} the {w['noun']} {w['when']}.",
                    "speaker_module": module}
        elif path == "/annotate":
            body = {"turns": segment_rows(rng, 6 + i % 5)}
        elif path == "/analyze_graph":
            body = build_graph(rng, "complete", SERVICE_GRAPH_SIZES[i % len(SERVICE_GRAPH_SIZES)])
        else:
            body = None
        requests.append((path, body))
    return requests
