"""Success outputs are pinned: the CLI, stub simulations and the service say exactly what they said.

Each case records the SHA-256 of a command's whole stdout, of a stub
transcript file's content, or of an HTTP reply body. Criterion 9 compares
runs with each other, so it cannot see a change that alters every run alike;
these pins can. A change that means to alter one of these outputs updates
its pin in the same diff and says why.
"""

from __future__ import annotations

import hashlib
import http.client
import json
from pathlib import Path

import pytest

import msa.fixtures
from msa.cli import main
from helpers import running_server

FIXTURE_DIR = Path(msa.fixtures.__file__).parent / "data" / "fixtures"

SIX_TAGS = "#T_SOFTASSERT #P_SELFREF #C_LOOP #CTX_MERGE #L_CASCADE #E_TIGHT"

# id -> the module argument of `msa parse` and `msa compile`
MODULES = {
    "two-tags": "#T_SOFTASSERT #P_SELFREF",
    "lower-case": "#e_tight #t_softassert",
    "six-tags": SIX_TAGS,
    "keyed-document": json.dumps({"speaker_module": {"tone": "NEUTRAL", "closure": "sink"}}),
    "tag-list-document": json.dumps(["#L_PIVOT", "#CTX_MIRROR", "#t_highassert"]),
}

PARSE = {
    "two-tags": "723d07ccf58a6885f3d75627a8088e67f8cfa813e0671fc90966423ae1f5caca",
    "lower-case": "88f154d4e339fa1a4fdc33d64757fda50b5022232b0406290e56e3881b563feb",
    "six-tags": "9d64c650e30d5602a88291944664e417c0eeb7d75ef2899e4233ee08c7db745b",
    "keyed-document": "8f7db9b8fa75e8f68007dccdef831dcd309754187212cb398011e37c08962c3e",
    "tag-list-document": "2b68b2b13dcb48f220a03f8a9cc95220766e62c7d79135497faff0651a1aed95",
}

COMPILE = {
    "two-tags": "2134afefa6919b7af1174b71ff894e225f7589d4556c514b48a2e89d9365f3ba",
    "lower-case": "f83d33e9a0bb2841fc662f08897ce114a60c93452bc6775e931c1796b4c3789b",
    "six-tags": "bca224b6116574399c159f09c1c7acbb3039e8d43430da95a7713eed1baffd3b",
    "keyed-document": "977ce1060faa423e85296daf60af6032b37f0bfce5cc94874b44dfcd834682e3",
    "tag-list-document": "7fb6a4549de827b6a538a97c212aa7a6b4af9b2a29e3d1b0c3f77fb2ef10fde8",
}


def _edge(source: str, target: str, index: int, label: str | None = None) -> dict[str, object]:
    edge: dict[str, object] = {"from": source, "to": target, "utterance_index": index}
    if label is not None:
        edge["label"] = label
    return edge


def _dense_graph() -> dict[str, object]:
    """A complete digraph on seven labels listed out of code point order, with a
    self-loop, a parallel edge and a second strongly connected component that
    the first reaches one way: 2,368 loops, and almost every node the loop
    search pushes closes one."""
    dense = ["zed", "Ann", "é", "bo", "_k", "Ω", "cy"]
    pairs = [(a, b) for a in dense for b in dense if a != b]
    pairs += [("bo", "bo"), ("zed", "Ann"), ("cy", "mo")]
    pairs += [("mo", "nu"), ("nu", "xi"), ("xi", "mo"), ("nu", "mo")]
    return {"nodes": dense + ["nu", "mo", "xi"],
            "edges": [_edge(a, b, i) for i, (a, b) in enumerate(pairs)]}


# id -> graph document for `msa graph` and POST /analyze_graph
GRAPHS = {
    "two-cycle": {"nodes": ["a", "b"], "edges": [_edge("a", "b", 0), _edge("b", "a", 1)]},
    # a self-loop, a parallel edge, two loops sharing a node, a sink and an isolated node
    "mixed": {
        "nodes": ["ann", "bo", "cy", "dee", "eve", "fay"],
        "edges": [
            _edge("ann", "bo", 0, "c0"),
            _edge("bo", "cy", 1),
            _edge("cy", "ann", 2, "c2"),
            _edge("bo", "ann", 3),
            _edge("bo", "ann", 4),
            _edge("dee", "dee", 5, "c5"),
            _edge("cy", "eve", 6),
        ],
    },
    "dense": _dense_graph(),
}

# id -> (stdout of `msa graph`, stdout of `msa graph --closure`)
GRAPH = {
    "two-cycle": ("eb9c3bcdda9694a8da961d7753987051f9d417f571ad5cfa40276a2cc8f59eb7",
                  "ce835c6dfa88b4775a9ae993dfb9a7d2b0dfb55c23d80419569fa4d1edc9662a"),
    "mixed": ("faebff4b753ce301e7868b9c744d0bc987732f0267f06647fc2efc2db8f76188",
              "e508aa7cedfcf9ab504acfab0bbd8917e98130514d3051cd744405be09ea1aee"),
    "dense": ("8e5607c233551da01666fb374a3c92ddb0281f8f389baac23725ac06e83b3ce3",
              "e69d23c4108b464b35d97df86b5c6d28c2061f1c4cf3886f16d4c678adb57df4"),
}

GROUPS = ["--a", "1102,7.8,0.57", "--b", "373,6.4,0.24"]

# id -> extra `msa stats` arguments
STATS_ARGS = {
    "pooled-reference": ["--reference-t", "44.64"],
    "pooled-matching-reference": ["--reference-t", "46.0657"],
    "welch": ["--welch"],
    "welch-level": ["--welch", "--level", "0.99"],
}

STATS = {
    "pooled-reference": "b53d6281d61c4a5e736a99cbb231fcfc1a29c40f6e7c8434e26e220205fc4f83",
    "pooled-matching-reference": "60553f7a6732d48b7df11f6b0b4e733baf096d7f9c11c3994018867fcf8fcd5c",
    "welch": "45c9eaa30c92b604fc4647bd5c549294480e53510f874b49af52a438ebf541fc",
    "welch-level": "72af7d5343a3b832b8507282c7bed0f8a8c02e94da42ac56031e9756b2052dc7",
}

TASKS = {
    "exam-debate": {
        "speaker_A": {
            "tone": "NEUTRAL",
            "position": "DETACH",
            "closure": "SINK",
            "logical_flow": "SCATTER",
            "context_alignment": "STANDALONE",
            "affective_tension": "FLAT",
        },
        "speaker_B": {
            "tone": "HIGHASSERT",
            "position": "SELFREF",
            "closure": "CUT",
            "logical_flow": "PIVOT",
            "context_alignment": "MERGE",
            "affective_tension": "TIGHT",
        },
        "task": (
            "Simulate a debate between Speaker A and Speaker B on whether "
            "traditional examination systems should be abolished."
        ),
    },
    "freeze-debate": {
        "speaker_A": {"tone": "NEUTRAL", "position": "DETACH"},
        "speaker_B": {"tone": "HIGHASSERT", "closure": "CUT"},
        "speaker_C": ["#T_SOFTASSERT", "#E_DRIFT"],
        "task": "Debate whether the deploy freeze should lift on Monday.",
    },
}

SIM_TURNS = 40

# (task id, seed) -> the content of the JSONL file `msa simulate` writes
SIMULATE = {
    ("exam-debate", 0): "ea4a3fdf261dc40cb64b3191a331c60d46a83376211325091541e0251e0b9311",
    ("exam-debate", 1): "d351200cac734f5bd9661720bf8439882b133df1f80f4f727b940fd75d528b90",
    ("exam-debate", 2): "d351200cac734f5bd9661720bf8439882b133df1f80f4f727b940fd75d528b90",
    ("exam-debate", 3): "d351200cac734f5bd9661720bf8439882b133df1f80f4f727b940fd75d528b90",
    ("exam-debate", 4): "d351200cac734f5bd9661720bf8439882b133df1f80f4f727b940fd75d528b90",
    ("exam-debate", 5): "ea4a3fdf261dc40cb64b3191a331c60d46a83376211325091541e0251e0b9311",
    ("freeze-debate", 0): "a4bc61ab68105befe1d7ab77323378e106aefdf8cece05b0435cf0fd2f42f30b",
    ("freeze-debate", 1): "e8dfff6414e05aa10f4bbc04d93f8431aed4c38cf6e1782105b4483871242d13",
    ("freeze-debate", 2): "e8dfff6414e05aa10f4bbc04d93f8431aed4c38cf6e1782105b4483871242d13",
    ("freeze-debate", 3): "e8dfff6414e05aa10f4bbc04d93f8431aed4c38cf6e1782105b4483871242d13",
    ("freeze-debate", 4): "3e20be5d49b1ba76b825831993984b07d7e99b35de2d2d018065ffa1fbef0493",
    ("freeze-debate", 5): "a4b1075addc8e3baa99c803dd1579022d6d4da0c1a5887249251af2f8199d38b",
}


def _fixture_turns(case_id: str) -> list[object]:
    text = (FIXTURE_DIR / f"{case_id}.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# id -> (path, request body or None for a GET)
REQUESTS = {
    "generate-tag-list": (
        "/generate_with_speaker_module",
        {"prompt": "Re-read the case — it’s nuanced.", "speaker_module": SIX_TAGS.split()},
    ),
    "generate-keyed": (
        "/generate_with_speaker_module",
        {"prompt": "Same prompt, other form.",
         "speaker_module": {"speaker_module": {"tone": "softassert", "logical_flow": "CASCADE"}}},
    ),
    "annotate-case2": ("/annotate", {"turns": _fixture_turns("case2")}),
    "annotate-case4": ("/annotate", {"turns": _fixture_turns("case4")}),
    "analyze-graph-two-cycle": ("/analyze_graph", GRAPHS["two-cycle"]),
    "analyze-graph-mixed": ("/analyze_graph", GRAPHS["mixed"]),
    "health": ("/health", None),
}

SERVICE = {
    "generate-tag-list": "8484acc514fa5648f1c27cfcb109f2cf1e59d73af6b9c50774fb9d51e470b2f7",
    "generate-keyed": "860e363ffce2c168bf888a04fec96ef91c8ef44af65353b5b778a7e016b83bc3",
    "annotate-case2": "69a0a9ffe3df84b5585011ea192aecd96bbdc3e42caf32ab9fea605e1db08eee",
    "annotate-case4": "19a6699849dfa896600ca4f9505207f0b98705cb8a45014377eccafb057a52be",
    "analyze-graph-two-cycle": "0580a3550af03a4de0cbc511d84b93917ad8c27f7aeb701a5f970d7f9885182c",
    "analyze-graph-mixed": "7f45dbbcc481ee197bf762fff1a48c2a460781e6a5f0c573ef388197d50b6180",
    "health": "280720a791d8a75bf2b16a471af6ee3b9ecda12c5851c4fbbb4b2db5217d89e8",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_sha(capsys, argv) -> str:
    assert main(argv) == 0
    return _sha(capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("module_id", sorted(MODULES))
def test_parse_bytes(capsys, module_id):
    assert _stdout_sha(capsys, ["parse", MODULES[module_id]]) == PARSE[module_id]


@pytest.mark.parametrize("module_id", sorted(MODULES))
def test_compile_bytes(capsys, module_id):
    assert _stdout_sha(capsys, ["compile", MODULES[module_id]]) == COMPILE[module_id]


@pytest.mark.parametrize("graph_id", sorted(GRAPHS))
def test_graph_bytes(tmp_path, capsys, graph_id):
    path = tmp_path / f"{graph_id}.json"
    path.write_text(json.dumps(GRAPHS[graph_id]), encoding="utf-8")
    plain, with_closure = GRAPH[graph_id]
    assert _stdout_sha(capsys, ["graph", str(path)]) == plain
    assert _stdout_sha(capsys, ["graph", str(path), "--closure"]) == with_closure


@pytest.mark.parametrize("stats_id", sorted(STATS_ARGS))
def test_stats_bytes(capsys, stats_id):
    assert _stdout_sha(capsys, ["stats", *GROUPS, *STATS_ARGS[stats_id]]) == STATS[stats_id]


@pytest.mark.parametrize("task_id,seed", sorted(SIMULATE))
def test_stub_simulate_bytes(tmp_path, capsys, task_id, seed):
    task = tmp_path / f"{task_id}.json"
    task.write_text(json.dumps(TASKS[task_id]), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["simulate", str(task), "--llm", "stub", "--turns", str(SIM_TURNS),
            "--seed", str(seed), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    written = Path(capsys.readouterr().out.strip())
    assert written.parent == out_dir and written.name.startswith(f"{task_id}.")
    assert _sha(written.read_bytes()) == SIMULATE[(task_id, seed)]


@pytest.fixture(scope="module")
def server_port():
    with running_server() as port:
        yield port


@pytest.mark.parametrize("request_id", sorted(REQUESTS))
def test_service_body_bytes(server_port, request_id):
    path, body = REQUESTS[request_id]
    conn = http.client.HTTPConnection("127.0.0.1", server_port, timeout=10)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, json.dumps(body).encode("utf-8"),
                         {"Content-Type": "application/json"})
        response = conn.getresponse()
        status, data = response.status, response.read()
    finally:
        conn.close()
    assert status == 200
    assert _sha(data) == SERVICE[request_id]
