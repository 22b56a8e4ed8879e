"""The four workloads: each runs whole rounds of fresh, fixed-shape inputs.

Round r of a run draws its inputs from `inputs.py` with the seed "<seed>:<r>",
so every round does the same mix of work on inputs the program has not seen
before in that process. Every round's outputs are checked in full against
`checks.py`. Per-op wall and CPU time are taken around the program's entry
points only, so input generation, checking and bookkeeping stay outside the
measurement. `run.py` turns each round into its own figures and reports the
median round.

Importing this module imports the program; `run.py` puts `src/` on the path
first.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import msa.dialogue.commitments as commitments_mod
import msa.dialogue.pipeline as pipeline_mod
import msa.scoring.heuristics as heuristics_mod
import msa.scoring.report as report_mod
import msa.service as service_mod
import msa.simulate as simulate_mod
from msa.dialogue.commitments import replay
from msa.dialogue.llm import StubLlmClient
from msa.dialogue.transcript import Transcript, dump_transcript_jsonl
from msa.gcode.registry import load_registry
from msa.msl.graph import ResponsibilityGraph
from msa.scoring.heuristics import heuristic_score
from msa.scoring.report import annotate_transcript, scorecard_json
from msa.service import analyze_graph_report, generate_output
from msa.simulate import MultiSpeakerTask, simulate

import checks
import inputs
from tracing import Tracer


@dataclass
class Round:
    index: int
    latencies: list[float | None] = field(default_factory=list)  # s per op; None: failed
    busy: float = 0.0  # wall s in the program's entry points; service: wall s of the round
    cpu: float = 0.0  # CPU s of the process doing the work
    attempted: int = 0
    failed: int = 0
    tally: Counter = field(default_factory=Counter)  # counts for the per-layer figures


class _NoTracer:
    def span(self, name: str):
        return nullcontext()


NO_TRACER = _NoTracer()


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.errors: list[str] = []  # checks that failed
        self.failures: list[str] = []  # ops that raised or were refused
        self.tracer: Tracer | _NoTracer = NO_TRACER

    def run_round(self, index: int, tracer: Tracer | None = None) -> Round:
        self.tracer = tracer or NO_TRACER
        if tracer is not None:
            self.patch(tracer)
        try:
            return self._round(Round(index))
        finally:
            if tracer is not None:
                tracer.restore()
            self.tracer = NO_TRACER

    def _timed(self, rnd: Round, fn, *args):
        """Call ``fn`` once as one op; a raised error counts the op as failed."""
        rnd.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the benchmark keeps going and reports it
            rnd.failed += 1
            rnd.latencies.append(None)
            self.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")
            return None
        t1, c1 = time.perf_counter(), time.process_time()
        rnd.latencies.append(t1 - t0)
        rnd.busy += t1 - t0
        rnd.cpu += c1 - c0
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def finish(self) -> None:
        """Checks that need a second pass over an earlier round."""

    def patch(self, tracer: Tracer) -> None:
        pass

    def per_layer(self, tracer: Tracer, traced: list[Round]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _ops(rounds: list[Round]) -> int:
    return sum(len(r.latencies) for r in rounds)


def _per_op(tracer: Tracer, ops: int, names: dict[str, tuple[str, str, float]],
            use_self: bool = False) -> dict[str, tuple[float, str]]:
    """Span time per op: {metric: (span name, unit, scale from seconds)}."""
    total, own = tracer.totals()
    source = own if use_self else total
    return {metric: (source.get(span, 0) / 1e9 * scale / ops, unit)
            for metric, (span, unit, scale) in names.items()}


# --- simulate-long ---------------------------------------------------------

class ScriptedClient:
    """LlmClient replaying a fixed reply list; stamps the end of every reply."""

    def __init__(self, replies: list[str], tracer) -> None:
        self.replies = replies
        self.stamps: list[float] = []  # wall seconds
        self.tracer = tracer

    def generate(self, directives: str, context: Transcript) -> str:
        with self.tracer.span("dialogue.llm_generate"):
            text = self.replies[len(self.stamps)]
        self.stamps.append(time.perf_counter())
        return text


class SimulateLong(Workload):
    name = "simulate-long"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.first: tuple[dict, dict, bytes] | None = None  # round 0, transcript 0

    def ops_per_round(self) -> int:
        return inputs.SIM_TRANSCRIPTS * inputs.SIM_REPLIES

    def _dump(self, final: Transcript, k: int) -> bytes:
        path = self.out_dir / f"simulate-{k}.jsonl"
        dump_transcript_jsonl(final, path)
        return path.read_bytes()

    def _round(self, rnd: Round) -> Round:
        spec = inputs.simulate_inputs(self.seed, rnd.index)
        task = MultiSpeakerTask.from_obj(spec["task"])
        for k, run in enumerate(spec["runs"]):
            client = ScriptedClient(run["replies"], self.tracer)
            n = len(run["replies"])
            rnd.attempted += n
            start = (time.perf_counter(), time.process_time())
            try:
                final = simulate(task, client, turns=n, seed=run["seed"])
            except Exception as exc:
                rnd.failed += n
                rnd.latencies += [None] * n
                self.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")
                continue
            end = (time.perf_counter(), time.process_time())
            # Reply i ends when the client returns it; the last reply also
            # carries the fold and scoring that follow the final generate().
            marks = [start[0]] + client.stamps[:-1] + [end[0]]
            rnd.latencies += [b - a for a, b in zip(marks, marks[1:])]
            rnd.busy += end[0] - start[0]
            rnd.cpu += end[1] - start[1]
            data = self._dump(final, k)
            if rnd.index == 0 and k == 0:
                self.first = (spec["task"], run, data)
            rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            chain = replay(final)
            self.errors += checks.check_simulation(
                spec["task"], run, rows, (len(chain.commitments), len(chain.graph.edges)),
                heuristic_score(final).to_dict())
        return rnd

    def finish(self) -> None:
        """The same seed gives byte-identical JSONL twice: rerun round 0's first call."""
        if self.first is not None:
            task, run, data = self.first
            again = simulate(MultiSpeakerTask.from_obj(task), ScriptedClient(run["replies"], NO_TRACER),
                             turns=len(run["replies"]), seed=run["seed"])
            if self._dump(again, 0) != data:
                self.errors.append(f"{self.name}: a second simulate() with the same seed "
                                   "wrote different JSONL")

    def patch(self, tracer: Tracer) -> None:
        for attr, span in (("infer_tags", "gcode.infer_tags"),
                           ("build_prompt_directives", "gcode.build_prompt_directives"),
                           ("assign_role", "dialogue.assign_role"),
                           ("replay", "dialogue.replay"),
                           ("detect_drift", "dialogue.detect_drift"),
                           ("update_commitments", "dialogue.update_commitments"),
                           ("heuristic_score", "scoring.heuristic_score")):
            tracer.patch(pipeline_mod, attr, span)
        # replay() looks update_commitments up in its own module: count its folds.
        tracer.patch(commitments_mod, "update_commitments", "dialogue.replay_turns",
                     count=lambda *args: 1)
        tracer.patch(simulate_mod, "run_pipeline", "simulate.pipeline")
        tracer.patch(Transcript, "with_turn", "dialogue.with_turn")

    def per_layer(self, tracer: Tracer, traced: list[Round]) -> dict[str, tuple[float, str]]:
        ops = _ops(traced)
        out = _per_op(tracer, ops, {
            "dialogue.replay_ms": ("dialogue.replay", "ms", 1e3),
            "scoring.heuristic_score_ms": ("scoring.heuristic_score", "ms", 1e3),
            "dialogue.with_turn_ms": ("dialogue.with_turn", "ms", 1e3),
            "gcode.infer_tags_us": ("gcode.infer_tags", "us", 1e6),
            "gcode.build_prompt_directives_us": ("gcode.build_prompt_directives", "us", 1e6),
            "dialogue.assign_role_us": ("dialogue.assign_role", "us", 1e6),
            "dialogue.detect_drift_us": ("dialogue.detect_drift", "us", 1e6),
            "dialogue.update_commitments_us": ("dialogue.update_commitments", "us", 1e6),
            "dialogue.llm_generate_us": ("dialogue.llm_generate", "us", 1e6),
        })
        out |= _per_op(tracer, ops, {"simulate.pipeline_self_ms": ("simulate.pipeline", "ms", 1e3)},
                       use_self=True)
        out["dialogue.replay_turns"] = (tracer.counts["dialogue.replay_turns"] / ops, "count")
        return out


# --- annotate-corpus -------------------------------------------------------

class AnnotateCorpus(Workload):
    name = "annotate-corpus"

    def ops_per_round(self) -> int:
        return inputs.CORPUS_SEGMENTS

    def _annotate(self, text: str) -> str:
        """The `msa annotate` path: JSONL text to canonical score card JSON."""
        span = self.tracer.span
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        with span("dialogue.from_dicts"):
            transcript = Transcript.from_dicts(rows)
        with span("scoring.annotate_transcript"):
            card = annotate_transcript(transcript)
        with span("scoring.scorecard_json"):
            return scorecard_json(card)

    def _round(self, rnd: Round) -> Round:
        for text in inputs.corpus_inputs(self.seed, rnd.index):
            rnd.tally["turns"] += text.count("\n")
            card = self._timed(rnd, self._annotate, text)
            if card is not None:
                rows = [json.loads(line) for line in text.splitlines()]
                self.errors += checks.check_scorecard(rows, card)
        return rnd

    def patch(self, tracer: Tracer) -> None:
        tracer.patch(report_mod, "auto_annotate", "scoring.auto_annotate")
        tracer.patch(report_mod, "heuristic_score", "scoring.heuristic_score")
        tracer.patch(heuristics_mod, "content_tokens", "scoring.content_tokens_calls",
                     count=lambda *args: 1)

    def per_layer(self, tracer: Tracer, traced: list[Round]) -> dict[str, tuple[float, str]]:
        turns = sum(r.tally["turns"] for r in traced)
        out = _per_op(tracer, _ops(traced), {
            "dialogue.from_dicts_us": ("dialogue.from_dicts", "us", 1e6),
            "scoring.auto_annotate_ms": ("scoring.auto_annotate", "ms", 1e3),
            "scoring.scorecard_json_us": ("scoring.scorecard_json", "us", 1e6),
            "scoring.heuristic_score_us": ("scoring.heuristic_score", "us", 1e6),
        })
        out["scoring.content_tokens_calls_per_turn"] = (
            tracer.counts["scoring.content_tokens_calls"] / turns, "count")
        return out


# --- graph-loops -----------------------------------------------------------

class GraphLoops(Workload):
    name = "graph-loops"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        # networkx's loop count per structure without a closed form. Every
        # graph of one structure is a relabelling of the same graph, so one
        # count per run serves them all.
        self.networkx_counts: dict[str, int] = {}

    def ops_per_round(self) -> int:
        return sum(copies for *_, copies in inputs.GRAPH_PLAN)

    def _analyze(self, family: str, graph: dict) -> dict:
        """`msa graph` and POST /analyze_graph: graph JSON object to report."""
        span = self.tracer.span
        with span(f"graph.{family}"):
            with span("msl.from_dict"):
                parsed = ResponsibilityGraph.from_dict(graph)
            with span("service.analyze_graph_report"):
                return analyze_graph_report(parsed)

    def _round(self, rnd: Round) -> Round:
        for family, structure, graph in inputs.graph_inputs(self.seed, rnd.index):
            report = self._timed(rnd, self._analyze, family, graph)
            if report is None:
                continue
            self.errors += checks.check_graph_report(structure, graph, report)
            loops = len(report["loops"])
            rnd.tally["loops"] += loops
            rnd.tally[f"{family}_loops"] += loops
            if structure == "complete-minus-matching":
                if structure not in self.networkx_counts:
                    self.networkx_counts[structure] = checks.networkx_loop_count(graph)
                if loops != self.networkx_counts[structure]:
                    self.errors.append(f"graph: {loops} loops, networkx finds "
                                       f"{self.networkx_counts[structure]}")
        return rnd

    def patch(self, tracer: Tracer) -> None:
        tracer.patch(service_mod, "detect_closed_loops", "msl.detect_closed_loops")
        tracer.patch(service_mod, "detect_partial_drift", "msl.detect_partial_drift")

    def per_layer(self, tracer: Tracer, traced: list[Round]) -> dict[str, tuple[float, str]]:
        total, own = tracer.totals()
        spans = tracer.spans
        detect = {"dense": [0, 0], "sparse": [0, 0]}  # ns, graphs
        for span_id, parent, name, start, end in spans:
            if name == "msl.detect_closed_loops":
                # parent: service.analyze_graph_report; its parent: graph.<family>
                family = spans[spans[parent][1]][2].split(".", 1)[1]
                detect[family][0] += end - start
                detect[family][1] += 1
        dense_loops = sum(r.tally["dense_loops"] for r in traced)
        ops = _ops(traced)
        return {
            "msl.from_dict_ms": (total["msl.from_dict"] / 1e6 / ops, "ms"),
            "msl.detect_closed_loops_dense_ms": (detect["dense"][0] / 1e6 / detect["dense"][1], "ms"),
            "msl.detect_closed_loops_sparse_ms": (detect["sparse"][0] / 1e6 / detect["sparse"][1], "ms"),
            "msl.loops_found": (sum(r.tally["loops"] for r in traced) / len(traced), "count"),
            "msl.loops_per_s": (dense_loops / (detect["dense"][0] / 1e9), "1/s"),
            "msl.detect_partial_drift_us": (total["msl.detect_partial_drift"] / 1e3 / ops, "us"),
            "service.analyze_graph_report_self_ms": (
                own["service.analyze_graph_report"] / 1e6 / ops, "ms"),
        }


# --- service-keepalive ------------------------------------------------------

def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get_health(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/health")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def start_server(root: Path) -> tuple[subprocess.Popen, int, float]:
    """Spawn `msa serve` and wait for the first /health 200: (process, port, seconds)."""
    port = free_port()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "msa.cli", "serve", "--host", "127.0.0.1", "--port", str(port)],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while not _get_health(port):
            if proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise RuntimeError(f"msa serve did not come up (exit code {proc.poll()})")
            time.sleep(0.002)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - t0


def stop_server(proc: subprocess.Popen) -> None:
    # SIGTERM, not SIGINT: a child started from a background job inherits
    # SIGINT as ignored.
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def process_cpu(pid: int) -> float:
    """CPU seconds of a process's live threads, to the nanosecond (schedstat)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as stat:
                total += int(stat.read().split()[0])
        except FileNotFoundError:  # the thread ended after the listing
            pass
    return total / 1e9


class ServiceKeepalive(Workload):
    """Closed loop over persistent HTTP/1.1 connections to a `msa serve` child.

    Server CPU per round is read from the server's threads, which live as
    long as the connections do. Peak RSS comes from RUSAGE_CHILDREN after
    the server exits.
    """

    name = "service-keepalive"

    def __init__(self, seed: int, out_dir: Path, root: Path) -> None:
        super().__init__(seed, out_dir)
        self.connections = max(1, min(2, os.cpu_count() or 1))
        self.proc, self.port, _ = start_server(root)
        self.conns = [http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                      for _ in range(self.connections)]

    def ops_per_round(self) -> int:
        return sum(count for _, count in inputs.ROUTE_MIX)

    @staticmethod
    def _client(conn: http.client.HTTPConnection, requests: list, picks: range,
                times: list, replies: list) -> None:
        for k in picks:
            path, body = requests[k]
            t0 = time.perf_counter()
            try:
                if body is None:
                    conn.request("GET", path)
                else:
                    conn.request("POST", path, body=body,
                                 headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()  # reconnects on the next request
                status, data = None, repr(exc).encode()
            times[k] = (t0, time.perf_counter())
            replies[k] = (status, data)

    def _round(self, rnd: Round) -> Round:
        requests = inputs.service_inputs(self.seed, rnd.index)
        encoded = [(path, None if body is None else json.dumps(body).encode())
                   for path, body in requests]
        n = len(requests)
        times: list = [None] * n
        replies: list = [None] * n
        threads = [threading.Thread(target=self._client,
                                    args=(conn, encoded, range(j, n, self.connections),
                                          times, replies))
                   for j, conn in enumerate(self.conns)]
        c0, t0 = process_cpu(self.proc.pid), time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rnd.busy = time.perf_counter() - t0
        rnd.cpu = process_cpu(self.proc.pid) - c0
        rnd.attempted = n
        for (path, body), (start, end), (status, data) in zip(requests, times, replies):
            self.tracer_record(path, start, end)
            if status != 200:
                rnd.failed += 1
                rnd.latencies.append(None)
                self.failures.append(f"{self.name}: {path} gave {status}: {data[:200]!r}")
                continue
            rnd.latencies.append(end - start)
            expected = None
            if path == "/annotate":
                expected = scorecard_json(annotate_transcript(
                    Transcript.from_dicts(body["turns"]))).encode("utf-8")
            self.errors += checks.check_service_reply(path, body, data, expected)
        return rnd

    def tracer_record(self, path: str, start: float, end: float) -> None:
        if isinstance(self.tracer, Tracer):
            self.tracer.spans.append((len(self.tracer.spans), -1, f"http{path}",
                                      int(start * 1e9), int(end * 1e9)))

    def _handler(self, path: str, body: dict | None) -> bytes:
        """The work the server does for one request, called in-process."""
        if path == "/generate_with_speaker_module":
            payload = generate_output(body["prompt"], body["speaker_module"],
                                      StubLlmClient(), load_registry())
        elif path == "/annotate":
            return scorecard_json(annotate_transcript(
                Transcript.from_dicts(body["turns"]))).encode("utf-8")
        elif path == "/analyze_graph":
            payload = analyze_graph_report(ResponsibilityGraph.from_dict(body))
        else:
            payload = {"status": "ok"}
        return (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")

    def per_layer(self, tracer: Tracer, traced: list[Round]) -> dict[str, tuple[float, str]]:
        by_route: dict[str, list[float]] = {}
        for _, _, name, start, end in tracer.spans:
            by_route.setdefault(name, []).append((end - start) / 1e6)
        handler = []
        for rnd in traced:
            for path, body in inputs.service_inputs(self.seed, rnd.index):
                t0 = time.perf_counter()
                self._handler(path, body)
                handler.append((time.perf_counter() - t0) * 1e3)
        request_p50 = median(x for xs in by_route.values() for x in xs)
        return {
            "service.generate_p50_ms": (median(by_route["http/generate_with_speaker_module"]), "ms"),
            "service.annotate_p50_ms": (median(by_route["http/annotate"]), "ms"),
            "service.analyze_graph_p50_ms": (median(by_route["http/analyze_graph"]), "ms"),
            "service.health_p50_ms": (median(by_route["http/health"]), "ms"),
            "service.handler_ms": (median(handler), "ms"),
            "service.transport_wait_ms": (request_p50 - median(handler), "ms"),
        }

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        stop_server(self.proc)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
