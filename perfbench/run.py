"""msa-engine benchmark: end-to-end metrics of one workload, or per-layer metrics.

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` of the
same checkout; nothing needs installing. With `--trace 0` the run prints the
end-to-end metrics of the named workload. With `--trace 1` it prints the
per-layer metrics, which span all four workloads, so it traces every workload
for a quarter of `--seconds` each, whichever is named, and writes the spans
under `perfbench/out/`. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

See perfbench/README.md for the workloads, metrics, checks and figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("simulate-long", "annotate-corpus", "graph-loops", "service-keepalive")
# A run makes whole rounds until the next one would, at the run's mean round
# time so far, end after --seconds; never fewer than MIN_ROUNDS.
MIN_ROUNDS = 3
SETUP_REPEATS = 7

# The in-process set-up: import the program and load the registry and the
# inference rules. Timed inside a fresh interpreter.
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import msa.cli
from msa.gcode.inference import default_inference_rules
from msa.gcode.registry import load_registry
load_registry()
default_inference_rules()
print(time.perf_counter() - t0)
"""


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least ten of ``ops`` samples beyond it."""
    return max(1, math.floor(100 * (1 - 10 / ops)))


def setup_once(workload: str) -> float:
    """Seconds of one fresh set-up of the program."""
    if workload == "service-keepalive":
        from workloads import start_server, stop_server

        proc, _, seconds = start_server(ROOT)
        stop_server(proc)
        return seconds
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def make_workload(name: str, seed: int):
    import workloads

    if name == "simulate-long":
        return workloads.SimulateLong(seed, OUT)
    if name == "annotate-corpus":
        return workloads.AnnotateCorpus(seed, OUT)
    if name == "graph-loops":
        return workloads.GraphLoops(seed, OUT)
    return workloads.ServiceKeepalive(seed, OUT, ROOT)


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    wl = make_workload(name, seed)
    setups: list[float] = []
    rounds: list = []
    try:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            n = len(rounds)
            if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
                break
            # Set-ups are spread over the run in time, so that they meet the
            # same phases of the machine as the rounds do.
            while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(setup_once(name))
            rounds.append(wl.run_round(n))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_once(name))
        peak_rss = wl.peak_rss_mb()
    finally:
        wl.close()
    if name == "service-keepalive":
        peak_rss = wl.peak_rss_mb()
    wl.finish()

    # Op k has the same shape in every round, so its latency is the median of
    # its rounds; throughput and CPU come from the median round.
    per_op = [median(ok) for ok in ([x for x in samples if x is not None]
                                    for samples in zip(*(r.latencies for r in rounds))) if ok]
    done = [r.attempted - r.failed for r in rounds]
    q = tail_percentile(len(per_op))
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (median(n / r.busy for n, r in zip(done, rounds)), "1/s"),
        "op_p50_ms": (median(per_op) * 1e3, "ms"),
        "op_tail_ms": (quantiles(per_op, n=100, method="inclusive")[q - 1] * 1e3, "ms"),
        "cpu_ms_per_op": (median(r.cpu / n * 1e3 for n, r in zip(done, rounds)), "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    print(f"{name} seed={seed}: {len(rounds)} rounds of {wl.ops_per_round()} ops, fresh "
          f"inputs each; each op's median over the rounds, median of {len(setups)} set-ups")
    for metric, (value, unit) in metrics.items():
        note = f"  (p{q} of {len(per_op)} ops)" if metric == "op_tail_ms" else ""
        print(f"  {metric:<16}{value:12.4f} {unit}{note}")
    for line in wl.failures[:20]:
        print(f"op failed: {line}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return metrics, attempted, failed, wl.errors


def traced_workload(name: str, seed: int, budget: float) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics of one workload, from traced rounds.

    Rounds come in blocks of untraced, traced, traced, untraced, so that
    warm-up and a steady drift of the machine's speed fall on both kinds
    alike: at least one block, as many as fit in ``budget`` seconds. The
    overhead is the traced rounds' wall time over the untraced rounds'.
    """
    from tracing import Tracer

    wl = make_workload(name, seed)
    tracer = Tracer()
    plain: list = []
    spanned: list = []
    try:
        start = time.perf_counter()
        while not spanned or (time.perf_counter() - start) * (len(plain) + 2) / len(plain) <= budget:
            for use in (None, tracer, tracer, None):
                rnd = wl.run_round(len(plain) + len(spanned), use)
                (plain if use is None else spanned).append(rnd)
        layer = wl.per_layer(tracer, spanned)
    finally:
        wl.close()
    wl.finish()
    overhead = sum(r.busy for r in spanned) / sum(r.busy for r in plain) - 1
    layer[f"trace.overhead.{name}"] = (overhead * 100, "%")
    tracer.write(OUT / f"trace-{name}.jsonl")
    print(f"{name} seed={seed}: {len(spanned)} traced and {len(plain)} untraced rounds "
          f"of {wl.ops_per_round()} ops")
    for metric, (value, unit) in layer.items():
        print(f"  {metric:<40}{value:14.4f} {unit}")
    for line in wl.failures[:20]:
        print(f"op failed: {line}", file=sys.stderr)
    attempted = sum(r.attempted for r in plain + spanned)
    failed = sum(r.failed for r in plain + spanned)
    return layer, attempted, failed, wl.errors


def traced(seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics of every workload, each given a quarter of ``seconds``.

    The per-layer metrics span all four workloads, and a traced run reports
    all of them, so every workload is traced whichever --workload is named.
    """
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    errors: list[str] = []
    for name in WORKLOADS:
        layer, a, f, e = traced_workload(name, seed, seconds / len(WORKLOADS))
        metrics |= layer
        attempted += a
        failed += f
        errors += e
    return metrics, attempted, failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msa" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'msa'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.trace:
        metrics, attempted, failed, errors = traced(args.seed, args.seconds)
    else:
        metrics, attempted, failed, errors = end_to_end(args.workload, args.seed, args.seconds)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
