"""The names the benchmark reads from the program still exist and still fit.

`perfbench/` patches program functions by name, calls the service's entry
points in-process, and times an import snippet in a fresh interpreter. A
change that drops or renames one of those names breaks the benchmark without
breaking any other test, so this file exercises each of them. It reads
`perfbench/` and writes nothing there: the traced run below works on a copy.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "perfbench", ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from helpers import running_server  # noqa: E402


@pytest.mark.parametrize(
    "cls", [workloads.SimulateLong, workloads.AnnotateCorpus, workloads.GraphLoops],
    ids=lambda cls: cls.name,
)
def test_workload_patches_apply_and_restore(cls):
    tracer = Tracer()
    cls.patch(object.__new__(cls), tracer)  # getattr raises on a name the program dropped
    patched = list(tracer._patched)
    assert patched
    assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def _one_request_per_route() -> dict[str, dict | None]:
    first: dict[str, dict | None] = {}
    for path, body in inputs.service_inputs(0, 0):
        first.setdefault(path, body)
    return first


@pytest.mark.parametrize("path", [path for path, _ in inputs.ROUTE_MIX])
def test_in_process_handler_matches_the_server(path):
    body = _one_request_per_route()[path]
    handled = workloads.ServiceKeepalive._handler(
        object.__new__(workloads.ServiceKeepalive), path, body)
    with running_server() as port:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            if body is None:
                conn.request("GET", path)
            else:
                conn.request("POST", path, json.dumps(body).encode("utf-8"),
                             {"Content-Type": "application/json"})
            response = conn.getresponse()
            status, served = response.status, response.read()
        finally:
            conn.close()
    assert status == 200
    assert handled == served
    assert checks.check_service_reply(path, body, served, handled) == []


def test_setup_snippet_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", run.SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.strip()) > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    """`run.py --trace 1` traces all four workloads and exits 0 with every declared metric.

    An exception escaping the run (a per-layer figure read from a span that
    never fired, because a patched name fell off the call path) exits 1 here.
    The copy of `perfbench/` keeps its spans and transcripts out of the repo.
    """
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-keepalive",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
