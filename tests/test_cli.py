"""End-to-end command line behavior, including exit codes and config precedence."""

from __future__ import annotations

import json
import re
import select
import socket
import subprocess
import sys
import urllib.request

import pytest

import msa.cli
from msa.cli import main

RUN = [sys.executable, "-m", "msa.cli"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([*RUN, *args], capture_output=True, text=True, env=env)


def test_parse_tag_list():
    proc = run_cli("parse", "#T_SOFTASSERT #P_SELFREF")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"speaker_module": {"tone": "SOFTASSERT", "position": "SELFREF"}}


def test_parse_json_document():
    doc = json.dumps({"speaker_module": {"tone": "NEUTRAL"}})
    proc = run_cli("parse", doc)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["speaker_module"]["tone"] == "NEUTRAL"


def test_compile_outputs_directive_string():
    proc = run_cli("compile", "#e_tight #t_softassert")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[TONE=SOFTASSERT] [AFFECTIVE_TENSION=TIGHT]"


def test_validation_failure_exits_2():
    proc = run_cli("parse", "#T_BOGUS")
    assert proc.returncode == 2
    assert "UnknownValue" in proc.stderr


def test_runtime_failure_exits_1():
    proc = run_cli("annotate", "/nonexistent/file.jsonl")
    assert proc.returncode == 1
    assert proc.stderr


def test_main_callable_in_process(capsys):
    code = main(["compile", "#T_NEUTRAL"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "[TONE=NEUTRAL]"


def test_graph_subcommand(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["a", "b"],
                "edges": [
                    {"from": "a", "to": "b", "utterance_index": 0},
                    {"from": "b", "to": "a", "utterance_index": 1},
                ],
            }
        )
    )
    proc = run_cli("graph", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["loops"] == [["a", "b"]]
    assert report["partial_drift"] == []
    proc = run_cli("graph", str(path), "--closure")
    closure = json.loads(proc.stdout)["transitive_closure"]
    assert ["a", "a"] in closure


def test_score_case_bundled_table():
    proc = run_cli("score-case", "case1")
    assert proc.returncode == 0
    assert "9/9" in proc.stdout
    assert "fully consistent" in proc.stdout
    assert "0%" in proc.stdout


def test_score_case_from_file(tmp_path):
    path = tmp_path / "my.json"
    path.write_text(
        json.dumps(
            {
                "pragmatic": [1, 1, 1, 1],
                "responsibility": [0, 1, 0, 1],
                "context": [2, 2, 2, 3],
                "function_roles": ["clarifier", "clarifier", "challenger"],
            }
        )
    )
    proc = run_cli("score-case", str(path), "--json")
    assert proc.returncode == 0
    assert "4/9" in proc.stdout
    assert "50%" in proc.stdout
    card = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert card["totals"] == {
        "pragmatic_consistency": 4,
        "responsibility_chain": 2,
        "context_stability": 9,
    }


def test_stats_subcommand_reports_reference_delta():
    proc = run_cli(
        "stats", "--a", "1102,7.8,0.57", "--b", "373,6.4,0.24", "--reference-t", "44.64"
    )
    assert proc.returncode == 0
    assert "t(1473) = 46.0657" in proc.stdout
    assert "[6.38, 6.42]" in proc.stdout
    assert "delta = +1.4257" in proc.stdout
    assert "(computed value differs from the reference)" in proc.stdout


def test_stats_omits_difference_note_when_reference_matches():
    proc = run_cli(
        "stats", "--a", "1102,7.8,0.57", "--b", "373,6.4,0.24", "--reference-t", "46.0657"
    )
    assert proc.returncode == 0
    assert "reference t = 46.0657, delta = " in proc.stdout
    assert "differs" not in proc.stdout


def test_stats_welch_variant():
    proc = run_cli("stats", "--a", "1102,7.8,0.57", "--b", "373,6.4,0.24", "--welch")
    assert proc.returncode == 0
    assert "[welch]" in proc.stdout


def test_stats_rejects_bad_triplet():
    proc = run_cli("stats", "--a", "10,5", "--b", "10,4,1")
    assert proc.returncode == 2


def test_simulate_writes_deterministic_content(tmp_path):
    task = tmp_path / "task.json"
    task.write_text(
        json.dumps(
            {
                "alice": {"tone": "NEUTRAL"},
                "bob": {"tone": "HIGHASSERT"},
                "task": "Agree on a rollout plan.",
            }
        )
    )
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    proc_a = run_cli("simulate", str(task), "--turns", "4", "--seed", "7", "--out-dir", str(out_a))
    proc_b = run_cli("simulate", str(task), "--turns", "4", "--seed", "7", "--out-dir", str(out_b))
    assert proc_a.returncode == 0 and proc_b.returncode == 0
    file_a = next(out_a.iterdir())
    file_b = next(out_b.iterdir())
    assert file_a.read_bytes() == file_b.read_bytes()
    first = json.loads(file_a.read_text(encoding="utf-8").splitlines()[0])
    assert first == {
        "speaker": "moderator",
        "text": "Agree on a rollout plan.",
        "turn_role": "system",
        "index": 0,
    }


def test_simulate_data_dir_precedence(tmp_path, monkeypatch):
    data_dir = tmp_path / "library"
    data_dir.mkdir()
    (data_dir / "mytask.json").write_text(
        json.dumps({"a": {"tone": "NEUTRAL"}, "b": {}, "task": "t"})
    )
    out = tmp_path / "out"
    # flag wins over environment
    proc = run_cli(
        "simulate",
        "mytask.json",
        "--data-dir",
        str(data_dir),
        "--out-dir",
        str(out),
        env_extra={"MSA_DATA_DIR": str(tmp_path / "wrong")},
    )
    assert proc.returncode == 0
    # environment alone also resolves
    out2 = tmp_path / "out2"
    proc = run_cli(
        "simulate",
        "mytask.json",
        "--out-dir",
        str(out2),
        env_extra={"MSA_DATA_DIR": str(data_dir)},
    )
    assert proc.returncode == 0


def test_config_file_used_when_no_flag_or_env(tmp_path):
    data_dir = tmp_path / "cfg_data"
    data_dir.mkdir()
    (data_dir / "t.json").write_text(json.dumps({"a": {}, "b": {}, "task": "x"}))
    out = tmp_path / "cfg_out"
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"data_dir": str(data_dir), "output_dir": str(out)}))
    proc = run_cli("simulate", "t.json", "--config", str(config))
    assert proc.returncode == 0
    assert out.exists() and any(out.iterdir())


@pytest.mark.parametrize(
    "value", [None, ["out"], {"dir": "out"}, True], ids=["null", "array", "object", "true"]
)
def test_config_value_of_another_type_exits_2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MSA_OUTPUT_DIR", raising=False)
    (tmp_path / "task.json").write_text(json.dumps({"a": {}, "b": {}, "task": "x"}))
    (tmp_path / "conf.json").write_text(json.dumps({"output_dir": value}))
    assert main(["simulate", "task.json", "--config", "conf.json"]) == 2
    err = capsys.readouterr().err
    assert "InvalidRequest" in err and "'output_dir'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "task.json"]


def test_config_unknown_key_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MSA_OUTPUT_DIR", raising=False)
    (tmp_path / "task.json").write_text(json.dumps({"a": {}, "b": {}, "task": "x"}))
    (tmp_path / "conf.json").write_text(json.dumps({"out_dir": "mine"}))
    assert main(["simulate", "task.json", "--config", "conf.json"]) == 2
    err = capsys.readouterr().err
    assert "InvalidRequest" in err and "'out_dir'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "task.json"]


def test_config_integer_port_is_read_as_its_decimal_text(monkeypatch, tmp_path):
    started = []
    monkeypatch.setattr(msa.cli, "serve", lambda host, port, llm: started.append(port))
    monkeypatch.delenv("MSA_PORT", raising=False)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"port": 9000}))
    assert main(["serve", "--config", str(config)]) == 0
    assert started == [9000]


def test_missing_task_is_validation_error(tmp_path):
    proc = run_cli("simulate", "absent.json", "--data-dir", str(tmp_path))
    assert proc.returncode == 2
    assert "InvalidRequest" in proc.stderr


@pytest.mark.parametrize("args", [[], ["frobnicate"]])
def test_bad_invocations_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2


def test_graph_with_a_misspelt_key_exits_2(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": ["a"], "edgez": [{"from": "a", "to": "a"}]}))
    proc = run_cli("graph", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "MalformedJson" in proc.stderr and "'edgez'" in proc.stderr


@pytest.mark.parametrize("edges", [[1], [["a", "b"]], [None]], ids=["number", "array", "null"])
def test_graph_with_non_object_edge_exits_2(tmp_path, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": ["a", "b"], "edges": edges}))
    proc = run_cli("graph", str(path))
    assert proc.returncode == 2
    assert "MalformedJson" in proc.stderr


def _subscores_file(tmp_path, doc):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(doc))
    return str(path)


SUBSCORES = {"pragmatic": [1, 1, 1, 1], "responsibility": [0, 1, 0, 1], "context": [2, 2, 2, 3]}


def test_score_case_unknown_function_role_exits_2(tmp_path):
    path = _subscores_file(tmp_path, dict(SUBSCORES, function_roles=["clarifier", "oracle"]))
    proc = run_cli("score-case", path)
    assert proc.returncode == 2
    assert "InvalidRequest" in proc.stderr


def test_score_case_function_roles_string_exits_2(tmp_path):
    path = _subscores_file(tmp_path, dict(SUBSCORES, function_roles="clarifier"))
    proc = run_cli("score-case", path)
    assert proc.returncode == 2
    assert "InvalidRequest" in proc.stderr


def test_score_case_non_object_document_exits_2(tmp_path):
    proc = run_cli("score-case", _subscores_file(tmp_path, "pragmatic responsibility context"))
    assert proc.returncode == 2
    assert "RangeViolation" in proc.stderr


def test_annotate_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_text('{"speaker": "a", "text": "café", "turn_role": "user"}\n', encoding="latin-1")
    proc = run_cli("annotate", str(path))
    assert proc.returncode == 2
    assert "MalformedJson" in proc.stderr


def test_stats_non_finite_mean_exits_2():
    proc = run_cli("stats", "--a", "2,nan,1", "--b", "10,4,1")
    assert proc.returncode == 2
    assert "RangeViolation" in proc.stderr


@pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
def test_stats_non_finite_reference_t_exits_2(reference):
    # the '=' form, since argparse would read a bare "-inf" as an option
    proc = run_cli(
        "stats", "--a", "1102,7.8,0.57", "--b", "373,6.4,0.24", f"--reference-t={reference}"
    )
    assert proc.returncode == 2
    assert "RangeViolation" in proc.stderr
    assert proc.stdout == ""


def test_simulate_unreachable_llm_backend_exits_1(tmp_path):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"a": {}, "b": {}, "task": "x"}))
    out = tmp_path / "out"
    proc = run_cli(
        "simulate",
        str(task),
        "--llm",
        "remote",
        "--out-dir",
        str(out),
        env_extra={"MSA_LLM_BASE_URL": "http://127.0.0.1:1"},  # nothing listens on port 1
    )
    assert proc.returncode == 1
    assert "error [LlmUnavailable]:" in proc.stderr
    assert not out.exists()


@pytest.fixture
def refuse_serve(monkeypatch):
    """Fail instead of serving, so a port that slips through cannot hang the test."""

    def refuse(*args):
        raise AssertionError(f"serve started with {args}")

    monkeypatch.setattr(msa.cli, "serve", refuse)
    monkeypatch.delenv("MSA_PORT", raising=False)


BAD_PORTS = ["abc", "", "-1", "65536", "80.5", "٣", pytest.param("9" * 5000, id="5000-digits")]


@pytest.mark.parametrize("port", BAD_PORTS)
def test_serve_bad_port_flag_exits_2(refuse_serve, capsys, port):
    assert main(["serve", "--port", port]) == 2
    assert "InvalidRequest" in capsys.readouterr().err


@pytest.mark.parametrize("port", BAD_PORTS)
def test_serve_bad_port_env_exits_2(refuse_serve, monkeypatch, capsys, port):
    monkeypatch.setenv("MSA_PORT", port)
    assert main(["serve"]) == 2
    assert "InvalidRequest" in capsys.readouterr().err


@pytest.mark.parametrize("port", [*BAD_PORTS, 70000, True, None])
def test_serve_bad_port_config_exits_2(refuse_serve, tmp_path, capsys, port):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"port": port}))
    assert main(["serve", "--config", str(config)]) == 2
    assert "InvalidRequest" in capsys.readouterr().err


def test_serve_accepts_both_ends_of_the_port_range(monkeypatch):
    started = []
    monkeypatch.setattr(msa.cli, "serve", lambda host, port, llm: started.append(port))
    monkeypatch.delenv("MSA_PORT", raising=False)
    assert main(["serve", "--port", "0"]) == 0
    assert main(["serve", "--port", "65535"]) == 0
    assert started == [0, 65535]


DEEP_JSON = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "{file}"],
        ["score-case", "{file}"],
        ["annotate", "{file}"],
        ["simulate", "{file}"],
        ["simulate", "task.json", "--config", "{file}"],
        ["parse", DEEP_JSON],
    ],
    ids=["graph", "score-case", "annotate", "simulate-task", "config", "parse"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    assert main([arg.replace("{file}", str(deep)) for arg in argv]) == 2
    assert "MalformedJson" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a,b,code",
    [
        ("2,1,1e-320", "2,1,0", "DegenerateVariance"),
        ("2,1e308,1e308", "2,-1e308,1e308", "RangeViolation"),
        ("2,1e308,1", "2,-1e308,1", "RangeViolation"),
    ],
    ids=["variance-underflow", "variance-overflow", "mean-difference-overflow"],
)
@pytest.mark.parametrize("welch", [False, True], ids=["pooled", "welch"])
def test_stats_out_of_float_range_exits_2(capsys, a, b, code, welch):
    assert main(["stats", "--a", a, "--b", b, *(["--welch"] if welch else [])]) == 2
    assert f"[{code}]" in capsys.readouterr().err


@pytest.mark.parametrize("task", [None, 3], ids=["null", "number"])
def test_simulate_non_string_task_exits_2(tmp_path, capsys, task):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"a": {}, "b": {}, "task": task}))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "InvalidRequest" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("turns,seed", [("1", "0"), ("1", "1"), ("6", "0"), ("6", "5")])
def test_simulate_empty_speaker_name_exits_2(tmp_path, capsys, turns, seed):
    # whichever speaker the seed puts first, nothing is generated or written
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"": {"tone": "NEUTRAL"}, "b": {}, "task": "Plan it."}))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--turns", turns, "--seed", seed]) == 2
    assert "InvalidRequest" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_speaker_named_like_the_task_turn_exits_2(tmp_path, capsys):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"moderator": {"tone": "NEUTRAL"}, "b": {}, "task": "Plan it."}))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[InvalidRequest]" in err and "'moderator' is taken by the task turn" in err
    assert not out.exists()


def test_simulate_accepts_tag_list_profiles(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"a": ["#T_NEUTRAL"], "b": {"tone": "ASSERTIVE"}, "task": "Plan it."}))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_serve_announces_the_port_it_bound():
    proc = subprocess.Popen(
        [*RUN, "serve", "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stderr], [], [], 20)
        assert ready, "no banner within 20 s"
        banner = proc.stderr.readline()
        match = re.fullmatch(r"listening on http://127\.0\.0\.1:(\d+)\n", banner)
        assert match, banner
        port = int(match.group(1))
        assert port != 0
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"status": "ok"}
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stderr.close()


def test_serve_on_a_port_in_use_exits_1_without_a_banner():
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        proc = subprocess.run(
            [*RUN, "serve", "--host", "127.0.0.1", "--port", str(port)],
            capture_output=True, text=True, timeout=30,
        )
    assert proc.returncode == 1
    assert "listening" not in proc.stderr
    assert "Address already in use" in proc.stderr


@pytest.mark.parametrize("level", ["2", "nan"])
def test_stats_bad_level_exits_2_before_any_output(capsys, level):
    assert main(["stats", "--a", "1102,7.8,0.57", "--b", "373,6.4,0.24", "--level", level]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[RangeViolation]" in err


@pytest.mark.parametrize(
    "argv,document,key",
    [
        (["parse", "{document}"], '{"tone": "NEUTRAL", "tone": "ASSERTIVE"}', "tone"),
        (["simulate", "{file}", "--out-dir", "{out}"],
         '{"a": {"tone": "NEUTRAL"}, "b": {}, "a": {}, "task": "Plan it."}', "a"),
        (["graph", "{file}"],
         '{"nodes": ["a", "b"], "edges": [], "edges": [{"from": "a", "to": "b"}]}', "edges"),
    ],
    ids=["speaker-module", "task", "graph"],
)
def test_repeated_json_key_exits_2(tmp_path, capsys, argv, document, key):
    path = tmp_path / "doc.json"
    path.write_text(document, encoding="utf-8")
    out_dir = tmp_path / "out"
    fill = {"{document}": document, "{file}": str(path), "{out}": str(out_dir)}
    assert main([fill.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[MalformedJson]" in err and f"repeated key {key!r}" in err
    assert not out_dir.exists()


def test_simulate_malformed_task_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("", encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error [MalformedJson]: {path}: Expecting value")
