"""Command line interface.

Subcommands map one-to-one onto the engine surface: parse and compile for the
tag language, annotate and score-case for evaluation, graph for loop and
drift analysis, simulate for multi-speaker generation, stats for group
comparisons, and serve for the HTTP service.

Settings resolve with the precedence CLI flag > environment variable >
config file > built-in default. The optional config file (--config PATH) is
a flat JSON object whose keys are host, port, llm, data_dir, and output_dir;
any other key is a validation error.

Exit codes: 0 success, 2 validation error, 1 runtime error (among them an
error whose http_status is 500 or more: an LLM backend that fails or times out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .dialogue.llm import client_from_name
from .errors import InvalidRequest, MalformedJson, MsaError, RangeViolation
from .fixtures import FIXTURE_CASES, load_fixture
from .gcode.tags import (
    SpeakerModuleConfig,
    build_prompt_directives,
    parse_tag_list,
    speaker_module_from_obj,
)
from .jsonio import parse_json
from .msl.graph import ResponsibilityGraph, transitive_closure
from .scoring.report import ScoreCard, annotate_transcript, render_case_table, scorecard_json
from .scoring.rubric import read_subscores
from .scoring.stats import GroupStats, format_interval, mean_confidence_interval, two_sample_t
from .dialogue.transcript import load_transcript_jsonl
from .service import analyze_graph_report, serve
from .simulate import load_task, run_simulation_to_file

ENV_PREFIX = "MSA_"
DEFAULTS = {
    "host": "127.0.0.1",
    "port": "8811",
    "llm": "stub",
    "data_dir": "data",
    "output_dir": "output",
}


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    raw = parse_json(Path(path).read_bytes(), path)
    if not isinstance(raw, dict):
        raise MalformedJson(f"{path}: config file must hold a JSON object")
    config = {}
    for key, value in raw.items():
        if key not in DEFAULTS:
            raise InvalidRequest(f"{path}: unknown config key {key!r}; keys are {', '.join(DEFAULTS)}")
        if isinstance(value, int) and not isinstance(value, bool):
            value = str(value)
        if not isinstance(value, str):
            raise InvalidRequest(
                f"{path}: config value {key!r} must be a string or an integer, "
                f"got {type(value).__name__}"
            )
        config[key] = value
    return config


def resolve_setting(name: str, flag_value: str | None, config: dict[str, str]) -> str:
    """flag > MSA_<NAME> env var > config file > default."""
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(ENV_PREFIX + name.upper())
    if env_value is not None:
        return env_value
    if name in config:
        return config[name]
    return DEFAULTS[name]


def _port(raw: str) -> int:
    text = raw.strip()
    if not (text.isascii() and text.isdigit() and len(text) <= 5) or int(text) > 65535:
        raise InvalidRequest(f"port must be an integer from 0 to 65535, got {raw!r}")
    return int(text)


def _speaker_module_from_text(text: str) -> SpeakerModuleConfig:
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return speaker_module_from_obj(parse_json(stripped, ""))
    return parse_tag_list(stripped.split())


# --- subcommand handlers ---

def _cmd_parse(args: argparse.Namespace) -> int:
    config = _speaker_module_from_text(args.module)
    print(json.dumps(config.to_document(), indent=2, ensure_ascii=False))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    config = _speaker_module_from_text(args.module)
    print(build_prompt_directives(config))
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    card = annotate_transcript(load_transcript_jsonl(args.transcript))
    sys.stdout.write(scorecard_json(card))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    raw = parse_json(Path(args.graph).read_bytes(), args.graph)
    graph = ResponsibilityGraph.from_dict(raw)
    report = analyze_graph_report(graph)
    if args.closure:
        report["transitive_closure"] = sorted(list(pair) for pair in transitive_closure(graph))
    print(json.dumps(report, indent=2, ensure_ascii=False))
    return 0


def _cmd_score_case(args: argparse.Namespace) -> int:
    path = Path(args.subscores)
    if not path.exists() and path.stem in FIXTURE_CASES:
        fixture = load_fixture(path.stem)
        card = ScoreCard(fixture.subscores, fixture.function_roles)
    else:
        card = ScoreCard(*read_subscores(parse_json(path.read_bytes(), str(path))))
    sys.stdout.write(render_case_table(card, path.stem))
    if args.json:
        sys.stdout.write(scorecard_json(card))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.reference_t is not None and not math.isfinite(args.reference_t):
        raise RangeViolation(f"--reference-t must be finite, got {args.reference_t}")
    group_a = GroupStats.parse(args.a)
    group_b = GroupStats.parse(args.b)
    variant = "welch" if args.welch else "pooled"
    t, df = two_sample_t(group_a, group_b, variant=variant)
    ci_a = mean_confidence_interval(group_a, args.level)  # both before the first line is printed
    ci_b = mean_confidence_interval(group_b, args.level)
    df_text = f"{df:.0f}" if variant == "pooled" else f"{df:.2f}"
    print(f"t({df_text}) = {t:.4f}  [{variant}]")
    print(f"group a: n={group_a.n} mean={group_a.mean} ci{args.level:.2f}={format_interval(*ci_a)}")
    print(f"group b: n={group_b.n} mean={group_b.mean} ci{args.level:.2f}={format_interval(*ci_b)}")
    if args.reference_t is not None:
        delta = t - args.reference_t
        differs = f"{t:.4f}" != f"{args.reference_t:.4f}"
        note = " (computed value differs from the reference)" if differs else ""
        print(f"reference t = {args.reference_t:.4f}, delta = {delta:+.4f}{note}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    data_dir = resolve_setting("data_dir", args.data_dir, config)
    out_dir = resolve_setting("output_dir", args.out_dir, config)
    llm_name = resolve_setting("llm", args.llm, config)

    task_path = Path(args.task)
    if not task_path.exists():
        candidate = Path(data_dir) / args.task
        if candidate.exists():
            task_path = candidate
        else:
            raise InvalidRequest(f"task file not found: {args.task}")
    task = load_task(task_path)
    llm = client_from_name(llm_name)
    out_path = run_simulation_to_file(
        task,
        llm,
        out_dir=out_dir,
        task_id=task_path.stem,
        turns=args.turns,
        seed=args.seed,
    )
    print(out_path)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    host = resolve_setting("host", args.host, config)
    port = _port(resolve_setting("port", args.port, config))
    llm_name = resolve_setting("llm", args.llm, config)
    serve(host, port, client_from_name(llm_name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a speaker module into canonical JSON")
    p.add_argument("module", help="tag list like '#T_SOFTASSERT #P_SELFREF' or a JSON document")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("compile", help="compile a speaker module to its directive string")
    p.add_argument("module", help="tag list or JSON document")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("annotate", help="mechanically annotate a JSONL transcript")
    p.add_argument("transcript", help="path to a JSONL transcript")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("graph", help="closed loops and partial drift of a graph JSON file")
    p.add_argument("graph", help="path to a graph JSON file")
    p.add_argument("--closure", action="store_true", help="include the transitive closure")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("score-case", help="render totals for a sub-scores file or bundled case")
    p.add_argument("subscores", help="path to a sub-scores JSON file, or a case id like case1")
    p.add_argument("--json", action="store_true", help="also emit the canonical JSON card")
    p.set_defaults(func=_cmd_score_case)

    p = sub.add_parser("stats", help="two-sample comparison from summary statistics")
    p.add_argument("--a", required=True, help="group a as N,MEAN,SD")
    p.add_argument("--b", required=True, help="group b as N,MEAN,SD")
    p.add_argument("--welch", action="store_true", help="use Welch's correction")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument(
        "--reference-t",
        type=float,
        default=None,
        help="previously reported t value to compare against",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="run a multi-speaker task to an output JSONL file")
    p.add_argument("task", help="task JSON file (looked up in the data dir if not found as given)")
    p.add_argument("--turns", type=int, default=6, help="generated turn budget (default 6)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("--llm", default=None, help="client: stub or remote")
    p.add_argument("--data-dir", default=None, help="task file directory")
    p.add_argument("--out-dir", default=None, help="output directory")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--host", default=None)
    p.add_argument("--port", default=None)
    p.add_argument("--llm", default=None, help="client: stub or remote")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MsaError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1 if exc.http_status >= 500 else 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # runtime failures: missing files, sockets, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
