"""Module layering: every module imports on its own, with no cycles and no leaf importing upward.

The layers are the leaf packages (``gcode``, ``msl``, the dialogue core,
``scoring``) and the leaf modules ``text``, ``jsonio`` and ``errors``, then
the composers that wire them together. Each name is imported from the module
that defines it; the package ``__init__`` files hold only a docstring.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LEAF_PACKAGES = ("msa.gcode", "msa.msl", "msa.dialogue", "msa.scoring")
LEAF_MODULES = ("msa.text", "msa.jsonio", "msa.errors")
COMPOSERS = ("msa.dialogue.pipeline", "msa.simulate", "msa.service", "msa.cli", "msa.fixtures")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in sorted(SRC.glob("msa/**/*.py"))}


def _module_level_imports(statements: list[ast.stmt]):
    """Import statements run at import time: not in functions or under ``if TYPE_CHECKING:``."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _module_level_imports(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for block in ("body", "handlers", "orelse", "finalbody"):  # if, try, with, for, class
                yield from _module_level_imports(getattr(node, block, []))


def _ancestors(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def import_graph() -> dict[str, set[str]]:
    """Module -> the msa modules its import runs.

    Importing ``msa.a.b`` also runs the package ``msa.a``, unless that package
    is one the importer already sits in.
    """
    graph = {}
    for module, path in MODULES.items():
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        targets = set()
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
                continue
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            source = ".".join(filter(None, (base, node.module)))
            targets.add(source)
            targets.update(f"{source}.{alias.name}" for alias in node.names)  # `from pkg import module`
        own = {module, *_ancestors(module)}
        graph[module] = {
            run
            for target in targets
            if target in MODULES
            for run in (*_ancestors(target), target)
            if run not in own
        }
    return graph


def _layer(module: str) -> str | None:
    if module in COMPOSERS:
        return "composer"
    if module in LEAF_MODULES or any(module == p or module.startswith(p + ".") for p in LEAF_PACKAGES):
        return "leaf"
    return None


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_in_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_graph_has_no_cycle():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(graph[module]):
            visit(target, [*path, module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_every_module_has_a_layer_and_no_leaf_imports_a_composer():
    graph = import_graph()
    assert [m for m in sorted(graph) if m != "msa" and _layer(m) is None] == []
    upward = [
        f"{module} imports {target}"
        for module, targets in sorted(graph.items())
        if _layer(module) == "leaf"
        for target in sorted(targets)
        if _layer(target) == "composer"
    ]
    assert upward == []


def test_no_remote_client_import_until_a_remote_backend_is_used():
    # urllib.request and the hashlib it loads cost about 1 MiB of resident memory;
    # the service, simulate and annotate paths with the stub client never use them.
    code = (
        "import sys, msa.service, msa.simulate, msa.scoring.report; "
        "print('urllib.request' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# What a subcommand that does not need it must never load. The in-process CLI tests
# cannot catch a wrong lazy import, because other tests have already imported every module.
SUBCOMMAND_MODULES = (
    "msa.service",
    "http.server",
    "msa.simulate",
    "msa.dialogue.pipeline",
    "msa.scoring.stats",
    "statistics",
    "msa.fixtures",
    "importlib.resources",
)


def test_importing_the_cli_loads_no_subcommand_module():
    code = (
        "import sys; before = set(sys.modules); import msa.cli; "
        f"print(sorted(set({SUBCOMMAND_MODULES!r}) & (sys.modules.keys() - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


TRANSCRIPT_ROW = '{"speaker": "a", "text": "I will check it.", "turn_role": "user"}\n'

# subcommand -> (arguments, exit code, modules it must not load)
SUBCOMMANDS = {
    "parse": (["parse", "#T_NEUTRAL"], 0, ("http.server", "msa.scoring.report")),
    "compile": (["compile", "#T_NEUTRAL #E_TIGHT"], 0, ("http.server", "msa.scoring.report")),
    "stats": (["stats", "--a", "10,1,1", "--b", "12,2,1"], 0, ("http.server", "msa.scoring.report")),
    "annotate": (["annotate", "{dir}/t.jsonl"], 0, ("http.server", "msa.simulate")),
    "score-case": (["score-case", "case1"], 0, ("http.server", "msa.simulate")),
    "graph": (["graph", "{dir}/g.json"], 0, ("msa.simulate", "msa.fixtures", "statistics")),
    "simulate": (
        ["simulate", "{dir}/task.json", "--turns", "2", "--out-dir", "{dir}/out"],
        0,
        ("http.server", "msa.fixtures", "msa.scoring.stats"),
    ),
    # refused after its imports ran
    "serve": (["serve", "--port", "abc"], 2, ("msa.simulate", "msa.fixtures", "statistics")),
}


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_each_subcommand_loads_only_what_it_runs(tmp_path, subcommand):
    (tmp_path / "t.jsonl").write_text(TRANSCRIPT_ROW, encoding="utf-8")
    (tmp_path / "g.json").write_text('{"nodes": ["a"], "edges": [{"from": "a", "to": "a"}]}')
    (tmp_path / "task.json").write_text('{"a": {}, "b": {}, "task": "Plan it."}')
    args, exit_code, never = SUBCOMMANDS[subcommand]
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in args]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "msa.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == exit_code, proc.stderr
    # -X importtime writes "import time: <self> | <cumulative> | <module>" per first import
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "msa.errors" in loaded
    assert sorted(loaded & set(never)) == []
