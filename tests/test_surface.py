"""Every public function, class and method in src/msa has a caller or a documented surface.

A definition counts as used when its name is loaded or read as an attribute
somewhere in src/msa outside its own body, or when README.md or
docs/formats.md names it. Imports and ``__all__`` entries do not count, so a
name kept alive only by a re-export fails here. Matching is by name, so a
method that shares its name with a used one (``to_dict``, ``get``) is not
caught.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "msa"

# Called by http.server itself, never by name from src/.
EXEMPT = {
    "MsaRequestHandler.do_POST": "BaseHTTPRequestHandler dispatches GET and POST requests to it",
    "MsaRequestHandler.log_message": "BaseHTTPRequestHandler calls it for every request log line",
    "MsaRequestHandler.send_error": "BaseHTTPRequestHandler calls it for requests it refuses itself",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) for module-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            references.setdefault(name, []).append(node)
    documented = (ROOT / "README.md").read_text(encoding="utf-8") + (
        ROOT / "docs" / "formats.md"
    ).read_text(encoding="utf-8")

    unused = []
    for path, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("_") or qualname in EXEMPT:
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if any(id(ref) not in own for ref in references.get(name, ())):
                continue
            if re.search(rf"\b{re.escape(name)}\b", documented):
                continue
            unused.append(f"{path.relative_to(SRC)}: {qualname}")
    return unused


def test_every_public_name_has_a_caller_or_documentation():
    assert unused_public_names() == []


# The count of settable values: parameter defaults of functions and methods
# other than dunder methods, plus class-level annotated fields with a default.
# A change that adds one raises this ceiling in its own diff and says why.
SETTABLE_CEILING = 23


def settable_values() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [f"{where}: {node.name}({a.arg}=...)" for a in defaulted]
            elif isinstance(node, ast.ClassDef):
                found += [
                    f"{where}: {node.name}.{ast.unparse(member.target)}"
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and member.value is not None
                ]
    return found


def test_settable_values_stay_within_the_ceiling():
    found = settable_values()
    assert len(found) <= SETTABLE_CEILING, "\n".join(found)


def test_json_is_decoded_only_in_jsonio():
    """Every decode goes through msa.jsonio.parse_json, which maps each failure to MalformedJson."""
    decoders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "jsonio.py" and path.parent == SRC:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                decoders += [f"{path.relative_to(SRC)}: from json import {alias.name}"
                             for alias in node.names if alias.name in ("load", "loads")]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                decoders.append(f"{path.relative_to(SRC)}:{node.lineno}: json.{node.attr}")
    assert decoders == []
