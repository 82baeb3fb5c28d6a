"""The benchmark in perfbench/ calls into paretorank by name; every name it uses must resolve.

perfbench is not imported here (its modules import each other as scripts);
its source is walked instead. Each name it imports from paretorank is
followed through every attribute chain it reads, through every keyword
its calls pass (directly or through `Workload.op`), and through the names
it hands `Tracer.wrapped`, which patches `module.<name>` for a traced run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _imported(tree) -> dict:
    """{local name: object or None} for each `from paretorank import <name>`."""
    package = importlib.import_module("paretorank")
    return {alias.asname or alias.name: getattr(package, alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "paretorank"
            for alias in node.names}


def _chain(node, imported):
    """(dotted name, resolved object or None) of a name or attribute chain rooted at an import."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id in imported):
        return None
    obj = imported[node.id]
    for part in reversed(parts):
        obj = getattr(obj, part, None)
    return ".".join([node.id, *reversed(parts)]), obj


def _uses(path):
    """Every paretorank name the file uses, as (dotted name, object or None, keywords)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported(tree)
    uses = [(name, obj, ()) for name, obj in imported.items()]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (hit := _chain(node, imported)):
            uses.append((*hit, ()))
        if not isinstance(node, ast.Call):
            continue
        keywords = tuple(k.arg for k in node.keywords if k.arg)
        if hit := _chain(node.func, imported):
            uses.append((*hit, keywords))
        # self.op(span name, fn, *args, **kwargs) calls fn with the keywords
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "op"
                and len(node.args) >= 2 and (hit := _chain(node.args[1], imported))):
            uses.append((*hit, keywords))
        # tracer.wrapped(module, ("name", ...), layer) patches module.name
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "wrapped"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Tuple)
                and (hit := _chain(node.args[0], imported))):
            for name in node.args[1].elts:
                uses.append((f"{hit[0]}.{name.value}", getattr(hit[1], name.value, None), ()))
    return uses


def test_perfbench_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "workload.py", "tracing.py", "corpus.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_paretorank_name_resolves(path):
    for name, obj, keywords in _uses(path):
        assert obj is not None, f"{path.name} uses {name}, which paretorank does not have"
        if keywords and callable(obj):
            params = inspect.signature(obj).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                unknown = set(keywords) - set(params)
                assert not unknown, f"{path.name} passes {sorted(unknown)} to {name}"


def test_traced_wrappers_are_checked():
    names = {name for path in SOURCES for name, _, _ in _uses(path)}
    assert {"metrics.top_k", "metrics.score_entries", "metrics.evaluate_scorer",
            "init_model", "save_model"} <= names
