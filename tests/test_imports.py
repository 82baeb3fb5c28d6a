"""Every name a package module imports is read in that module, and every private name is read.

A line marked ``# noqa: F401`` imports on purpose for others to read (a
re-export) and is exempt. ``__init__.py`` exists to re-export and is not
checked for unused imports. A module-level private name (``_x``, not a
dunder) must be read somewhere in the package, as a name or an attribute.
"""

import ast
from pathlib import Path

import pytest

import paretorank

PACKAGE = sorted(Path(paretorank.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "import math\nimport os\nfrom itertools import chain, repeat\nprint(os.sep, chain)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: repeat"]
    assert unused_imports("import math  # noqa: F401\n") == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of ``sources`` (module name -> source) that none of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_no_unread_private_name():
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def test_check_finds_an_unread_private_name():
    a = "_x = 1\n_y, Z = 2, 3\n__all__ = []\ndef _f():\n    return _y\nclass _C:\n    _k = 0\n"
    assert unread_private_names({"a": a, "b": "import a\nprint(a._C)\n"}) == ["a: _x", "a: _f"]
    assert unread_private_names({"a": "_x = 1\n_x += 1\n"}) == ["a: _x"]
