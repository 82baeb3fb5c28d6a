"""Every name a package module imports is read in that module.

A line marked ``# noqa: F401`` imports on purpose for others to read (a
re-export) and is exempt. ``__init__.py`` exists to re-export and is not
checked.
"""

import ast
from pathlib import Path

import pytest

import paretorank

MODULES = sorted(p for p in Path(paretorank.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
