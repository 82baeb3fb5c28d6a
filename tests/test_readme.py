"""The README's library example, run as written against the tiny test corpus."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tiny_path, capsys):
    code = library_example()
    assert '"ratings.dat"' in code
    code = code.replace('"ratings.dat"', repr(str(tiny_path)))
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    mae, slope = map(float, capsys.readouterr().out.split())
    assert math.isfinite(mae) and math.isfinite(slope)
    assert namespace["top_scores"].tolist() == sorted(namespace["top_scores"].tolist(), reverse=True)
    assert (namespace["small"].n_users, namespace["small"].n_items) == (2, 2)
