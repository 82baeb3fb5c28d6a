"""The README's library example, artifact list and definitions, checked against the code."""

import json
import math
import re
from pathlib import Path

from paretorank import dataio, ppr
from paretorank.cli import main

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


def test_artifacts_section_names_every_csv_header(tiny_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fast = ["--max-iters", "2", "--user-sample-size", "20", "--mf-epochs", "2"]
    commands = {
        "ppr.csv": ["train", "--algo", "ppr", "--stats-out", "ppr.csv", *fast],
        "mf.csv": ["train", "--algo", "mf", "--stats-out", "mf.csv", *fast],
        "points.csv": ["evaluate", "--dme-points-out", "points.csv"],
        "comparison.csv": ["compare", "--algos", "random,zipf", "--out", "comparison.csv"],
        "powerlaw.csv": ["analyze-powerlaw", "--out", "powerlaw.csv"],
    }
    for argv in commands.values():
        assert main(argv + ["--data", str(tiny_path)]) == 0
    section = README.read_text(encoding="utf-8").split("## Artifacts", 1)[1].split("\n## ", 1)[0]
    for name in commands:
        header = Path(name).read_text(encoding="utf-8").splitlines()[1]
        assert f"`{header}`" in section, name


def test_report_json_bullet_names_every_key(tiny_path, tmp_path):
    assert main(["compare", "--data", str(tiny_path), "--algos", "random,zipf",
                 "--out", str(tmp_path / "c.csv"), "--report-dir", str(tmp_path)]) == 0
    keys = json.loads((tmp_path / "zipf.json").read_text(encoding="utf-8"))
    text = README.read_text(encoding="utf-8")
    bullet = text[text.index("- Report JSON:"):].split("\n- ", 1)[0]
    words = set(re.findall(r"\w+", bullet))
    assert sorted(set(keys) - words) == []


def test_plain_line_definition_states_the_byte_path_caps():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Input is read in blocks"):].split("\n\n", 1)[0]
    paragraph = " ".join(paragraph.split())
    assert f"ids of 1 to {dataio._ID_BYTES} bytes" in paragraph
    assert f"a timestamp of 1 to {dataio._STAMP_DIGITS} ASCII digits" in paragraph


def test_kernel_paragraph_states_the_near_cap_share():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("The trainer stays sequential"):].split("\n\n", 1)[0]
    mantissa, exponent = f"{ppr._NEAR_CAP_SLACK:e}".split("e")
    share = f"{float(mantissa):g}e{int(exponent)}"
    assert f"`1 - {share}` times the cap" in " ".join(paragraph.split())


def test_random_definition_names_the_table():
    text = README.read_text(encoding="utf-8")
    bullet = text[text.index("- `random` - "):].split("\n- ", 1)[0]
    assert "`np.random.default_rng(seed).random((n_users, n_items))`" in " ".join(bullet.split())
