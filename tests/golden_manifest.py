"""The golden CLI set: every artifact of a fixed run of each command, by sha256.

On each of two corpora the set runs ``compare --report-dir``, then ``train``
(with ``--stats-out`` for ppr and mf) and ``evaluate --dme-points-out`` for
every algorithm, then ``analyze-powerlaw``: 20 artifacts per corpus.
``tests/golden/manifest.json`` holds their digests with the numpy version and
OpenBLAS core they were made with, and ``test_golden.py`` reruns the set
against it. A change that moves an artifact on purpose rewrites the manifest:

    PYTHONPATH=src python tests/golden_manifest.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import movielens_like_lines, openblas_core_name, tiny_movielens_lines
from paretorank.cli import ALGOS, main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

# each corpus's lines and the hyperparameter flags its commands share; the
# tiny corpus takes criterion 8's fast flags
CORPORA = {
    "tiny": (tiny_movielens_lines, ["--max-iters", "3", "--user-sample-size", "30",
                                    "--item-sample-size", "8", "--mf-epochs", "5"]),
    "ml_200x300": (lambda: movielens_like_lines(n_users=200, n_items=300, mean_ratings=40),
                   ["--max-iters", "5"]),
}


def run_golden_set(workdir: Path) -> dict[str, str]:
    """Run the set in ``workdir``; return {"corpus/artifact name": sha256}."""
    digests = {}
    for corpus, (lines, flags) in CORPORA.items():
        out = workdir / corpus
        out.mkdir()
        data = str(out / "ratings.dat")
        Path(data).write_text("\n".join(lines()) + "\n", encoding="utf-8")
        commands = [["compare", "--algos", ",".join(ALGOS), "--out", str(out / "compare.csv"),
                     "--report-dir", str(out), *flags]]
        for algo in ALGOS:
            stats = ["--stats-out", str(out / f"{algo}_stats.csv")] if algo in ("ppr", "mf") else []
            commands += [
                ["train", "--algo", algo, "--model-out", str(out / f"{algo}.bin"), *stats, *flags],
                ["evaluate", "--model", str(out / f"{algo}.bin"),
                 "--report-out", str(out / f"{algo}_report.json"),
                 "--dme-points-out", str(out / f"{algo}_dme.csv")]]
        commands.append(["analyze-powerlaw", "--out", str(out / "powerlaw.csv")])
        with contextlib.redirect_stdout(io.StringIO()):
            for command in commands:
                code = main([command[0], "--data", data, *command[1:]])
                assert code == 0, f"{corpus}: {' '.join(command)} exited {code}"
        digests.update((f"{corpus}/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest())
                       for path in sorted(out.iterdir()) if path.name != "ratings.dat")
    return digests


def environment() -> dict[str, str]:
    """What the digests depend on besides the program: numpy and its BLAS kernels."""
    return {"numpy": np.__version__, "openblas_core": openblas_core_name()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {**environment(), "artifacts": run_golden_set(Path(tmp))}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
