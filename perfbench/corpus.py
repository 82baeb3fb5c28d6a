"""Seeded input generation for the benchmark workloads.

Generation runs in the parent process and is not timed; the measured child
process only receives the files written here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from paretorank import init_model, save_model

ML100K_DEFAULT_SEED = 2024  # conftest's default: the tier-1 test corpus


def _conftest(root: Path):
    spec = importlib.util.spec_from_file_location(
        "paretorank_test_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ml100k_lines(root: Path, seed: int) -> list[str]:
    """The tier-1 corpus generator, byte-for-byte; seed 2024 is the test corpus."""
    return _conftest(root).movielens_like_lines(seed=seed)


def synthetic_lines(n_users, n_items, mean_ratings, min_ratings, max_ratings, seed):
    """MovieLens-style `u::i::r::ts` lines with a configurable per-user activity range.

    Same generative model as the test corpus (power-law item popularity,
    quality coupled to popularity, integer 1-5 ratings), but the clip on
    ratings per user is a parameter, so very sparse users can be made.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n_items + 1) ** 0.9
    pop /= pop.sum()
    zq = (np.log(pop) - np.log(pop).mean()) / np.log(pop).std()
    quality = 0.45 * zq + np.sqrt(1.0 - 0.45**2) * rng.standard_normal(n_items)
    user_bias = 0.4 * rng.standard_normal(n_users)
    activity = np.clip(rng.lognormal(np.log(mean_ratings * 0.8), 0.55, n_users),
                       min_ratings, min(max_ratings, n_items)).astype(int)
    lines = []
    ts = 978300000
    for u in range(n_users):
        items = rng.choice(n_items, size=int(activity[u]), replace=False, p=pop)
        r = np.clip(np.rint(3.55 + 0.6 * quality[items] + user_bias[u]
                            + 0.8 * rng.standard_normal(items.size)), 1, 5).astype(int)
        for i, ri in zip(items.tolist(), r.tolist()):
            lines.append(f"{u + 1}::{i + 1}::{ri}::{ts}")
            ts += 1
    return lines


def write_inputs(root: Path, workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir; returns their paths."""
    if workload == "ml100k-compare":
        lines = ml100k_lines(root, seed)
    elif workload == "ml1m-evaluate":
        lines = synthetic_lines(6040, 3706, 160, 20, 2000, seed)
    elif workload == "sparse-ppr":
        # every user rates fewer items than TrainConfig.item_sample_size (32); the
        # catalogue is kept small enough that one evaluation is a short sample
        lines = synthetic_lines(12000, 1500, 28, 12, 31, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    corpus = workdir / "ratings.dat"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = {"corpus": str(corpus), "lines": len(lines), "reference": str(corpus)}
    if workload == "ml1m-evaluate":
        inputs["artifact"] = str(_write_factor_artifact(lines, seed, workdir))
    if workload != "ml100k-compare" or seed != ML100K_DEFAULT_SEED:
        # quality is always measured on the test corpus, whatever the seed
        reference = workdir / "reference.dat"
        reference.write_text("\n".join(ml100k_lines(root, ML100K_DEFAULT_SEED)) + "\n",
                             encoding="utf-8")
        inputs["reference"] = str(reference)
    return inputs


def _write_factor_artifact(lines, seed, workdir: Path) -> Path:
    """A seeded factor model shaped like the corpus's user x item matrix."""
    users = {line.split("::", 1)[0] for line in lines}
    items = {line.split("::", 2)[1] for line in lines}
    model = init_model(len(users), len(items), 8, seed)
    path = workdir / "factors.bin"
    save_model(model, path, seed=seed, config={"algo": "factors", "source": "seeded"})
    return path
