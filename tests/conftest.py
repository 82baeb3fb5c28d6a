"""Shared fixtures: synthetic rating corpora and session-scoped heavy artifacts.

The large MovieLens-style corpus is synthesized (integer 1-5 ratings, heavy
tailed item popularity, unimodal rating marginal). Point PARETORANK_ML1M at a
real `ratings.dat` to run the dataset-scale tests against real data instead.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import paretorank as pr


def movielens_like_lines(n_users=900, n_items=1200, mean_ratings=130, seed=2024,
                         pop_exp=0.9, coupling=0.45, noise=0.8, user_sd=0.4):
    """Deterministic MovieLens-style `u::i::r::ts` lines.

    Item popularity is a power law; item quality is partially coupled to
    popularity; ratings are integers 1..5 with a unimodal marginal peaked
    between 3 and 4, which is what makes the positive rating-difference
    counts decay like the real dataset's.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n_items + 1) ** pop_exp
    pop /= pop.sum()
    zq = (np.log(pop) - np.log(pop).mean()) / np.log(pop).std()
    quality = coupling * zq + np.sqrt(max(0.01, 1.0 - coupling**2)) * rng.standard_normal(n_items)
    user_bias = user_sd * rng.standard_normal(n_users)
    activity = np.clip(
        rng.lognormal(np.log(mean_ratings * 0.8), 0.55, n_users), 25, 420
    ).astype(int)
    lines = []
    ts = 978300000
    for u in range(n_users):
        items = rng.choice(n_items, size=min(int(activity[u]), n_items), replace=False, p=pop)
        r = np.clip(
            np.rint(3.55 + 0.6 * quality[items] + user_bias[u]
                    + noise * rng.standard_normal(items.size)),
            1, 5,
        ).astype(int)
        for i, ri in zip(items, r):
            lines.append(f"{u + 1}::{i + 1}::{ri}::{ts}")
            ts += 1
    return lines


def matrix_from(triples, scale=None):
    """A matrix of (user id, item id, rating) triples, in the order given."""
    triples = list(triples)
    columns = pr.RatingColumns([u for u, _, _ in triples], [i for _, i, _ in triples],
                               np.array([r for _, _, r in triples], dtype=float))
    return pr.build_matrix(columns, scale=scale)


def items_of(matrix, user):
    """User's {item: rating} map, read from the matrix's CSR row."""
    items, ratings = matrix.row(user)
    return dict(zip(items.tolist(), ratings.tolist()))


def entry_triples(matrix):
    """(user, item, rating) per entry, in entry order."""
    return list(zip(matrix.entry_users().tolist(), matrix.indices.tolist(), matrix.ratings.tolist()))


def planted_matrix(n_users=200, n_items=100, d=8, per_user=40, seed=11):
    """Ratings quantized from dot products of positive ground-truth factors."""
    rng = np.random.default_rng(seed)
    U = rng.random((n_users, d))
    V = rng.random((n_items, d))
    dots = U @ V.T
    lo, hi = dots.min(), dots.max()
    triples = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            r = 1.0 + float(np.floor((dots[u, i] - lo) / (hi - lo) * 4.999))
            triples.append((f"u{u}", f"i{i}", r))
    return matrix_from(triples, scale=(1, 5))


def tiny_movielens_lines(n_users=60, n_items=40, per_user=12, seed=5):
    """A small, fast corpus for CLI round-trips."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user, replace=False)
        for i in items:
            r = int(rng.integers(1, 6))
            lines.append(f"{u + 1}::{i + 1}::{r}::{978300000 + u * 100 + int(i)}")
    return lines


@pytest.fixture(scope="session")
def ml_like_path(tmp_path_factory) -> Path:
    env = os.environ.get("PARETORANK_ML1M")
    if env:
        # systematic every-kth-entry subsample down to ~120K ratings
        lines = Path(env).read_text(encoding="utf-8", errors="ignore").splitlines()
        step = max(1, len(lines) // 120_000)
        path = tmp_path_factory.mktemp("data") / "ml1m_subsample.dat"
        path.write_text("\n".join(lines[::step]) + "\n", encoding="utf-8")
        return path
    path = tmp_path_factory.mktemp("data") / "ml_like.dat"
    path.write_text("\n".join(movielens_like_lines()) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def ml_like_matrix(ml_like_path) -> pr.RatingMatrix:
    with open(ml_like_path, "rb") as fp:
        result = pr.parse_movielens(fp)
    matrix = pr.build_matrix(result.records)
    assert matrix.n_entries >= 100_000, "dataset-scale fixtures need >= 100K ratings"
    return matrix


@pytest.fixture(scope="session")
def ml_like_split(ml_like_matrix) -> pr.SplitPair:
    return pr.split(ml_like_matrix, 0.2, seed=12)


@pytest.fixture
def tiny_path(tmp_path) -> Path:
    path = tmp_path / "tiny.dat"
    path.write_text("\n".join(tiny_movielens_lines()) + "\n", encoding="utf-8")
    return path
