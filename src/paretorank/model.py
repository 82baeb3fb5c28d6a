"""Latent factor model: scoring, rating-scale mapping, top-K recommendation.

Every algorithm in the package exposes the same scorer surface — ``n_users``,
``n_items`` and ``score_row(user)`` — so evaluation flows through one path
regardless of how scores are produced.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import RatingMatrix


@dataclass
class FactorModel:
    """User factors U (n_users x d) and item factors V (n_items x d)."""

    U: np.ndarray
    V: np.ndarray

    @property
    def n_users(self) -> int:
        return self.U.shape[0]

    @property
    def n_items(self) -> int:
        return self.V.shape[0]

    @property
    def n_factors(self) -> int:
        return self.U.shape[1]

    def score_row(self, user: int) -> np.ndarray:
        """Raw affinities of one user for every item: the user's factor row dotted with each item's."""
        if not 0 <= user < self.n_users:
            raise IndexError(f"user index {user} out of range [0, {self.n_users})")
        return self.U[user] @ self.V.T


@dataclass
class RecommendationSet:
    """Per-user top-K lists: ``items[u]`` holds user u's item indices in descending score order.

    The lists keep no scores; ``scorer.score_row(u)[items[u]]`` gives them.
    """

    k: int
    items: list[np.ndarray]


def init_model(n_users: int, n_items: int, n_factors: int, seed: int) -> FactorModel:
    """Fresh model with every factor drawn i.i.d. Uniform(0, 1), seeded."""
    if n_users < 1 or n_items < 1:
        raise ValueError(f"need at least one user and one item, got {n_users} x {n_items}")
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    rng = np.random.default_rng(seed)
    return FactorModel(U=rng.random((n_users, n_factors)), V=rng.random((n_items, n_factors)))


def scale_scores(scores, scale: tuple[float, float]) -> np.ndarray:
    """Affine min-max map of a score batch onto the rating scale.

    The batch minimum lands on r_min and the maximum on r_max; a constant
    batch maps every score to the scale midpoint. Ordering is preserved.
    """
    r_min, r_max = scale
    if r_min >= r_max:
        raise ValueError(f"need r_min < r_max, got ({r_min}, {r_max})")
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot scale an empty score batch")
    lo = arr.min()
    hi = arr.max()
    if lo == hi:
        return np.full_like(arr, (r_min + r_max) / 2.0)
    return r_min + (arr - lo) * ((r_max - r_min) / (hi - lo))


def top_k(scorer, train: RatingMatrix, k: int) -> RecommendationSet:
    """Per-user k best-scoring items not rated in train.

    Ordering is descending score with ascending item index as the tie-break,
    which makes the output fully deterministic. Users with fewer than k
    unrated items get shorter lists.

    Each user's list is selected, not sorted: one ``np.partition`` finds the
    k-th best unrated score, and only the items that tie or beat it (every
    tie at the boundary included) are ordered. The cost per user is linear
    in ``n_items``. Scores must not be NaN.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_items = scorer.n_items
    items = []
    for u in range(scorer.n_users):
        row = scorer.score_row(u)
        rated = train.row(u)[0]
        kk = min(k, n_items - rated.size)
        if kk == 0:
            items.append(np.empty(0, dtype=np.intp))
            continue
        # a new array: score_row may return a shared row that must stay unwritten
        neg = -row
        neg[rated] = np.inf
        keep = neg <= np.partition(neg, kk - 1)[kk - 1]
        keep[rated] = False
        cand = np.flatnonzero(keep)
        items.append(cand[np.lexsort((cand, neg[cand]))[:kk]])
    return RecommendationSet(k=k, items=items)


def score_entries(scorer, matrix: RatingMatrix) -> np.ndarray:
    """Raw scores for every entry of a matrix, in entry order; one score_row call per non-empty user."""
    out = np.empty(matrix.n_entries)
    indptr = matrix.indptr
    for u in np.flatnonzero(np.diff(indptr)).tolist():
        lo, hi = indptr[u], indptr[u + 1]
        out[lo:hi] = scorer.score_row(u)[matrix.indices[lo:hi]]
    return out
