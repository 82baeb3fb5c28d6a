"""Reference algorithms behind the shared scorer contract.

Random placement assigns seeded pseudo-random scores, Zipf placement scores
items by inverse popularity rank, and classic matrix factorization fits
ratings by regularized squared-error SGD. All three plug into the same
evaluation path as the pairwise trainer.
"""

import math

import numpy as np

from .dataio import RatingMatrix
from .errors import DataError, DivergenceError
from .model import FactorModel, init_model


class PopularityTable:
    """Per-item training rating counts with a 1-based popularity ranking.

    Items are ordered by descending count, ascending index on ties; ranks
    are a permutation of 1..n_items.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = np.asarray(counts, dtype=np.int64)
        n = self.counts.shape[0]
        self.order = np.lexsort((np.arange(n), -self.counts))
        self.ranks = np.empty(n, dtype=np.int64)
        self.ranks[self.order] = np.arange(1, n + 1)

    @classmethod
    def from_matrix(cls, train: RatingMatrix) -> "PopularityTable":
        return cls(np.bincount(train.indices, minlength=train.n_items))

    def rank(self, item: int) -> int:
        return int(self.ranks[item])


class RandomScorer:
    """Seeded uniform-random scores, reproducible without an n x m matrix.

    score(user, item) is the item-th draw of a generator keyed by
    (seed, user), so every (seed, user, item) triple pins down one value.
    """

    def __init__(self, n_users: int, n_items: int, seed: int):
        self.n_users = n_users
        self.n_items = n_items
        self.seed = seed

    def score_row(self, user: int) -> np.ndarray:
        return np.random.default_rng((self.seed, user)).random(self.n_items)

    def score(self, user: int, item: int) -> float:
        return float(self.score_row(user)[item])


class ZipfScorer:
    """Popularity-rank scores 1/rank, identical for every user."""

    def __init__(self, popularity: PopularityTable, n_users: int):
        self.popularity = popularity
        self.n_users = n_users
        self.n_items = popularity.ranks.shape[0]
        self._row = 1.0 / popularity.ranks

    def score_row(self, user: int) -> np.ndarray:
        return self._row

    def score(self, user: int, item: int) -> float:
        return float(self._row[item])


def train_classic_mf(
    train: RatingMatrix,
    n_factors: int = 8,
    learning_rate: float = 0.005,
    reg: float = 0.01,
    epochs: int = 30,
    seed: int = 42,
) -> tuple[FactorModel, list[float]]:
    """Classic rating-regression matrix factorization by SGD.

    Minimizes sum of (R[u,i] - U_u.V_i)^2 plus reg * (|U|^2 + |V|^2) with
    per-entry updates, visiting entries in a seeded shuffled order each
    epoch. Returns the model and the per-epoch objective trace.

    Raises:
        DivergenceError: if factors or the objective go non-finite.
    """
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    model = init_model(train.n_users, train.n_items, n_factors, seed)
    U, V = model.U, model.V
    users, items, ratings = train.entry_users(), train.indices, train.ratings
    epoch_seeds = np.random.SeedSequence(seed).spawn(epochs) if epochs else []
    losses = []
    # overflow to inf is tolerated mid-epoch; the epoch-end check converts it
    # into a DivergenceError instead of a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = np.random.default_rng(epoch_seeds[ep])
            for pos in rng.permutation(train.n_entries):
                u = users[pos]
                i = items[pos]
                u_row = U[u]
                v_row = V[i]
                err = ratings[pos] - float(u_row @ v_row)
                u_old = u_row.copy()
                u_row += learning_rate * (err * v_row - reg * u_row)
                v_row += learning_rate * (err * u_old - reg * v_row)
            sq = ratings - np.einsum("ij,ij->i", U[users], V[items])
            loss = float(sq @ sq) + reg * (float(np.sum(U * U)) + float(np.sum(V * V)))
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"objective went non-finite at epoch {ep + 1}; try a smaller learning rate"
                )
            losses.append(loss)
    return model, losses
