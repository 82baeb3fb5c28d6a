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


class RandomScorer:
    """Seeded uniform-random scores, reproducible without an n x m matrix.

    score_row(user) is the first n_items draws of a generator keyed by
    (seed, user), so every (seed, user, item) triple pins down one value.
    """

    def __init__(self, n_users: int, n_items: int, seed: int):
        self.n_users = n_users
        self.n_items = n_items
        self.seed = seed

    def score_row(self, user: int) -> np.ndarray:
        return np.random.default_rng((self.seed, user)).random(self.n_items)


class ZipfScorer:
    """Popularity-rank scores 1/rank, identical for every user."""

    def __init__(self, popularity: PopularityTable, n_users: int):
        self.popularity = popularity
        self.n_users = n_users
        self.n_items = popularity.ranks.shape[0]
        self._row = 1.0 / popularity.ranks

    def score_row(self, user: int) -> np.ndarray:
        return self._row


_LEVEL_CHUNK = 8192


def check_mf_hyperparameters(n_factors: int, learning_rate: float, reg: float,
                             epochs: int) -> None:
    """Raise ValueError unless the MF hyperparameters can be trained with.

    n_factors and epochs must be >= 1; learning_rate and reg must be finite
    and >= 0. A zero learning rate is allowed and leaves the model at its
    init.
    """
    if n_factors < 1:
        raise ValueError(f"MF n_factors must be >= 1, got {n_factors}")
    if epochs < 1:
        raise ValueError(f"MF epochs must be >= 1, got {epochs}")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"MF learning_rate must be finite and >= 0, got {learning_rate}")
    if not (math.isfinite(reg) and reg >= 0):
        raise ValueError(f"MF reg must be finite and >= 0, got {reg}")


def _conflict_free_levels(users: np.ndarray, items: np.ndarray, perm: np.ndarray,
                          n_users: int, n_items: int) -> np.ndarray:
    """Level of each visit in perm's order: 1 + the latest level on its user row or item row.

    Visits on one level share no user and no item, and each row's visits
    sit on strictly increasing levels in visiting order. The pass gathers
    and converts ids to Python ints one chunk at a time to bound the
    memory it holds.
    """
    levels = np.empty(perm.shape[0], dtype=np.int64)
    user_level = [0] * n_users
    item_level = [0] * n_items
    for start in range(0, perm.shape[0], _LEVEL_CHUNK):
        stop = start + _LEVEL_CHUNK
        visits = perm[start:stop]
        chunk = []
        for u, i in zip(users[visits].tolist(), items[visits].tolist()):
            lu = user_level[u]
            li = item_level[i]
            level = (lu if lu > li else li) + 1
            user_level[u] = item_level[i] = level
            chunk.append(level)
        levels[start:stop] = chunk
    return levels


def _sgd_epoch(model: FactorModel, users: np.ndarray, items: np.ndarray, ratings: np.ndarray,
               perm: np.ndarray, learning_rate: float, reg: float) -> None:
    """One SGD step per entry in perm's order, applied one conflict-free level at a time."""
    U, V = model.U, model.V
    levels = _conflict_free_levels(users, items, perm, model.n_users, model.n_items)
    bounds = np.cumsum(np.bincount(levels)).tolist()
    # visits grouped by level; each slice [a, b) of pos is one level
    pos = perm[np.argsort(levels, kind="stable")]
    for a, b in zip(bounds, bounds[1:]):
        p = pos[a:b]
        u, i = users[p], items[p]
        Ub, Vb = U[u], V[i]
        e = (ratings[p] - np.vecdot(Ub, Vb))[:, None]
        U[u] = Ub + learning_rate * (e * Vb - reg * Ub)
        V[i] = Vb + learning_rate * (e * Ub - reg * Vb)


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

    Each epoch applies the per-entry steps of that shuffled order in
    conflict-free batches (the observation behind DSGD, Gemulla et al.,
    KDD 2011). An entry's level is 1 + the highest level among the
    earlier visits to its user row or its item row; all entries of one
    level are then updated at once, level by level. The result is
    bit-identical to visiting the entries one at a time, because
    - no two entries of a level share a user row or an item row, so
      their steps touch disjoint memory and commute;
    - every row still receives its steps in the shuffled order;
    - ``np.vecdot`` runs the same inner dot loop as ``u_row @ v_row``
      (``einsum`` and ``(U * V).sum(1)`` sum in another order and differ
      in the last bit), and the step itself is the same elementwise
      float64 arithmetic.
    Cost per epoch: one Python pass over the entries to assign levels,
    plus about 20 small numpy operations per level. On the 84K-entry test
    corpus an epoch has about 860 levels of about 100 entries each. The
    worst case is a single user or a single item: every entry is its own
    level and the epoch runs 1.5-1.9x slower than one numpy step per
    entry (2,000 entries x 5 epochs, best of 45 runs on a 2-vCPU host:
    0.070-0.085 s -> 0.13-0.14 s).

    Raises:
        ValueError: if n_factors or epochs < 1, or learning_rate or reg is
            negative or not finite. A zero learning rate leaves the model at its init.
        DivergenceError: if factors or the objective go non-finite.
    """
    check_mf_hyperparameters(n_factors, learning_rate, reg, epochs)
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    model = init_model(train.n_users, train.n_items, n_factors, seed)
    U, V = model.U, model.V
    users, items, ratings = train.entry_users(), train.indices, train.ratings
    epoch_seeds = np.random.SeedSequence(seed).spawn(epochs)
    losses = []
    # overflow to inf is tolerated mid-epoch; the epoch-end check converts it
    # into a DivergenceError instead of a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = np.random.default_rng(epoch_seeds[ep])
            _sgd_epoch(model, users, items, ratings, rng.permutation(train.n_entries),
                       learning_rate, reg)
            sq = ratings - np.einsum("ij,ij->i", U[users], V[items])
            loss = float(sq @ sq) + reg * (float(np.sum(U * U)) + float(np.sum(V * V)))
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"objective went non-finite at epoch {ep + 1}; try a smaller learning rate"
                )
            losses.append(loss)
    return model, losses
