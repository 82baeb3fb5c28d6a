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
from .model import FactorModel, Scorer, check_index, init_model, is_integer


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


class RandomScorer(Scorer):
    """Seeded uniform-random scores: row u of one table that is never built.

    User u's row is row ``u`` of
    ``np.random.default_rng(seed).random((n_users, n_items))`` bit for bit,
    so every (seed, user, item) triple pins down one value. The scorer holds
    the PCG64 generator that ``default_rng(seed)`` wraps. Each double takes
    exactly one 64-bit output, so a run of users from ``start`` is one
    (users, n_items) draw that starts ``start * n_items`` outputs into the
    stream: the run after the last one is drawn straight on, and any other
    is reached by resetting the generator and advancing it that far. Memory
    does not grow with n_users. An instance holds generator state: it is not
    for concurrent use.

    Raises:
        ValueError: if n_users or n_items is not an integer >= 1, or seed is
            not an integer >= 0 (bools are neither counts nor seeds).
    """

    def __init__(self, n_users: int, n_items: int, seed: int):
        for name, value in (("n_users", n_users), ("n_items", n_items)):
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"random {name} must be an integer >= 1, got {value!r}")
        if not (is_integer(seed) and seed >= 0):
            raise ValueError(f"random seed must be an integer >= 0, got {seed!r}")
        # Python ints, so start * n_items cannot wrap as int64 would
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.seed = int(seed)
        self._bitgen = np.random.PCG64(self.seed)
        self._start = self._bitgen.state
        self._rng = np.random.Generator(self._bitgen)
        self._next_user = 0

    def score_rows(self, start: int, out: np.ndarray) -> None:
        start = check_index(start, self.n_users, "user", len(out))
        if start != self._next_user:
            self._bitgen.state = self._start
            self._bitgen.advance(start * self.n_items)
        self._next_user = start + len(out)
        # Generator.random writes only into a contiguous out: draw, then copy
        out[...] = self._rng.random((len(out), self.n_items))


class ZipfScorer(Scorer):
    """Popularity-rank scores 1/rank, identical for every user.

    ``score_rows`` copies one shared read-only row into each row of a block.

    Raises:
        ValueError: if n_users is not an integer >= 1.
    """

    def __init__(self, popularity: PopularityTable, n_users: int):
        if not (is_integer(n_users) and n_users >= 1):
            raise ValueError(f"zipf n_users must be an integer >= 1, got {n_users!r}")
        self.popularity = popularity
        self.n_users = int(n_users)
        self.n_items = popularity.ranks.shape[0]
        self._row = 1.0 / popularity.ranks
        self._row.flags.writeable = False

    def score_rows(self, start: int, out: np.ndarray) -> None:
        check_index(start, self.n_users, "user", len(out))
        out[...] = self._row


_LEVEL_CHUNK = 8192


def check_mf_hyperparameters(n_factors: int, learning_rate: float, reg: float,
                             epochs: int) -> None:
    """Raise ValueError unless the MF hyperparameters can be trained with.

    n_factors and epochs must be integers (Python or numpy, not bool) >= 1
    and below 2**63, numpy's integer range; learning_rate and reg must be
    finite and >= 0. A zero learning rate is allowed and leaves the model at
    its init.
    """
    for name, value in (("n_factors", n_factors), ("epochs", epochs)):
        if not (is_integer(value) and 1 <= value < 2**63):
            raise ValueError(f"MF {name} must be an integer >= 1 and < 2**63, got {value!r}")
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
        ValueError: if n_factors or epochs is not an integer >= 1 and < 2**63, learning_rate
            or reg is negative or not finite, or seed is not an integer >= 0. A zero learning
            rate leaves the model at its init.
        DivergenceError: if factors or the objective go non-finite.
    """
    check_mf_hyperparameters(n_factors, learning_rate, reg, epochs)
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"MF seed must be an integer >= 0, got {seed!r}")
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    model = init_model(train.n_users, train.n_items, n_factors, seed)
    U, V = model.U, model.V
    users, items, ratings = train.entry_users(), train.indices, train.ratings
    # one child generator per epoch, spawned as it starts: the ones spawn(epochs) would give
    parent = np.random.default_rng(seed)
    losses = []
    # overflow to inf is tolerated mid-epoch; the epoch-end check converts it
    # into a DivergenceError instead of a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = parent.spawn(1)[0]
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
