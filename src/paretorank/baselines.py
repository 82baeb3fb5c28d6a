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
from .model import FactorModel, check_user, init_model


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hashmix constants A and B, mix multipliers L and R
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# users whose seed words are hashed in one array pass; a power of two, so an
# aligned chunk never straddles 2**32 and its users all have as many words
_SEED_CHUNK = 4096


def _words32(n: int) -> list[int]:
    """n's 32-bit words, least significant first; [0] for 0, as SeedSequence splits ints."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words, and the hash constant it moves on to."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next
    return value ^ (value >> _XSHIFT), const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of many keys at once.

    ``entropy[j]`` holds word j of every key (all keys have as many words);
    row r of the result is key r's four state words. uint32 arrays wrap as
    the C hash does.
    """
    n = entropy[0].shape[0]
    const = _INIT_A
    pool = []
    for j in range(_POOL):
        word = entropy[j] if j < len(entropy) else np.zeros(n, dtype=np.uint32)
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    const = _INIT_B
    out = []
    for j in range(2 * _POOL):
        hashed, const = _hashmix(pool[j % _POOL], const, _MULT_B)
        out.append(hashed.astype(np.uint64))
    # uint64 word k is uint32 words 2k (low) and 2k + 1 (high)
    return np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(_POOL)], axis=1)


class RandomScorer:
    """Seeded uniform-random scores, reproducible without an n x m matrix.

    ``score_row(user)`` is ``np.random.default_rng((seed, user)).random(n_items)``
    bit for bit: the first n_items doubles of a PCG64 generator seeded by
    ``SeedSequence((seed, user))``, so every (seed, user, item) triple pins
    down one value. No generator is built per row. The seed words of an
    aligned chunk of 4,096 users are hashed in one numpy pass, and one
    reused PCG64 is set to each user's state as PCG64's seeding derives it:
    with ``w = SeedSequence((seed, user)).generate_state(4, np.uint64)``,
    ``inc = (w[2] << 64 | w[3]) << 1 | 1`` and
    ``state = (inc + (w[0] << 64 | w[1])) * M + inc`` modulo 2**128, M
    being PCG64's multiplier. Only the latest chunk is kept, so memory does
    not grow with n_users, and a walk in ascending user order hashes each
    chunk once. An instance holds generator state: it is not for
    concurrent use.

    Raises:
        ValueError: if seed is not an integer >= 0 (bools are not seeds).
    """

    def __init__(self, n_users: int, n_items: int, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"random seed must be an integer >= 0, got {seed!r}")
        self.n_users = n_users
        self.n_items = n_items
        self.seed = int(seed)
        self._seed_key = _words32(self.seed)
        self._bitgen = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bitgen)
        self._chunk = None
        self._words = None

    def _chunk_words(self, chunk: int) -> np.ndarray:
        """The PCG64 seed words of the users in [chunk * 4096, (chunk + 1) * 4096) below n_users."""
        base = chunk * _SEED_CHUNK
        n = min(_SEED_CHUNK, self.n_users - base)
        key = [np.full(n, w, dtype=np.uint32) for w in self._seed_key]
        # the user's words: the low one varies over the chunk, the rest do not
        key.append((base & _MASK32) + np.arange(n, dtype=np.uint32))
        if base >> 32:
            key += [np.full(n, w, dtype=np.uint32) for w in _words32(base >> 32)]
        return _seed_words(key)

    def score_row(self, user: int) -> np.ndarray:
        check_user(user, self.n_users)
        chunk = user // _SEED_CHUNK
        if chunk != self._chunk:
            self._words = self._chunk_words(chunk)
            self._chunk = chunk
        w0, w1, w2, w3 = self._words[user - chunk * _SEED_CHUNK].tolist()
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        return self._rng.random(self.n_items)


class ZipfScorer:
    """Popularity-rank scores 1/rank, identical for every user.

    Every call returns the same read-only row.
    """

    def __init__(self, popularity: PopularityTable, n_users: int):
        self.popularity = popularity
        self.n_users = n_users
        self.n_items = popularity.ranks.shape[0]
        self._row = 1.0 / popularity.ranks
        self._row.flags.writeable = False

    def score_row(self, user: int) -> np.ndarray:
        check_user(user, self.n_users)
        return self._row


_LEVEL_CHUNK = 8192


def check_mf_hyperparameters(n_factors: int, learning_rate: float, reg: float,
                             epochs: int) -> None:
    """Raise ValueError unless the MF hyperparameters can be trained with.

    n_factors and epochs must be >= 1 and below 2**63, numpy's integer
    range; learning_rate and reg must be finite and >= 0. A zero learning
    rate is allowed and leaves the model at its init.
    """
    for name, value in (("n_factors", n_factors), ("epochs", epochs)):
        if not 1 <= value < 2**63:
            raise ValueError(f"MF {name} must be >= 1 and < 2**63, got {value}")
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
        ValueError: if n_factors or epochs is < 1 or >= 2**63, or learning_rate or reg is
            negative or not finite. A zero learning rate leaves the model at its init.
        DivergenceError: if factors or the objective go non-finite.
    """
    check_mf_hyperparameters(n_factors, learning_rate, reg, epochs)
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    model = init_model(train.n_users, train.n_items, n_factors, seed)
    U, V = model.U, model.V
    users, items, ratings = train.entry_users(), train.indices, train.ratings
    # one child seed per epoch, spawned as it starts: the ones spawn(epochs) would give
    seed_seq = np.random.SeedSequence(seed)
    losses = []
    # overflow to inf is tolerated mid-epoch; the epoch-end check converts it
    # into a DivergenceError instead of a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = np.random.default_rng(seed_seq.spawn(1)[0])
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
