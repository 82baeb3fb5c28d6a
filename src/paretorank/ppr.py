"""Pareto pairwise ranking: the pairwise log-margin objective and its SGD trainer.

Training treats within-user rating pairs as preference evidence. For a user i
and items j, k with R[i,j] > R[i,k], the model margin is

    m = U_i . V_j - U_i . V_k

and the pair contributes -ln(m) to the loss. Only strictly-ordered pairs are
ever visited; pairs whose current margin is at or below the fixed guard
MIN_MARGIN are skipped because the log is undefined there and its gradient
blows up near zero.

Each SGD step descends the exact gradient of the pair's log-margin loss,
using a snapshot of the three rows so the updates are simultaneous:

    U_i += lr * (V_j - V_k) / m
    V_j += lr * U_i_old / m
    V_k -= lr * U_i_old / m

One private kernel, ``_step``, does that arithmetic on three row views in
place; ``train_ppr`` calls it for every pair and ``pair_update`` wraps it, so
the single-pair tests check the trainer's own arithmetic. The trainer stays a
sequential per-pair loop and is bit-reproducible: each user's pairs chain on
its row ``U_i`` and popular items chain users together, so there is no batch
of independent pairs to apply at once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import RatingMatrix
from .errors import DataError, DivergenceError
from .model import FactorModel, init_model, score_entries

STEP_NORM_CAP = 1.0
# the smallest margin a step touches: it keeps -ln(m) and 1/m finite
MIN_MARGIN = 1e-6


@dataclass
class TrainConfig:
    """Hyperparameters for the pairwise trainer.

    user_sample_size / item_sample_size cap how many users are visited per
    iteration and how many rated items are sampled per visited user; both
    are clamped to what the data offers. The counts must be below 2**63,
    numpy's integer range.
    """

    learning_rate: float = 0.01
    n_factors: int = 8
    max_iters: int = 60
    user_sample_size: int = 512
    item_sample_size: int = 32
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("n_factors", "max_iters", "user_sample_size", "item_sample_size"):
            value = getattr(self, name)
            if not 1 <= value < 2**63:
                raise ValueError(f"{name} must be >= 1 and < 2**63, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PairSample:
    """A preference pair: user rated `preferred` strictly above `other`."""

    user: int
    preferred: int
    other: int


@dataclass
class PairUpdateResult:
    applied: bool
    clipped: bool
    margin: float


@dataclass
class TrainStats:
    """Per-iteration training counters.

    mean_loss averages the pre-update pair loss over the pairs actually
    updated that iteration (NaN when none were); skipped pairs have no
    well-defined loss. updates + skips equals the admissible pairs visited.
    """

    mean_loss: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)
    skips: list[int] = field(default_factory=list)
    clips: list[int] = field(default_factory=list)


def pair_update(model: FactorModel, pair: PairSample, learning_rate: float) -> PairUpdateResult:
    """One SGD step on a preference pair, in place.

    The margin is taken from a snapshot of the current rows; if it does not
    exceed MIN_MARGIN the model is left untouched and a skip is reported.
    Each row delta is norm-clipped at STEP_NORM_CAP so a barely-admissible
    margin cannot blow the step up; a clipped step is flagged in the result.
    This is the trainer's own step (``_step``) on one pair.
    """
    margin, applied, clipped = _step(
        model.U[pair.user], model.V[pair.preferred], model.V[pair.other], learning_rate)
    return PairUpdateResult(applied=applied, clipped=clipped, margin=margin)


def _step(u: np.ndarray, vj: np.ndarray, vk: np.ndarray,
          learning_rate: float) -> tuple[float, bool, bool]:
    """The pair step on row views u = U_i, vj = V_j, vk = V_k, in place.

    Returns (margin, applied, clipped).
    The dots stay in numpy (``ndarray.dot``, the same BLAS ddot as ``@``):
    a Python-float sum rounds differently, and the trainer is chaotic
    enough that one rounding change moves the trained factors.
    """
    dv = vj - vk
    # with one factor, ndarray.dot returns the bare product, where @ adds it
    # to 0.0: the + 0.0 turns its -0.0 into @'s 0.0 and changes nothing else
    margin = float(u.dot(dv)) + 0.0
    if margin <= MIN_MARGIN:
        return margin, False, False
    coef = learning_rate / margin
    du = coef * dv
    dvj = coef * u  # copy of the pre-update user row, scaled
    clipped = False
    nu = math.sqrt(du.dot(du))
    if nu > STEP_NORM_CAP:
        du *= STEP_NORM_CAP / nu
        clipped = True
    nv = math.sqrt(dvj.dot(dvj))
    if nv > STEP_NORM_CAP:
        dvj *= STEP_NORM_CAP / nv
        clipped = True
    u += du
    vj += dvj
    vk -= dvj
    return margin, True, clipped


# overflow is tolerated mid-iteration; the iteration-end check raises DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def train_ppr(
    train: RatingMatrix,
    config: TrainConfig,
    on_pair=None,
) -> tuple[FactorModel, TrainStats]:
    """Train a factor model with pairwise log-margin SGD.

    Per iteration: sample users without replacement, sample each user's rated
    items without replacement, sort the sample by decreasing rating, and walk
    every ordered position pair, updating where the earlier rating strictly
    exceeds the later one. Each update is one ``_step``, the kernel
    ``pair_update`` also runs. A user's pairs come from one comparison of
    the sorted sample's ratings: they descend, so a pair's preferred position
    always precedes the other, and ``np.nonzero`` lists the pairs row by row,
    the order of the nested position loop. Identical (train, config) inputs
    give bit-identical results.

    Args:
        train: training ratings; some user must have rated two items
            differently.
        config: hyperparameters; the model is initialized once from
            ``config.seed`` before the iteration loop.
        on_pair: optional instrumentation hook called as
            ``on_pair(iteration, pair, result)`` for every admissible pair
            visited, right after its step, in visiting order.
            ``PairSample``/``PairUpdateResult`` objects are built only when
            it is given.

    Returns:
        The trained model and per-iteration TrainStats.

    Raises:
        DataError: if no user rated two items differently, so there is no
            pair to train on (an empty matrix included), checked before the
            model is initialized.
        DivergenceError: if the factors go non-finite during an iteration.
    """
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    # one max and one min per non-empty row: a user with two ratings that differ has a pair
    starts = train.indptr[:-1][np.diff(train.indptr) > 0]
    if not (np.maximum.reduceat(train.ratings, starts)
            > np.minimum.reduceat(train.ratings, starts)).any():
        raise DataError("no user rated two items differently: there is no pair to train on")
    model = init_model(train.n_users, train.n_items, config.n_factors, config.seed)
    stats = TrainStats()
    # one child seed per iteration, spawned as it starts: the ones spawn(max_iters) would give
    seed_seq = np.random.SeedSequence(config.seed)
    n_user_sample = min(config.user_sample_size, train.n_users)
    U, V = model.U, model.V
    learning_rate = config.learning_rate

    for it in range(config.max_iters):
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        users = rng.choice(train.n_users, size=n_user_sample, replace=False)
        loss_sum = 0.0
        n_updates = 0
        n_skips = 0
        n_clips = 0
        for user in users.tolist():
            items, item_ratings = train.row(user)
            if len(items) < 2:
                continue
            take = min(config.item_sample_size, len(items))
            pick = rng.choice(len(items), size=take, replace=False)
            sampled = items[pick]
            ratings = item_ratings[pick]
            order = np.lexsort((sampled, -ratings))
            sampled = sampled[order]
            ratings = ratings[order]
            # ratings descend, so a > b never holds below the diagonal, and
            # nonzero walks the grid row-major: the nested (a, b > a) order
            a, b = np.nonzero(ratings[:, None] > ratings[None, :])
            u = U[user]
            for j, k in zip(sampled[a].tolist(), sampled[b].tolist()):
                margin, applied, clipped = _step(u, V[j], V[k], learning_rate)
                if on_pair is not None:
                    on_pair(it, PairSample(user, j, k), PairUpdateResult(applied, clipped, margin))
                if applied:
                    n_updates += 1
                    n_clips += clipped
                    loss_sum -= math.log(margin)
                else:
                    n_skips += 1
        stats.mean_loss.append(loss_sum / n_updates if n_updates else math.nan)
        stats.updates.append(n_updates)
        stats.skips.append(n_skips)
        stats.clips.append(n_clips)
        if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
            raise DivergenceError(
                f"factors went non-finite at iteration {it + 1}; try a smaller learning rate"
            )
    return model, stats


def pairwise_concordance(scorer, test: RatingMatrix) -> float:
    """Fraction of within-user test preference pairs the scorer orders correctly.

    Over all pairs with R[i,j] > R[i,k], counts 1 when score(i,j) > score(i,k)
    and 0.5 on a score tie. The test entries are scored by one walk
    (:func:`~paretorank.model.score_entries`), and each user's pairs are
    counted on that user's slice of the scores, in user order.
    """
    scores = score_entries(scorer, test)
    num = 0.0
    den = 0
    for lo, hi in zip(test.indptr[:-1].tolist(), test.indptr[1:].tolist()):
        r, s = test.ratings[lo:hi], scores[lo:hi]
        prefer = r[:, None] > r[None, :]
        n_pairs = int(prefer.sum())
        if n_pairs == 0:
            continue
        concordant = (s[:, None] > s[None, :])[prefer].sum()
        tied = (s[:, None] == s[None, :])[prefer].sum()
        num += concordant + 0.5 * tied
        den += n_pairs
    if den == 0:
        raise DataError("no admissible preference pairs in the test matrix")
    return num / den
