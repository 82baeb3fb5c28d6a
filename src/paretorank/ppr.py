"""Pareto pairwise ranking: power-law pairwise objective and its SGD trainer.

Training treats within-user rating pairs as preference evidence. For a user i
and items j, k with R[i,j] > R[i,k], the model margin is

    m = U_i . V_j - U_i . V_k

and the pair contributes -alpha * ln(m) to the loss, the log of a Pareto
density over the margin. Only strictly-ordered pairs are ever visited; pairs
whose current margin is at or below the guard are skipped because the log is
undefined there and its gradient blows up near zero.

Each SGD step descends the exact gradient of the pair's log-margin loss,
using a snapshot of the three rows so the updates are simultaneous:

    U_i += lr * alpha * (V_j - V_k) / m
    V_j += lr * alpha * U_i_old / m
    V_k -= lr * alpha * U_i_old / m
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import RatingMatrix
from .errors import DataError, DivergenceError
from .model import FactorModel, init_model

STEP_NORM_CAP = 1.0


@dataclass
class TrainConfig:
    """Hyperparameters for the pairwise trainer.

    alpha is the power-law exponent (held constant, never learned).
    user_sample_size / item_sample_size cap how many users are visited per
    iteration and how many rated items are sampled per visited user; both
    are clamped to what the data offers. min_margin is the smallest margin
    an update will touch.
    """

    alpha: float = 1.0
    learning_rate: float = 0.01
    n_factors: int = 8
    max_iters: int = 60
    user_sample_size: int = 512
    item_sample_size: int = 32
    min_margin: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        for name in ("alpha", "learning_rate", "min_margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.n_factors < 1:
            raise ValueError(f"n_factors must be >= 1, got {self.n_factors}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.user_sample_size < 1 or self.item_sample_size < 1:
            raise ValueError("sample sizes must be >= 1")
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


def pair_loss(model: FactorModel, pair: PairSample, alpha: float) -> float:
    """Log-margin loss -alpha * ln(margin) for one preference pair."""
    margin = float(model.U[pair.user] @ (model.V[pair.preferred] - model.V[pair.other]))
    if margin <= 0.0:
        raise ValueError(f"margin {margin} is not positive; log-margin loss undefined")
    return -alpha * math.log(margin)


def pair_update(
    model: FactorModel,
    pair: PairSample,
    learning_rate: float,
    alpha: float,
    min_margin: float,
) -> PairUpdateResult:
    """One SGD step on a preference pair, in place.

    The margin is taken from a snapshot of the current rows; if it does not
    exceed min_margin the model is left untouched and a skip is reported.
    Each row delta is norm-clipped at STEP_NORM_CAP so a barely-admissible
    margin cannot blow the step up; a clipped step is flagged in the result.
    """
    U = model.U
    V = model.V
    u = U[pair.user]
    vj = V[pair.preferred]
    vk = V[pair.other]
    dv = vj - vk
    margin = float(u @ dv)
    if margin <= min_margin:
        return PairUpdateResult(applied=False, clipped=False, margin=margin)
    coef = learning_rate * alpha / margin
    du = coef * dv
    dvj = coef * u  # copy of the pre-update user row, scaled
    clipped = False
    nu = math.sqrt(float(du @ du))
    if nu > STEP_NORM_CAP:
        du *= STEP_NORM_CAP / nu
        clipped = True
    nv = math.sqrt(float(dvj @ dvj))
    if nv > STEP_NORM_CAP:
        dvj *= STEP_NORM_CAP / nv
        clipped = True
    u += du
    vj += dvj
    vk -= dvj
    return PairUpdateResult(applied=True, clipped=clipped, margin=margin)


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
    exceeds the later one. Identical (train, config) inputs give bit-identical
    results.

    Args:
        train: training ratings; must be non-empty.
        config: hyperparameters; the model is initialized once from
            ``config.seed`` before the iteration loop.
        on_pair: optional instrumentation hook called as
            ``on_pair(iteration, pair, result)`` for every admissible pair
            visited.

    Returns:
        The trained model and per-iteration TrainStats.

    Raises:
        DivergenceError: if the factors go non-finite during an iteration.
    """
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    model = init_model(train.n_users, train.n_items, config.n_factors, config.seed)
    stats = TrainStats()
    iter_seeds = np.random.SeedSequence(config.seed).spawn(config.max_iters)
    n_user_sample = min(config.user_sample_size, train.n_users)

    for it in range(config.max_iters):
        rng = np.random.default_rng(iter_seeds[it])
        users = rng.choice(train.n_users, size=n_user_sample, replace=False)
        loss_sum = 0.0
        n_updates = 0
        n_skips = 0
        n_clips = 0
        for user in users:
            user = int(user)
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
            for a in range(take - 1):
                r_a = ratings[a]
                j = int(sampled[a])
                for b in range(a + 1, take):
                    if r_a <= ratings[b]:
                        continue
                    pair = PairSample(user, j, int(sampled[b]))
                    result = pair_update(
                        model, pair, config.learning_rate, config.alpha, config.min_margin
                    )
                    if on_pair is not None:
                        on_pair(it, pair, result)
                    if result.applied:
                        n_updates += 1
                        n_clips += result.clipped
                        loss_sum += -config.alpha * math.log(result.margin)
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
    and 0.5 on a score tie.
    """
    num = 0.0
    den = 0
    for u in range(test.n_users):
        items, r = test.row(u)
        if len(items) < 2:
            continue
        s = scorer.score_row(u)[items]
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
