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

One private kernel, ``_pair_chain``, does that arithmetic for a whole chain
of one user's pairs, in place, on one contiguous (3, d) block
``(V_j - V_k, U_i, V_j)``: ``U_i`` is copied in for the user's chain and
``V_j`` for each preferred item's pairs, and each is written back after
its last pair. One ddot gives the margin; one multiply makes both step
rows, and one add applies them to ``U_i`` and ``V_j``. No norm is taken per
pair: the chain keeps running upper bounds on the norms of ``U_i`` and of
each sampled item's row, and only a step whose bound nears the cap is taken
again exactly, so the clips are the exact norms' own. An update makes 5
numpy calls, stores its step factor into a 0-d array, and makes no Python
call; a skip makes 2.
``train_ppr`` runs the kernel once per sampled user, on buffers made once
per call, and ``pair_update`` on a one-pair chain, so the single-pair tests
check the trainer's own arithmetic.
The trainer stays a sequential per-pair loop and is bit-reproducible: each
user's pairs chain on its row ``U_i`` and popular items chain users together,
so there is no batch of independent pairs to apply at once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import RatingMatrix
from .errors import DataError, DivergenceError
from .model import FactorModel, check_index, init_model, is_integer, score_entries

STEP_NORM_CAP = 1.0
# the smallest margin a step touches: it keeps -ln(m) and 1/m finite
MIN_MARGIN = 1e-6
# a step norm bound from the start norms is at most about (d + 6) * 2**-53
# below the exact norm, relatively: the exact norm decides from this share below
# the cap (or from (d + 8) * 2**-52, should that be larger), less a share for
# long chains (see _pair_chain)
_NEAR_CAP_SLACK = 1e-9


@dataclass
class TrainConfig:
    """Hyperparameters for the pairwise trainer.

    user_sample_size / item_sample_size cap how many users are visited per
    iteration and how many rated items are sampled per visited user; both
    are clamped to what the data offers. The counts and the seed must be
    integers (Python or numpy, not bool), the counts below 2**63, numpy's
    integer range.
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
            if not (is_integer(value) and 1 <= value < 2**63):
                raise ValueError(f"{name} must be an integer >= 1 and < 2**63, got {value!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


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
    This runs the trainer's own kernel (``_pair_chain``) on a one-pair chain.

    Raises:
        TypeError: if the user or an item is not an integer.
        IndexError: if the user or an item is outside [0, n_users) or
            [0, n_items); both are checked before the model is touched.
        ValueError: if learning_rate is not finite and >= 0. A zero rate
            applies a step that changes nothing.
    """
    check_index(pair.user, model.n_users, "user")
    check_index(pair.preferred, model.n_items, "item")
    check_index(pair.other, model.n_items, "item")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    results = []
    _pair_chain(model.U, model.V, model.V, pair.user, np.array([pair.preferred, pair.other], np.intp),
                [1, 2], learning_rate, [0.0, 0, 0, 0],
                lambda _it, _pair, result: results.append(result), 0,
                _chain_buffers(model.n_factors))
    return results[0]


def _chain_buffers(d: int) -> tuple:
    """The kernel's buffers for d factors, made once per trainer or ``pair_update`` call.

    ``buf`` is one C-contiguous (3, d) block that holds (V_j - V_k, U_i, V_j),
    and ``step`` takes the scaled copy of its first two rows. ``c0`` is a
    0-d array for the steps' factor, which numpy takes without converting a
    Python float on each call. ``near_cap`` is the step norm bound at which
    the exact norm takes over, and ``drift`` the share by which one update
    may leave a row's norm above its running bound (see ``_pair_chain``).
    """
    buf = np.empty((3, d))
    near_cap = STEP_NORM_CAP * (1 - max(_NEAR_CAP_SLACK, (d + 8) * 2.0**-52))
    return buf, np.empty_like(buf[:2]), np.empty(()), near_cap, (d + 16) * 2.0**-53


def _pair_chain(U: np.ndarray, V: np.ndarray, rows, user: int, chain: np.ndarray,
                cuts: list[int], learning_rate: float, tally: list, on_pair, it: int,
                buffers: tuple) -> None:
    """The pair step over (items[a], items[b]) for each a, b >= cuts[a], in place: the one kernel.

    ``chain`` holds the items, an integer array. From ``train_ppr`` they fall in rating and
    cuts[a] is the first position rated below a's, so these are the strictly ordered pairs, in
    the nested (a, b) order. Cuts never decrease, so the chain ends at the first position whose
    cut is past the last item.

    The kernel works on one (3, d) block ``buf = (dv, u, vj)``. U's row
    ``user`` is copied into row 1 before the first pair and written back
    after the last; item j's row of V (``rows[j]``, a view) is copied into
    row 2 before position a's first pair and written back after its last.
    ``rows[k]`` is written through. Per pair, row 0 takes dv = V_j - V_k,
    and one ddot gives the margin u.dv, with u first as in ``u @ dv``. One
    multiply of the block's first two rows by coef = lr / margin gives both
    step rows, ``du = coef * dv`` and ``dvj = coef * u``, and one add of
    them to the last two rows moves u and vj together. An update makes 5
    numpy calls and one store of coef into the 0-d array ``c0``, a skip 2,
    and no Python call is made per pair. The margin stays a numpy ddot: a
    Python-float sum rounds differently, and the trainer is chaotic enough
    that one rounding change moves the trained factors.

    The clip test takes no norm per pair. The chain keeps a running bound
    on the norm of U_i and of each sampled item's row, started by one
    vectorised norm of the sampled rows and one of U_i. The step norms are
    then at most coef * (b_j + b_k) for du and coef * b_u for dvj, and a
    step whose two bounds are below the chain's ``limit`` cannot reach the
    cap. After the step, b_u grows by the first bound and b_j and b_k by
    the second, since a row's norm grows by at most its step's. Only when a
    bound is at or above ``limit``, or NaN, does the chain take the exact
    ``np.vecdot`` of the step, clip on it as the reference does, and grow
    the bounds by the clipped norms. So the clip decisions are the exact
    norms' own, provided the bounds are upper bounds, which they are in
    these cases:

    - Rounding. A start norm, each product and sum of bounds, the step
      rows and the row updates round by a few units of 2**-53 each.
      ``near_cap`` sits ``_NEAR_CAP_SLACK`` (or (d + 8) * 2**-52, should
      that be larger) below the cap. That covers a start norm's rounding,
      about (d/2 + 1) * 2**-53, plus the gap between a bound product and
      the norm the reference takes of the step, about (d/2 + 5) * 2**-53,
      relatively.
    - Long chains. Each update, on either path, may raise the ratio of a
      row's norm to its bound by a factor of up to 1 + ``drift``, with
      drift = (d + 16) * 2**-53. A chain of n items has at most
      P = n(n - 1)/2 pairs, so no bound has grown more than P - 1 times
      when a pair tests it, and ``limit`` is ``near_cap`` times
      (1 - drift)**(P - 1): the same as inflating every bound update by
      ``drift``. For 32 items at 8 factors that is about 1e-12 below
      ``near_cap``; for a 20,000-item sample, 5e-7.
    - Underflow. A square below the normal range is off by up to 2**-1075,
      so a start norm may miss up to sqrt(d) * 2**-537 outright: 0 for a
      row whose squares all underflow (step products below the normal
      range add far less). That miss matters against the slack only for a
      row shorter than about 1e-152 * sqrt(d), and such a row's step
      reaches the cap only beside a long other row. The margin is above
      ``MIN_MARGIN`` and at most the product of the two norms, so the
      other row is longer than about 1e146 / sqrt(d), and a coef that makes
      the short row's step reach the cap puts the long row's bound product
      far past ``limit``: the pair takes the exact path, as it did on the
      same argument when these norms came from Gram entries.
    - Infinity and NaN. An infinite or NaN bound, product or coef fails the
      ``<`` test, so the pair takes the exact path, and a non-finite bound
      stays non-finite. A row that is not finite makes the margin +-inf or
      NaN: -inf and NaN skip, as neither exceeds ``MIN_MARGIN``, and +inf
      makes coef 0, whose steps the exact path would not clip either (their
      norms are 0 or NaN).

    tally is [loss_sum, updates, skips, clips]; the chain continues it in
    pair order and stores it back, so sums over many users round as one
    running sum. on_pair, unless None, is called as
    ``on_pair(it, PairSample, PairUpdateResult)`` after each pair.
    """
    buf, step, c0, near_cap, drift = buffers
    dv, u, vj = buf
    head, tail = buf[:2], buf[1:]
    du, dvj = step
    # bound once: a module attribute looked up per call costs about a tenth of the update
    add, subtract, multiply, vecdot, sqrt, log, dot = (np.add, np.subtract, np.multiply,
                                                       np.vecdot, math.sqrt, math.log, u.dot)
    cap = STEP_NORM_CAP
    items = chain.tolist()
    end = len(items)
    # a bound has grown at most once per earlier pair when it is tested
    limit = near_cap * (1 - drift) ** (end * (end - 1) // 2 - 1)
    u[...] = U[user]
    starts = V[chain]
    bounds = np.sqrt(vecdot(starts, starts)).tolist()
    bu = sqrt(dot(u))
    loss_sum, n_updates, n_skips, n_clips = tally
    for a, (j, cut) in enumerate(zip(items, cuts)):
        if cut == end:
            break
        vj_row = rows[j]
        # a [...] copy costs about half a [:] one
        vj[...] = vj_row
        bj = bounds[a]
        for b in range(cut, end):
            vk = rows[items[b]]
            subtract(vj, vk, dv)
            # the margin as @ gives it: + 0.0 maps the bare -0.0 product that
            # ndarray.dot gives at one factor to @'s 0.0, and changes nothing else
            margin = float(dot(dv)) + 0.0
            # a NaN margin skips, like one at or below the guard
            if not margin > MIN_MARGIN:
                applied = clipped = False
                n_skips += 1
            else:
                applied = True
                clipped = False
                coef = learning_rate / margin
                c0[()] = coef
                multiply(head, c0, step)
                bk = bounds[b]
                nu = coef * (bj + bk)
                nv = coef * bu
                if not (nu < limit and nv < limit):
                    nu2, nv2 = vecdot(step, step).tolist()
                    nu = sqrt(nu2)
                    if nu > cap:
                        du *= cap / nu
                        nu = cap
                        clipped = True
                    nv = sqrt(nv2)
                    if nv > cap:
                        dvj *= cap / nv
                        nv = cap
                        clipped = True
                # ufunc calls with out=, which skip the in-place operators' keyword path
                add(tail, step, tail)
                subtract(vk, dvj, vk)
                bu += nu
                bj += nv
                bounds[b] = bk + nv
                n_updates += 1
                n_clips += clipped
                loss_sum -= log(margin)
            if on_pair is not None:
                on_pair(it, PairSample(user, j, items[b]),
                        PairUpdateResult(applied, clipped, margin))
        vj_row[...] = vj
        bounds[a] = bj
    U[user] = u
    tally[:] = loss_sum, n_updates, n_skips, n_clips


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
    exceeds the later one. No pair is listed: one ``np.searchsorted`` of the
    sorted sample's negated ratings into themselves gives each position's cut,
    the first position rated strictly below it, and each sampled user's pairs
    run as one chain of the kernel ``pair_update`` also runs (``_pair_chain``),
    on the user's row and each preferred item's row copied into a (3, d)
    block, with running bounds on the rows' norms in place of a norm per
    pair; the buffers and the views of V's rows are made once per call.
    Identical (train, config) inputs give bit-identical results.

    Cost: on the tier-1 test corpus (1 x 512 users, 129,026 updates and
    46,902 skips) training takes about 1.9 us per visited pair on a 2-vCPU
    Xeon host, against 2.3 us with one Gram ``np.vecdot`` per pair for the
    margin and both squared row norms (best of 8 runs each).
    The exact step norm is taken for 789 of those updates, 281 of which
    clip.

    Args:
        train: training ratings; some user must have rated two items
            differently.
        config: hyperparameters; the model is initialized once from
            ``config.seed`` before the iteration loop.
        on_pair: optional instrumentation hook called as
            ``on_pair(iteration, pair, result)`` for every admissible pair
            visited, right after its step, in visiting order. V is current
            when it is called, except for the pair's preferred item: its row
            is written back after that item's last pair, as the user's row
            of U is after the user's last pair. ``PairSample``/
            ``PairUpdateResult`` objects are built only when it is given.

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
    # one child generator per iteration, spawned as it starts: the ones spawn(max_iters) would give
    parent = np.random.default_rng(config.seed)
    n_user_sample = min(config.user_sample_size, train.n_users)
    U, V = model.U, model.V
    rows = list(V)  # item rows as views, taken once, not one V[j] per pair
    learning_rate = config.learning_rate
    buffers = _chain_buffers(config.n_factors)

    for it in range(config.max_iters):
        rng = parent.spawn(1)[0]
        users = rng.choice(train.n_users, size=n_user_sample, replace=False)
        tally = [0.0, 0, 0, 0]
        for user in users.tolist():
            items, item_ratings = train.row(user)
            if len(items) < 2:
                continue
            take = min(config.item_sample_size, len(items))
            pick = rng.choice(len(items), size=take, replace=False)
            sampled = items[pick]
            ratings = item_ratings[pick]
            order = np.lexsort((sampled, -ratings))
            falling = -ratings[order]
            _pair_chain(U, V, rows, user, sampled[order],
                        np.searchsorted(falling, falling, side="right").tolist(), learning_rate,
                        tally, on_pair, it, buffers)
        loss_sum, n_updates, n_skips, n_clips = tally
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
    and 0.5 on a score tie; a pair with a NaN score counts 0. The test entries
    are scored by one walk (:func:`~paretorank.model.score_entries`), each
    user's pairs are counted by :func:`_pair_counts`, and the users' shares
    are summed in user order.
    """
    pairs, concordant, tied = _pair_counts(test, score_entries(scorer, test))
    num = 0.0
    for c, t in zip(concordant.tolist(), tied.tolist()):
        num += c + 0.5 * t
    den = int(pairs.sum())
    if den == 0:
        raise DataError("no admissible preference pairs in the test matrix")
    return num / den


def _pair_counts(test: RatingMatrix, scores: np.ndarray) -> np.ndarray:
    """Each user's pair, concordant and tied counts: a (3, n_users) int array, in linear memory.

    A user's pairs are the entry pairs (a, b) with r_a > r_b; a pair is
    concordant when the scores are s_a > s_b and tied when s_a == s_b, so a
    pair with a NaN score is neither. Each entry is keyed by its user and
    its score's rank as one sortable integer (NaN ranks last). Per rating
    level, for all users at once, the level's keys are searched among the
    sorted keys of the entries rated below it: the span of the entry's user
    there counts its pairs, ``left`` less the span's start the lower scores,
    and ``right - left`` the equal ones.
    """
    user = test.entry_users()
    _, level = np.unique(test.ratings, return_inverse=True)
    _, rank = np.unique(scores, return_inverse=True)
    n_ranks = int(rank.max(initial=0)) + 1
    key = user * n_ranks + rank
    counts = np.zeros((3, test.n_entries), dtype=np.int64)
    for lv in range(1, int(level.max(initial=0)) + 1):
        at = np.flatnonzero(level == lv)
        pool = np.sort(key[level < lv])
        start, end = (np.searchsorted(pool, (user[at] + d) * n_ranks) for d in (0, 1))
        left, right = (np.searchsorted(pool, key[at], side) for side in ("left", "right"))
        counts[:, at] = end - start, left - start, right - left
    counts[1:, np.isnan(scores)] = 0
    # running sums from a leading 0: each user's counts are one difference
    total = np.zeros((3, test.n_entries + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=total[:, 1:])
    return total[:, test.indptr[1:]] - total[:, test.indptr[:-1]]
