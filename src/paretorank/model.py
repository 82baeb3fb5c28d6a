"""Latent factor model: scoring, rating-scale mapping, top-K recommendation.

Every algorithm in the package exposes the same scorer surface — ``n_users``,
``n_items`` and ``score_row(user)`` — so evaluation flows through one path
regardless of how scores are produced: the blocked walk behind ``top_k``,
``score_entries`` and ``score_and_select``, which concordance shares.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import RatingMatrix
from .errors import ConfigError


def check_index(index: int, size: int, what: str) -> None:
    """Check a user or item index (``what`` names which) against the ``size`` there are.

    Raises:
        TypeError: if index is not an integer (see ``is_integer``).
        IndexError: unless 0 <= index < size.
    """
    # the type test first: a Python int, as a walk passes it, skips is_integer's call
    if type(index) is not int and not is_integer(index):
        raise TypeError(f"{what} index must be an integer, got {index!r}")
    if not 0 <= index < size:
        raise IndexError(f"{what} index {index} out of range [0, {size})")


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        check_index(user, self.n_users, "user")
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
    try:
        return FactorModel(U=rng.random((n_users, n_factors)), V=rng.random((n_items, n_factors)))
    except MemoryError:  # a setting, not a fault: the CLI exits 1 naming it
        raise ConfigError(f"n_factors {n_factors} is too large: cannot allocate factor arrays of "
                          f"shape {n_users}x{n_factors} and {n_items}x{n_factors}") from None


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


# A walk scores users into a block of about this many bytes of float64 rows.
_BLOCK_BYTES = 1 << 20
# The top-K screen takes one maximum per group of at most _GROUP items, and
# keeps at least _SPREAD * k groups.
_GROUP = 16
_SPREAD = 2


def top_k(scorer, train: RatingMatrix, k: int) -> RecommendationSet:
    """Per-user k best-scoring items not rated in train.

    Ordering is descending score with ascending item index as the tie-break,
    which makes the output fully deterministic. Users with fewer than k
    unrated items get shorter lists. Scores must not be NaN.

    One scoring pass: ``score_row(u)`` is called once per user, in user
    order, and each row is copied into a block of about 1 MiB of score rows
    (``n_items`` rounded up to a multiple of 16 per row). The memory in use
    beyond the lists, which are arrays of their own, is a few blocks
    whatever ``n_users``. Each block is screened, not sorted: the rated
    items are masked out and the items are split into ``G`` groups (item
    ``i`` in group ``i mod G``) of 16 items, halved, down to one item,
    while there are fewer than ``2k`` groups. Each row's ``kk``-th largest group
    maximum (``kk = min(k, unrated items)``) bounds its ``kk``-th best
    unrated score from below, because ``kk`` distinct groups each hold an
    unrated item at or above it. Only the items of the groups whose maximum
    is at or above the bound are compared with it, and only the unrated
    items at or above it are sorted: about ``kk`` of them per user, unless
    many scores tie at the bound.
    """
    return _walk(scorer, np.arange(scorer.n_users), train, k, None)[0]


def score_entries(scorer, matrix: RatingMatrix) -> np.ndarray:
    """Raw scores for every entry of a matrix, in entry order.

    One ``score_row`` call per user that has entries, made by the same
    blocked walk as ``top_k``.
    """
    return _walk(scorer, np.flatnonzero(np.diff(matrix.indptr)), None, 0, matrix)[1]


def score_and_select(scorer, train: RatingMatrix, k: int,
                     entries: RatingMatrix) -> tuple[RecommendationSet, np.ndarray]:
    """``top_k(scorer, train, k)`` and ``score_entries(scorer, entries)`` from one walk.

    Every user is scored once: the block that selects a user's list also
    gives the scores of that user's entries. ``entries`` must span the
    scorer's users.
    """
    if entries.n_users != scorer.n_users:
        raise ValueError(f"entries cover {entries.n_users} users, the scorer {scorer.n_users}")
    return _walk(scorer, np.arange(scorer.n_users), train, k, entries)


def _block_rows(indptr: np.ndarray, users: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The entry span [lo, hi) of a block's users and each entry's row in the block.

    Users between the block's first and last that are not in it must have
    no entries.
    """
    lo, hi = indptr[users[0]], indptr[users[-1] + 1]
    return lo, hi, np.repeat(np.arange(users.size), indptr[users + 1] - indptr[users])


def _walk(scorer, users: np.ndarray, train: RatingMatrix | None, k: int,
          entries: RatingMatrix | None) -> tuple[RecommendationSet | None, np.ndarray | None]:
    """Score each of ``users`` (ascending) once, a block of rows at a time.

    With ``train``, selects every walked user's top-k list (see ``top_k``);
    with ``entries``, gathers the raw score of each entry, whose user must
    be walked. Returns (lists or None, entry scores or None). No list is
    longer than the catalogue, so the selection takes ``min(k, n_items)``
    (a ``k`` past numpy's integer range included) and the lists keep ``k``.
    """
    if train is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_items = scorer.n_items
    width = max(1, -(-n_items // _GROUP)) * _GROUP
    # the padding columns stay NaN: never a group's maximum, never selected
    block = np.full((max(1, _BLOCK_BYTES // (8 * width)), width), np.nan)
    items = [] if train is not None else None
    raw = np.empty(entries.n_entries) if entries is not None else None
    for start in range(0, users.size, block.shape[0]):
        walked = users[start:start + block.shape[0]]
        rows = block[:walked.size]
        # a copy: score_row may return a shared row that must stay unwritten.
        # A score that overflows is inf, not a warning; summarize rejects it
        # among the test-entry scores
        with np.errstate(over="ignore", invalid="ignore"):
            for r, u in enumerate(walked.tolist()):
                rows[r, :n_items] = scorer.score_row(u)
        if entries is not None:
            lo, hi, at = _block_rows(entries.indptr, walked)
            raw[lo:hi] = rows.reshape(-1)[at * width + entries.indices[lo:hi]]
        if train is not None:
            items += _select(rows, walked, train, min(k, n_items), n_items)
    recs = RecommendationSet(k=k, items=items) if train is not None else None
    return recs, raw


def _select(rows: np.ndarray, users: np.ndarray, train: RatingMatrix, k: int,
            n_items: int) -> list[np.ndarray]:
    """Each row's top-k unrated items, by (score descending, item ascending).

    ``rows``, a C-contiguous block, holds the scores in its first
    ``n_items`` columns and NaN after them, up to a multiple of 16. The
    rated items are overwritten with NaN, which ``fmax`` skips and no
    comparison selects, so a rated item is told apart from an unrated
    ``-inf`` one.
    """
    n_rows, width = rows.shape
    # flat indices into the block: 2-D fancy indexing costs several times more
    flat = rows.reshape(-1)
    lo, hi, at = _block_rows(train.indptr, users)
    flat[at * width + train.indices[lo:hi]] = np.nan
    kk = np.minimum(k, n_items - (train.indptr[users + 1] - train.indptr[users]))
    # groups of the widest size (a power of two, at most 16) that leaves at
    # least _SPREAD * k groups: one item per group when k is that large
    size = _GROUP
    while size > 1 and width // size < _SPREAD * k:
        size //= 2
    # group g holds items g, g + G, g + 2G, ...: the group maxima are one
    # elementwise fmax over the slices of G columns; -inf for a group
    # with no unrated item
    maxima = np.fmax.reduce(rows.reshape(n_rows, size, -1), axis=1, initial=-np.inf)
    n_groups = maxima.shape[1]
    # the kk-th largest group maximum (kk never exceeds the groups); a row
    # with every item rated (kk = 0) has only -inf maxima and no candidate
    bound = np.sort(maxima, axis=1)[np.arange(n_rows), n_groups - np.maximum(kk, 1)]
    # an item at or above its row's bound lifts its group's maximum there too,
    # so only those groups' items are compared; NaN (rated or padding) passes
    # no comparison
    r, g = np.divmod(np.flatnonzero(maxima >= bound[:, None]), n_groups)
    member = g[:, None] + n_groups * np.arange(size)
    score = flat[(r * width)[:, None] + member]
    keep = score >= bound[r][:, None]
    r = np.broadcast_to(r[:, None], keep.shape)[keep]
    cand = member[keep]
    # the group gather leaves a row's candidates out of item order: one integer
    # sort by (row, item) first, so the stable 2-key lexsort breaks score ties
    # by item without a third key
    by_item = np.argsort(r * width + cand)
    r, cand, score = r[by_item], cand[by_item], score[keep][by_item]
    cand = cand[np.lexsort((-score, r))]
    # r still ascends: the lexsort orders within each row
    starts = np.searchsorted(r, np.arange(n_rows))
    # each row's candidates, in order, start with its list: it has at least kk
    return [cand[s:s + n].copy() for s, n in zip(starts.tolist(), kk.tolist())]
