"""Latent factor model: scoring, rating-scale mapping, top-K recommendation.

Every algorithm in the package is a ``Scorer``: ``n_users``, ``n_items`` and
one scoring method, ``score_rows(start, out)``, which fills a block of rows
for a run of consecutive users; ``score_row(user)`` is its one-user run.
Evaluation flows through one path regardless of how scores are produced:
the blocked walk over every user behind ``top_k``, ``score_entries`` and
``score_and_select``, which concordance shares. A duck-typed scorer with
only ``score_row`` is walked one call per user.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .dataio import RatingMatrix
from .errors import ConfigError


def check_index(index: int, size: int, what: str, count: int = 1) -> int:
    """Check the run of ``count`` user or item indices (``what`` names which) from
    ``index`` against the ``size`` there are; return ``index`` as a Python int.

    Raises:
        TypeError: if index is not an integer (see ``is_integer``).
        IndexError: naming the run's first index outside [0, size).
    """
    # the type test first: a Python int, as a walk passes it, skips is_integer's call
    if type(index) is not int:
        if not is_integer(index):
            raise TypeError(f"{what} index must be an integer, got {index!r}")
        index = operator.index(index)
    if index < 0 or index + count > size:
        raise IndexError(f"{what} index {index if index < 0 else max(index, size)} "
                         f"out of range [0, {size})")
    return index


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Scorer:
    """The scorer surface: ``n_users``, ``n_items`` and ``score_rows``.

    A subclass defines ``score_rows`` only; ``score_row`` is its one-user
    run, so the two cannot differ.
    """

    n_users: int
    n_items: int

    def score_rows(self, start: int, out: np.ndarray) -> None:
        """Fill ``out[r]`` with user ``start + r``'s scores for every item.

        ``out`` is (users, ``n_items``) with unit-stride rows. A non-integer
        ``start`` (bool included) raises ``TypeError``, and a run that leaves
        [0, ``n_users``) raises ``IndexError`` naming its first user outside.
        """
        raise NotImplementedError

    def score_row(self, user: int) -> np.ndarray:
        """One user's scores for every item, as a fresh array."""
        out = np.empty((1, self.n_items))
        self.score_rows(user, out)
        return out[0]


@dataclass
class FactorModel(Scorer):
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

    def score_rows(self, start: int, out: np.ndarray) -> None:
        """Raw affinities of a run of users for every item: each user's factor
        row dotted with each item's.

        One stacked vector-matrix ``matmul`` over a view of the run's factor
        rows (see ``Scorer.score_rows``).
        """
        start = check_index(start, self.n_users, "user", len(out))
        np.matmul(self.U[start:start + len(out), None, :], self.V.T, out=out[:, None, :])


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

    One scoring pass, in user order, into a block of about 1 MiB of score
    rows (``n_items`` rounded up to a multiple of 16 per row): one
    ``score_rows`` call fills each block with its run of users, or, for a
    scorer with only ``score_row``, one ``score_row`` call per user is
    copied in. ``train`` must be (``scorer.n_users``, ``scorer.n_items``).
    The memory in use beyond the lists is a few blocks whatever
    ``n_users``; a block's lists are slices of one array that holds only
    their items. Each block is screened, not sorted: the rated
    items are masked out and the items are split into ``G`` groups (item
    ``i`` in group ``i mod G``) of 16 items, halved, down to one item,
    while there are fewer than ``2k`` groups. Each row's ``kk``-th largest group
    maximum (``kk = min(k, unrated items)``) bounds its ``kk``-th best
    unrated score from below, because ``kk`` distinct groups each hold an
    unrated item at or above it. One comparison of the block with the
    bounds finds the candidates, the unrated items at or above their row's
    bound: about ``kk`` of them per user, unless many scores tie at the
    bound. One stable argsort of their negated scores, one row per user
    padded with ``+inf``, orders them, and each user keeps the first ``kk``.
    """
    return _walk(scorer, train, k, None)[0]


def score_entries(scorer, matrix: RatingMatrix) -> np.ndarray:
    """Raw scores for every entry of a matrix, in entry order.

    Every user is scored, by the same blocked walk as ``top_k`` (one
    ``score_rows`` call per block, or one ``score_row`` call per user).
    ``matrix`` must be (``scorer.n_users``, ``scorer.n_items``).
    """
    return _walk(scorer, None, 0, matrix)[1]


def score_and_select(scorer, train: RatingMatrix, k: int,
                     entries: RatingMatrix) -> tuple[RecommendationSet, np.ndarray]:
    """``top_k(scorer, train, k)`` and ``score_entries(scorer, entries)`` from one walk.

    Every user is scored once: the block that selects a user's list also
    gives the scores of that user's entries. ``train`` and ``entries`` must
    both be (``scorer.n_users``, ``scorer.n_items``).
    """
    return _walk(scorer, train, k, entries)


def _block_rows(indptr: np.ndarray, start: int, n_rows: int) -> tuple[int, int, np.ndarray]:
    """The entry span [lo, hi) of the run of ``n_rows`` users from ``start``,
    and each entry's row in the run's block."""
    counts = np.diff(indptr[start:start + n_rows + 1])
    return indptr[start], indptr[start + n_rows], np.repeat(np.arange(n_rows), counts)


def _walk(scorer, train: RatingMatrix | None, k: int,
          entries: RatingMatrix | None) -> tuple[RecommendationSet | None, np.ndarray | None]:
    """Score every user once, in order, a block of rows at a time.

    A scorer with ``score_rows`` fills each block's first ``n_items``
    columns with its run of users in one call; any other is called
    ``score_row`` once per user, and the row is copied in. With ``train``,
    selects every user's top-k list (see ``top_k``); with ``entries``,
    gathers the raw score of each entry. Returns (lists or None, entry
    scores or None). No list is longer than the catalogue, so the selection
    takes ``min(k, n_items)`` (a ``k`` past numpy's integer range included)
    and the lists keep ``k``.

    Raises:
        ValueError: if ``k < 1`` with ``train``, or if ``train`` or
            ``entries`` is not (``scorer.n_users``, ``scorer.n_items``): a
            matrix of another shape would index past the block's rows or
            into its padding.
    """
    if train is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_users, n_items = scorer.n_users, scorer.n_items
    for name, matrix in (("train", train), ("entries", entries)):
        if matrix is not None and (matrix.n_users, matrix.n_items) != (n_users, n_items):
            raise ValueError(f"{name} is {matrix.n_users} users x {matrix.n_items} items, "
                             f"the scorer {n_users} x {n_items}")
    score_rows = getattr(scorer, "score_rows", None)
    width = max(1, -(-n_items // _GROUP)) * _GROUP
    # the padding columns stay NaN: never a group's maximum, never selected
    block = np.full((max(1, _BLOCK_BYTES // (8 * width)), width), np.nan)
    items = [] if train is not None else None
    raw = np.empty(entries.n_entries) if entries is not None else None
    for start in range(0, n_users, block.shape[0]):
        rows = block[:min(block.shape[0], n_users - start)]
        # A score that overflows is inf, not a warning; summarize rejects it
        # among the test-entry scores
        with np.errstate(over="ignore", invalid="ignore"):
            if score_rows is not None:
                score_rows(start, rows[:, :n_items])
            else:
                # a copy: score_row may return a shared row that must stay unwritten
                for r in range(rows.shape[0]):
                    rows[r, :n_items] = scorer.score_row(start + r)
        if entries is not None:
            lo, hi, at = _block_rows(entries.indptr, start, rows.shape[0])
            raw[lo:hi] = rows.reshape(-1)[at * width + entries.indices[lo:hi]]
        if train is not None:
            items += _select(rows, start, train, min(k, n_items), n_items)
    recs = RecommendationSet(k=k, items=items) if train is not None else None
    return recs, raw


def _select(rows: np.ndarray, start: int, train: RatingMatrix, k: int,
            n_items: int) -> list[np.ndarray]:
    """Each row's top-k unrated items, by (score descending, item ascending);
    row r holds user ``start + r``'s scores.

    ``rows``, a C-contiguous block, holds the scores in its first
    ``n_items`` columns and NaN after them, up to a multiple of 16. The
    rated items are overwritten with NaN, which ``fmax`` skips and no
    comparison selects, so a rated item is told apart from an unrated
    ``-inf`` one. The candidates come out of one comparison in (row, item)
    order, and one stable argsort of a (rows, most candidates in a row) key
    matrix, no larger than the block, orders each row by score. The lists
    are slices of one gather of the selected items.
    """
    n_rows, width = rows.shape
    # flat indices into the block: 2-D fancy indexing costs several times more
    flat = rows.reshape(-1)
    lo, hi, at = _block_rows(train.indptr, start, n_rows)
    flat[at * width + train.indices[lo:hi]] = np.nan
    kk = np.minimum(k, n_items - np.diff(train.indptr[start:start + n_rows + 1]))
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
    # the candidates, every unrated item at or above its row's bound, as flat
    # block indices in (row, item) order; NaN (rated or padding) passes no
    # comparison. starts[r]:starts[r + 1] is row r's span, at least kk long
    hits = np.flatnonzero(rows >= bound[:, None])
    starts = np.searchsorted(hits, np.arange(n_rows + 1) * width)
    spans = np.diff(starts)
    # row r's negated candidate scores fill its first columns in item order, so
    # the stable sort breaks score ties by item; +inf pads the rest, and a -inf
    # score's equal key stays before the padding, in a lower column
    keys = np.full((n_rows, spans.max()), np.inf)
    keys[np.arange(keys.shape[1]) < spans[:, None]] = -flat[hits]
    order = np.argsort(keys, axis=1, kind="stable")[:, :k] + starts[:-1, None]
    picked = hits[order[np.arange(order.shape[1]) < kk[:, None]]] % width
    ends = np.cumsum(kk).tolist()
    return [picked[e - n:e] for e, n in zip(ends, kk.tolist())]
