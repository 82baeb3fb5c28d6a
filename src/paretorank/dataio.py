"""Ratings ingestion: file parsing, sparse matrix construction, train/test splitting.

Two input formats are supported: the `::`-separated MovieLens ``.dat`` layout
(no header) and generic delimited text with a header row, where a column map
names the user/item/rating columns. All text is treated as UTF-8; both LF and
CRLF line endings are accepted.

Ratings are held as CSR arrays; :class:`RatingMatrix` fixes the entry order
that splits, and so every downstream result, depend on.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, LineParseError


@dataclass
class RatingRecord:
    """One (user, item, rating) observation; ids are opaque strings."""

    user_id: str
    item_id: str
    rating: float
    timestamp: Optional[int] = None


@dataclass
class ParseResult:
    """Parsed records plus the number of rows dropped under the skip policy."""

    records: list[RatingRecord]
    skipped: int = 0


class RatingMatrix:
    """Sparse user x item rating store in compressed sparse row (CSR) form.

    Raw string ids are remapped to dense 0-based indices in first-appearance
    order. Entry ``n`` holds item ``indices[n]`` rated ``ratings[n]``; user
    ``u``'s entries are the contiguous slice ``indptr[u]:indptr[u + 1]``.
    Entries are user-major and, within a user, in the order each item first
    appeared for that user; train/test splits draw one number per entry in
    this order. Instances are treated as immutable after construction and
    are safe for concurrent reads.
    """

    def __init__(self, user_ids, item_ids, indptr, indices, ratings, r_min, r_max):
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.user_to_index = {u: idx for idx, u in enumerate(user_ids)}
        self.item_to_index = {i: idx for idx, i in enumerate(item_ids)}
        self.indptr = indptr
        self.indices = indices
        self.ratings = ratings
        self.r_min = float(r_min)
        self.r_max = float(r_max)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_entries(self) -> int:
        return len(self.indices)

    def row(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """The user's (items, ratings) as array views in entry order. Treat as read-only."""
        lo, hi = self.indptr[user], self.indptr[user + 1]
        return self.indices[lo:hi], self.ratings[lo:hi]

    def entry_users(self) -> np.ndarray:
        """The user index of every entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_users), np.diff(self.indptr))

    def subset(self, mask: np.ndarray) -> "RatingMatrix":
        """The entries where ``mask`` is true, over the same ids and scale."""
        kept = np.concatenate(([0], np.cumsum(mask)))
        return RatingMatrix(self.user_ids, self.item_ids, kept[self.indptr],
                            self.indices[mask], self.ratings[mask], self.r_min, self.r_max)


@dataclass
class SplitPair:
    """Disjoint train/test matrices covering a source matrix's entries."""

    train: RatingMatrix
    test: RatingMatrix
    seed: int
    test_ratio: float


def _decoded_lines(source) -> Iterator[str]:
    """Iterate text lines from a byte/text stream or an iterable of lines."""
    if hasattr(source, "read"):
        source = iter(source)
    for raw in source:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8-sig")
        yield raw.rstrip("\r\n")


def parse_movielens(source, errors: str = "raise") -> ParseResult:
    """Parse ``UserID::MovieID::Rating::Timestamp`` lines into rating records.

    Args:
        source: byte or text stream (or iterable of lines), no header.
        errors: "raise" fails on the first malformed line; "skip" drops
            malformed lines and counts them in the result.

    Returns:
        ParseResult with one record per well-formed line, in file order.
    """
    if errors not in ("raise", "skip"):
        raise ConfigError(f"unknown error policy {errors!r}; use 'raise' or 'skip'")
    records = []
    skipped = 0
    for line_no, line in enumerate(_decoded_lines(source), start=1):
        try:
            records.append(_parse_movielens_line(line_no, line))
        except LineParseError:
            if errors == "raise":
                raise
            skipped += 1
    return ParseResult(records, skipped)


def _parse_movielens_line(line_no: int, line: str) -> RatingRecord:
    parts = line.split("::")
    if len(parts) != 4:
        raise LineParseError(line_no, line, f"expected 4 '::'-separated fields, got {len(parts)}")
    user_id, item_id, rating_s, ts_s = parts
    if not user_id or not item_id:
        raise LineParseError(line_no, line, "empty user or item id")
    try:
        rating = float(rating_s)
        timestamp = int(ts_s)
    except ValueError as exc:
        raise LineParseError(line_no, line, str(exc)) from None
    if not math.isfinite(rating):
        raise LineParseError(line_no, line, f"non-finite rating {rating_s!r}")
    return RatingRecord(user_id, item_id, rating, timestamp)


def parse_csv(
    source,
    columns: tuple[str, str, str] = ("userID", "itemID", "rating"),
    delimiter: str = ",",
    errors: str = "raise",
) -> ParseResult:
    """Parse delimited text with a header row into rating records.

    Only the three mapped columns (user, item, rating) are consumed; any
    extra columns are ignored. A column map naming an absent header is a
    configuration error; a bad row is a data error subject to the same
    raise/skip policy as :func:`parse_movielens`.
    """
    if errors not in ("raise", "skip"):
        raise ConfigError(f"unknown error policy {errors!r}; use 'raise' or 'skip'")
    lines = _decoded_lines(source)
    try:
        header_line = next(lines)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    header = header_line.split(delimiter)
    try:
        u_col, i_col, r_col = (header.index(name) for name in columns)
    except ValueError:
        missing = [name for name in columns if name not in header]
        raise ConfigError(f"column(s) {missing} not found in header {header}") from None

    records = []
    skipped = 0
    width = max(u_col, i_col, r_col)
    for line_no, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split(delimiter)
        try:
            if len(cells) <= width:
                raise LineParseError(line_no, line, f"expected at least {width + 1} fields, got {len(cells)}")
            user_id, item_id, rating_s = cells[u_col], cells[i_col], cells[r_col]
            if not user_id or not item_id:
                raise LineParseError(line_no, line, "empty user or item id")
            try:
                rating = float(rating_s)
            except ValueError:
                raise LineParseError(line_no, line, f"non-numeric rating {rating_s!r}") from None
            if not math.isfinite(rating):
                raise LineParseError(line_no, line, f"non-finite rating {rating_s!r}")
        except LineParseError:
            if errors == "raise":
                raise
            skipped += 1
            continue
        records.append(RatingRecord(user_id, item_id, rating))
    return ParseResult(records, skipped)


def build_matrix(
    records: Sequence[RatingRecord],
    scale: Optional[tuple[float, float]] = None,
) -> RatingMatrix:
    """Build a RatingMatrix from records.

    Indices are assigned in first-appearance order. A duplicate (user, item)
    pair keeps the position of its first record and the rating of its last.
    With no declared scale the observed (min, max) is used; with a declared
    scale any rating outside it is an error naming the first such record.
    """
    if not records:
        raise DataError("cannot build a rating matrix from zero records")
    n = len(records)
    ratings = np.fromiter((rec.rating for rec in records), dtype=float, count=n)
    valid = np.isfinite(ratings)
    if scale is not None:
        valid &= (scale[0] <= ratings) & (ratings <= scale[1])
    if not valid.all():
        rec = records[int(np.argmin(valid))]
        if not math.isfinite(rec.rating):
            raise DataError(f"non-finite rating for user {rec.user_id!r}, item {rec.item_id!r}")
        raise DataError(
            f"rating {rec.rating} outside declared scale [{scale[0]}, {scale[1]}] "
            f"(user {rec.user_id!r}, item {rec.item_id!r})"
        )
    u_index: dict[str, int] = {}
    i_index: dict[str, int] = {}
    users = np.fromiter((u_index.setdefault(rec.user_id, len(u_index)) for rec in records),
                        dtype=np.int64, count=n)
    items = np.fromiter((i_index.setdefault(rec.item_id, len(i_index)) for rec in records),
                        dtype=np.int64, count=n)
    # one entry per distinct (user, item): the first record fixes its position, the last its rating
    key = users * len(i_index) + items
    first = np.unique(key, return_index=True)[1]
    last = n - 1 - np.unique(key[::-1], return_index=True)[1]
    entry_users = users[first]
    order = np.lexsort((first, entry_users))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_users, minlength=len(u_index)))))
    r_min, r_max = scale if scale is not None else (ratings.min(), ratings.max())
    return RatingMatrix(list(u_index), list(i_index), indptr, items[first][order],
                        ratings[last][order], r_min, r_max)


def split(matrix: RatingMatrix, test_ratio: float, seed: int) -> SplitPair:
    """Split entries uniformly at random into train/test, driven only by seed.

    One uniform draw is taken per entry in entry order, and the entry lands
    in test when its draw is below ``test_ratio``. Train and test share the
    source matrix's full index space, so users or items whose every entry
    went to test keep their (empty) rows in train.
    """
    if not 0.0 <= test_ratio <= 1.0:
        raise ValueError(f"test_ratio must be in [0, 1], got {test_ratio}")
    test = np.random.default_rng(seed).random(matrix.n_entries) < test_ratio
    return SplitPair(
        train=matrix.subset(~test),
        test=matrix.subset(test),
        seed=seed,
        test_ratio=test_ratio,
    )
