"""Ratings ingestion: file parsing, sparse matrix construction, train/test splitting.

Two input formats are supported: the `::`-separated MovieLens ``.dat`` layout
(no header) and generic delimited text with a header row, where a column map
names the user/item/rating columns. All text is treated as UTF-8; both LF and
CRLF line endings are accepted, and a line that is not valid UTF-8 is a
malformed line like any other.

Parsers read a binary stream (a file opened with ``"rb"``) and return
:class:`RatingColumns`, the ids and ratings of the well-formed lines as
parallel columns; :class:`RatingColumns` is the only form a rating takes
between a file and a matrix. The stream is read in blocks of whole lines; a
block is split into fields by a few whole-block string operations and its
numbers are converted a column at a time. Only the lines those column checks
reject are passed one by one to the line validator, which alone defines a
well-formed line and names the line and the reason in its error. A MovieLens
timestamp is checked (an integer that fits in 64 bits) but not kept.

:func:`build_matrix` takes columns and returns a :class:`RatingMatrix`,
whose CSR arrays fix the entry order that splits, and so every downstream
result, depend on.
"""

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DataError, LineParseError

_BLOCK_BYTES = 1 << 20  # a byte stream is parsed in blocks of whole lines of about this size
_INT64 = (-(2**63), 2**63)


@dataclass(eq=False)
class RatingColumns:
    """Rating observations as parallel columns, in file order.

    Observation ``n`` is user ``user_ids[n]`` rating item ``item_ids[n]``
    with ``ratings[n]``; ids are opaque strings and ``ratings`` is a float64
    array.
    """

    user_ids: list[str]
    item_ids: list[str]
    ratings: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)


@dataclass
class ParseResult:
    """Columns of the well-formed lines plus the number of lines dropped under the skip policy."""

    records: RatingColumns
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


# -- reading lines ---------------------------------------------------------------


def _line_blocks(fp) -> Iterator[tuple[int, list[str], dict[int, LineParseError]]]:
    """The stream's lines in blocks: (1-based number of the first line, lines, framing errors).

    ``fp`` is a binary stream, read in blocks of whole lines of about
    ``_BLOCK_BYTES``. Line ends are stripped, and each line loses one leading
    byte order mark. A line that is not valid UTF-8 is a framing error keyed
    by its index in the block; its place in ``lines`` holds "".
    """
    read = getattr(fp, "read", None)
    if read is None or not isinstance(read(0), bytes):
        raise TypeError(f'parsers read a binary stream, got {type(fp).__name__}; '
                        'open the file with "rb"')
    line_no, rest = 1, b""
    while True:
        chunk = fp.read(_BLOCK_BYTES)
        data = rest + chunk
        # at the end of the stream what is left is the last line, with no line break
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        data, rest = data[:cut], data[cut:]
        if data:
            lines, framing = _split_lines(data, line_no)
            yield line_no, lines, framing
            line_no += len(lines)
        if not chunk:
            return


def _split_lines(data: bytes, line_no: int) -> tuple[list[str], dict[int, LineParseError]]:
    """Decode whole lines of bytes and split them, as each line's own utf-8-sig decoding would."""
    framing = {}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # UTF-8 cannot span a line break, so the bad lines are the lines that fail alone
        raws = data.split(b"\n")
        for n, raw in enumerate(raws):
            raw = raw.rstrip(b"\r")
            try:
                raws[n] = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                framing[n] = LineParseError(line_no + n, raw.decode("utf-8", "backslashreplace"),
                                            f"not valid UTF-8 ({exc.reason} at byte {exc.start})")
                raws[n] = ""
        text = "\n".join(raws)
    if "\ufeff" in text:
        text = text.removeprefix("\ufeff").replace("\n\ufeff", "\n")
    lines = text.split("\n")
    if data.endswith(b"\n"):
        lines.pop()
    if "\r" in text:
        lines = list(map(str.rstrip, lines, repeat("\r")))
    return lines, framing


# -- lines to columns --------------------------------------------------------------


def _separators(lines: list[str], sep: str) -> np.ndarray:
    return np.fromiter(map(str.count, lines, repeat(sep)), np.intp, len(lines))


def _take(lines: list[str], at: np.ndarray) -> list[str]:
    return lines if len(at) == len(lines) else list(map(lines.__getitem__, at.tolist()))


def _fields(lines: list[str], sep: str) -> list[str]:
    """Every ``sep``-separated field of the lines, in order, as one flat list."""
    return "\n".join(lines).replace(sep, "\n").split("\n") if lines else []


def _convert(convert, strings: list[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` applied to each string, as an array, and the mask of strings it accepted."""
    ok = np.ones(len(strings), dtype=bool)
    try:
        return np.fromiter(map(convert, strings), dtype, len(strings)), ok
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(strings), dtype=dtype)
    for n, s in enumerate(strings):
        try:
            values[n] = convert(s)
        except (ValueError, OverflowError):
            ok[n] = False
    return values, ok


def _nonempty(strings: list[str]) -> np.ndarray:
    if "" not in strings:
        return np.ones(len(strings), dtype=bool)
    return np.fromiter(map(bool, strings), bool, len(strings))


def _check_policy(errors: str):
    if errors not in ("raise", "skip"):
        raise ConfigError(f"unknown error policy {errors!r}; use 'raise' or 'skip'")


class _Columns:
    """Columns gathered block by block; a block's rejected lines raise or are counted."""

    def __init__(self, errors: str, check):
        self.errors = errors
        self.check = check
        self.user_ids: list[str] = []
        self.item_ids: list[str] = []
        self.ratings: list[np.ndarray] = []
        self.skipped = 0

    def add(self, line_no, lines, framing, at, users, items, rating_s, stamp_s=None, ignored=None):
        """Keep the lines ``at`` whose fields hold valid values; reject every other line.

        ``at`` indexes the lines whose fields are given (their field layout
        is well formed); lines in ``ignored`` are passed over silently.
        Each ``stamp_s`` string, when given, must convert to int64; it is
        checked, not kept.
        """
        ratings, ok = _convert(float, rating_s, np.float64)
        ok &= np.isfinite(ratings) & _nonempty(users) & _nonempty(items)
        if stamp_s is not None:
            ok &= _convert(int, stamp_s, np.int64)[1]
        if not ok.all():
            users, items = list(compress(users, ok)), list(compress(items, ok))
            ratings, at = ratings[ok], at[ok]
        rejected = np.ones(len(lines), dtype=bool)
        rejected[at] = False
        if ignored is not None:
            rejected &= ~ignored
        self._reject(line_no, lines, framing, np.flatnonzero(rejected).tolist())
        self.user_ids += users
        self.item_ids += items
        self.ratings.append(ratings)

    def _reject(self, line_no, lines, framing, bad):
        for n in bad:
            try:
                if n in framing:
                    raise framing[n]
                self.check(line_no + n, lines[n])
            except LineParseError:
                if self.errors == "raise":
                    raise
                self.skipped += 1
            else:
                raise AssertionError(f"line {line_no + n} passes its line check but not the column checks")

    def result(self) -> ParseResult:
        ratings = np.concatenate([np.empty(0), *self.ratings])
        return ParseResult(RatingColumns(self.user_ids, self.item_ids, ratings), self.skipped)


# -- the two formats ---------------------------------------------------------------


def parse_movielens(source, errors: str = "raise") -> ParseResult:
    """Parse ``UserID::MovieID::Rating::Timestamp`` lines into rating columns.

    Args:
        source: binary stream (a file opened with "rb"), no header.
        errors: "raise" fails on the first malformed line; "skip" drops
            malformed lines and counts them in the result.

    Returns:
        ParseResult whose columns hold one observation per well-formed line,
        in file order.
    """
    _check_policy(errors)
    out = _Columns(errors, _parse_movielens_line)
    for line_no, lines, framing in _line_blocks(source):
        at = np.flatnonzero(_separators(lines, "::") == 3)
        flat = _fields(_take(lines, at), "::")
        out.add(line_no, lines, framing, at, flat[0::4], flat[1::4], flat[2::4], flat[3::4])
        del flat  # free the block's rating and timestamp strings before the next block is read
    return out.result()


def _parse_movielens_line(line_no: int, line: str) -> None:
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
    if not _INT64[0] <= timestamp < _INT64[1]:
        raise LineParseError(line_no, line, f"timestamp {ts_s!r} outside the 64-bit range")


def parse_csv(
    source,
    columns: tuple[str, str, str] = ("userID", "itemID", "rating"),
    delimiter: str = ",",
    errors: str = "raise",
) -> ParseResult:
    """Parse delimited text with a header row, from a binary stream, into rating columns.

    Only the three mapped columns (user, item, rating) are consumed; any
    extra columns are ignored, and blank rows are passed over. A column map
    naming an absent header, or a delimiter that is empty or holds a line
    break, is a configuration error; a bad row is a data error subject to
    the same raise/skip policy as :func:`parse_movielens`.
    """
    _check_policy(errors)
    if not delimiter or "\n" in delimiter:
        raise ConfigError(f"delimiter {delimiter!r} must be non-empty and hold no line break")
    blocks = _line_blocks(source)
    try:
        line_no, lines, framing = next(blocks)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    if 0 in framing:
        raise framing[0]
    header = lines[0].split(delimiter)
    try:
        cols = tuple(header.index(name) for name in columns)
    except ValueError:
        missing = [name for name in columns if name not in header]
        raise ConfigError(f"column(s) {missing} not found in header {header}") from None
    width = max(cols)
    out = _Columns(errors, partial(_parse_csv_row, delimiter=delimiter, cols=cols))
    first = (line_no + 1, lines[1:], {n - 1: exc for n, exc in framing.items()})
    for line_no, lines, framing in chain([first], blocks):
        n_seps = _separators(lines, delimiter)
        blank = np.fromiter(map(operator.not_, lines), bool, len(lines))
        if framing:
            blank[list(framing)] = False
            n_seps[list(framing)] = -1
        fits = np.flatnonzero((n_seps >= width) & ~blank)
        # rows of each field count are split apart, then put back in file order
        parts = [(fits[n_seps[fits] == c], c + 1) for c in np.unique(n_seps[fits]).tolist()]
        at = np.concatenate([np.empty(0, dtype=np.intp), *(idx for idx, _ in parts)])
        users, items, rating_s = [], [], []
        for idx, step in parts:
            flat = _fields(_take(lines, idx), delimiter)
            users += flat[cols[0]::step]
            items += flat[cols[1]::step]
            rating_s += flat[cols[2]::step]
        if len(parts) > 1:
            order = np.argsort(at)
            at = at[order]
            users, items, rating_s = (list(map(col.__getitem__, order.tolist()))
                                      for col in (users, items, rating_s))
        out.add(line_no, lines, framing, at, users, items, rating_s, ignored=blank)
    return out.result()


def _parse_csv_row(line_no: int, line: str, delimiter: str, cols: tuple[int, int, int]) -> None:
    cells = line.split(delimiter)
    width = max(cols)
    if len(cells) <= width:
        raise LineParseError(line_no, line, f"expected at least {width + 1} fields, got {len(cells)}")
    user_id, item_id, rating_s = (cells[c] for c in cols)
    if not user_id or not item_id:
        raise LineParseError(line_no, line, "empty user or item id")
    try:
        rating = float(rating_s)
    except ValueError:
        raise LineParseError(line_no, line, f"non-numeric rating {rating_s!r}") from None
    if not math.isfinite(rating):
        raise LineParseError(line_no, line, f"non-finite rating {rating_s!r}")


# -- columns to a matrix -----------------------------------------------------------


def _first_appearance(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids in first-appearance order, and the index of each id among them."""
    distinct = list(dict.fromkeys(ids))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def build_matrix(columns: RatingColumns,
                 scale: Optional[tuple[float, float]] = None) -> RatingMatrix:
    """Build a RatingMatrix from rating columns.

    Indices are assigned in first-appearance order. A duplicate (user, item)
    pair keeps the position of its first observation and the rating of its
    last. With no declared scale the observed (min, max) is used; with a
    declared scale any rating outside it is an error naming the first such
    observation.
    """
    n = len(columns)
    if not n:
        raise DataError("cannot build a rating matrix from zero records")
    ratings = np.asarray(columns.ratings, dtype=float)
    valid = np.isfinite(ratings)
    if scale is not None:
        valid &= (scale[0] <= ratings) & (ratings <= scale[1])
    if not valid.all():
        bad = int(np.argmin(valid))
        user, item, rating = columns.user_ids[bad], columns.item_ids[bad], float(ratings[bad])
        if not math.isfinite(rating):
            raise DataError(f"non-finite rating for user {user!r}, item {item!r}")
        raise DataError(
            f"rating {rating} outside declared scale [{scale[0]}, {scale[1]}] "
            f"(user {user!r}, item {item!r})"
        )
    user_ids, users = _first_appearance(columns.user_ids)
    item_ids, items = _first_appearance(columns.item_ids)
    # one entry per distinct (user, item): the first record fixes its position, the last its rating
    key = users * len(item_ids) + items
    first = np.unique(key, return_index=True)[1]
    last = n - 1 - np.unique(key[::-1], return_index=True)[1]
    entry_users = users[first]
    order = np.lexsort((first, entry_users))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_users, minlength=len(user_ids)))))
    r_min, r_max = scale if scale is not None else (ratings.min(), ratings.max())
    return RatingMatrix(user_ids, item_ids, indptr, items[first][order],
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
