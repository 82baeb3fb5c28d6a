"""Ratings ingestion: file parsing, sparse matrix construction, train/test splitting.

Two input formats are supported: the `::`-separated MovieLens ``.dat`` layout
(no header) and generic delimited text with a header row, where a column map
names the user/item/rating columns. All text is treated as UTF-8; both LF and
CRLF line endings are accepted, and a line that is not valid UTF-8 is a
malformed line like any other.

Parsers read a binary stream (a file opened with ``"rb"``) and return
:class:`RatingColumns`: the distinct user and item ids, and for each
well-formed line a user code, an item code and a rating, as parallel
arrays. :class:`RatingColumns` is the only form a rating takes between a
file and a matrix. Ids become codes block by block, in first-appearance
order, so no per-line id string outlives the block it was read from.

The stream is read in blocks of whole lines, each in one of two ways. A
MovieLens block whose every line is plain (see :func:`_plain_movielens`; a
CRLF end is plain) is read on its bytes: numpy passes find its separators
and line breaks and check its fields, each id is keyed by its bytes and its
length in one uint64, and only the block's distinct ids are decoded and
coded, so no string is made for a line. Any other block, and every CSV
block, is read line by line by the format's line validator, which alone
defines a well-formed line; a malformed line's error names the line and the
reason. A MovieLens timestamp is checked (an integer that fits in 64 bits)
but not kept.

:func:`build_matrix` takes columns and returns a :class:`RatingMatrix` over
their ids, with their codes as indices. Its CSR arrays fix the entry order
that splits, and so every downstream result, depend on. Its rating scale is
the observed (min, max) rating.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DataError, LineParseError

_BLOCK_BYTES = 1 << 20  # a byte stream is parsed in blocks of whole lines of about this size


@dataclass(eq=False)
class RatingColumns:
    """Rating observations as parallel columns of integer codes, in file order.

    Observation ``n`` is user ``user_ids[users[n]]`` rating item
    ``item_ids[items[n]]`` with ``ratings[n]``. ``user_ids`` and ``item_ids``
    are the distinct ids (opaque strings), in first-appearance order when the
    columns come from a parser or :meth:`from_ids`; ``users`` and ``items``
    are int64 arrays of codes into them and ``ratings`` is a float64 array.
    The three arrays must have one length and every code must index its list.
    """

    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(column) for column in (self.users, self.items, self.ratings)]
        if len(shapes[0]) != 1 or not shapes[0] == shapes[1] == shapes[2]:
            raise ValueError(f"rating columns must be 1-D and of one length, got user codes of shape "
                             f"{shapes[0]}, item codes of shape {shapes[1]} and ratings of shape "
                             f"{shapes[2]}")
        for codes, ids, kind in ((self.users, self.user_ids, "user"),
                                 (self.items, self.item_ids, "item")):
            codes = np.asarray(codes)
            if not np.issubdtype(codes.dtype, np.integer) or (
                    len(codes) and not 0 <= codes.min() <= codes.max() < len(ids)):
                raise ValueError(f"{kind} codes must be integers in [0, {len(ids)}), "
                                 f"indices into {kind}_ids")

    def __len__(self) -> int:
        return len(self.ratings)

    @classmethod
    def from_ids(cls, users, items, ratings) -> "RatingColumns":
        """Columns of observations given as one user id and one item id per rating, in order."""
        user_codes, item_codes = _IdCodes(), _IdCodes()
        users, items = user_codes.encode(list(users)), item_codes.encode(list(items))
        return cls(list(user_codes), list(item_codes), users, items,
                   np.asarray(ratings, dtype=np.float64))


@dataclass
class ParseResult:
    """Columns of the well-formed lines plus the number of lines dropped under the skip policy."""

    records: RatingColumns
    skipped: int = 0


class RatingMatrix:
    """Sparse user x item rating store in compressed sparse row (CSR) form.

    User ``u`` is ``user_ids[u]`` and item ``i`` is ``item_ids[i]``; from
    parsed columns, both lists are in first-appearance order. Entry ``n``
    holds item ``indices[n]`` rated ``ratings[n]``; user ``u``'s entries are
    the contiguous slice ``indptr[u]:indptr[u + 1]``.
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

    def sha256(self) -> str:
        """Hex sha256 of the ids (as JSON), then indptr, indices and ratings as little-endian bytes.

        Two matrices share a digest when they hold the same ids, entries,
        entry order and ratings.
        """
        digest = hashlib.sha256(json.dumps([self.user_ids, self.item_ids]).encode("utf-8"))
        for array, dtype in ((self.indptr, "<i8"), (self.indices, "<i8"), (self.ratings, "<f8")):
            digest.update(np.ascontiguousarray(array, dtype=dtype))
        return digest.hexdigest()

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


def _byte_blocks(fp) -> Iterator[bytes]:
    """The stream's bytes in blocks of whole lines of about ``_BLOCK_BYTES``.

    ``fp`` is a binary stream. Every block but the stream's last ends in a
    line break. A line longer than a block is gathered chunk by chunk, and
    only each new chunk is searched for a line break, so the time to read a
    line is linear in its length.
    """
    read = getattr(fp, "read", None)
    if read is None or not isinstance(read(0), bytes):
        raise TypeError(f'parsers read a binary stream, got {type(fp).__name__}; '
                        'open the file with "rb"')
    pending: list[bytes] = []  # the chunks of a line not yet ended
    while chunk := fp.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    # at the end of the stream what is left is the last line, with no line break
    if rest := b"".join(pending):
        yield rest


def _line_blocks(fp) -> Iterator[tuple[int, list[str], dict[int, LineParseError]]]:
    """The stream's lines in blocks: (1-based number of the first line, lines, framing errors).

    See :func:`_byte_blocks` and :func:`_split_lines`.
    """
    line_no = 1
    for data in _byte_blocks(fp):
        lines, framing = _split_lines(data, line_no)
        yield line_no, lines, framing
        line_no += len(lines)


def _split_lines(data: bytes, line_no: int) -> tuple[list[str], dict[int, LineParseError]]:
    """Decode whole lines of bytes and split them, as each line's own utf-8-sig decoding would.

    Line ends are stripped, and each line loses one leading byte order mark.
    A line that is not valid UTF-8 is a framing error keyed by its index in
    the block; its place in the lines holds "".
    """
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


def _check_policy(errors: str):
    if errors not in ("raise", "skip"):
        raise ConfigError(f"unknown error policy {errors!r}; use 'raise' or 'skip'")


class _IdCodes(dict):
    """Distinct ids in first-appearance order, each mapped to its code: a new id gets the next."""

    def __missing__(self, id_: str) -> int:
        self[id_] = code = len(self)
        return code

    def encode(self, ids: list[str]) -> np.ndarray:
        """The int64 code of each id, in order; new ids join in order of first appearance."""
        return np.fromiter(map(self.__getitem__, ids), np.int64, len(ids))


class _Columns:
    """Columns gathered block by block; a block's malformed lines raise or are counted.

    Each block's ids become codes as the block is read, so no id string
    outlives its block but the first of each distinct id.
    """

    def __init__(self, errors: str):
        self.errors = errors
        self.user_codes = _IdCodes()
        self.item_codes = _IdCodes()
        self.users: list[np.ndarray] = []
        self.items: list[np.ndarray] = []
        self.ratings: list[np.ndarray] = []
        self.skipped = 0

    def keep(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray):
        """Append a block's columns, already known to be valid, its ids as codes."""
        self.users.append(users)
        self.items.append(items)
        self.ratings.append(ratings)

    def read(self, line_no: int, lines: list[str], framing: dict[int, LineParseError],
             parse_line, *args):
        """Keep what ``parse_line(line, *args)`` reads from each line; reject every other line.

        ``parse_line`` gives (user, item, rating), None for a line passed over,
        or raises ValueError with the reason the line is malformed. A line in
        ``framing`` is malformed whatever it holds; it holds "", which is never
        read as a rating, so ``framing`` is looked up only for lines that give
        none.
        """
        users, items, ratings = [], [], []
        add_user, add_item, add_rating = users.append, items.append, ratings.append
        for n, line in enumerate(lines):
            try:
                row = parse_line(line, *args)
            except ValueError as exc:
                self._reject(framing.get(n) or LineParseError(line_no + n, line, str(exc)))
                continue
            if row is not None:
                user, item, rating = row
                add_user(user)
                add_item(item)
                add_rating(rating)
            elif n in framing:
                self._reject(framing[n])
        self.keep(self.user_codes.encode(users), self.item_codes.encode(items),
                  np.array(ratings, dtype=np.float64))

    def _reject(self, error: LineParseError):
        if self.errors == "raise":
            raise error from None
        self.skipped += 1

    def result(self) -> ParseResult:
        columns = []
        for blocks, dtype in ((self.users, np.int64), (self.items, np.int64),
                              (self.ratings, np.float64)):
            # a column's blocks are dropped once it is joined, so the blocks and the joined
            # columns are never all held at once
            columns.append(np.concatenate([np.empty(0, dtype), *blocks]))
            blocks.clear()
        return ParseResult(RatingColumns(list(self.user_codes), list(self.item_codes), *columns),
                           self.skipped)


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
    out = _Columns(errors)
    line_no = 1
    for data in _byte_blocks(source):
        plain = _plain_movielens(data)
        if plain is not None:
            (user_ids, users), (item_ids, items), ratings = plain
            out.keep(out.user_codes.encode(user_ids)[users], out.item_codes.encode(item_ids)[items],
                     ratings)
            line_no += len(ratings)
            continue
        lines, framing = _split_lines(data, line_no)
        out.read(line_no, lines, framing, _parse_movielens_line)
        line_no += len(lines)
    return out.result()


_ID_BYTES = 7  # an id of up to 7 bytes and its length fit in one uint64 key
_STAMP_DIGITS = 18  # every number of up to 18 digits fits in int64
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(_ID_BYTES + 1)], dtype=np.uint64)
_LENGTH_BYTE = np.arange(_ID_BYTES + 1, dtype=np.uint64) << np.uint64(56)


def _plain_movielens(data: bytes) -> Optional[tuple[tuple[list[str], np.ndarray],
                                                    tuple[list[str], np.ndarray], np.ndarray]]:
    """A block of whole MovieLens lines read on its bytes, or None unless every line is plain.

    A plain line has three ``::`` separators and no other colon, ids of 1 to
    ``_ID_BYTES`` bytes, a rating of one digit or of ``d.d``, a timestamp of
    1 to ``_STAMP_DIGITS`` ASCII digits, and an LF or CRLF end; the block
    must be valid UTF-8, hold no other CR and no byte order mark, and end in
    a line break. A plain line is well formed and gives the columns the line
    validator gives it, so the way a block is read changes no result.

    Returns (user ids, users), (item ids, items) and the ratings: the ids are
    the block's distinct ids in first-appearance order, and ``users[n]``
    indexes line ``n``'s user among them (items alike). No string is made
    for a line; only the distinct ids are decoded.
    """
    if b"\r" in data:  # a scan for one byte is far cheaper than replace's scan for two
        # a CRLF end is stripped as _split_lines strips it; any other CR sends the block line by line
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n") or b"\r" in data:
        return None
    if not data.isascii():  # an ASCII block is valid UTF-8 and holds no byte order mark
        if b"\xef\xbb\xbf" in data:
            return None
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # colons and line breaks are among the bytes that are not ASCII digits (uint8 differences
    # below 10); ``at`` indexes the colons and line breaks among the non-digits
    nondigit = np.flatnonzero(buf - ord("0") > 9)
    kinds = buf[nondigit]
    line_break = kinds == ord("\n")
    at = np.flatnonzero((kinds == ord(":")) | line_break)
    # seven marks a line: six colons, then the line break
    if len(at) % 7 or np.count_nonzero(line_break) != len(at) // 7 or not line_break[at[6::7]].all():
        return None
    at = at.reshape(-1, 7)
    stamp_digits = at[:, 6] == at[:, 5] + 1  # no non-digit between the last colon and the line break
    user_end, item_start, item_end, rating_start, rating_end, stamp_start, line_end = nondigit[at.T]
    del nondigit, kinds, line_break, at  # the block's largest arrays, dropped before the columns
    item_start += 1
    rating_start += 1
    stamp_start += 1
    starts = np.concatenate(([0], line_end[:-1] + 1))
    user_len = user_end - starts
    item_len = item_end - item_start
    rating_len = rating_end - rating_start
    stamp_len = line_end - stamp_start
    # uint8 differences: below 10 only for an ASCII digit; rating_start + 2 is at most line_end
    units = buf[rating_start] - ord("0")
    tenths = buf[rating_start + 2] - ord("0")
    point = (rating_len == 3) & (buf[rating_start + 1] == ord(".")) & (tenths < 10)
    if not ((item_start == user_end + 2) & (rating_start == item_end + 2)
            & (stamp_start == rating_end + 2) & stamp_digits
            & (user_len >= 1) & (user_len <= _ID_BYTES) & (item_len >= 1) & (item_len <= _ID_BYTES)
            & (units < 10) & ((rating_len == 1) | point)
            & (stamp_len >= 1) & (stamp_len <= _STAMP_DIGITS)).all():
        return None
    # the 8 bytes from every offset, as little-endian uint64s (a view, not a copy); every id has 8
    # bytes from its start, as a plain line has 11 or more
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    whole = units.astype(np.float64)
    # float("d.e") and (10d + e) / 10 both round the one real number d.e once, to the same double
    ratings = np.where(point, (10 * whole + tenths) / 10, whole)
    return (_distinct_ids(data, words, starts, user_len),
            _distinct_ids(data, words, item_start, item_len), ratings)


def _distinct_ids(data: bytes, words: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct ids ``data[start:start + length]`` in first-appearance order, and where each id is.

    ``words`` is ``data``'s uint64 view at every byte offset. An id of 1 to
    ``_ID_BYTES`` bytes is keyed by its bytes and, in the top byte, its
    length, so two ids share a key only when they are equal.
    """
    keys = (words[starts] & _LOW_BYTES[lengths]) | _LENGTH_BYTE[lengths]
    by_key = np.argsort(keys)
    keys = keys[by_key]
    new = np.empty(len(keys), dtype=bool)  # the first of each run of one key, in key order
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.minimum.reduceat(by_key, np.flatnonzero(new))  # each key's first line
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    where = np.empty(len(by_key), dtype=np.intp)
    where[by_key] = rank[np.cumsum(new) - 1]
    first = first[order]
    ids = [data[start:start + length].decode("utf-8")
           for start, length in zip(starts[first].tolist(), lengths[first].tolist())]
    return ids, where


def _parse_movielens_line(line: str) -> tuple[str, str, float]:
    """A MovieLens line's (user, item, rating); its timestamp is checked, not kept.

    A ValueError gives the reason the line is malformed.
    """
    parts = line.split("::")
    if len(parts) != 4:
        raise ValueError(f"expected 4 '::'-separated fields, got {len(parts)}")
    user_id, item_id, rating_s, ts_s = parts
    if not user_id or not item_id:
        raise ValueError("empty user or item id")
    rating = float(rating_s)
    timestamp = int(ts_s)
    if not math.isfinite(rating):
        raise ValueError(f"non-finite rating {rating_s!r}")
    if not -(2**63) <= timestamp < 2**63:
        raise ValueError(f"timestamp {ts_s!r} outside the 64-bit range")
    return user_id, item_id, rating


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
    out = _Columns(errors)
    first = (line_no + 1, lines[1:], {n - 1: exc for n, exc in framing.items()})
    for line_no, lines, framing in chain([first], blocks):
        out.read(line_no, lines, framing, _parse_csv_row, delimiter, cols)
    return out.result()


def _parse_csv_row(line: str, delimiter: str,
                   cols: tuple[int, int, int]) -> Optional[tuple[str, str, float]]:
    """A row's (user, item, rating) from its ``cols`` fields, or None for a blank row.

    A ValueError gives the reason the row is malformed.
    """
    if not line:
        return None
    cells = line.split(delimiter)
    try:
        user_id, item_id, rating_s = cells[cols[0]], cells[cols[1]], cells[cols[2]]
    except IndexError:
        raise ValueError(f"expected at least {max(cols) + 1} fields, got {len(cells)}") from None
    if not user_id or not item_id:
        raise ValueError("empty user or item id")
    try:
        rating = float(rating_s)
    except ValueError:
        raise ValueError(f"non-numeric rating {rating_s!r}") from None
    if not math.isfinite(rating):
        raise ValueError(f"non-finite rating {rating_s!r}")
    return user_id, item_id, rating


# -- columns to a matrix -----------------------------------------------------------


def build_matrix(columns: RatingColumns) -> RatingMatrix:
    """Build a RatingMatrix from rating columns.

    The matrix keeps the columns' ids, and their codes as its indices. A
    duplicate (user, item) pair keeps the position of its first observation
    and the rating of its last. The rating scale is the observed (min, max).
    A non-finite rating is an error naming the first such observation.
    """
    n = len(columns)
    if not n:
        raise DataError("cannot build a rating matrix from zero records")
    # int64 whatever the columns' integer type, so the (user, item) keys below cannot wrap
    users, items = (np.asarray(codes, dtype=np.int64) for codes in (columns.users, columns.items))
    ratings = np.asarray(columns.ratings, dtype=float)
    finite = np.isfinite(ratings)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataError(f"non-finite rating for user {columns.user_ids[users[bad]]!r}, "
                        f"item {columns.item_ids[items[bad]]!r}")
    # one entry per distinct (user, item): a stable sort keeps each key's observations in
    # file order, so a key's run starts at its first observation and ends at its last.
    # Spent arrays are dropped at once: this is the peak memory of parse, build and split.
    key = users * len(columns.item_ids) + items
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    # bounds[j]: a run starts at j (j < n), and the one before it ends at j - 1 (j > 0)
    bounds = np.empty(n + 1, dtype=bool)
    bounds[0] = bounds[n] = True
    np.not_equal(key[1:], key[:-1], out=bounds[1:n])
    del key
    first, last = by_key[bounds[:-1]], by_key[bounds[1:]]
    del by_key
    # entries user-major, and within a user in the order of their first observations
    order = np.argsort(first)
    first, last = first[order], last[order]
    order = np.argsort(users[first], kind="stable")
    first, last = first[order], last[order]
    row_sizes = np.bincount(users[first], minlength=len(columns.user_ids))
    indptr = np.concatenate(([0], np.cumsum(row_sizes)))
    return RatingMatrix(columns.user_ids, columns.item_ids, indptr, items[first], ratings[last],
                        ratings.min(), ratings.max())


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
