import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import entry_triples, items_of, matrix_from
from paretorank import dataio
from paretorank.errors import ConfigError, DataError, LineParseError


def observations(cols):
    """The columns' (user id, item id, rating) triples, in order, rebuilt from the codes."""
    return list(zip([cols.user_ids[c] for c in cols.users.tolist()],
                    [cols.item_ids[c] for c in cols.items.tolist()], cols.ratings.tolist()))


class TestParseMovielens:
    def test_wellformed_line(self):
        res = pr.parse_movielens(io.BytesIO(b"1::1193::5::978300760\n"))
        assert res.skipped == 0
        cols = res.records
        assert observations(cols) == [("1", "1193", 5.0)]

    def test_empty_stream(self):
        assert len(pr.parse_movielens(io.BytesIO(b"")).records) == 0

    def test_missing_field_errors_with_line_number(self):
        with pytest.raises(LineParseError) as exc:
            pr.parse_movielens(io.BytesIO(b"1::1193::5\n"))
        assert exc.value.line_no == 1
        assert "1::1193::5" in str(exc.value)

    def test_error_on_later_line(self):
        data = b"1::1::5::10\n2::2::bogus::11\n"
        with pytest.raises(LineParseError) as exc:
            pr.parse_movielens(io.BytesIO(data))
        assert exc.value.line_no == 2

    def test_skip_policy_counts(self):
        data = b"1::1::5::10\nbroken\n2::2::3::11\n3::3\n"
        res = pr.parse_movielens(io.BytesIO(data), errors="skip")
        assert len(res.records) == 2
        assert res.skipped == 2

    def test_crlf_and_text_lines(self):
        res = pr.parse_movielens(io.BytesIO(b"1::2::4::9\r\n3::4::2::8\n"))
        assert [u for u, _, _ in observations(res.records)] == ["1", "3"]

    def test_file_order_preserved(self):
        data = b"9::1::5::1\n2::7::1::2\n"
        res = pr.parse_movielens(io.BytesIO(data))
        assert [(u, i) for u, i, _ in observations(res.records)] == [("9", "1"), ("2", "7")]

    def test_non_finite_rating_rejected(self):
        with pytest.raises(LineParseError):
            pr.parse_movielens(io.BytesIO(b"1::2::nan::3\n"))

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            pr.parse_movielens(io.BytesIO(b""), errors="ignore")

    def test_every_short_rating_on_the_byte_path(self):
        # d and d.e are read from their digits; each must equal float() of its text
        texts = [str(d) for d in range(10)] + [f"{d}.{e}" for d in range(10) for e in range(10)]
        data = "".join(f"u::i{n}::{text}::{n}\n" for n, text in enumerate(texts)).encode()
        with mock.patch.object(dataio, "_split_lines", side_effect=AssertionError("string path")):
            cols = pr.parse_movielens(io.BytesIO(data)).records
        assert cols.ratings.tobytes() == np.array([float(t) for t in texts]).tobytes()
        assert [i for _, i, _ in observations(cols)] == [f"i{n}" for n in range(len(texts))]


class TestParseCsv:
    def test_row_with_extra_columns(self):
        data = b"userID,itemID,rating,mood\n15,22,4,happy\n"
        cols = pr.parse_csv(io.BytesIO(data)).records
        assert observations(cols) == [("15", "22", 4.0)]

    def test_absent_header_is_config_error(self):
        data = b"user,item,score\n1,2,3\n"
        with pytest.raises(ConfigError) as exc:
            pr.parse_csv(io.BytesIO(data))
        assert "userID" in str(exc.value)

    def test_non_numeric_rating_is_row_error(self):
        data = b"userID,itemID,rating\n1,2,abc\n"
        with pytest.raises(LineParseError) as exc:
            pr.parse_csv(io.BytesIO(data))
        assert exc.value.line_no == 2

    def test_custom_columns_and_delimiter(self):
        data = b"u;r;i\n7;3.5;9\n"
        cols = pr.parse_csv(io.BytesIO(data), columns=("u", "i", "r"), delimiter=";").records
        assert observations(cols) == [("7", "9", 3.5)]

    def test_skip_policy(self):
        data = b"userID,itemID,rating\n1,2,5\n3,4\n5,6,bad\n7,8,2\n"
        res = pr.parse_csv(io.BytesIO(data), errors="skip")
        assert len(res.records) == 2
        assert res.skipped == 2

    def test_empty_input(self):
        with pytest.raises(DataError):
            pr.parse_csv(io.BytesIO(b""))

    def test_rows_of_different_widths_keep_file_order(self):
        data = b"userID,itemID,rating\n1,2,3,x\n4,5,1\n6,7,2,y,z\n8,9,4\n"
        cols = pr.parse_csv(io.BytesIO(data)).records
        assert observations(cols) == [
            ("1", "2", 3.0), ("4", "5", 1.0), ("6", "7", 2.0), ("8", "9", 4.0)]


class TestBuildMatrix:
    def test_counts(self):
        m = matrix_from([("a", "x", 3), ("a", "y", 4), ("b", "x", 5)])
        assert (m.n_users, m.n_items, m.n_entries) == (2, 2, 3)

    def test_duplicate_keeps_last(self):
        m = matrix_from([("a", "x", 3), ("a", "x", 5)])
        assert m.n_entries == 1
        assert items_of(m, 0)[0] == 5.0

    def test_observed_scale(self):
        m = matrix_from([("a", "x", 1), ("a", "y", 5), ("b", "x", 3)])
        assert (m.r_min, m.r_max) == (1.0, 5.0)

    def test_empty_input(self):
        with pytest.raises(DataError):
            matrix_from([])

    def test_first_appearance_index_order(self):
        m = matrix_from([("b", "y", 2), ("a", "x", 3), ("b", "x", 4)])
        assert m.user_ids == ["b", "a"]
        assert m.item_ids == ["y", "x"]

    def test_roundtrip_entry_count(self):
        data = b"1::1::5::0\n1::2::4::0\n1::1::3::0\n2::1::2::0\n"
        res = pr.parse_movielens(io.BytesIO(data))
        m = pr.build_matrix(res.records)
        assert m.n_entries == 4 - 1  # one duplicate (1,1)
        assert items_of(m, 0)[0] == 3.0  # last wins

    def test_mismatched_columns_rejected(self):
        shapes = r"user codes of shape \(2,\), item codes of shape \(1,\) and ratings of shape \(2,\)"
        with pytest.raises(ValueError, match=shapes):
            pr.RatingColumns.from_ids(["a", "b"], ["x"], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"ratings of shape \(1, 1\)"):
            pr.RatingColumns.from_ids(["a"], ["x"], [[1.0]])
        for kind, users, items in (("user", [1], [0]), ("user", [-1], [0]), ("item", [0], [1]),
                                   ("user", [0.0], [0])):
            with pytest.raises(ValueError, match=fr"{kind} codes must be integers in \[0, 1\)"):
                pr.RatingColumns(["a"], ["x"], np.array(users), np.array(items), np.array([1.0]))

    def test_non_finite_rating_names_both_ids(self):
        with pytest.raises(DataError, match="non-finite rating for user 'b', item 'y'"):
            matrix_from([("a", "x", 3), ("b", "x", 4), ("b", "y", math.inf)])

    def test_codes_are_the_indices(self):
        # columns made by hand keep their ids and codes, first-appearance order or not
        cols = pr.RatingColumns(["b", "a"], ["y", "x"], np.array([1, 0, 1], dtype=np.int8),
                                np.array([1, 1, 0], dtype=np.uint8), np.array([3.0, 4.0, 5.0]))
        m = pr.build_matrix(cols)
        assert (m.user_ids, m.item_ids) == (["b", "a"], ["y", "x"])
        assert entry_triples(m) == [(0, 1, 4.0), (1, 1, 3.0), (1, 0, 5.0)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_shuffled_duplicates_match_dict_reference(self, seed):
        # numpy sorts a few dozen keys by insertion sort, which is stable; 20,000 observations
        # of 4,000 (user, item) keys, each key's repeats scattered through the file, reach the
        # unstable sort's other paths
        rng = np.random.default_rng(seed)
        n = 20_000
        users, items, ratings = rng.integers(0, 50, n), rng.integers(0, 80, n), rng.integers(1, 6, n)
        named = [(f"u{u}", f"i{i}", float(r))
                 for u, i, r in zip(users.tolist(), items.tolist(), ratings.tolist())]
        m = matrix_from(named)
        assert n - m.n_entries > 10_000
        assert_dict_layout(m, named)

    def test_row_is_array_view(self):
        m = matrix_from([("a", "x", 3), ("a", "y", 4), ("b", "x", 5)])
        assert items_of(m, 0) == {0: 3.0, 1: 4.0}
        assert items_of(m, 1) == {0: 5.0}
        items, ratings = m.row(0)
        assert np.shares_memory(items, m.indices) and np.shares_memory(ratings, m.ratings)


class TestParseMemory:
    def test_ids_are_codes_once_their_block_is_read(self, ml_like_path):
        # a parse keeps int64 codes per observation, not id strings: with blocks of 64 KiB,
        # parse plus build of the tier-1 corpus stays below 120 traced bytes a line
        data = ml_like_path.read_bytes()
        with mock.patch.object(dataio, "_BLOCK_BYTES", 1 << 16):
            tracemalloc.start()
            try:
                with open(ml_like_path, "rb") as fp:
                    cols = pr.parse_movielens(fp).records
                pr.build_matrix(cols)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 120 * data.count(b"\n")
        fields = [line.split(b"::") for line in data.splitlines()]
        assert len(cols.user_ids) == len({f[0] for f in fields})
        assert len(cols.item_ids) == len({f[1] for f in fields})


def assert_dict_layout(m, named):
    """Check m against the dict-of-dicts reference of the (user id, item id, rating) triples.

    The reference keeps a duplicate's first position and its last rating.
    Returns its (user, item, rating) entries, in entry order.
    """
    u_index, i_index, rows = {}, {}, []
    for user_id, item_id, rating in named:
        u = u_index.setdefault(user_id, len(u_index))
        if u == len(rows):
            rows.append({})
        rows[u][i_index.setdefault(item_id, len(i_index))] = rating
    reference = [(u, i, r) for u, row in enumerate(rows) for i, r in row.items()]
    assert m.indptr.tolist() == [0, *itertools.accumulate(len(row) for row in rows)]
    assert (m.user_ids, m.item_ids) == (list(u_index), list(i_index))
    assert entry_triples(m) == reference
    return reference


class TestSplit:
    def test_ratio_zero(self):
        m = matrix_from([("a", "x", 3), ("b", "y", 4)])
        sp = pr.split(m, 0.0, seed=1)
        assert sp.test.n_entries == 0
        assert sorted(entry_triples(sp.train)) == sorted(entry_triples(m))

    def test_ratio_one(self):
        m = matrix_from([("a", "x", 3), ("b", "y", 4)])
        sp = pr.split(m, 1.0, seed=1)
        assert sp.train.n_entries == 0
        assert sp.test.n_entries == 2

    def test_binomial_bound_and_reproducibility(self):
        # 1000 entries, ratio 0.2: P(|test| outside [150, 250]) < 1e-3 (binomial tail)
        m = matrix_from((f"u{i % 50}", f"i{i // 50}", 1 + i % 5) for i in range(1000))
        sp1 = pr.split(m, 0.2, seed=123)
        sp2 = pr.split(m, 0.2, seed=123)
        assert 150 <= sp1.test.n_entries <= 250
        assert entry_triples(sp1.test) == entry_triples(sp2.test)
        assert entry_triples(sp1.train) == entry_triples(sp2.train)

    def test_index_space_shared(self):
        # user "b" has a single entry; with it in test, b must keep a train row
        m = matrix_from([("a", "x", 3), ("a", "y", 4), ("b", "x", 5)])
        for seed in range(20):
            sp = pr.split(m, 0.5, seed=seed)
            assert sp.train.n_users == sp.test.n_users == m.n_users
            assert sp.train.n_items == sp.test.n_items == m.n_items

    def test_bad_ratio(self):
        m = matrix_from([("a", "x", 3)])
        with pytest.raises(ValueError):
            pr.split(m, 1.5, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.sets(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=60
        ),
        ratio=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_disjoint_and_complete(self, entries, ratio, seed):
        m = matrix_from((f"u{u}", f"i{i}", float(1 + (u + i) % 5)) for u, i in entries)
        sp = pr.split(m, ratio, seed)
        train = set(entry_triples(sp.train))
        test = set(entry_triples(sp.test))
        assert train | test == set(entry_triples(m))
        assert not (train & test)

    @settings(max_examples=60, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(1, 5)), min_size=1, max_size=60
        ),
        ratio=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layout_matches_dict_reference(self, triples, ratio, seed):
        # duplicates and out-of-order ids included
        named = [(f"u{u}", f"i{i}", float(r)) for u, i, r in triples]
        m = matrix_from(named)
        reference = assert_dict_layout(m, named)
        test_draws = np.random.default_rng(seed).random(len(reference)) < ratio
        sp = pr.split(m, ratio, seed)
        assert entry_triples(sp.test) == [e for e, t in zip(reference, test_draws) if t]
        assert entry_triples(sp.train) == [e for e, t in zip(reference, test_draws) if not t]


# -- reference parsers: the per-line parsers the columnar ones replaced ------------------
#
# They read one line at a time into one (user id, item id, rating) tuple per
# line. Two rules came with the columnar parsers and are applied here too
# (marked "new rule"): a line that is not UTF-8 is a malformed line, and a
# timestamp must fit in 64 bits.


def _reference_lines(fp):
    """(line_no, text or framing LineParseError) per line of a binary stream."""
    for line_no, raw in enumerate(fp, start=1):
        raw = raw.rstrip(b"\r\n")
        try:
            yield line_no, raw.decode("utf-8").removeprefix("\ufeff")  # as decode("utf-8-sig")
        except UnicodeDecodeError as exc:  # new rule
            text = raw.decode("utf-8", "backslashreplace")
            reason = f"not valid UTF-8 ({exc.reason} at byte {exc.start})"
            yield line_no, LineParseError(line_no, text, reason)


def reference_parse_movielens(source, errors="raise"):
    records = []
    skipped = 0
    for line_no, line in _reference_lines(source):
        try:
            if isinstance(line, LineParseError):
                raise line
            records.append(_reference_movielens_line(line_no, line))
        except LineParseError:
            if errors == "raise":
                raise
            skipped += 1
    return records, skipped


def _reference_movielens_line(line_no, line):
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
    if not -(2**63) <= timestamp < 2**63:  # new rule
        raise LineParseError(line_no, line, f"timestamp {ts_s!r} outside the 64-bit range")
    return user_id, item_id, rating


def reference_parse_csv(source, columns=("userID", "itemID", "rating"), delimiter=",", errors="raise"):
    lines = _reference_lines(source)
    try:
        _, header_line = next(lines)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    if isinstance(header_line, LineParseError):
        raise header_line
    header = header_line.split(delimiter)
    try:
        u_col, i_col, r_col = (header.index(name) for name in columns)
    except ValueError:
        missing = [name for name in columns if name not in header]
        raise ConfigError(f"column(s) {missing} not found in header {header}") from None
    records = []
    skipped = 0
    width = max(u_col, i_col, r_col)
    for line_no, line in lines:
        try:
            if isinstance(line, LineParseError):
                raise line
            if not line:
                continue
            cells = line.split(delimiter)
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
        records.append((user_id, item_id, rating))
    return records, skipped


# -- the columnar parsers against the references ---------------------------------------

IDS = ["1", "42", "u7", "é", "x y", " 3", "", "\ufeff9", "a:b", "\x00", "a\x00b", "7:", "7", "07", "007",
       "a\x00", "\x00a", "1234567", "12345678", "日本", "日本語"]
RATINGS = ["1", "4.5", "-2", "1e3", " 3 ", "1_0", "nan", "inf", "-Infinity", "abc", "", "1e999", "٣", "0x1",
           "0", "10", "3.5", "0.5", ".5", "5.", "3.55", "4.x", "-"]
STAMPS = ["978300760", "0", "-5", "+7", "1_000", " 12", "x", "", "1.5", "٣",
          str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), "9" * 30,
          "9" * 18, "0" * 19, "1" * 19]
FIELD = st.sampled_from(IDS + RATINGS + STAMPS) | st.text(alphabet=":ab1 \t", max_size=4)

MOVIELENS_LINES = st.one_of(
    st.builds("{}::{}::{}::{}".format, st.sampled_from(IDS), st.sampled_from(IDS),
              st.sampled_from(RATINGS), st.sampled_from(STAMPS)),
    st.builds("{}::{}::5::{}".format, st.sampled_from(["1", "2", "3"]), st.sampled_from(["1", "2", "3"]),
              st.integers(0, 10**10)),
    st.lists(FIELD, max_size=6).map("::".join),  # any field count, ':::' runs included
    st.text(alphabet=":1", max_size=10),
    st.just(""),
)
CSV_HEADERS = ["userID,itemID,rating", "x,rating,itemID,userID", "userID,itemID,rating,mood",
               "\ufeffuserID,itemID,rating", "user,item,rating"]
CSV_ROWS = st.one_of(
    st.lists(st.sampled_from(IDS + RATINGS + ["", "a,b"]), max_size=5).map(",".join),
    st.builds(lambda *cells: ",".join(cells), st.sampled_from(IDS), st.sampled_from(IDS),
              st.sampled_from(RATINGS)),
    # well-formed rows of different widths, which the parser splits apart and puts back in order
    st.builds(lambda extra, rating: ",".join(["7", "8", rating] + extra),
              st.lists(st.sampled_from(["x", ""]), max_size=3), st.sampled_from(["1", "2"])),
    st.just(""),
)
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r\r\n", "\r"])
# bytes that make a line undecodable
BAD_BYTES = st.sampled_from([b"", b"", b"", b"", b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"])


@st.composite
def documents(draw, line_strategy, header=False):
    """Lines as (text, undecodable bytes, ending) pieces; the last may lack its line end."""
    texts = draw(st.lists(line_strategy, max_size=16))
    if header:
        texts.insert(0, draw(st.sampled_from(CSV_HEADERS)))
    lines = []
    for text in texts:
        bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
        bad = draw(BAD_BYTES)
        at = draw(st.integers(0, len(text)))
        lines.append((bom + text[:at], bad, text[at:], draw(ENDINGS)))
    if lines and draw(st.booleans()):
        head, bad, tail, _ = lines[-1]
        lines[-1] = (head, bad, tail, "")
    return lines


def document_bytes(doc):
    """The document's bytes, as a file opened with "rb" reads them."""
    return b"".join(head.encode() + bad + tail.encode() + end.encode() for head, bad, tail, end in doc)


def outcome(parse, source, **kwargs):
    """What a parser did: its columns and skip count, or its error."""
    try:
        records, skipped = parse(source, **kwargs)
    except (DataError, ConfigError) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return records, skipped


def columnar(parse):
    def run(source, **kwargs):
        res = parse(source, **kwargs)
        cols = res.records
        assert isinstance(cols, pr.RatingColumns)
        assert cols.users.dtype == cols.items.dtype == np.int64
        assert cols.ratings.dtype == np.float64
        users = [cols.user_ids[c] for c in cols.users.tolist()]
        items = [cols.item_ids[c] for c in cols.items.tolist()]
        # the ids are the distinct observed ids in first-appearance order
        assert (cols.user_ids, cols.item_ids) == (list(dict.fromkeys(users)), list(dict.fromkeys(items)))
        return (users, items, cols.ratings.tobytes()), res.skipped
    return run


def per_line(parse):
    def run(source, **kwargs):
        records, skipped = parse(source, **kwargs)
        return ([u for u, _, _ in records], [i for _, i, _ in records],
                np.array([r for _, _, r in records], dtype=float).tobytes()), skipped
    return run


def matrix_arrays(build, rows):
    try:
        m = build(rows)
    except DataError as exc:
        return str(exc)
    return (m.user_ids, m.item_ids, m.indptr.tobytes(), m.indices.tobytes(), m.ratings.tobytes(),
            m.r_min, m.r_max)


def assert_parsers_agree(doc, parse, reference, block_bytes, **kwargs):
    data = document_bytes(doc)
    with mock.patch.object(dataio, "_BLOCK_BYTES", block_bytes):
        for errors in ("raise", "skip"):
            got = outcome(columnar(parse), io.BytesIO(data), errors=errors, **kwargs)
            want = outcome(per_line(reference), io.BytesIO(data), errors=errors, **kwargs)
            assert got == want, errors
        if isinstance(got[0], tuple) and got[0][0]:
            # the parsed columns build the matrix the reference's tuples build
            cols = parse(io.BytesIO(data), errors="skip", **kwargs).records
            records, _ = reference(io.BytesIO(data), errors="skip", **kwargs)
            assert matrix_arrays(pr.build_matrix, cols) == matrix_arrays(matrix_from, records)


# block bytes: blocks cut at every line, inside lines, and after many lines
BLOCKS = st.sampled_from([1, 7, 64, 128, 1 << 20])


class TestColumnarParsersMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents(MOVIELENS_LINES), blocks=BLOCKS)
    def test_movielens(self, doc, blocks):
        assert_parsers_agree(doc, pr.parse_movielens, reference_parse_movielens, blocks)

    @pytest.mark.parametrize("field", range(4), ids=["user", "item", "rating", "stamp"])
    def test_one_odd_field_between_plain_lines(self, field):
        # each listed value, then maybe an undecodable byte, in one field of a line that is
        # otherwise plain, between two plain lines in one block: the block's path must not
        # change what is kept or what is named
        plain = ["1", "2", "3", "978300760"]
        line = ("::".join(plain), b"", "", "\n")
        for value in (IDS, IDS, RATINGS, STAMPS)[field]:
            odd = plain.copy()
            odd[field] = value
            head, tail = "::".join(odd[:field + 1]), "".join("::" + part for part in odd[field + 1:])
            for bad in (b"", b"\xc3", b"\xff"):
                doc = [line, (head, bad, tail, "\n"), line]
                assert_parsers_agree(doc, pr.parse_movielens, reference_parse_movielens, 1 << 20)

    @settings(max_examples=300, deadline=None)
    @given(doc=documents(CSV_ROWS, header=True), blocks=BLOCKS)
    def test_csv(self, doc, blocks):
        assert_parsers_agree(doc, pr.parse_csv, reference_parse_csv, blocks)

    def test_corpus_scale(self, ml_like_path):
        # the tier-1 corpus in blocks of the default size: as it is, with CRLF ends, and
        # with a bad line in the last block
        data = ml_like_path.read_bytes()
        cut = data.rfind(b"\n", 0, len(data) - 100) + 1
        for raw in (data, data.replace(b"\n", b"\r\n"), data[:cut] + b"1::2::x::3\n" + data[cut:]):
            got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw))
            want = outcome(per_line(reference_parse_movielens), io.BytesIO(raw))
            assert got == want
        # odd lines in the middle of the first block, which is otherwise plain: a half-star
        # rating keeps the block on the byte path, a signed timestamp or a byte order mark
        # sends the whole block down the string path
        mid = data.find(b"\n", dataio._BLOCK_BYTES // 2) + 1
        half, signed, bom = b"1::2::3.5::4\n", b"1::2::3::+7\n", b"\xef\xbb\xbf1::2::3::4\n"
        for odd, string_blocks in ((half, 0), (signed, 1), (bom, 1), (half + signed + bom, 1)):
            raw = data[:mid] + odd + data[mid:]
            with mock.patch.object(dataio, "_split_lines", wraps=dataio._split_lines) as spy:
                got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw))
            assert spy.call_count == string_blocks
            assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(raw))
        cols = pr.parse_movielens(io.BytesIO(data)).records
        records, _ = reference_parse_movielens(io.BytesIO(data))
        assert matrix_arrays(pr.build_matrix, cols) == matrix_arrays(matrix_from, records)


class TestBytePath:
    @pytest.mark.parametrize("field", [0, 1], ids=["user", "item"])
    @pytest.mark.parametrize("id_, line_by_line", [
        ("1234567", False), ("日本", False), ("\x00a", False), ("a\x00", False),
        ("12345678", True), ("日本語", True), ("a:b", True), ("7:", True)])
    def test_id_of_up_to_7_bytes_without_colon_stays_on_the_bytes(self, field, id_, line_by_line):
        # an id longer than _ID_BYTES bytes, or one holding a colon, sends its block line by line
        assert (len(id_.encode()) > dataio._ID_BYTES or ":" in id_) == line_by_line
        odd = ["1", "2", "3", "978300760"]
        odd[field] = id_
        raw = ("1::2::3::978300760\n" + "::".join(odd) + "\n7::2::4.5::978300761\n").encode()
        for errors in ("raise", "skip"):
            with mock.patch.object(dataio, "_split_lines", wraps=dataio._split_lines) as spy:
                got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw), errors=errors)
            assert spy.call_count == line_by_line
            assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(raw), errors=errors)

    def test_each_id_is_coded_once_per_parse(self, ml_like_path):
        # over many plain blocks, each id table's encode sees each distinct id once, in
        # first-appearance order: a block decodes only the ids no earlier block held
        data = ml_like_path.read_bytes()
        coded = {}
        encode = dataio._IdCodes.encode

        def spy(codes, ids):
            coded.setdefault(id(codes), []).extend(ids)
            return encode(codes, ids)

        with mock.patch.object(dataio, "_BLOCK_BYTES", 1 << 16):
            n_blocks = sum(1 for _ in dataio._byte_blocks(io.BytesIO(data)))
            with mock.patch.object(dataio._IdCodes, "encode", spy), \
                    mock.patch.object(dataio, "_split_lines", side_effect=AssertionError("string path")):
                got = outcome(columnar(pr.parse_movielens), io.BytesIO(data))
        fields = [line.decode().split("::") for line in data.splitlines()]
        want = [list(dict.fromkeys(f[0] for f in fields)), list(dict.fromkeys(f[1] for f in fields))]
        assert n_blocks > 1 and list(coded.values()) == want
        assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(data))

    def test_ids_cross_between_line_by_line_and_plain_blocks(self):
        # one line a block; a signed timestamp sends its block line by line. User 10 and
        # item 20 are first seen line by line, then on the bytes; user 11 and item 21 the
        # reverse; user 12 is new on the bytes beside item 20, known to the key table
        lines = [b"10::20::3::+7\n", b"10::20::4::8\n", b"11::21::5::9\n", b"11::21::2::+9\n",
                 b"10::21::1::+1\n", b"12::20::3.5::3\n", b"11::20::1::4\n", b"12::21::2::+4\n"]
        raw = b"".join(lines)
        with mock.patch.object(dataio, "_BLOCK_BYTES", 1):
            with mock.patch.object(dataio, "_split_lines", wraps=dataio._split_lines) as spy:
                got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw))
            cols = pr.parse_movielens(io.BytesIO(raw)).records
        assert spy.call_count == sum(b"+" in line for line in lines)
        assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(raw))
        records, _ = reference_parse_movielens(io.BytesIO(raw))
        assert matrix_arrays(pr.build_matrix, cols) == matrix_arrays(matrix_from, records)


class TestByteBlocks:
    def test_line_longer_than_three_blocks_is_one_unchanged_block(self):
        line = b"1::2::3::978300760\r" * 11  # CR ends only: one line of 209 bytes
        with mock.patch.object(dataio, "_BLOCK_BYTES", 64):
            assert list(dataio._byte_blocks(io.BytesIO(line))) == [line]
            assert list(dataio._byte_blocks(io.BytesIO(line + b"\n"))) == [line + b"\n"]
            blocks = list(dataio._byte_blocks(io.BytesIO(line + b"\n" + line)))
        assert blocks == [line + b"\n", line]


class TestCrlfBlocks:
    def test_crlf_corpus_is_read_on_its_bytes(self, ml_like_path):
        raw = ml_like_path.read_bytes().replace(b"\n", b"\r\n")
        with mock.patch.object(dataio, "_split_lines", wraps=dataio._split_lines) as spy:
            got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw))
        assert spy.call_count == 0
        assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(raw))

    @pytest.mark.parametrize("odd", [b"1::2::3::4\r\r\n", b"1::2::3::4\r5::6::7::8\n",
                                     b"1::2\r::3::4\n"], ids=["cr-crlf", "cr-in-stamp", "cr-in-item"])
    def test_other_cr_sends_the_block_line_by_line(self, odd):
        plain = b"1::1193::5::978300760\r\n9::7::3.5::978300761\n"
        raw = plain + odd + plain
        for errors in ("raise", "skip"):
            with mock.patch.object(dataio, "_split_lines", wraps=dataio._split_lines) as spy:
                got = outcome(columnar(pr.parse_movielens), io.BytesIO(raw), errors=errors)
            assert spy.call_count == 1
            assert got == outcome(per_line(reference_parse_movielens), io.BytesIO(raw), errors=errors)


FUZZ_BYTES = st.binary(max_size=200) | st.lists(st.sampled_from(
    [b"1", b"2", b"::", b":", b",", b"\n", b"\r", b"\xff", b"\xe2\x82", b"\xef\xbb\xbf", b"nan",
     b"userID,itemID,rating\n", b"5", b" ", b"\x00", b"-", b"e9", b"\xc3\xa9"]), max_size=60).map(b"".join)


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=FUZZ_BYTES, errors=st.sampled_from(["raise", "skip"]), blocks=BLOCKS)
    def test_only_data_or_config_errors_escape(self, data, errors, blocks):
        with mock.patch.object(dataio, "_BLOCK_BYTES", blocks):
            for parse in (pr.parse_movielens, pr.parse_csv):
                try:
                    cols = parse(io.BytesIO(data), errors=errors).records
                    if len(cols):
                        pr.build_matrix(cols)
                except (DataError, ConfigError):
                    pass


class TestFramingErrors:
    def test_undecodable_line_names_its_line(self):
        data = b"1::1::5::10\n2::\xff\xfe::3::11\n3::3::4::12\n"
        with pytest.raises(LineParseError) as exc:
            pr.parse_movielens(io.BytesIO(data))
        assert exc.value.line_no == 2
        assert "not valid UTF-8" in str(exc.value)
        res = pr.parse_movielens(io.BytesIO(data), errors="skip")
        assert [u for u, _, _ in observations(res.records)] == ["1", "3"] and res.skipped == 1

    def test_undecodable_csv_header_raises_under_skip(self):
        with pytest.raises(LineParseError) as exc:
            pr.parse_csv(io.BytesIO(b"userID,itemID,\xffrating\n1,2,3\n"), errors="skip")
        assert exc.value.line_no == 1

    def test_timestamp_beyond_64_bits(self):
        with pytest.raises(LineParseError) as exc:
            pr.parse_movielens(io.BytesIO(f"1::2::3::{2**63}\n".encode()))
        assert "64-bit" in str(exc.value)

    @pytest.mark.parametrize("delimiter", ["", "\n", ";\n"])
    def test_delimiter_with_line_break_is_config_error(self, delimiter):
        with pytest.raises(ConfigError):
            pr.parse_csv(io.BytesIO(b"userID,itemID,rating\n"), delimiter=delimiter)

    @pytest.mark.parametrize("parse", [pr.parse_movielens, pr.parse_csv], ids=["movielens", "csv"])
    def test_text_stream_or_list_is_type_error(self, parse):
        text = "userID,itemID,rating\n1::2::3::4\n"
        stream = io.StringIO(text)
        for source in (stream, [text], [text.encode()]):
            with pytest.raises(TypeError, match='open the file with "rb"'):
                parse(source)
        assert stream.read() == text  # the check consumed nothing
