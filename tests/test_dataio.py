import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import entry_triples, items_of
from paretorank.errors import ConfigError, DataError, LineParseError


def records(*triples):
    return [pr.RatingRecord(u, i, float(r)) for u, i, r in triples]


class TestParseMovielens:
    def test_wellformed_line(self):
        res = pr.parse_movielens(io.BytesIO(b"1::1193::5::978300760\n"))
        assert res.skipped == 0
        (rec,) = res.records
        assert (rec.user_id, rec.item_id, rec.rating, rec.timestamp) == ("1", "1193", 5.0, 978300760)

    def test_empty_stream(self):
        assert pr.parse_movielens(io.BytesIO(b"")).records == []

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
        res = pr.parse_movielens(["1::2::4::9\r\n", "3::4::2::8\n"])
        assert [r.user_id for r in res.records] == ["1", "3"]

    def test_file_order_preserved(self):
        data = b"9::1::5::1\n2::7::1::2\n"
        res = pr.parse_movielens(io.BytesIO(data))
        assert [(r.user_id, r.item_id) for r in res.records] == [("9", "1"), ("2", "7")]

    def test_non_finite_rating_rejected(self):
        with pytest.raises(LineParseError):
            pr.parse_movielens(io.BytesIO(b"1::2::nan::3\n"))

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            pr.parse_movielens(io.BytesIO(b""), errors="ignore")


class TestParseCsv:
    def test_row_with_extra_columns(self):
        data = b"userID,itemID,rating,mood\n15,22,4,happy\n"
        res = pr.parse_csv(io.BytesIO(data))
        (rec,) = res.records
        assert (rec.user_id, rec.item_id, rec.rating) == ("15", "22", 4.0)
        assert rec.timestamp is None

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
        res = pr.parse_csv(io.BytesIO(data), columns=("u", "i", "r"), delimiter=";")
        (rec,) = res.records
        assert (rec.user_id, rec.item_id, rec.rating) == ("7", "9", 3.5)

    def test_skip_policy(self):
        data = b"userID,itemID,rating\n1,2,5\n3,4\n5,6,bad\n7,8,2\n"
        res = pr.parse_csv(io.BytesIO(data), errors="skip")
        assert len(res.records) == 2
        assert res.skipped == 2

    def test_empty_input(self):
        with pytest.raises(DataError):
            pr.parse_csv(io.BytesIO(b""))


class TestBuildMatrix:
    def test_counts(self):
        m = pr.build_matrix(records(("a", "x", 3), ("a", "y", 4), ("b", "x", 5)))
        assert (m.n_users, m.n_items, m.n_entries) == (2, 2, 3)

    def test_duplicate_keeps_last(self):
        m = pr.build_matrix(records(("a", "x", 3), ("a", "x", 5)))
        assert m.n_entries == 1
        assert items_of(m, 0)[0] == 5.0

    def test_observed_scale(self):
        m = pr.build_matrix(records(("a", "x", 1), ("a", "y", 5), ("b", "x", 3)))
        assert (m.r_min, m.r_max) == (1.0, 5.0)

    def test_declared_scale_violation(self):
        with pytest.raises(DataError):
            pr.build_matrix(records(("a", "x", 7)), scale=(1, 5))

    def test_empty_input(self):
        with pytest.raises(DataError):
            pr.build_matrix([])

    def test_first_appearance_index_order(self):
        m = pr.build_matrix(records(("b", "y", 2), ("a", "x", 3), ("b", "x", 4)))
        assert m.user_ids == ["b", "a"]
        assert m.item_ids == ["y", "x"]
        assert m.user_to_index == {"b": 0, "a": 1}

    def test_roundtrip_entry_count(self):
        data = b"1::1::5::0\n1::2::4::0\n1::1::3::0\n2::1::2::0\n"
        res = pr.parse_movielens(io.BytesIO(data))
        m = pr.build_matrix(res.records)
        assert m.n_entries == 4 - 1  # one duplicate (1,1)
        assert items_of(m, 0)[0] == 3.0  # last wins

    def test_row_is_array_view(self):
        m = pr.build_matrix(records(("a", "x", 3), ("a", "y", 4), ("b", "x", 5)))
        assert items_of(m, 0) == {0: 3.0, 1: 4.0}
        assert items_of(m, 1) == {0: 5.0}
        items, ratings = m.row(0)
        assert np.shares_memory(items, m.indices) and np.shares_memory(ratings, m.ratings)


class TestSplit:
    def test_ratio_zero(self):
        m = pr.build_matrix(records(("a", "x", 3), ("b", "y", 4)))
        sp = pr.split(m, 0.0, seed=1)
        assert sp.test.n_entries == 0
        assert sorted(entry_triples(sp.train)) == sorted(entry_triples(m))

    def test_ratio_one(self):
        m = pr.build_matrix(records(("a", "x", 3), ("b", "y", 4)))
        sp = pr.split(m, 1.0, seed=1)
        assert sp.train.n_entries == 0
        assert sp.test.n_entries == 2

    def test_binomial_bound_and_reproducibility(self):
        # 1000 entries, ratio 0.2: P(|test| outside [150, 250]) < 1e-3 (binomial tail)
        m = pr.build_matrix(records(*((f"u{i % 50}", f"i{i // 50}", 1 + i % 5) for i in range(1000))))
        sp1 = pr.split(m, 0.2, seed=123)
        sp2 = pr.split(m, 0.2, seed=123)
        assert 150 <= sp1.test.n_entries <= 250
        assert entry_triples(sp1.test) == entry_triples(sp2.test)
        assert entry_triples(sp1.train) == entry_triples(sp2.train)

    def test_index_space_shared(self):
        # user "b" has a single entry; with it in test, b must keep a train row
        m = pr.build_matrix(records(("a", "x", 3), ("a", "y", 4), ("b", "x", 5)))
        for seed in range(20):
            sp = pr.split(m, 0.5, seed=seed)
            assert sp.train.n_users == sp.test.n_users == m.n_users
            assert sp.train.n_items == sp.test.n_items == m.n_items

    def test_bad_ratio(self):
        m = pr.build_matrix(records(("a", "x", 3)))
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
        recs = [pr.RatingRecord(f"u{u}", f"i{i}", float(1 + (u + i) % 5)) for u, i in entries]
        m = pr.build_matrix(recs)
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
        # duplicates and out-of-order ids included: the dict-of-dicts reference
        # keeps a duplicate's first position and its last rating
        recs = [pr.RatingRecord(f"u{u}", f"i{i}", float(r)) for u, i, r in triples]
        u_index, i_index, rows = {}, {}, []
        for rec in recs:
            u = u_index.setdefault(rec.user_id, len(u_index))
            if u == len(rows):
                rows.append({})
            rows[u][i_index.setdefault(rec.item_id, len(i_index))] = rec.rating
        reference = [(u, i, r) for u, row in enumerate(rows) for i, r in row.items()]
        m = pr.build_matrix(recs)
        assert m.indptr.tolist() == [0, *itertools.accumulate(len(row) for row in rows)]
        assert (m.user_ids, m.item_ids) == (list(u_index), list(i_index))
        assert entry_triples(m) == reference
        test_draws = np.random.default_rng(seed).random(len(reference)) < ratio
        sp = pr.split(m, ratio, seed)
        assert entry_triples(sp.test) == [e for e, t in zip(reference, test_draws) if t]
        assert entry_triples(sp.train) == [e for e, t in zip(reference, test_draws) if not t]
