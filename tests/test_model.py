import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import entry_triples, matrix_from


class TestInitModel:
    def test_shapes_and_range(self):
        m = pr.init_model(2, 3, 4, seed=1)
        assert m.U.shape == (2, 4)
        assert m.V.shape == (3, 4)
        assert ((m.U > 0) & (m.U < 1)).all()
        assert ((m.V > 0) & (m.V < 1)).all()

    def test_deterministic(self):
        a = pr.init_model(5, 6, 3, seed=9)
        b = pr.init_model(5, 6, 3, seed=9)
        assert a.U.tobytes() == b.U.tobytes()
        assert a.V.tobytes() == b.V.tobytes()

    def test_scalar_case(self):
        m = pr.init_model(1, 1, 1, seed=0)
        assert 0 < m.U[0, 0] < 1
        assert 0 < m.V[0, 0] < 1

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            pr.init_model(0, 3, 2, seed=0)
        with pytest.raises(ValueError):
            pr.init_model(3, 0, 2, seed=0)
        with pytest.raises(ValueError):
            pr.init_model(3, 3, 0, seed=0)


class TestScore:
    def test_dot_product(self):
        m = pr.FactorModel(U=np.array([[2.0, 0.0]]), V=np.array([[3.0, 5.0]]))
        assert m.score_row(0)[0] == 6.0

    def test_zero_item(self):
        m = pr.FactorModel(U=np.array([[1.0, 2.0]]), V=np.array([[0.0, 0.0]]))
        assert m.score_row(0)[0] == 0.0

    def test_half_half(self):
        m = pr.FactorModel(U=np.array([[1.0, 1.0]]), V=np.array([[0.5, 0.5]]))
        assert m.score_row(0)[0] == 1.0

    def test_out_of_range(self):
        m = pr.init_model(2, 2, 2, seed=0)
        with pytest.raises(IndexError):
            m.score_row(2)
        with pytest.raises(IndexError):
            m.score_row(-1)

    def test_bilinear_in_user_row(self):
        rng = np.random.default_rng(3)
        m = pr.FactorModel(U=rng.random((1, 6)), V=rng.random((1, 6)))
        base = m.score_row(0)[0]
        scaled = pr.FactorModel(U=2.5 * m.U, V=m.V)
        assert scaled.score_row(0)[0] == pytest.approx(2.5 * base)

    def test_score_row_matches_score(self):
        m = pr.init_model(3, 5, 2, seed=4)
        row = m.score_row(1)
        assert row.shape == (5,)
        for j in range(5):
            assert row[j] == pytest.approx(m.U[1] @ m.V[j])


class TestScaleScores:
    def test_endpoints_and_midpoint(self):
        assert pr.scale_scores([0, 1, 2], (1, 5)).tolist() == [1.0, 3.0, 5.0]

    def test_constant_batch(self):
        assert pr.scale_scores([7, 7, 7], (1, 5)).tolist() == [3.0, 3.0, 3.0]

    def test_two_points(self):
        assert pr.scale_scores([0, 4], (1, 5)).tolist() == [1.0, 5.0]

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            pr.scale_scores([], (1, 5))

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            pr.scale_scores([1, 2], (5, 5))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_monotone_and_bounded(self, scores):
        out = pr.scale_scores(scores, (1, 5))
        assert (out >= 1.0 - 1e-9).all() and (out <= 5.0 + 1e-9).all()
        order = np.argsort(np.asarray(scores), kind="stable")
        assert (np.diff(out[order]) >= -1e-9).all()


class _FixedScorer:
    """Duck-typed scorer with a prescribed score table."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n_users, self.n_items = self.table.shape

    def score_row(self, user):
        return self.table[user]

    def score(self, user, item):
        return float(self.table[user, item])


def one_user_matrix(rated_items, n_items):
    triples = [("u", f"i{j}", 3.0) for j in rated_items]
    triples += [("u", f"i{j}", 1.0) for j in range(n_items) if j not in rated_items]
    m = matrix_from(triples)
    # keep only the rated subset as entries, with the full item space
    return m.subset(np.isin(m.indices, [m.item_ids.index(f"i{j}") for j in rated_items]))


def reference_top_k(scorer, train, k):
    """Full-sort oracle for top_k: lexsort every unrated item, keep the first k."""
    n_items = scorer.n_items
    items = []
    for u in range(scorer.n_users):
        unrated = np.ones(n_items, dtype=bool)
        unrated[train.row(u)[0]] = False
        cand = np.flatnonzero(unrated)
        s = scorer.score_row(u)[cand]
        items.append(cand[np.lexsort((cand, -s))[:k]])
    return pr.RecommendationSet(k=k, items=items)


def assert_same_recs(got, want):
    """List for list: same items, same dtypes."""
    assert got.k == want.k
    assert len(got.items) == len(want.items)
    for gi, wi in zip(got.items, want.items):
        assert gi.dtype == wi.dtype
        assert gi.tolist() == wi.tolist()


def matrix_with_rated(rated_sets, n_items):
    """A matrix over len(rated_sets) users x n_items where user u rated exactly rated_sets[u]."""
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rated_sets])))
    indices = np.array([i for r in rated_sets for i in sorted(r)], dtype=np.intp)
    return pr.RatingMatrix([f"u{u}" for u in range(len(rated_sets))],
                           [f"i{j}" for j in range(n_items)],
                           indptr, indices, np.full(indices.size, 3.0), 1.0, 5.0)


@st.composite
def top_k_cases(draw):
    n_users = draw(st.integers(1, 5))
    n_items = draw(st.integers(1, 12))
    # small integer scores force ties at the k-th place; the float branch adds +-inf
    value = draw(st.sampled_from([
        st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]),
        st.floats(allow_nan=False),
    ]))
    table = draw(st.lists(st.lists(value, min_size=n_items, max_size=n_items),
                          min_size=n_users, max_size=n_users))
    every_item = set(range(n_items))
    rated = draw(st.lists(st.sets(st.integers(0, n_items - 1)) | st.just(every_item),
                          min_size=n_users, max_size=n_users))
    k = draw(st.integers(1, n_items + 3))
    return table, rated, k


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(top_k_cases())
    def test_matches_full_sort_reference(self, case):
        table, rated, k = case
        scorer = _FixedScorer(table)
        train = matrix_with_rated(rated, scorer.n_items)
        assert_same_recs(pr.top_k(scorer, train, k), reference_top_k(scorer, train, k))

    def test_leaves_shared_score_row_unchanged(self):
        train = matrix_with_rated([{0, 3}, {1}, set()], n_items=5)
        scorer = pr.ZipfScorer(pr.PopularityTable.from_matrix(train), train.n_users)
        before = scorer.score_row(0).copy()
        recs = pr.top_k(scorer, train, k=2)
        assert scorer.score_row(0) is scorer.score_row(2)  # the row is shared by every user
        assert scorer.score_row(0).tobytes() == before.tobytes()
        assert_same_recs(recs, reference_top_k(scorer, train, k=2))

    def test_forced_ordering(self):
        train = one_user_matrix(rated_items=[], n_items=3)
        scorer = _FixedScorer([[0.9, 0.5, 0.1]])
        recs = pr.top_k(scorer, train, k=2)
        assert recs.items[0].tolist() == [0, 1]
        assert scorer.score_row(0)[recs.items[0]].tolist() == [0.9, 0.5]

    def test_k_larger_than_candidates(self):
        train = one_user_matrix(rated_items=[0], n_items=3)
        scorer = _FixedScorer([[0.9, 0.5, 0.1]])
        recs = pr.top_k(scorer, train, k=10)
        assert recs.items[0].tolist() == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        train = one_user_matrix(rated_items=[], n_items=4)
        scorer = _FixedScorer([[0.5, 0.9, 0.9, 0.2]])
        recs = pr.top_k(scorer, train, k=3)
        assert recs.items[0].tolist() == [1, 2, 0]

    def test_excludes_training_items(self):
        rng = np.random.default_rng(8)
        train = matrix_from(
            (f"u{u}", f"i{j}", float(1 + rng.integers(5)))
            for u in range(12)
            for j in rng.choice(30, size=10, replace=False)
        )
        model = pr.init_model(train.n_users, train.n_items, 4, seed=2)
        out = pr.top_k(model, train, k=5)
        for u in range(train.n_users):
            assert not set(out.items[u].tolist()) & set(train.row(u)[0].tolist())

    def test_k_must_be_positive(self):
        train = one_user_matrix(rated_items=[], n_items=3)
        with pytest.raises(ValueError):
            pr.top_k(_FixedScorer([[0.1, 0.2, 0.3]]), train, k=0)


def test_score_entries_alignment():
    m = matrix_from([("a", "x", 3.0), ("a", "y", 4.0), ("b", "y", 2.0)])
    model = pr.init_model(2, 2, 3, seed=0)
    out = pr.score_entries(model, m)
    expected = [model.U[u] @ model.V[i] for u, i, _ in entry_triples(m)]
    assert out.tolist() == pytest.approx(expected)
