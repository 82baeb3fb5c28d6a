import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import entry_triples, matrix_from, run_under_openblas_core


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


SHIPPED = [
    lambda: pr.init_model(2, 3, 2, seed=0),
    lambda: pr.RandomScorer(2, 3, 0),
    lambda: pr.ZipfScorer(pr.PopularityTable(np.array([3, 1, 2])), 2),
]


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

    @pytest.mark.parametrize("make", SHIPPED, ids=["factors", "random", "zipf"])
    @pytest.mark.parametrize("user", [1.5, 0.0, np.float64(1.0), True, "0", None])
    def test_non_integer_user_rejected(self, make, user):
        message = f"user index must be an integer, got {user!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            make().score_row(user)

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
        before = scorer._row.copy()
        recs = pr.top_k(scorer, train, k=2)
        # the row shared by every user stays read-only and unwritten by the walk
        assert not scorer._row.flags.writeable and scorer._row.tobytes() == before.tobytes()
        # score_row returns a fresh row: writing it changes no later row
        scorer.score_row(0)[:] = 42.0
        assert scorer.score_row(2).tobytes() == before.tobytes()
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


class _CountingScorer(_FixedScorer):
    """A fixed score table that counts its score_row calls per user."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = np.zeros(self.n_users, dtype=int)

    def score_row(self, user):
        self.calls[user] += 1
        return super().score_row(user)


class _BlockCountingScorer(_CountingScorer):
    """A fixed score table filled a block at a time, counting each user's fills;
    score_row must not be called."""

    def score_row(self, user):
        raise AssertionError(f"score_row({user}) called on a scorer with score_rows")

    def score_rows(self, start, out):
        self.calls[start:start + len(out)] += 1
        out[...] = self.table[start:start + len(out)]


@st.composite
def walk_cases(draw):
    """Catalogues up to five 64-item groups wide, tie-heavy or continuous rows with +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 5 * 64))
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        table = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(n_users, n_items))
    else:
        table = rng.standard_normal((n_users, n_items))
    infs = rng.random((n_users, n_items)) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    table[infs] = rng.choice([-np.inf, np.inf], size=int(infs.sum()))
    rated = []
    for kind in draw(st.lists(st.sampled_from(["none", "some", "all", "all but a few"]),
                              min_size=n_users, max_size=n_users)):
        n_rated = {"none": 0, "some": int(rng.integers(0, n_items + 1)), "all": n_items,
                   "all but a few": max(0, n_items - int(rng.integers(0, k)))}[kind]
        rated.append(set(rng.choice(n_items, size=n_rated, replace=False).tolist()))
    # entries in a shuffled order within each user, some users with none
    lists = [rng.permutation(n_items)[:rng.integers(0, min(n_items, 6) + 1)] for _ in range(n_users)]
    indptr = np.concatenate(([0], np.cumsum([len(e) for e in lists])))
    indices = np.concatenate([np.empty(0, dtype=np.intp), *lists]).astype(np.intp)
    entries = pr.RatingMatrix([f"u{u}" for u in range(n_users)], [f"i{j}" for j in range(n_items)],
                              indptr, indices, np.full(indices.size, 3.0), 1.0, 5.0)
    block_rows = draw(st.integers(1, 4))
    return table, rated, k, entries, block_rows


class TestWalk:
    """The blocked walk against the full-sort top-K and a per-user score_row gather."""

    @settings(max_examples=200, deadline=None)
    @given(walk_cases())
    def test_matches_references(self, case):
        table, rated, k, entries, block_rows = case
        train = matrix_with_rated(rated, table.shape[1])
        width = -(-table.shape[1] // pr.model._GROUP) * pr.model._GROUP
        want_recs = reference_top_k(_FixedScorer(table), train, k)
        want_raw = [table[u, entries.row(u)[0]] for u in range(entries.n_users)]
        want_raw = np.concatenate([np.empty(0), *want_raw])
        before = table.copy()
        # a few rows per block, so most walks cover several blocks and end on a part-full one
        with mock.patch.object(pr.model, "_BLOCK_BYTES", block_rows * 8 * width):
            # the per-row path, then the block path: each user is scored exactly once
            for make in (_CountingScorer, _BlockCountingScorer):
                scorer = make(table)
                recs, raw = pr.score_and_select(scorer, train, k, entries)
                assert scorer.calls.tolist() == [1] * scorer.n_users
                assert_same_recs(recs, want_recs)
                # a list owns its data or views its block's gather of selected items, never
                # more: no list keeps a block's candidates or scores alive
                held = {}
                for items in recs.items:
                    if items.base is not None:
                        held.setdefault(id(items.base), [items.base.size, 0])[1] += items.size
                assert all(size <= listed for size, listed in held.values())
                assert raw.tobytes() == want_raw.tobytes()

                scorer = make(table)
                assert_same_recs(pr.top_k(scorer, train, k), want_recs)
                assert scorer.calls.tolist() == [1] * scorer.n_users

                scorer = make(table)
                assert pr.score_entries(scorer, entries).tobytes() == want_raw.tobytes()
                assert scorer.calls.tolist() == [1] * scorer.n_users
        assert table.tobytes() == before.tobytes()  # score rows are copied, never written

    def test_lone_neg_inf_candidate_sorts_before_the_padding(self):
        # user 0's 500 candidates end with one -inf score; user 1's 600 pad
        # user 0's row of sort keys, whose padding must not overtake it
        rng = np.random.default_rng(3)
        table = rng.standard_normal((2, 2048))
        unrated = rng.choice(2048, size=500, replace=False)
        table[0, unrated[0]] = -np.inf
        rated = [set(range(2048)) - set(unrated.tolist()), set()]
        train = matrix_with_rated(rated, 2048)
        recs = pr.top_k(_FixedScorer(table), train, 600)
        assert_same_recs(recs, reference_top_k(_FixedScorer(table), train, 600))
        assert recs.items[0][-1] == unrated[0]

    def test_one_ragged_block(self):
        # 200 items, k = 4: groups of 16 items, item i in group i mod 13. Every
        # row is in one block, and their candidate spans differ: 0, 200, 150, 4, 2
        n_items, k = 200, 4
        table = np.zeros((5, n_items))
        rated = [set(range(n_items)), set(), set(range(50)), set(), set(range(n_items)) - {7, 150}]
        table[1] = 1.0  # every item ties at the bound: the key matrix is the catalogue wide
        table[2, 50:] = -np.inf  # -inf candidates among two finite ones, then padding
        table[2, [60, 120]] = [2.0, 0.5]
        table[3, [5, 20, 100, 199]] = [1.0, 3.0, 2.0, 4.0]  # 4 groups above the rest: kk candidates
        table[4] = np.random.default_rng(5).standard_normal(n_items)  # kk = 2 unrated items
        train = matrix_with_rated(rated, n_items)
        want = reference_top_k(_FixedScorer(table), train, k)
        assert [items.tolist() for items in want.items[:4]] == [
            [], [0, 1, 2, 3], [60, 120, 50, 51], [199, 20, 100, 5]]
        assert sorted(want.items[4].tolist()) == [7, 150]
        width = -(-n_items // pr.model._GROUP) * pr.model._GROUP
        for make in (_FixedScorer, _BlockCountingScorer):
            with (mock.patch.object(pr.model, "_BLOCK_BYTES", 5 * 8 * width),
                  mock.patch.object(pr.model, "_select", wraps=pr.model._select) as select):
                recs = pr.top_k(make(table), train, k)
            assert select.call_count == 1 and select.call_args.args[0].shape == (5, width)
            assert_same_recs(recs, want)

    def test_peak_memory_is_a_few_blocks_when_every_item_is_a_candidate(self):
        class ConstantScorer:
            n_users, n_items = 300, 4000

            def score_rows(self, start, out):
                out[...] = 0.5

        rated = [{u, (7 * u + 3) % 4000} for u in range(300)]
        train = matrix_with_rated(rated, 4000)
        tracemalloc.start()
        try:
            recs = pr.top_k(ConstantScorer(), train, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [items.tolist() for items in recs.items] == [
            [i for i in range(12) if i not in r][:10] for r in rated]
        lists = sys.getsizeof(recs.items) + sum(sys.getsizeof(items) for items in recs.items)
        # at most one block (32 rows of 4,000 scores) of each: the scores, the
        # candidates' flat indices, the key matrix, the gathered scores and their
        # negation, and the sort's order, at most 5 of them live at once; 8 leaves
        # room for the small per-row and per-group arrays
        assert peak - lists < 8 * pr.model._BLOCK_BYTES

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (2, 2)],
                             ids=["more users", "fewer users", "fewer items"])
    def test_matrices_must_have_the_scorers_shape(self, shape):
        # a 2-user x 4-item train matrix: a scorer of another shape must not be walked
        train = matrix_with_rated([{0}, {1, 3}], n_items=4)
        for make in (_FixedScorer, _BlockCountingScorer):
            scorer = make(np.zeros(shape))
            with pytest.raises(ValueError, match="^train is 2 users x 4 items, the scorer"):
                pr.top_k(scorer, train, 2)
            with pytest.raises(ValueError, match="^entries is 2 users x 4 items, the scorer"):
                pr.score_entries(scorer, train)
            with pytest.raises(ValueError):
                pr.score_and_select(scorer, train, 2, train)

    def test_entries_must_span_the_scorers_users(self):
        train = matrix_with_rated([set(), set()], n_items=3)
        with pytest.raises(ValueError):
            pr.score_and_select(_FixedScorer(np.zeros((2, 3))), train, 1,
                                matrix_with_rated([{0}], n_items=3))
        with pytest.raises(ValueError, match="^entries is 2 users x 2 items"):
            pr.score_and_select(_FixedScorer(np.zeros((2, 3))), train, 1,
                                matrix_with_rated([{0}, {1}], n_items=2))


def padded_block(n_rows, n_items):
    """A walk-like block: rows of n_items rounded up to 16 columns, NaN-filled."""
    return np.full((n_rows, -(-n_items // 16) * 16), np.nan)


def assert_block_is_stacked_rows(scorer, start, n_rows, reference=None, **errstate):
    """score_rows of a many-user run into a padded block equals the one-user rows of
    ``reference`` (the scorer itself by default) stacked, byte for byte; the padding
    stays NaN."""
    block = padded_block(n_rows, scorer.n_items)
    with np.errstate(**errstate):
        scorer.score_rows(start, block[:, :scorer.n_items])
        want = [(reference or scorer).score_row(u) for u in range(start, start + n_rows)]
    want = np.stack(want) if want else np.empty((0, scorer.n_items))
    assert block[:, :scorer.n_items].tobytes() == want.tobytes()
    assert np.isnan(block[:, scorer.n_items:]).all()


def draw_run(data, n_users):
    """A run of users (start, n_rows) within [0, n_users), empty runs included."""
    start = data.draw(st.integers(0, n_users))
    return start, data.draw(st.integers(0, n_users - start))


@pytest.mark.parametrize("scorer", [pr.FactorModel, pr.RandomScorer, pr.ZipfScorer])
def test_shipped_scorers_define_score_rows_and_inherit_score_row(scorer):
    assert issubclass(scorer, pr.model.Scorer)
    assert "score_rows" in vars(scorer) and "score_row" not in vars(scorer)
    assert scorer.score_row is pr.model.Scorer.score_row


class TestScoreRows:
    """Each shipped scorer's score_rows of a run against its one-user runs, bit for bit
    (RandomScorer's against its table: tests/test_baselines.py)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_users=st.integers(1, 8), n_items=st.integers(1, 40),
           d=st.sampled_from([1, 1, 2, 3, 8, 9, 33]), exponent=st.sampled_from([0, 150, 160]),
           seed=st.integers(0, 2**32 - 1))
    def test_factor_model(self, data, n_users, n_items, d, exponent, seed):
        # exponents 150 and 160 push some dot products past the float range: inf,
        # and NaN where +inf and -inf terms meet, as the walk's errstate allows
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        model = pr.FactorModel(U=rng.standard_normal((n_users, d)) * scale,
                               V=rng.standard_normal((n_items, d)) * scale)
        assert_block_is_stacked_rows(model, *draw_run(data, n_users),
                                     over="ignore", invalid="ignore")

    @settings(max_examples=50, deadline=None)
    @given(counts=st.lists(st.integers(0, 9), min_size=1, max_size=20), data=st.data())
    def test_zipf_scorer_leaves_the_shared_row_unwritten(self, counts, data):
        scorer = pr.ZipfScorer(pr.PopularityTable(np.array(counts)), 5)
        before = scorer._row.copy()
        assert_block_is_stacked_rows(scorer, *draw_run(data, 5))
        assert not scorer._row.flags.writeable and scorer._row.tobytes() == before.tobytes()
        # score_row returns a fresh row: writing it changes no later row
        scorer.score_row(0)[:] = -1.0
        assert scorer.score_row(4).tobytes() == before.tobytes()

    @pytest.mark.parametrize("make", SHIPPED, ids=["factors", "random", "zipf"])
    def test_bad_users_rejected(self, make):
        for start in (0.0, np.float64(1.0), True, np.False_, np.array([0]), None):
            message = f"user index must be an integer, got {start!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                make().score_rows(start, np.zeros((1, 3)))
        # the first user of the run outside [0, 2) is named
        for start, n_rows, bad in ((-1, 2, -1), (1, 2, 2), (0, 3, 2), (2, 1, 2), (5, 0, 5),
                                   (np.uint64(2**62), 1, 2**62), (2**64, 1, 2**64)):
            with pytest.raises(IndexError, match=f"^user index {bad} out of range \\[0, 2\\)$"):
                make().score_rows(start, np.zeros((n_rows, 3)))


_SAME_BITS_CHILD = """
import numpy as np
import paretorank as pr

rng = np.random.default_rng(5)
for n_users, n_items, d in ((9, 1, 1), (40, 37, 1), (40, 1500, 8), (25, 3706, 8), (30, 100, 33)):
    model = pr.FactorModel(U=rng.standard_normal((n_users, d)), V=rng.standard_normal((n_items, d)))
    start, stop = sorted(rng.choice(n_users + 1, size=2, replace=False).tolist())
    block = np.full((stop - start, -(-n_items // 16) * 16), np.nan)
    model.score_rows(start, block[:, :n_items])
    rows = np.stack([model.score_row(u) for u in range(start, stop)])
    assert block[:, :n_items].tobytes() == rows.tobytes(), (n_users, n_items, d)
print("same bits")
"""


@pytest.mark.parametrize("core, names", [("Prescott", {"Prescott", "Katmai"}),
                                         ("Haswell", {"Haswell"})])
def test_score_rows_keeps_score_rows_bits_under_other_blas_kernels(core, names):
    # score_row is the one-user run of score_rows: a many-user run gives the
    # one-user runs' bits only while numpy runs the same gemv for each stacked
    # row; a kernel that rounds differently must too
    out, name = run_under_openblas_core(core, _SAME_BITS_CHILD)
    assert out.split() == ["same", "bits"]
    # the forced kernels ran (OpenBLAS runs Prescott on its Katmai kernels)
    assert name in names or name == ""
