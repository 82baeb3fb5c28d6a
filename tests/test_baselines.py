import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import lists_of, matrix_from
from test_model import assert_block_is_stacked_rows
from paretorank.errors import DivergenceError


# tables of at most this many cells are built whole by the oracle
_TABLE_CELLS = 2**21


class Table:
    """The oracle: the random baseline's definition, row u of
    ``default_rng(seed).random((n_users, n_items))``.

    A table past _TABLE_CELLS is not built; its row u is read from a fresh
    PCG64(seed) advanced by u * n_items, which test_doubles_take_one_output_each
    pins to the table.
    """

    def __init__(self, n_users, n_items, seed):
        self.n_users, self.n_items, self.seed = n_users, n_items, seed
        self.table = (np.random.default_rng(seed).random((n_users, n_items))
                      if n_users * n_items <= _TABLE_CELLS else None)

    def score_row(self, user):
        if self.table is not None:
            return self.table[user]
        bitgen = np.random.PCG64(self.seed)
        bitgen.advance(user * self.n_items)
        return np.random.Generator(bitgen).random(self.n_items)


def assert_rows_match_oracle(scorer, users):
    oracle = Table(scorer.n_users, scorer.n_items, scorer.seed)
    for u in users:
        assert scorer.score_row(u).tobytes() == oracle.score_row(u).tobytes(), u


ORACLE_SEEDS = [0, 1, 12, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5]
N_EDGE_USERS = 2**70
# an in-order walk from the first user, two users whose rows start past the
# 2**64th draw, the last user, and a jump back to user 0
EDGE_USERS = [0, 1, 2, 2**64 + 1, 2**64 + 2, N_EDGE_USERS - 1, 0]


class TestRandomScorer:
    def test_deterministic(self):
        s = pr.RandomScorer(5, 7, seed=3)
        assert s.score_row(2)[4] == s.score_row(2)[4]
        assert s.score_row(1).tolist() == s.score_row(1).tolist()

    def test_range(self):
        s = pr.RandomScorer(4, 9, seed=1)
        for u in range(4):
            row = s.score_row(u)
            assert ((row > 0) & (row < 1)).all()

    def test_different_seeds_differ_somewhere(self):
        a = pr.RandomScorer(10, 10, seed=1)
        b = pr.RandomScorer(10, 10, seed=2)
        grid_a = np.array([a.score_row(u) for u in range(10)])
        grid_b = np.array([b.score_row(u) for u in range(10)])
        assert (grid_a != grid_b).any()

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_one_generator_per_row(self, seed):
        # the table's rows in every order: ascending, descending, repeated, shuffled
        users = list(range(30)) + [29, 29, 0]
        random.Random(seed).shuffle(shuffled := list(range(30)))
        for order in (users, users[::-1], shuffled):
            assert_rows_match_oracle(pr.RandomScorer(30, 7, seed), order)
        assert_rows_match_oracle(pr.RandomScorer(N_EDGE_USERS, 7, seed), EDGE_USERS)
        assert_rows_match_oracle(pr.RandomScorer(2**33, 7, seed), [0, 1, 2**32, 2**33 - 1, 0])

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_one_item_rows(self, seed):
        assert_rows_match_oracle(pr.RandomScorer(30, 1, seed), [0, 1, 2, 29, 0, 17])
        assert_rows_match_oracle(pr.RandomScorer(N_EDGE_USERS, 1, seed), EDGE_USERS)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_users=st.integers(1, 2**70), n_items=st.integers(1, 40),
           seed=st.integers(0, 2**160))
    def test_matches_one_generator_per_row_property(self, data, n_users, n_items, seed):
        users = data.draw(st.lists(st.integers(0, n_users - 1), min_size=1, max_size=8))
        assert_rows_match_oracle(pr.RandomScorer(n_users, n_items, seed), users)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_users=st.integers(1, 2**70), n_items=st.integers(1, 12),
           seed=st.integers(0, 2**64))
    def test_score_rows_matches_the_table(self, data, n_users, n_items, seed):
        scorer = pr.RandomScorer(n_users, n_items, seed)
        oracle = Table(n_users, n_items, seed)
        # out-of-order one-user runs first, so the run may need a reset
        for u in data.draw(st.lists(st.integers(0, n_users - 1), max_size=3)):
            scorer.score_row(u)
        start = data.draw(st.integers(0, n_users - 1))
        stop = data.draw(st.integers(start, min(start + 4, n_users)))
        assert_block_is_stacked_rows(scorer, start, stop - start, oracle)
        if stop < n_users:
            # the run after the block is drawn straight on, with no reset
            assert scorer._next_user == stop
            assert scorer.score_row(stop).tobytes() == oracle.score_row(stop).tobytes()

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_runs_at_and_past_2_63(self, seed):
        # Python-int starts reach users past numpy's integer range
        scorer = pr.RandomScorer(N_EDGE_USERS, 5, seed)
        oracle = Table(N_EDGE_USERS, 5, seed)
        for start in (2**63 - 2, 2**63, np.uint64(2**63 + 5), 2**63 + 8, 2**64 + 1, 0,
                      N_EDGE_USERS - 3):
            assert_block_is_stacked_rows(scorer, start, 3, oracle)

    def test_memory_does_not_grow_with_users(self):
        scorer = pr.RandomScorer(2**40, 3, 1)
        tracemalloc.start()
        try:
            row = scorer.score_row(2**40 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.tobytes() == Table(2**40, 3, 1).score_row(2**40 - 1).tobytes()
        assert peak < 2**20

    def test_walk_over_several_chunks_matches_oracle(self):
        rng = np.random.default_rng(9)
        n_users, n_items = 2 * 4096 + 300, 30
        users = np.repeat(np.arange(n_users), 4)
        items = np.concatenate([rng.choice(n_items, size=4, replace=False) for _ in range(n_users)])
        columns = pr.RatingColumns.from_ids(users.tolist(), items.tolist(),
                                            rng.integers(1, 6, size=users.size).tolist())
        sp = pr.split(pr.build_matrix(columns), 0.25, 5)
        scorer = pr.RandomScorer(n_users, n_items, seed=12)
        assert scorer.n_users == sp.train.n_users == sp.test.n_users
        recs, raw = pr.score_and_select(scorer, sp.train, 5, sp.test)
        want_recs, want_raw = pr.score_and_select(Table(n_users, n_items, 12),
                                                  sp.train, 5, sp.test)
        assert lists_of(recs) == lists_of(want_recs)
        assert raw.tobytes() == want_raw.tobytes()

    def test_report_matches_oracle_on_test_corpus(self, ml_like_split):
        train, test = ml_like_split.train, ml_like_split.test
        kwargs = dict(k=10, algorithm="random", dataset="d", seed=12, test_ratio=0.2)
        got = pr.evaluate_scorer(pr.RandomScorer(train.n_users, train.n_items, 12),
                                 train, test, **kwargs)
        want = pr.evaluate_scorer(Table(train.n_users, train.n_items, 12),
                                  train, test, **kwargs)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("user", [-1, 5, 10, 2**64])
    def test_user_out_of_range(self, user):
        with pytest.raises(IndexError, match="out of range"):
            pr.RandomScorer(5, 7, 3).score_row(user)

    @pytest.mark.parametrize("seed", [-1, -2**40, True, False, 1.0, "3", None])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            pr.RandomScorer(5, 7, seed)

    @pytest.mark.parametrize("n_users,n_items", [(-3, 7), (0, 7), (5, 0), (5, -1), (True, 7),
                                                 (5, True), (5.0, 7), (5, 7.0), ("5", 7), (5, None)])
    def test_bad_shape_rejected_at_construction(self, n_users, n_items):
        with pytest.raises(ValueError, match="n_users|n_items"):
            pr.RandomScorer(n_users, n_items, 3)

    def test_numpy_integer_shape(self):
        # u * n_items past 2**63 would wrap if n_items stayed an int64
        s = pr.RandomScorer(np.int64(2**62 + 1), np.int64(7), 3)
        assert type(s.n_users) is int and type(s.n_items) is int
        assert_rows_match_oracle(s, [2**62, 0])

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 300), b=st.integers(0, 300), n=st.integers(0, 2**130),
           seed=st.integers(0, 2**70))
    def test_doubles_take_one_output_each(self, a, b, n, seed):
        # the definition rests on numpy's stream: consecutive draws continue one stream of
        # doubles, and advancing by n outputs skips exactly n doubles
        def generator(advance=0):
            bitgen = np.random.PCG64(seed)
            bitgen.advance(advance)
            return np.random.Generator(bitgen)

        rng = generator()
        parts = np.concatenate([rng.random(a), rng.random(b)])
        assert parts.tobytes() == generator().random(a + b).tobytes()
        skip = n % 300
        for start in (0, n - skip):
            skipped = generator(start + skip).random(b)
            assert skipped.tobytes() == generator(start).random(skip + b)[skip:].tobytes()

    def test_numpy_integer_seed(self):
        a = pr.RandomScorer(5, 7, np.int64(3))
        assert a.seed == 3 and type(a.seed) is int
        assert a.score_row(4).tobytes() == pr.RandomScorer(5, 7, 3).score_row(4).tobytes()


class TestPopularityTable:
    def test_ranks_are_permutation(self):
        m = matrix_from([("a", "x", 5), ("b", "x", 4), ("a", "y", 3), ("b", "z", 1)])
        table = pr.PopularityTable.from_matrix(m)
        assert sorted(table.ranks.tolist()) == [1, 2, 3]
        assert table.ranks[m.item_ids.index("x")] == 1

    def test_counts_non_increasing_along_order(self):
        rng = np.random.default_rng(2)
        triples = [
            (f"u{u}", f"i{j}", 3.0)
            for u in range(20)
            for j in rng.choice(15, size=rng.integers(1, 10), replace=False)
        ]
        m = matrix_from(triples)
        table = pr.PopularityTable.from_matrix(m)
        ordered = table.counts[table.order]
        assert (np.diff(ordered) <= 0).all()

    def test_tie_break_by_index(self):
        m = matrix_from([("a", "x", 5), ("a", "y", 3), ("b", "x", 4), ("b", "y", 1)])
        table = pr.PopularityTable.from_matrix(m)
        # equal counts: lower index gets the better rank
        assert table.ranks[0] == 1
        assert table.ranks[1] == 2


class TestZipfScorer:
    def test_inverse_rank_scores(self):
        m = matrix_from([
            *[(f"u{n}", "A", 4) for n in range(10)],
            *[(f"u{n}", "B", 4) for n in range(5)],
            ("u0", "C", 4),
        ])
        table = pr.PopularityTable.from_matrix(m)
        scorer = pr.ZipfScorer(table, m.n_users)
        a, b, c = (m.item_ids.index(x) for x in "ABC")
        assert scorer.score_row(0)[a] == 1.0
        assert scorer.score_row(3)[b] == 0.5
        assert scorer.score_row(7)[c] == pytest.approx(0.3333333333333333)

    def test_user_independent(self):
        m = matrix_from([("a", "x", 5), ("b", "y", 3)])
        scorer = pr.ZipfScorer(pr.PopularityTable.from_matrix(m), m.n_users)
        assert scorer.score_row(0).tolist() == scorer.score_row(1).tolist()

    def test_row_is_read_only(self):
        m = matrix_from([("a", "x", 5), ("b", "y", 3)])
        scorer = pr.ZipfScorer(pr.PopularityTable.from_matrix(m), m.n_users)
        pr.top_k(scorer, m, 1)
        # the row shared by every user is read-only, and the walk left it unwritten
        with pytest.raises(ValueError, match="read-only"):
            scorer._row[0] = 42.0
        assert scorer._row.tolist() == [1.0, 0.5]
        # score_row returns a fresh row: writing it changes no later row
        scorer.score_row(0)[0] = 42.0
        assert scorer.score_row(1).tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("user", [-1, 2, 3])
    def test_user_out_of_range(self, user):
        m = matrix_from([("a", "x", 5), ("b", "y", 3)])
        scorer = pr.ZipfScorer(pr.PopularityTable.from_matrix(m), m.n_users)
        with pytest.raises(IndexError, match=rf"user index {user} out of range \[0, 2\)"):
            scorer.score_row(user)

    @pytest.mark.parametrize("n_users", [-3, 0, True, 2.0, "2", None])
    def test_bad_n_users_rejected_at_construction(self, n_users):
        with pytest.raises(ValueError, match="^zipf n_users must be an integer >= 1, got "):
            pr.ZipfScorer(pr.PopularityTable(np.array([3, 1])), n_users)

    def test_numpy_integer_n_users(self):
        scorer = pr.ZipfScorer(pr.PopularityTable(np.array([3, 1])), np.int64(2))
        assert type(scorer.n_users) is int
        assert scorer.score_row(np.int64(1)).tolist() == [1.0, 0.5]

    def test_ordering_matches_popularity(self):
        rng = np.random.default_rng(4)
        triples = [
            (f"u{u}", f"i{j}", 3.0)
            for u in range(25)
            for j in rng.choice(12, size=rng.integers(2, 9), replace=False)
        ]
        m = matrix_from(triples)
        table = pr.PopularityTable.from_matrix(m)
        scorer = pr.ZipfScorer(table, m.n_users)
        by_score = np.lexsort((np.arange(m.n_items), -scorer.score_row(0)))
        assert by_score.tolist() == table.order.tolist()

    def test_top_k_returns_most_popular_unrated(self):
        m = matrix_from([
            *[(f"u{n}", "A", 4) for n in range(6)],
            *[(f"u{n}", "B", 4) for n in range(4)],
            *[(f"u{n}", "C", 4) for n in range(2)],
            ("u9", "D", 4),
        ])
        table = pr.PopularityTable.from_matrix(m)
        scorer = pr.ZipfScorer(table, m.n_users)
        recs = lists_of(pr.top_k(scorer, m, k=2))
        u0 = m.user_ids.index("u0")
        # u0 rated A, B and C; best remaining by popularity is D
        assert recs[u0] == [m.item_ids.index("D")]
        u9 = m.user_ids.index("u9")
        assert recs[u9] == [m.item_ids.index("A"), m.item_ids.index("B")]


class TestClassicMf:
    def test_single_entry_converges(self):
        m = matrix_from([("a", "x", 4)])
        model, losses = pr.train_classic_mf(
            m, n_factors=1, learning_rate=0.1, reg=0.0, epochs=200, seed=1
        )
        assert model.score_row(0)[0] == pytest.approx(4.0, abs=1e-3)
        assert losses[-1] < 1e-5

    def test_zero_learning_rate_keeps_init(self):
        m = matrix_from([("a", "x", 4), ("a", "y", 2), ("b", "x", 5)])
        model, _ = pr.train_classic_mf(m, n_factors=3, learning_rate=0.0, epochs=5, seed=8)
        init = pr.init_model(m.n_users, m.n_items, 3, seed=8)
        assert model.U.tobytes() == init.U.tobytes()
        assert model.V.tobytes() == init.V.tobytes()

    def test_rank_one_matrix_recovered(self):
        # R = [[1, 2], [2, 4]] is exactly rank 1: the SVD oracle reconstructs it
        R = np.array([[1.0, 2.0], [2.0, 4.0]])
        u_, s_, vt_ = np.linalg.svd(R)
        svd_recon = s_[0] * np.outer(u_[:, 0], vt_[0])
        assert np.allclose(svd_recon, R, atol=1e-12)

        m = matrix_from([("a", "x", 1), ("a", "y", 2), ("b", "x", 2), ("b", "y", 4)])
        model, _ = pr.train_classic_mf(
            m, n_factors=1, learning_rate=0.05, reg=0.0, epochs=500, seed=3
        )
        recon = np.array([model.score_row(u) for u in range(2)])
        users = [m.user_ids.index(u) for u in "ab"]
        items = [m.item_ids.index(i) for i in "xy"]
        rmse = np.sqrt(np.mean((recon - R[np.ix_(users, items)]) ** 2))
        assert rmse < 0.01

    def test_loss_non_increasing_for_small_rate(self):
        rng = np.random.default_rng(12)
        triples = [
            (f"u{u}", f"i{j}", float(rng.integers(1, 6)))
            for u in range(50)
            for j in rng.choice(50, size=12, replace=False)
        ]
        m = matrix_from(triples)
        _, losses = pr.train_classic_mf(m, n_factors=4, learning_rate=1e-4, epochs=12, seed=5)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_divergence_raises(self):
        m = matrix_from([("a", "x", 5), ("a", "y", 1), ("b", "x", 3), ("b", "y", 4)])
        with pytest.raises(DivergenceError):
            pr.train_classic_mf(m, n_factors=2, learning_rate=50.0, epochs=200, seed=1)

    def test_divergence_before_later_epochs_are_seeded(self):
        # each epoch's seed is spawned as it starts, so 10**5 epochs cost nothing
        # up front when the first one diverges
        m = matrix_from([("a", "x", 5), ("a", "y", 1), ("b", "x", 3), ("b", "y", 4)])
        tracemalloc.start()
        try:
            with pytest.raises(DivergenceError, match="at epoch 1;"):
                pr.train_classic_mf(m, n_factors=2, learning_rate=1e308, epochs=10**5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("name", ["n_factors", "epochs"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
    def test_non_integer_count_rejected(self, name, value):
        counts = {"n_factors": 2, "epochs": 2, name: value}
        with pytest.raises(ValueError, match=f"^MF {name} must be an integer"):
            pr.baselines.check_mf_hyperparameters(counts["n_factors"], 0.01, 0.0,
                                                  counts["epochs"])

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, -1, "3", None])
    def test_bad_seed_rejected_before_training(self, monkeypatch, seed):
        def refuse(*args):
            raise AssertionError("model initialized with a bad seed")

        m = matrix_from([("a", "x", 4), ("a", "y", 2)])
        monkeypatch.setattr(pr.baselines, "init_model", refuse)
        with pytest.raises(ValueError, match="^MF seed must be an integer >= 0"):
            pr.train_classic_mf(m, n_factors=2, epochs=1, seed=seed)

    def test_numpy_integer_counts_and_seed(self):
        m = matrix_from([("a", "x", 4), ("a", "y", 2), ("b", "x", 5), ("b", "y", 3)])
        a, la = pr.train_classic_mf(m, n_factors=np.int64(2), epochs=np.int32(3),
                                    seed=np.uint16(2))
        b, lb = pr.train_classic_mf(m, n_factors=2, epochs=3, seed=2)
        assert a.U.tobytes() == b.U.tobytes() and a.V.tobytes() == b.V.tobytes()
        assert la == lb

    def test_deterministic(self):
        m = matrix_from([("a", "x", 4), ("a", "y", 2), ("b", "x", 5), ("b", "y", 3)])
        a, la = pr.train_classic_mf(m, n_factors=2, epochs=4, seed=2)
        b, lb = pr.train_classic_mf(m, n_factors=2, epochs=4, seed=2)
        assert a.U.tobytes() == b.U.tobytes() and a.V.tobytes() == b.V.tobytes()
        assert la == lb


def reference_train_classic_mf(train, n_factors, learning_rate, reg, epochs, seed):
    """Classic MF by one SGD step per entry, in each epoch's shuffled order."""
    model = pr.init_model(train.n_users, train.n_items, n_factors, seed)
    U, V = model.U, model.V
    users, items, ratings = train.entry_users(), train.indices, train.ratings
    seed_seq = np.random.SeedSequence(seed)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = np.random.default_rng(seed_seq.spawn(1)[0])
            for pos in rng.permutation(train.n_entries):
                u_row = U[users[pos]]
                v_row = V[items[pos]]
                err = ratings[pos] - float(u_row @ v_row)
                u_old = u_row.copy()
                u_row += learning_rate * (err * v_row - reg * u_row)
                v_row += learning_rate * (err * u_old - reg * v_row)
            sq = ratings - np.einsum("ij,ij->i", U[users], V[items])
            loss = float(sq @ sq) + reg * (float(np.sum(U * U)) + float(np.sum(V * V)))
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"objective went non-finite at epoch {ep + 1}; try a smaller learning rate"
                )
            losses.append(loss)
    return model, losses


def outcome(trainer, *args):
    """U and V bytes plus the loss list, or the DivergenceError message."""
    try:
        model, losses = trainer(*args)
    except DivergenceError as exc:
        return ("diverged", str(exc))
    return (model.U.tobytes(), model.V.tobytes(), losses)


@st.composite
def mf_matrices(draw):
    """Small rating matrices, including one-user, one-item and duplicate-heavy ones."""
    shape = draw(st.sampled_from(["single-user", "single-item", "duplicate-heavy", "general"]))
    small = 3 if shape == "duplicate-heavy" else 12
    n_users = 1 if shape == "single-user" else draw(st.integers(1, small))
    n_items = 1 if shape == "single-item" else draw(st.integers(1, small))
    triples = draw(st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1),
                  st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 0.5, 3.7])),
        min_size=1, max_size=60,
    ))
    return matrix_from((f"u{u}", f"i{i}", r) for u, i, r in triples)


class TestClassicMfMatchesPerEntrySgd:
    @settings(max_examples=300, deadline=None)
    @given(
        m=mf_matrices(),
        n_factors=st.integers(1, 16),
        learning_rate=st.sampled_from([0.0, 0.005, 5.0]),
        reg=st.sampled_from([0.0, 0.01, 1.0]),
        epochs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_matrices(self, m, n_factors, learning_rate, reg, epochs, seed):
        args = (m, n_factors, learning_rate, reg, epochs, seed)
        assert outcome(pr.train_classic_mf, *args) == outcome(reference_train_classic_mf, *args)

    def test_test_corpus_two_epochs(self, ml_like_split):
        args = (ml_like_split.train, 8, 0.005, 0.01, 2, ml_like_split.seed)
        assert ml_like_split.seed == 12
        assert outcome(pr.train_classic_mf, *args) == outcome(reference_train_classic_mf, *args)
