import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import matrix_from
from paretorank.errors import DivergenceError


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
        recs = pr.top_k(scorer, m, k=2)
        u0 = m.user_ids.index("u0")
        # u0 rated A, B and C; best remaining by popularity is D
        assert recs.items[u0].tolist() == [m.item_ids.index("D")]
        u9 = m.user_ids.index("u9")
        assert recs.items[u9].tolist() == [m.item_ids.index("A"), m.item_ids.index("B")]


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
    epoch_seeds = np.random.SeedSequence(seed).spawn(epochs)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            rng = np.random.default_rng(epoch_seeds[ep])
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
