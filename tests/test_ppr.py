import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import paretorank as pr
from conftest import items_of
from paretorank.errors import DataError, DivergenceError


def matrix_from(*triples):
    return pr.build_matrix([pr.RatingRecord(u, i, float(r)) for u, i, r in triples])


def model_1d(u, vj, vk):
    return pr.FactorModel(U=np.array([[float(u)]]), V=np.array([[float(vj)], [float(vk)]]))


PAIR = pr.PairSample(user=0, preferred=0, other=1)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = pr.TrainConfig()
        assert cfg.alpha == 1.0
        assert cfg.min_margin == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"learning_rate": -0.1},
            {"min_margin": 0.0},
            {"n_factors": 0},
            {"max_iters": 0},
            {"user_sample_size": 0},
            {"item_sample_size": 0},
            {"seed": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            pr.TrainConfig(**kwargs)


class TestPairLoss:
    def test_hand_arithmetic(self):
        m = model_1d(2.0, 3.0, 1.0)  # margin 4
        assert pr.pair_loss(m, PAIR, alpha=1.0) == pytest.approx(-1.3862943611198906)

    def test_unit_margin(self):
        m = model_1d(1.0, 2.0, 1.0)  # margin 1
        assert pr.pair_loss(m, PAIR, alpha=1.0) == 0.0

    def test_alpha_scaling(self):
        m = model_1d(1.0, 1.0, 0.5)  # margin 0.5
        assert pr.pair_loss(m, PAIR, alpha=2.0) == pytest.approx(1.3862943611198906)

    def test_nonpositive_margin_rejected(self):
        m = model_1d(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pr.pair_loss(m, PAIR, alpha=1.0)


class TestPairUpdate:
    def test_hand_arithmetic_with_snapshot_semantics(self):
        m = model_1d(2.0, 3.0, 1.0)  # margin 4
        result = pr.pair_update(m, PAIR, learning_rate=0.1, alpha=1.0, min_margin=1e-6)
        assert result.applied and not result.clipped
        assert result.margin == pytest.approx(4.0)
        # sequential writes would give V_j = 3 + 0.1 * 2.05 / 4 = 3.05125
        assert m.U[0, 0] == pytest.approx(2.05)
        assert m.V[0, 0] == pytest.approx(3.05)
        assert m.V[1, 0] == pytest.approx(0.95)

    def test_degenerate_margin_skips_bit_unchanged(self):
        m = pr.init_model(1, 2, 4, seed=1)
        m.V[1] = m.V[0]  # V_j == V_k -> margin 0
        before = (m.U.tobytes(), m.V.tobytes())
        result = pr.pair_update(m, PAIR, learning_rate=0.1, alpha=1.0, min_margin=1e-6)
        assert not result.applied
        assert (m.U.tobytes(), m.V.tobytes()) == before

    def test_zero_learning_rate_changes_nothing(self):
        m = model_1d(2.0, 3.0, 1.0)
        result = pr.pair_update(m, PAIR, learning_rate=0.0, alpha=1.0, min_margin=1e-6)
        assert result.applied
        assert (m.U[0, 0], m.V[0, 0], m.V[1, 0]) == (2.0, 3.0, 1.0)

    def test_clipping_caps_step_norm(self):
        m = model_1d(1.0, 1.0 + 5e-6, 1.0)  # margin = 5e-6, just above the guard
        before = m.V.copy()
        result = pr.pair_update(m, PAIR, learning_rate=0.1, alpha=1.0, min_margin=1e-6)
        assert result.applied and result.clipped
        assert np.linalg.norm(m.V[0] - before[0]) <= 1.0 + 1e-12
        assert np.isfinite(m.U).all() and np.isfinite(m.V).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        lr = 1e-3
        h = 1e-6
        checked = 0
        while checked < 25:
            d = int(rng.integers(1, 6))
            U = rng.random((1, d))
            V = rng.random((2, d))
            margin = float(U[0] @ (V[0] - V[1]))
            if margin <= 0.1:
                continue
            model = pr.FactorModel(U=U.copy(), V=V.copy())
            pr.pair_update(model, PAIR, learning_rate=lr, alpha=1.0, min_margin=1e-6)
            step = np.concatenate([model.U[0] - U[0], model.V[0] - V[0], model.V[1] - V[1]])

            def loss_at(theta):
                m2 = pr.FactorModel(
                    U=theta[:d].reshape(1, d).copy(),
                    V=theta[d:].reshape(2, d).copy(),
                )
                return pr.pair_loss(m2, PAIR, alpha=1.0)

            theta0 = np.concatenate([U[0], V[0], V[1]])
            grad = np.empty_like(theta0)
            for idx in range(theta0.size):
                up = theta0.copy()
                dn = theta0.copy()
                up[idx] += h
                dn[idx] -= h
                grad[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
            rel = np.linalg.norm(step / lr + grad) / np.linalg.norm(grad)
            assert rel <= 1e-4
            checked += 1

    @settings(max_examples=60, deadline=None)
    @given(
        u=hnp.arrays(np.float64, 4, elements=st.floats(-2, 2)),
        vj=hnp.arrays(np.float64, 4, elements=st.floats(-2, 2)),
        vk=hnp.arrays(np.float64, 4, elements=st.floats(-2, 2)),
    )
    def test_margin_strictly_ascends_for_small_steps(self, u, vj, vk):
        margin = float(u @ (vj - vk))
        if margin <= 1e-6:
            return
        model = pr.FactorModel(U=u.reshape(1, -1).copy(), V=np.vstack([vj, vk]).copy())
        loss_before = pr.pair_loss(model, PAIR, alpha=1.0)
        result = pr.pair_update(model, PAIR, learning_rate=1e-6, alpha=1.0, min_margin=1e-6)
        assert result.applied
        new_margin = float(model.U[0] @ (model.V[0] - model.V[1]))
        assert new_margin > margin
        assert pr.pair_loss(model, PAIR, alpha=1.0) < loss_before


def enumerate_admissible(matrix, allowed_items=None):
    """Brute-force {(i, j, k) : R[i,j] > R[i,k]} over rated (sampled) items."""
    pairs = set()
    for u in range(matrix.n_users):
        rated = items_of(matrix, u)
        items = [i for i in rated if allowed_items is None or i in allowed_items.get(u, rated)]
        for j, k in itertools.permutations(items, 2):
            if rated[j] > rated[k]:
                pairs.add((u, j, k))
    return pairs


class TestTrainPpr:
    def test_no_pairs_leaves_model_at_init(self):
        m = matrix_from(("a", "x", 5), ("b", "y", 3), ("c", "z", 1))
        cfg = pr.TrainConfig(n_factors=3, max_iters=2, seed=0)
        model, stats = pr.train_ppr(m, cfg)
        init = pr.init_model(m.n_users, m.n_items, 3, seed=0)
        assert model.U.tobytes() == init.U.tobytes()
        assert model.V.tobytes() == init.V.tobytes()
        assert sum(stats.updates) == 0
        assert stats.updates == [0, 0]

    def test_single_admissible_pair_orientation(self):
        m = matrix_from(("a", "A", 5), ("a", "B", 3))
        visited = []
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, seed=3)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.append(pair))
        assert len(visited) == 1
        assert visited[0].preferred == m.item_to_index["A"]
        assert visited[0].other == m.item_to_index["B"]

    def test_four_item_user_visits_all_six_pairs(self):
        m = matrix_from(("a", "w", 5), ("a", "x", 4), ("a", "y", 3), ("a", "z", 1))
        visited = set()
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, seed=1)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.add((pair.user, pair.preferred, pair.other)))
        assert len(visited) == 6  # C(4, 2), no ties
        assert visited == enumerate_admissible(m)

    def test_ties_never_visited(self):
        m = matrix_from(("a", "w", 5), ("a", "x", 5), ("a", "y", 2), ("b", "w", 3), ("b", "x", 3))
        visited = []
        cfg = pr.TrainConfig(n_factors=2, max_iters=3, seed=2)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.append(pair))
        for pair in visited:
            rated = items_of(m, pair.user)
            assert rated[pair.preferred] > rated[pair.other]

    def test_skip_accounting(self):
        rng = np.random.default_rng(4)
        recs = [
            pr.RatingRecord(f"u{u}", f"i{j}", float(rng.integers(1, 6)))
            for u in range(10)
            for j in rng.choice(12, size=6, replace=False)
        ]
        m = pr.build_matrix(recs)
        counts = [0]
        cfg = pr.TrainConfig(n_factors=2, max_iters=4, seed=9)
        _, stats = pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: counts.__setitem__(0, counts[0] + 1))
        assert counts[0] == sum(stats.updates) + sum(stats.skips)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        recs = [
            pr.RatingRecord(f"u{u}", f"i{j}", float(rng.integers(1, 6)))
            for u in range(15)
            for j in rng.choice(20, size=8, replace=False)
        ]
        m = pr.build_matrix(recs)
        cfg = pr.TrainConfig(n_factors=4, max_iters=3, seed=11)
        model_a, stats_a = pr.train_ppr(m, cfg)
        model_b, stats_b = pr.train_ppr(m, cfg)
        assert model_a.U.tobytes() == model_b.U.tobytes()
        assert model_a.V.tobytes() == model_b.V.tobytes()
        assert stats_a == stats_b

    def test_item_sampling_respects_cap(self):
        m = matrix_from(*[("a", f"i{j}", 1 + j % 5) for j in range(10)])
        seen_items = set()
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, item_sample_size=3, seed=0)
        pr.train_ppr(m, cfg, on_pair=lambda it, p, r: seen_items.update((p.preferred, p.other)))
        assert len(seen_items) <= 3

    def test_empty_matrix_rejected(self):
        m = matrix_from(("a", "x", 3))
        empty = m.subset(np.zeros(m.n_entries, dtype=bool))
        with pytest.raises(DataError):
            pr.train_ppr(empty, pr.TrainConfig())

    def test_divergence_raises(self):
        # a step so large that the clip computes inf * 0 and the factors go NaN
        m = matrix_from(("a", "x", 5), ("a", "y", 3), ("a", "z", 1))
        cfg = pr.TrainConfig(learning_rate=1e308, alpha=10, n_factors=2, max_iters=3, seed=0)
        with pytest.raises(DivergenceError):
            pr.train_ppr(m, cfg)

    def test_stats_csv_layout(self, tmp_path):
        m = matrix_from(("a", "A", 5), ("a", "B", 3))
        cfg = pr.TrainConfig(n_factors=2, max_iters=2, seed=3)
        _, stats = pr.train_ppr(m, cfg)
        out = tmp_path / "stats.csv"
        with open(out, "w") as fp:
            stats.write_csv(fp, config_echo="{}")
        lines = out.read_text().splitlines()
        assert lines[0] == "# config: {}"
        assert lines[1] == "iter,mean_pair_loss,updates,skips,clips"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "1"
        assert int(first[2]) + int(first[3]) >= 1


class TestPairwiseConcordance:
    def test_perfect_model(self):
        test = matrix_from(("a", "x", 5), ("a", "y", 3), ("a", "z", 1))
        scorer_table = np.array([[0.9, 0.5, 0.1]])
        scorer = type("S", (), {
            "n_users": 1, "n_items": 3,
            "score_row": lambda self, u: scorer_table[u],
            "score": lambda self, u, i: float(scorer_table[u, i]),
        })()
        assert pr.pairwise_concordance(scorer, test) == 1.0

    def test_constant_scores_give_half(self):
        test = matrix_from(("a", "x", 5), ("a", "y", 3))
        model = pr.FactorModel(U=np.zeros((1, 2)), V=np.ones((2, 2)))
        assert pr.pairwise_concordance(model, test) == 0.5

    def test_one_right_one_wrong(self):
        test = matrix_from(("a", "x", 5), ("a", "y", 3), ("b", "x", 1), ("b", "y", 4))
        table = np.array([[0.9, 0.1], [0.9, 0.1]])  # right for a, wrong for b
        scorer = type("S", (), {
            "n_users": 2, "n_items": 2,
            "score_row": lambda self, u: table[u],
            "score": lambda self, u, i: float(table[u, i]),
        })()
        assert pr.pairwise_concordance(scorer, test) == 0.5

    def test_no_pairs_is_error(self):
        test = matrix_from(("a", "x", 5), ("b", "y", 3))
        model = pr.init_model(2, 2, 2, seed=0)
        with pytest.raises(DataError):
            pr.pairwise_concordance(model, test)
