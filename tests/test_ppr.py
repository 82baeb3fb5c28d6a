import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import paretorank as pr
from conftest import items_of, lists_of, matrix_from
from paretorank import cli
from paretorank.errors import DataError, DivergenceError


def model_1d(u, vj, vk):
    return pr.FactorModel(U=np.array([[float(u)]]), V=np.array([[float(vj)], [float(vk)]]))


PAIR = pr.PairSample(user=0, preferred=0, other=1)
NO_PAIRS = "no user rated two items differently: there is no pair to train on"


def pair_loss(model, pair):
    """Log-margin loss -ln(margin) for one preference pair: the loss oracle."""
    margin = float(model.U[pair.user] @ (model.V[pair.preferred] - model.V[pair.other]))
    if margin <= 0.0:
        raise ValueError(f"margin {margin} is not positive; log-margin loss undefined")
    return -math.log(margin)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = pr.TrainConfig()
        assert cfg.learning_rate == 0.01
        assert pr.ppr.MIN_MARGIN == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"max_iters": 2**63},
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

    @pytest.mark.parametrize("name", ["n_factors", "max_iters", "user_sample_size",
                                      "item_sample_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
    def test_non_integer_count_or_seed_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            pr.TrainConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = pr.TrainConfig(n_factors=np.int64(3), max_iters=np.int32(2), seed=np.uint8(7))
        assert (cfg.n_factors, cfg.max_iters, cfg.seed) == (3, 2, 7)


class TestPairLoss:
    def test_hand_arithmetic(self):
        m = model_1d(2.0, 3.0, 1.0)  # margin 4
        assert pair_loss(m, PAIR) == pytest.approx(-1.3862943611198906)

    def test_unit_margin(self):
        m = model_1d(1.0, 2.0, 1.0)  # margin 1
        assert pair_loss(m, PAIR) == 0.0

    def test_nonpositive_margin_rejected(self):
        m = model_1d(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pair_loss(m, PAIR)


class TestPairUpdate:
    def test_hand_arithmetic_with_snapshot_semantics(self):
        m = model_1d(2.0, 3.0, 1.0)  # margin 4
        result = pr.pair_update(m, PAIR, learning_rate=0.1)
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
        result = pr.pair_update(m, PAIR, learning_rate=0.1)
        assert not result.applied
        assert (m.U.tobytes(), m.V.tobytes()) == before

    def test_same_item_twice_skips_bit_unchanged(self):
        # the kernel's block copy of V_j then aliases V_k, the same row of V: dv is 0, a skip
        m = pr.init_model(2, 3, 4, seed=5)
        before = (m.U.tobytes(), m.V.tobytes())
        result = pr.pair_update(m, pr.PairSample(user=1, preferred=2, other=2), learning_rate=0.1)
        assert (result.applied, result.clipped, result.margin) == (False, False, 0.0)
        assert (m.U.tobytes(), m.V.tobytes()) == before

    def test_nan_margin_skips_bit_unchanged(self):
        # inf - inf makes dv, and so the margin, NaN, which does not exceed MIN_MARGIN
        m = pr.FactorModel(U=np.array([[1.0, 2.0]]), V=np.array([[np.inf, 1.0], [0.5, 0.5]]))
        want = pr.FactorModel(U=m.U.copy(), V=m.V.copy())
        before = (m.U.tobytes(), m.V.tobytes())
        pair = pr.PairSample(user=0, preferred=0, other=0)
        with np.errstate(invalid="ignore"):
            result = pr.pair_update(m, pair, learning_rate=0.1)
            ref = reference_pair_update(want, pair, learning_rate=0.1)
        assert (result.applied, result.clipped, math.isnan(result.margin)) == (False, False, True)
        assert repr(result) == repr(ref)
        assert (m.U.tobytes(), m.V.tobytes()) == before == (want.U.tobytes(), want.V.tobytes())

    def test_zero_learning_rate_changes_nothing(self):
        m = model_1d(2.0, 3.0, 1.0)
        result = pr.pair_update(m, PAIR, learning_rate=0.0)
        assert result.applied
        assert (m.U[0, 0], m.V[0, 0], m.V[1, 0]) == (2.0, 3.0, 1.0)

    @pytest.mark.parametrize("pair,message", [
        (pr.PairSample(-1, 0, 1), r"^user index -1 out of range \[0, 1\)$"),
        (pr.PairSample(1, 0, 1), r"^user index 1 out of range \[0, 1\)$"),
        (pr.PairSample(0, -4, 1), r"^item index -4 out of range \[0, 4\)$"),
        (pr.PairSample(0, 0, 4), r"^item index 4 out of range \[0, 4\)$"),
    ], ids=["user--1", "user-n", "item--4", "item-n"])
    def test_index_out_of_range_rejected_untouched(self, pair, message):
        m = pr.FactorModel(U=np.array([[2.0, 1.0]]),
                           V=np.array([[3.0, 1.0], [1.0, 0.0], [0.5, 0.5], [4.0, 2.0]]))
        before = (m.U.tobytes(), m.V.tobytes())
        with pytest.raises(IndexError, match=message):
            pr.pair_update(m, pair, learning_rate=0.1)
        assert (m.U.tobytes(), m.V.tobytes()) == before

    @pytest.mark.parametrize("side", ["preferred", "other"])
    @pytest.mark.parametrize("item", [1.5, np.float64(1.0), True, None],
                             ids=["float", "numpy-float", "bool", "none"])
    def test_non_integer_item_rejected_untouched(self, side, item):
        m = pr.FactorModel(U=np.array([[2.0, 1.0]]), V=np.array([[3.0, 1.0], [1.0, 0.0]]))
        before = (m.U.tobytes(), m.V.tobytes())
        pair = pr.PairSample(user=0, preferred=0, other=1)
        setattr(pair, side, item)
        message = f"^item index must be an integer, got {re.escape(repr(item))}$"
        with pytest.raises(TypeError, match=message):
            pr.pair_update(m, pair, learning_rate=0.1)
        assert (m.U.tobytes(), m.V.tobytes()) == before

    def test_numpy_integer_items_step_as_python_ints(self):
        # uint64 beside int64 would make a float array of the two items
        model = pr.init_model(1, 3, 4, seed=2)
        want = pr.FactorModel(U=model.U.copy(), V=model.V.copy())
        got = pr.pair_update(model, pr.PairSample(np.int64(0), np.uint64(2), np.int64(1)), 0.5)
        assert repr(got) == repr(pr.pair_update(want, pr.PairSample(0, 2, 1), 0.5))
        assert (model.U.tobytes(), model.V.tobytes()) == (want.U.tobytes(), want.V.tobytes())

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_learning_rate_rejected_untouched(self, learning_rate):
        m = model_1d(2.0, 3.0, 1.0)
        before = (m.U.tobytes(), m.V.tobytes())
        with pytest.raises(ValueError, match="^learning_rate must be finite and >= 0"):
            pr.pair_update(m, PAIR, learning_rate)
        assert (m.U.tobytes(), m.V.tobytes()) == before

    def test_clipping_caps_step_norm(self):
        m = model_1d(1.0, 1.0 + 5e-6, 1.0)  # margin = 5e-6, just above the guard
        before = m.V.copy()
        result = pr.pair_update(m, PAIR, learning_rate=0.1)
        assert result.applied and result.clipped
        assert np.linalg.norm(m.V[0] - before[0]) <= 1.0 + 1e-12
        assert np.isfinite(m.U).all() and np.isfinite(m.V).all()

    @pytest.mark.parametrize("margin,applied", [
        (pr.ppr.MIN_MARGIN, False), (np.nextafter(pr.ppr.MIN_MARGIN, np.inf), True),
    ], ids=["at-guard", "just-above-guard"])
    def test_guard_is_min_margin(self, margin, applied):
        m = model_1d(1.0, margin, 0.0)  # margin = 1 * (margin - 0), exactly
        result = pr.pair_update(m, PAIR, learning_rate=0.1)
        assert (result.margin, result.applied) == (margin, applied)
        assert (m.V[0, 0] != margin) == applied

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
            pr.pair_update(model, PAIR, learning_rate=lr)
            step = np.concatenate([model.U[0] - U[0], model.V[0] - V[0], model.V[1] - V[1]])

            def loss_at(theta):
                m2 = pr.FactorModel(
                    U=theta[:d].reshape(1, d).copy(),
                    V=theta[d:].reshape(2, d).copy(),
                )
                return pair_loss(m2, PAIR)

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
        if margin <= pr.ppr.MIN_MARGIN:
            return
        model = pr.FactorModel(U=u.reshape(1, -1).copy(), V=np.vstack([vj, vk]).copy())
        loss_before = pair_loss(model, PAIR)
        result = pr.pair_update(model, PAIR, learning_rate=1e-6)
        assert result.applied
        new_margin = float(model.U[0] @ (model.V[0] - model.V[1]))
        assert new_margin > margin
        assert pair_loss(model, PAIR) < loss_before

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8),
        data=st.data(),
        same_rows=st.booleans(),
        learning_rate=st.sampled_from([1e-3, 0.5, 1e308]),
    )
    def test_single_steps(self, n, data, same_rows, learning_rate):
        rows = hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0, 0.5, -1.5, 3.0]))
        u, vj = data.draw(rows), data.draw(rows)
        vk = vj.copy() if same_rows else data.draw(rows)
        self.check_step(u, vj, vk, learning_rate)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("side", ["user", "items"])
    @pytest.mark.parametrize("norm", [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                                      math.inf, math.nan],
                             ids=["cap", "ulp-above", "ulp-below", "inf", "nan"])
    def test_step_norm_near_cap(self, d, side, norm):
        # one side's exact step norm is `norm`, the other's at most about a third of
        # it: the norms from the Gram entries cannot tell these from the cap, so the
        # exact norm must decide each clip as the reference does
        assert pr.ppr.STEP_NORM_CAP == 1.0
        # margin 4 and coef lr / 4: the side's step is lr times a unit axis; an inf
        # for the 4 makes the margin inf, coef 0 and that step 0 * inf
        axis = np.zeros(d)
        axis[0] = math.inf if math.isnan(norm) else 4.0
        u, dv = (np.ones(d), axis) if side == "user" else (axis, np.ones(d))
        learning_rate = 1e308 if math.isinf(norm) else 1.0 if math.isnan(norm) else norm
        with np.errstate(all="ignore"):
            step = learning_rate / float(u @ dv) * (dv if side == "user" else u)
            assert repr(math.sqrt(float(step @ step))) == repr(norm)
        self.check_step(u, dv, np.zeros(d), learning_rate)

    @pytest.mark.parametrize("side,u,vj,learning_rate", [
        ("user", [0.03, 0.68, 0.43], [1.81, 1.18, 0.03], 0.40242874250153293),
        ("items", [2.72, 3.11, 1.28, 0.79, 2.67], [0.9, 0.03, 0.18, 0.4, 0.4],
         0.8078554819215948),
    ])
    def test_bound_product_below_cap_exact_norm_above(self, side, u, vj, learning_rate):
        # V_k is 0, so each side's norm bound is its row's own norm. On the given
        # side, coef times that norm rounds to the largest float below 1 while the
        # exact norm of the step is the smallest above it, and the reference
        # clips; the other side's step is far below the cap. Only the slack below
        # the cap sends this step to the exact norm
        u, vj = np.array(u), np.array(vj)
        coef = learning_rate / float(u @ vj)
        row, other = (vj, u) if side == "user" else (u, vj)
        exact = math.sqrt(float((coef * row) @ (coef * row)))
        assert (coef * math.sqrt(float(row @ row)), exact) == (math.nextafter(1.0, 0.0),
                                                               math.nextafter(1.0, 2.0))
        assert coef * math.sqrt(float(other @ other)) < 0.5
        self.check_step(u, vj, np.zeros(len(vj)), learning_rate)

    @pytest.mark.parametrize("u,vj,vk", [
        ([1e-170, 1e-170], [1e170, 3e169], [0.0, 0.0]),
        ([1e-160, -2e-161], [1e159, 1e150], [-1e159, 0.0]),
        ([1e170, 1e170], [3e-170, 1e-170], [1e-170, 0.0]),
        ([1e-170], [2e164], [0.0]),
        ([1e-162] * 16, [1e154] * 16, [0.0] * 16),
    ])
    def test_squares_below_the_normal_range(self, u, vj, vk):
        # one side's squares are 0 or subnormal, so its start norm misses part or
        # all of the row; the other row is long, and its bound sends the pair to
        # the exact path wherever the short row's step would reach the cap
        self.check_step(np.array(u), np.array(vj), np.array(vk), 1e308)

    def test_one_factor_zero_margin(self):
        # the margin is a -0.0 product, which @ reads as 0.0
        self.check_step(np.array([-1.0]), np.array([2.0]), np.array([2.0]), 0.5)

    @staticmethod
    def check_step(u, vj, vk, learning_rate):
        """pair_update and the reference step agree on the result and the rows."""
        got = pr.FactorModel(U=u[None].copy(), V=np.vstack([vj, vk]))
        want = pr.FactorModel(U=u[None].copy(), V=np.vstack([vj, vk]))
        with np.errstate(all="ignore"):
            res = pr.pair_update(got, PAIR, learning_rate)
            ref = reference_pair_update(want, PAIR, learning_rate)
        assert repr(res) == repr(ref)
        assert (got.U.tobytes(), got.V.tobytes()) == (want.U.tobytes(), want.V.tobytes())


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
    @pytest.mark.parametrize("triples", [
        [("a", "x", 5), ("b", "y", 3), ("c", "z", 1)],
        [("a", "x", 5), ("a", "y", 5), ("b", "x", 3), ("b", "z", 3), ("c", "y", 4)],
    ], ids=["one-rating-each", "tied-ratings"])
    def test_no_pairs_rejected_before_init(self, monkeypatch, triples):
        def refuse(*args):
            raise AssertionError("model initialized without a pair to train on")

        m = matrix_from(triples)
        monkeypatch.setattr(pr.ppr, "init_model", refuse)
        with pytest.raises(DataError, match="^" + NO_PAIRS + "$"):
            pr.train_ppr(m, pr.TrainConfig(n_factors=3, max_iters=2, seed=0))

    def test_single_admissible_pair_orientation(self):
        m = matrix_from([("a", "A", 5), ("a", "B", 3)])
        visited = []
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, seed=3)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.append(pair))
        assert len(visited) == 1
        assert visited[0].preferred == m.item_ids.index("A")
        assert visited[0].other == m.item_ids.index("B")

    def test_four_item_user_visits_all_six_pairs(self):
        m = matrix_from([("a", "w", 5), ("a", "x", 4), ("a", "y", 3), ("a", "z", 1)])
        visited = set()
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, seed=1)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.add((pair.user, pair.preferred, pair.other)))
        assert len(visited) == 6  # C(4, 2), no ties
        assert visited == enumerate_admissible(m)

    def test_ties_never_visited(self):
        m = matrix_from([("a", "w", 5), ("a", "x", 5), ("a", "y", 2), ("b", "w", 3), ("b", "x", 3)])
        visited = []
        cfg = pr.TrainConfig(n_factors=2, max_iters=3, seed=2)
        pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: visited.append(pair))
        for pair in visited:
            rated = items_of(m, pair.user)
            assert rated[pair.preferred] > rated[pair.other]

    def test_skip_accounting(self):
        rng = np.random.default_rng(4)
        triples = [
            (f"u{u}", f"i{j}", float(rng.integers(1, 6)))
            for u in range(10)
            for j in rng.choice(12, size=6, replace=False)
        ]
        m = matrix_from(triples)
        counts = [0]
        cfg = pr.TrainConfig(n_factors=2, max_iters=4, seed=9)
        _, stats = pr.train_ppr(m, cfg, on_pair=lambda it, pair, res: counts.__setitem__(0, counts[0] + 1))
        assert counts[0] == sum(stats.updates) + sum(stats.skips)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        triples = [
            (f"u{u}", f"i{j}", float(rng.integers(1, 6)))
            for u in range(15)
            for j in rng.choice(20, size=8, replace=False)
        ]
        m = matrix_from(triples)
        cfg = pr.TrainConfig(n_factors=4, max_iters=3, seed=11)
        model_a, stats_a = pr.train_ppr(m, cfg)
        model_b, stats_b = pr.train_ppr(m, cfg)
        assert model_a.U.tobytes() == model_b.U.tobytes()
        assert model_a.V.tobytes() == model_b.V.tobytes()
        assert stats_a == stats_b

    def test_item_sampling_respects_cap(self):
        m = matrix_from([("a", f"i{j}", 1 + j % 5) for j in range(10)])
        seen_items = set()
        cfg = pr.TrainConfig(n_factors=2, max_iters=1, item_sample_size=3, seed=0)
        pr.train_ppr(m, cfg, on_pair=lambda it, p, r: seen_items.update((p.preferred, p.other)))
        assert len(seen_items) <= 3

    def test_empty_matrix_rejected(self):
        m = matrix_from([("a", "x", 3)])
        empty = m.subset(np.zeros(m.n_entries, dtype=bool))
        with pytest.raises(DataError):
            pr.train_ppr(empty, pr.TrainConfig())

    def test_divergence_raises(self):
        # a step so large that the clip computes inf * 0 and the factors go NaN
        m = matrix_from([("a", "x", 5), ("a", "y", 3), ("a", "z", 1)])
        cfg = pr.TrainConfig(learning_rate=1e308, n_factors=2, max_iters=3, seed=0)
        with pytest.raises(DivergenceError):
            pr.train_ppr(m, cfg)

    def test_divergence_before_later_iterations_are_seeded(self):
        # each iteration's seed is spawned as it starts, so 10**5 iterations cost
        # nothing up front when the first one diverges
        m = matrix_from([("a", "x", 5), ("a", "y", 3), ("a", "z", 1)])
        cfg = pr.TrainConfig(learning_rate=1e308, n_factors=2, max_iters=10**5, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(DivergenceError, match="at iteration 1;"):
                pr.train_ppr(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_large_sample_costs_linear_memory(self):
        # 20,000 sampled items and 19,999 pairs: a per-user grid of rating
        # comparisons alone would take 400 MB
        m = matrix_from([("a", f"i{j}", 5.0 if j == 0 else 1.0) for j in range(20_000)])
        cfg = pr.TrainConfig(max_iters=1, user_sample_size=1, item_sample_size=20_000)
        tracemalloc.start()
        try:
            _, stats = pr.train_ppr(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.updates[0] + stats.skips[0] == 19_999
        assert peak < 32 * 2**20

    def test_stats_csv_layout(self):
        m = matrix_from([("a", "A", 5), ("a", "B", 3)])
        cfg = pr.TrainConfig(n_factors=2, max_iters=2, seed=3)
        _, stats = pr.train_ppr(m, cfg)
        header, rows = cli.STATS_LAYOUTS["ppr"]
        lines = cli._csv({}, header, rows(stats)).splitlines()
        assert lines[0] == "# config: {}"
        assert lines[1] == "iter,mean_pair_loss,updates,skips,clips"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "1"
        assert int(first[2]) + int(first[3]) >= 1


def reference_pair_update(model, pair, learning_rate):
    """One pair step with ``@`` dots and fresh row views: the reference for ``ppr._pair_chain``."""
    U = model.U
    V = model.V
    u = U[pair.user]
    vj = V[pair.preferred]
    vk = V[pair.other]
    dv = vj - vk
    margin = float(u @ dv)
    if not margin > pr.ppr.MIN_MARGIN:
        return pr.PairUpdateResult(applied=False, clipped=False, margin=margin)
    coef = learning_rate / margin
    du = coef * dv
    dvj = coef * u  # copy of the pre-update user row, scaled
    clipped = False
    nu = math.sqrt(float(du @ du))
    if nu > pr.ppr.STEP_NORM_CAP:
        du *= pr.ppr.STEP_NORM_CAP / nu
        clipped = True
    nv = math.sqrt(float(dvj @ dvj))
    if nv > pr.ppr.STEP_NORM_CAP:
        dvj *= pr.ppr.STEP_NORM_CAP / nv
        clipped = True
    u += du
    vj += dvj
    vk -= dvj
    return pr.PairUpdateResult(applied=True, clipped=clipped, margin=margin)


@np.errstate(over="ignore", invalid="ignore")
def reference_train_ppr(train, config, on_pair=None):
    """PPR training by a nested position loop over the sorted sample, one pair at a time."""
    if train.n_entries == 0:
        raise DataError("cannot train on an empty rating matrix")
    if all(len(set(train.row(u)[1].tolist())) < 2 for u in range(train.n_users)):
        raise DataError(NO_PAIRS)
    model = pr.init_model(train.n_users, train.n_items, config.n_factors, config.seed)
    stats = pr.TrainStats()
    seed_seq = np.random.SeedSequence(config.seed)
    n_user_sample = min(config.user_sample_size, train.n_users)

    for it in range(config.max_iters):
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        users = rng.choice(train.n_users, size=n_user_sample, replace=False)
        loss_sum = 0.0
        n_updates = 0
        n_skips = 0
        n_clips = 0
        for user in users:
            user = int(user)
            items, item_ratings = train.row(user)
            if len(items) < 2:
                continue
            take = min(config.item_sample_size, len(items))
            pick = rng.choice(len(items), size=take, replace=False)
            sampled = items[pick]
            ratings = item_ratings[pick]
            order = np.lexsort((sampled, -ratings))
            sampled = sampled[order]
            ratings = ratings[order]
            for a in range(take - 1):
                r_a = ratings[a]
                j = int(sampled[a])
                for b in range(a + 1, take):
                    if r_a <= ratings[b]:
                        continue
                    pair = pr.PairSample(user, j, int(sampled[b]))
                    result = reference_pair_update(model, pair, config.learning_rate)
                    if on_pair is not None:
                        on_pair(it, pair, result)
                    if result.applied:
                        n_updates += 1
                        n_clips += result.clipped
                        loss_sum -= math.log(result.margin)
                    else:
                        n_skips += 1
        stats.mean_loss.append(loss_sum / n_updates if n_updates else math.nan)
        stats.updates.append(n_updates)
        stats.skips.append(n_skips)
        stats.clips.append(n_clips)
        if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
            raise DivergenceError(
                f"factors went non-finite at iteration {it + 1}; try a smaller learning rate"
            )
    return model, stats


def ppr_outcome(trainer, train, config):
    """Factor bytes and stats (or the DataError/DivergenceError message), and every hook call.

    Floats are compared by ``repr``, so a NaN matches a NaN and a change of
    type (a numpy scalar for a float) shows.
    """
    calls = []

    def on_pair(it, pair, res):
        calls.append(repr((it, pair.user, pair.preferred, pair.other,
                           res.applied, res.clipped, res.margin)))

    try:
        model, stats = trainer(train, config, on_pair=on_pair)
    except (DataError, DivergenceError) as exc:
        return (type(exc).__name__, str(exc)), calls
    return (model.U.tobytes(), model.V.tobytes(), stats.updates, stats.skips, stats.clips,
            repr(stats.mean_loss)), calls


@st.composite
def ppr_matrices(draw):
    """Small matrices whose rows hold many tied ratings."""
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(2, 14))
    triples = draw(st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1),
                  st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 3.5])),
        min_size=1, max_size=80,
    ))
    return matrix_from((f"u{u}", f"i{i}", r) for u, i, r in triples)


class TestTrainPprMatchesPerPairLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        m=ppr_matrices(),
        n_factors=st.integers(1, 20),
        learning_rate=st.sampled_from([0.0005, 0.001, 0.01, 0.025, 0.05, 0.5, 1.0, 2.0, 20.0,
                                       5e307, 1e308]),
        user_sample_size=st.integers(1, 9),
        item_sample_size=st.integers(1, 16),
        max_iters=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # a sample that strictly descends (each cut is the next position), two tied
    # blocks, an item sample larger than every row, one item above a long tied
    # tail (every later position's cut is past the sample), and a 40-item strictly
    # descending chain whose first clip is its 596th of 780 pairs, once U_i and the
    # item rows have grown well past their start norms
    @example(m=matrix_from(("u0", f"i{j}", 5.0 - j) for j in range(5)), n_factors=3,
             learning_rate=0.05, user_sample_size=1, item_sample_size=5, max_iters=2, seed=1)
    @example(m=matrix_from(("u0", f"i{j}", r) for j, r in enumerate([5.0, 5.0, 5.0, 1.0, 1.0])),
             n_factors=2, learning_rate=0.5, user_sample_size=1, item_sample_size=5, max_iters=2,
             seed=2)
    @example(m=matrix_from((f"u{u}", f"i{j}", float(1 + (u + j) % 4)) for u in range(3)
                           for j in range(2 + u)),
             n_factors=4, learning_rate=0.01, user_sample_size=3, item_sample_size=16,
             max_iters=3, seed=3)
    @example(m=matrix_from((f"u{u}", f"i{j}", 5.0 if j == u else 2.0) for u in range(2)
                           for j in range(12)),
             n_factors=3, learning_rate=0.05, user_sample_size=2, item_sample_size=12,
             max_iters=2, seed=4)
    @example(m=matrix_from(("u0", f"i{j}", 40.0 - j) for j in range(40)), n_factors=3,
             learning_rate=0.01, user_sample_size=1, item_sample_size=40, max_iters=1, seed=1)
    def test_random_matrices(self, m, n_factors, learning_rate, user_sample_size,
                             item_sample_size, max_iters, seed):
        config = pr.TrainConfig(
            learning_rate=learning_rate, n_factors=n_factors,
            max_iters=max_iters, user_sample_size=user_sample_size,
            item_sample_size=item_sample_size, seed=seed,
        )
        expected = ppr_outcome(reference_train_ppr, m, config)
        assert ppr_outcome(pr.train_ppr, m, config) == expected

    def test_without_hook(self, monkeypatch):
        # without a hook no pair objects are built, and the result is the same
        def refuse(*args):
            raise AssertionError("pair object built without a hook")

        m = matrix_from([(f"u{u}", f"i{(u * 5 + j) % 11}", float(1 + (u + j) % 5))
                         for u in range(6) for j in range(7)])
        config = pr.TrainConfig(n_factors=3, max_iters=3, item_sample_size=5, seed=4)
        ref_model, ref_stats = reference_train_ppr(m, config)
        monkeypatch.setattr(pr.ppr, "PairSample", refuse)
        monkeypatch.setattr(pr.ppr, "PairUpdateResult", refuse)
        model, stats = pr.train_ppr(m, config)
        assert (model.U.tobytes(), model.V.tobytes()) == (ref_model.U.tobytes(),
                                                          ref_model.V.tobytes())
        assert repr(stats) == repr(ref_stats)

    def test_test_corpus_128_users(self, ml_like_split):
        assert ml_like_split.seed == 12
        config = pr.TrainConfig(max_iters=1, user_sample_size=128, seed=12)
        expected = ppr_outcome(reference_train_ppr, ml_like_split.train, config)
        assert len(expected[1]) > 10_000
        assert ppr_outcome(pr.train_ppr, ml_like_split.train, config) == expected

    def test_test_corpus_128_users_clip_heavy(self, ml_like_split):
        # at this rate about one update in 17 clips (1,875 of 32,495), so the
        # norm and clip path runs at corpus scale
        config = pr.TrainConfig(learning_rate=2.0, max_iters=1, user_sample_size=128, seed=12)
        expected = ppr_outcome(reference_train_ppr, ml_like_split.train, config)
        assert sum(expected[0][4]) > 1_000
        assert ppr_outcome(pr.train_ppr, ml_like_split.train, config) == expected


def special_or_scaled():
    """Zeros, infinities and finite magnitudes from 1e-300 to 1e300, either sign."""
    magnitude = st.one_of(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(-300, 300).map(lambda e: 10.0 ** e),
    )
    return st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
        st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
    )


class TestRatingMapInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        triples=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 13),
                                   st.sampled_from([1.0, 2.0, 3.0, 3.5, 4.0, 5.0])),
                         min_size=1, max_size=80),
        rating_map=st.sampled_from([lambda r: 2 * r + 7, math.exp]),
        learning_rate=st.sampled_from([0.01, 0.05, 2.0]),
        user_sample_size=st.integers(1, 9),
        item_sample_size=st.integers(2, 16),
        max_iters=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_strictly_increasing_rating_map_changes_nothing(
            self, triples, rating_map, learning_rate, user_sample_size, item_sample_size,
            max_iters, seed):
        # PPR reads ratings only through their order and ties: the same factor bytes, stats
        # and pairs visited, or the same error
        named = [(f"u{u}", f"i{i}", r) for u, i, r in triples]
        config = pr.TrainConfig(learning_rate=learning_rate, n_factors=4, max_iters=max_iters,
                                user_sample_size=user_sample_size,
                                item_sample_size=item_sample_size, seed=seed)
        mapped = matrix_from((u, i, rating_map(r)) for u, i, r in named)
        assert ppr_outcome(pr.train_ppr, mapped, config) == ppr_outcome(pr.train_ppr,
                                                                       matrix_from(named), config)

    @settings(max_examples=40, deadline=None)
    @given(
        triples=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 13),
                                   st.sampled_from([1.0, 2.0, 3.0, 3.5, 4.0, 5.0])),
                         min_size=1, max_size=80),
        max_iters=st.integers(1, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exp_rating_map_keeps_lists_and_dme(self, triples, max_iters, k, seed):
        # the top-K lists and DME of a trained PPR model, of zipf and of random,
        # each selected against the matrix it was built from
        named = [(f"u{u}", f"i{i}", r) for u, i, r in triples]
        config = pr.TrainConfig(n_factors=4, max_iters=max_iters, user_sample_size=4,
                                item_sample_size=8, seed=seed)

        def lists_and_dme(matrix):
            out = {}
            scorers = {"zipf": pr.ZipfScorer(pr.PopularityTable.from_matrix(matrix), matrix.n_users),
                       "random": pr.RandomScorer(matrix.n_users, matrix.n_items, seed)}
            try:
                scorers["ppr"] = pr.train_ppr(matrix, config)[0]
            except DataError as exc:  # no pair to train on: the same error either way
                out["ppr"] = str(exc)
            for name, scorer in scorers.items():
                recs = pr.top_k(scorer, matrix, k)
                try:
                    dme = pr.degree_of_matthew_effect(recs, matrix.n_items)
                except DataError:  # fewer than 2 distinct items recommended
                    dme = None
                out[name] = (lists_of(recs), dme)
            return out

        plain = lists_and_dme(matrix_from(named))
        assert lists_and_dme(matrix_from((u, i, math.exp(r)) for u, i, r in named)) == plain


class TestDotKernel:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(np.float64, (2, n), elements=special_or_scaled())))
    @example(stack=np.array([[0.0], [-0.0]]))
    def test_margin_is_matmul_bit_for_bit(self, stack):
        # the kernel takes the margin as float(u.dot(dv)) + 0.0, with dv and u rows 0
        # and 1 of its (3, d) block; d up to 40 runs BLAS ddot's unrolled blocks (16
        # elements or more) as well as its tail, and the pinned example is the bare
        # -0.0 product that the + 0.0 maps to @'s 0.0
        buf = pr.ppr._chain_buffers(stack.shape[1])[0]
        buf[1], buf[0] = stack
        dv, u, _ = buf
        with np.errstate(all="ignore"):
            margin = float(u.dot(dv)) + 0.0
            assert np.float64(margin).tobytes() == (stack[0] @ stack[1]).tobytes()


class TestPairwiseConcordance:
    def test_perfect_model(self):
        test = matrix_from([("a", "x", 5), ("a", "y", 3), ("a", "z", 1)])
        scorer_table = np.array([[0.9, 0.5, 0.1]])
        scorer = type("S", (), {
            "n_users": 1, "n_items": 3,
            "score_row": lambda self, u: scorer_table[u],
            "score": lambda self, u, i: float(scorer_table[u, i]),
        })()
        assert pr.pairwise_concordance(scorer, test) == 1.0

    def test_constant_scores_give_half(self):
        test = matrix_from([("a", "x", 5), ("a", "y", 3)])
        model = pr.FactorModel(U=np.zeros((1, 2)), V=np.ones((2, 2)))
        assert pr.pairwise_concordance(model, test) == 0.5

    def test_one_right_one_wrong(self):
        test = matrix_from([("a", "x", 5), ("a", "y", 3), ("b", "x", 1), ("b", "y", 4)])
        table = np.array([[0.9, 0.1], [0.9, 0.1]])  # right for a, wrong for b
        scorer = type("S", (), {
            "n_users": 2, "n_items": 2,
            "score_row": lambda self, u: table[u],
            "score": lambda self, u, i: float(table[u, i]),
        })()
        assert pr.pairwise_concordance(scorer, test) == 0.5

    def test_no_pairs_is_error(self):
        test = matrix_from([("a", "x", 5), ("b", "y", 3)])
        model = pr.init_model(2, 2, 2, seed=0)
        with pytest.raises(DataError):
            pr.pairwise_concordance(model, test)


def reference_pairwise_concordance(scorer, test):
    """The per-user concordance loop: one ``score_row`` call per user with two or more entries."""
    num = 0.0
    den = 0
    for u in range(test.n_users):
        items, r = test.row(u)
        if len(items) < 2:
            continue
        s = scorer.score_row(u)[items]
        prefer = r[:, None] > r[None, :]
        n_pairs = int(prefer.sum())
        if n_pairs == 0:
            continue
        concordant = (s[:, None] > s[None, :])[prefer].sum()
        tied = (s[:, None] == s[None, :])[prefer].sum()
        num += concordant + 0.5 * tied
        den += n_pairs
    if den == 0:
        raise DataError("no admissible preference pairs in the test matrix")
    return num / den


class TableScorer:
    """A scorer whose ``score_row(u)`` is row ``u`` of a table."""

    def __init__(self, table):
        self.table = table
        self.n_users, self.n_items = table.shape

    def score_row(self, user):
        return self.table[user]


@st.composite
def scored_test_matrices(draw):
    """(scorer, test): few rating and score values, so both tie; rows of 0, 1 or more entries."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    held = draw(hnp.arrays(bool, shape))
    ratings = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([1.0, 2.0, 3.0])))
    table = draw(hnp.arrays(np.float64, shape,
                            elements=st.sampled_from([-math.inf, -1.0, 0.0, 0.5, math.nan])))
    users, items = np.nonzero(held)
    indptr = np.concatenate(([0], np.cumsum(held.sum(axis=1))))
    test = pr.RatingMatrix([f"u{u}" for u in range(shape[0])], [f"i{i}" for i in range(shape[1])],
                           indptr, items, ratings[users, items], 1.0, 3.0)
    return TableScorer(table), test


def grid_pair_counts(test, scores):
    """Each user's (pairs, concordant, tied) from S x S comparison grids: the reference."""
    counts = []
    for lo, hi in zip(test.indptr[:-1], test.indptr[1:]):
        r, sc = test.ratings[lo:hi], scores[lo:hi]
        prefer = r[:, None] > r[None, :]
        counts.append((int(prefer.sum()), int((sc[:, None] > sc[None, :])[prefer].sum()),
                       int((sc[:, None] == sc[None, :])[prefer].sum())))
    return counts


@st.composite
def scored_rows(draw):
    """(test, scores): rows of up to 40 entries over many rating levels, scores that tie,
    both zeros, infinities and NaN."""
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    n = sum(sizes)
    ratings = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0])))
    scores = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.25, 2.0, math.inf, math.nan]),
        st.floats(-3, 3))))
    n_items = max(sizes) or 1
    indices = np.concatenate([np.empty(0, dtype=np.intp)]
                             + [np.arange(size, dtype=np.intp) for size in sizes])
    test = pr.RatingMatrix([f"u{u}" for u in range(len(sizes))],
                           [f"i{i}" for i in range(n_items)],
                           np.concatenate(([0], np.cumsum(sizes))), indices, ratings, 1.0, 5.0)
    return test, scores


class TestPairwiseConcordanceReference:
    @settings(max_examples=300, deadline=None)
    @given(scored_rows())
    def test_pair_counts_match_grids(self, case):
        test, scores = case
        counts = pr.ppr._pair_counts(test, scores)
        assert counts.dtype == np.int64
        assert [tuple(c) for c in counts.T.tolist()] == grid_pair_counts(test, scores)

    def test_large_user_costs_linear_memory(self):
        # 20,000 test entries of one user: three S x S grids would take 1.2 GB
        rng = np.random.default_rng(8)
        n = 20_000
        test = pr.RatingMatrix(["u"], [f"i{i}" for i in range(n)], np.array([0, n]),
                               np.arange(n), rng.integers(1, 6, n).astype(float), 1.0, 5.0)
        scorer = TableScorer(np.round(rng.standard_normal((1, n)), 2))
        tracemalloc.start()
        try:
            concordance = pr.pairwise_concordance(scorer, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= concordance <= 1.0
        assert peak < 8 * 2**20

    @settings(max_examples=300, deadline=None)
    @given(scored_test_matrices())
    def test_matches_reference(self, scored):
        scorer, test = scored
        try:
            expected = reference_pairwise_concordance(scorer, test)
        except DataError:
            with pytest.raises(DataError):
                pr.pairwise_concordance(scorer, test)
            return
        assert pr.pairwise_concordance(scorer, test) == expected

    def test_matches_reference_on_test_corpus(self, ml_like_split):
        train, test = ml_like_split.train, ml_like_split.test
        ppr_model, _ = pr.train_ppr(train, pr.TrainConfig(max_iters=2, user_sample_size=128,
                                                           seed=12))
        mf_model, _ = pr.train_classic_mf(train, n_factors=8, epochs=2, seed=12)
        random_ = pr.RandomScorer(train.n_users, train.n_items, 12)
        for scorer in (ppr_model, mf_model, random_):
            assert pr.pairwise_concordance(scorer, test) == reference_pairwise_concordance(scorer,
                                                                                          test)
