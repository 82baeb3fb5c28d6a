"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The dataset-scale criteria (5-7) run on the session corpus from
conftest: a synthesized MovieLens-style file unless PARETORANK_ML1M points
at a real ratings.dat.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

import paretorank as pr
from conftest import items_of, matrix_from, planted_matrix, tiny_movielens_lines
from paretorank.cli import main

PAIR = pr.PairSample(user=0, preferred=0, other=1)


def _pass(n, name):
    print(f"criterion {n} ({name}): PASS")


def _random_admissible(rng, d, floor):
    """Model rows (u, vj, vk) whose margin exceeds floor."""
    while True:
        u = rng.uniform(-1, 1, d) + 0.5
        vj = rng.uniform(-1, 1, d)
        vk = rng.uniform(-1, 1, d)
        if float(u @ (vj - vk)) > floor:
            return u, vj, vk


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(101)
    lr = 1e-3
    h = 1e-6
    total = 0
    for d in (1, 4, 16):
        for _ in range(334):
            u, vj, vk = _random_admissible(rng, d, 0.1)
            model = pr.FactorModel(U=u.reshape(1, d).copy(), V=np.vstack([vj, vk]).copy())
            result = pr.pair_update(model, PAIR, learning_rate=lr)
            assert result.applied and not result.clipped
            step = np.concatenate(
                [model.U[0] - u, model.V[0] - vj, model.V[1] - vk]
            )

            theta0 = np.concatenate([u, vj, vk])

            def loss_at(theta):
                m = float(theta[:d] @ (theta[d:2 * d] - theta[2 * d:]))
                return -math.log(m)

            grad = np.empty_like(theta0)
            for idx in range(theta0.size):
                up = theta0.copy()
                dn = theta0.copy()
                up[idx] += h
                dn[idx] -= h
                grad[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
            rel = np.linalg.norm(step / lr + grad) / np.linalg.norm(grad)
            assert rel <= 1e-4, f"d={d}: relative error {rel}"
            total += 1
    assert total >= 1000
    _pass(1, "gradient oracle")


def test_criterion_2_margin_ascent_and_skip():
    rng = np.random.default_rng(202)
    ascended = 0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        u, vj, vk = _random_admissible(rng, d, pr.ppr.MIN_MARGIN)
        model = pr.FactorModel(U=u.reshape(1, d).copy(), V=np.vstack([vj, vk]).copy())
        before = float(u @ (vj - vk))
        result = pr.pair_update(model, PAIR, learning_rate=1e-6)
        assert result.applied
        after = float(model.U[0] @ (model.V[0] - model.V[1]))
        assert after > before
        ascended += 1
    assert ascended == 1000

    for _ in range(200):
        d = int(rng.integers(1, 9))
        u = rng.uniform(-1, 1, d)
        vj = rng.uniform(-1, 1, d)
        vk = vj + rng.uniform(0, 1, d)  # margin u.(vj-vk) <= 0 half the time; filter
        if float(u @ (vj - vk)) > pr.ppr.MIN_MARGIN:
            vj, vk = vk, vj  # flip to force a non-admissible margin
        model = pr.FactorModel(U=u.reshape(1, d).copy(), V=np.vstack([vj, vk]).copy())
        before = (model.U.tobytes(), model.V.tobytes())
        result = pr.pair_update(model, PAIR, learning_rate=1e-6)
        assert not result.applied
        assert (model.U.tobytes(), model.V.tobytes()) == before
    _pass(2, "margin ascent and guard skip")


def test_criterion_3_planted_order_recovery():
    matrix = planted_matrix(n_users=200, n_items=100, d=8, per_user=40, seed=11)
    sp = pr.split(matrix, 0.2, seed=5)
    config = pr.TrainConfig(
        n_factors=8, max_iters=30, learning_rate=0.05,
        user_sample_size=200, item_sample_size=16, seed=3,
    )
    model, _ = pr.train_ppr(sp.train, config)
    concordance = pr.pairwise_concordance(model, sp.test)
    assert concordance >= 0.75, f"held-out concordance {concordance}"
    _pass(3, f"planted-order recovery (concordance {concordance:.3f})")


def test_criterion_4_dme_oracle_fixtures():
    def recs_with_counts(counts):
        lists = []
        for item, count in enumerate(counts):
            lists += [np.array([item])] * count
        return pr.RecommendationSet(k=1, items=lists)

    slope, _ = pr.degree_of_matthew_effect(recs_with_counts([7] * 6), 6)
    assert abs(slope) <= 1e-9

    base = 2520  # lcm(1..10): counts exactly proportional to 1/rank
    slope, _ = pr.degree_of_matthew_effect(
        recs_with_counts([base // r for r in range(1, 11)]), 10
    )
    assert slope == pytest.approx(-1.0, abs=1e-9)

    slope, _ = pr.degree_of_matthew_effect(recs_with_counts([8, 4, 2, 1]), 4)
    assert slope == pytest.approx(-1.4590219582913309, abs=0.01)
    oracle = sps.linregress(np.log([1, 2, 3, 4]), np.log([8, 4, 2, 1])).slope
    assert slope == pytest.approx(oracle, abs=1e-12)
    _pass(4, "degree-of-Matthew-effect oracle fixtures")


def test_criterion_5_diff_histogram_shape(ml_like_matrix):
    hist = pr.rating_diff_histogram(ml_like_matrix)
    values = sorted(hist.counts)
    counts = [hist.counts[v] for v in values]
    assert len(values) >= 2
    assert all(a > b for a, b in zip(counts, counts[1:])), counts
    assert hist.slope < 0
    _pass(5, f"rating-difference power-law shape (slope {hist.slope:.2f})")


@pytest.fixture(scope="module")
def headline_reports(ml_like_split):
    """Train all four algorithms on the shared 80/20 split (seed 12, k=10)."""
    sp = ml_like_split
    seed = sp.seed
    reports = {}
    ppr_model, _ = pr.train_ppr(sp.train, pr.TrainConfig(seed=seed))
    mf_model, _ = pr.train_classic_mf(sp.train, n_factors=8, seed=seed)
    zipf = pr.ZipfScorer(pr.PopularityTable.from_matrix(sp.train), sp.train.n_users)
    random_ = pr.RandomScorer(sp.train.n_users, sp.train.n_items, seed)
    for name, scorer in [("ppr", ppr_model), ("mf", mf_model),
                         ("zipf", zipf), ("random", random_)]:
        reports[name] = pr.evaluate_scorer(
            scorer, sp.train, sp.test, 10, name, "ml_like", seed, sp.test_ratio
        )
    return reports


def test_criterion_6_fairness_directional_claim(headline_reports):
    ppr_abs = headline_reports["ppr"].dme_abs
    mf_abs = headline_reports["mf"].dme_abs
    zipf_abs = headline_reports["zipf"].dme_abs
    assert ppr_abs < mf_abs, f"|DME| ppr={ppr_abs:.3f} vs mf={mf_abs:.3f}"
    assert ppr_abs < zipf_abs, f"|DME| ppr={ppr_abs:.3f} vs zipf={zipf_abs:.3f}"
    _pass(6, f"fairness claim (|DME| ppr={ppr_abs:.3f} < mf={mf_abs:.3f}, zipf={zipf_abs:.3f})")


def test_criterion_7_accuracy_directional_claim(headline_reports):
    ppr_mae = headline_reports["ppr"].mae
    random_mae = headline_reports["random"].mae
    assert ppr_mae <= random_mae, f"MAE ppr={ppr_mae:.3f} vs random={random_mae:.3f}"
    _pass(7, f"accuracy claim (MAE ppr={ppr_mae:.3f} <= random={random_mae:.3f})")


def test_criterion_8_compare_determinism(tmp_path):
    data = tmp_path / "tiny.dat"
    data.write_text("\n".join(tiny_movielens_lines()) + "\n", encoding="utf-8")
    fast = ["--max-iters", "3", "--user-sample-size", "30", "--item-sample-size", "8",
            "--mf-epochs", "5"]
    blobs = []
    for sub in ("one", "two"):
        outdir = tmp_path / sub
        outdir.mkdir()
        code = main(["compare", "--data", str(data), "--algos", "ppr,mf,random,zipf",
                     "--seed", "7", "--out", str(outdir / "cmp.csv"),
                     "--report-dir", str(outdir)] + fast)
        assert code == 0
        blobs.append(tuple(
            (outdir / name).read_bytes()
            for name in ("cmp.csv", "mf.json", "ppr.json", "random.json", "zipf.json")
        ))
    assert blobs[0] == blobs[1]
    _pass(8, "compare determinism (byte-identical artifacts)")


def test_criterion_9_brute_force_pair_enumeration():
    rng = np.random.default_rng(99)
    triples = []
    for u in range(5):
        n_rated = int(rng.integers(2, 7))
        for i in rng.choice(6, size=n_rated, replace=False):
            triples.append((f"u{u}", f"i{i}", float(rng.integers(1, 6))))
    matrix = matrix_from(triples)

    expected = set()
    for u in range(matrix.n_users):
        rated = items_of(matrix, u)
        for j, k in itertools.permutations(rated, 2):
            if rated[j] > rated[k]:
                expected.add((u, j, k))

    per_iter = {}
    config = pr.TrainConfig(
        n_factors=4, max_iters=3, user_sample_size=5, item_sample_size=6, seed=17
    )
    pr.train_ppr(
        matrix, config,
        on_pair=lambda it, pair, res: per_iter.setdefault(it, []).append(
            (pair.user, pair.preferred, pair.other)
        ),
    )
    for it in range(config.max_iters):
        visited = per_iter.get(it, [])
        assert len(visited) == len(set(visited)), "a pair was visited twice in one iteration"
        assert set(visited) == expected
    _pass(9, f"brute-force pair enumeration ({len(expected)} admissible pairs)")
