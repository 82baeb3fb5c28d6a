import itertools
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import paretorank as pr
from conftest import items_of, matrix_from, tiny_movielens_lines
from paretorank import metrics, store
from paretorank.cli import main
from paretorank.errors import ConfigError, DataError
from test_model import assert_same_recs, reference_top_k


def recs_with_counts(counts, n_items=None):
    """A RecommendationSet whose pooled item counts equal `counts[item]`."""
    lists = []
    for item, count in enumerate(counts):
        lists += [np.array([item])] * count
    return pr.RecommendationSet(k=1, items=lists)


def oracle_slope(ranks, counts):
    """Independent OLS oracle (scipy) on the (ln rank, ln count) points."""
    return sps.linregress(np.log(ranks), np.log(counts)).slope


class TestMae:
    def test_perfect_predictions(self):
        m = matrix_from([("a", "x", 4), ("b", "y", 2)])
        assert pr.mae([4.0, 2.0], m) == 0.0

    def test_unit_error(self):
        m = matrix_from([("a", "x", 5), ("b", "y", 1)])
        assert pr.mae([4.0, 2.0], m) == 1.0

    def test_single_entry(self):
        m = matrix_from([("a", "x", 5)])
        assert pr.mae([3.0], m) == 2.0

    def test_empty_test_set(self):
        m = matrix_from([("a", "x", 5)])
        empty = m.subset(np.zeros(m.n_entries, dtype=bool))
        with pytest.raises(DataError):
            pr.mae([], empty)

    def test_length_mismatch(self):
        m = matrix_from([("a", "x", 5), ("a", "y", 3)])
        with pytest.raises(ValueError):
            pr.mae([1.0], m)

    def test_translation_detecting(self):
        m = matrix_from([("a", "x", 2), ("a", "y", 3), ("b", "x", 1)])
        preds = np.array([3.0, 4.0, 2.0])  # all above truth
        base = pr.mae(preds, m)
        assert pr.mae(preds + 0.7, m) == pytest.approx(base + 0.7)


class TestDegreeOfMatthewEffect:
    def test_uniform_counts_flat(self):
        slope, fit_points = pr.degree_of_matthew_effect(recs_with_counts([5, 5, 5, 5]), 4)
        assert abs(slope) <= 1e-9
        assert fit_points == 4

    def test_inverse_rank_counts(self):
        base = 2520  # lcm(1..10), so base/rank is integral at every rank
        counts = [base // r for r in range(1, 11)]
        slope, fit_points = pr.degree_of_matthew_effect(recs_with_counts(counts), 10)
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert fit_points == 10

    def test_derived_fixture(self):
        slope, fit_points = pr.degree_of_matthew_effect(recs_with_counts([8, 4, 2, 1]), 4)
        assert slope == pytest.approx(-1.4590219582913309, abs=0.01)
        assert slope == pytest.approx(oracle_slope([1, 2, 3, 4], [8, 4, 2, 1]), abs=1e-12)
        assert fit_points == 4

    def test_rank_ties_break_by_index(self):
        # items 2 and 0 share the top count; sorted order must be deterministic
        slope_a, _ = pr.degree_of_matthew_effect(recs_with_counts([6, 1, 6]), 3)
        slope_b, _ = pr.degree_of_matthew_effect(recs_with_counts([6, 1, 6]), 3)
        assert slope_a == slope_b

    def test_never_recommended_items_excluded(self):
        slope, fit_points = pr.degree_of_matthew_effect(recs_with_counts([4, 0, 0, 2]), 4)
        assert fit_points == 2
        assert slope == pytest.approx(oracle_slope([1, 2], [4, 2]), abs=1e-12)

    def test_fewer_than_two_items_is_error(self):
        with pytest.raises(DataError):
            pr.degree_of_matthew_effect(recs_with_counts([9]), 1)

    def test_frequencies_sorted_desc_index_ties(self):
        freqs = pr.recommendation_frequencies(recs_with_counts([3, 0, 7, 3]), 4)
        assert freqs.tolist() == [7, 3, 3]

    @pytest.mark.parametrize("n_lists", [0, 3])
    def test_frequencies_without_recommendations(self, n_lists):
        recs = pr.RecommendationSet(k=10, items=[np.empty(0, dtype=np.intp)] * n_lists)
        freqs = pr.recommendation_frequencies(recs, 4)
        assert freqs.tolist() == []
        assert freqs.dtype == np.int64

    def test_dme_points_csv(self, tiny_path, tmp_path):
        model, points = tmp_path / "m.bin", tmp_path / "points.csv"
        assert main(["train", "--data", str(tiny_path), "--algo", "random", "--seed", "7",
                     "--model-out", str(model)]) == 0
        with open(tiny_path, "rb") as fp:
            train = pr.split(pr.build_matrix(pr.parse_movielens(fp).records), 0.2, seed=7).train
        counts = pr.recommendation_frequencies(
            pr.top_k(store.load_model(model)[0], train, k=10), train.n_items)
        assert main(["evaluate", "--data", str(tiny_path), "--model", str(model), "--report-out",
                     str(tmp_path / "r.json"), "--dme-points-out", str(points)]) == 0
        lines = points.read_text().splitlines()[1:]
        assert lines[0] == "rank,count,ln_rank,ln_count"
        assert len(lines) == 1 + len(counts)
        rank, count, ln_rank, ln_count = lines[1].split(",")
        assert (int(rank), int(count)) == (1, counts[0])
        assert float(ln_rank) == 0.0
        assert float(ln_count) == pytest.approx(math.log(counts[0]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=2, max_size=12), st.integers(2, 7))
    def test_scale_invariance(self, counts, factor):
        slope1, _ = pr.degree_of_matthew_effect(recs_with_counts(counts), len(counts))
        slope2, _ = pr.degree_of_matthew_effect(
            recs_with_counts([c * factor for c in counts]), len(counts)
        )
        assert slope1 == pytest.approx(slope2, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
                    min_size=1, max_size=12))
    def test_pooling_every_list_twice_keeps_the_slope(self, lists):
        assume(len({item for items in lists for item in items}) >= 2)
        items = [np.array(items, dtype=np.intp) for items in lists]
        slope, fit_points = pr.degree_of_matthew_effect(pr.RecommendationSet(5, items), 16)
        twice = pr.degree_of_matthew_effect(pr.RecommendationSet(5, items + items), 16)
        assert twice[1] == fit_points
        assert twice[0] == pytest.approx(slope, abs=1e-9)


class _RowOnly:
    """A scorer with only score_row, so the walk takes its per-row path: the
    wrapped scorer's rows, passed through ``row_map`` when one is given."""

    def __init__(self, inner, row_map=None):
        self.inner, self.row_map = inner, row_map
        self.n_users, self.n_items = inner.n_users, inner.n_items

    def score_row(self, user):
        row = self.inner.score_row(user)
        return row if self.row_map is None else self.row_map(row)


SHIPPED_SCORERS = {
    "factors": lambda train, seed: pr.init_model(train.n_users, train.n_items, 3, seed),
    "random": lambda train, seed: pr.RandomScorer(train.n_users, train.n_items, seed),
    "zipf": lambda train, seed: pr.ZipfScorer(pr.PopularityTable.from_matrix(train),
                                              train.n_users),
}


@st.composite
def scorer_cases(draw):
    """A small split, a shipped scorer of its shape, k, and a walk block of a few rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    lines = tiny_movielens_lines(n_users=draw(st.integers(5, 40)), n_items=draw(st.integers(8, 30)),
                                 per_user=6, seed=seed)
    matrix = matrix_from(tuple(line.split("::")[:2]) + (float(line.split("::")[2]),)
                         for line in lines)
    sp = pr.split(matrix, 0.25, seed)
    make = SHIPPED_SCORERS[draw(st.sampled_from(sorted(SHIPPED_SCORERS)))]
    block_bytes = draw(st.integers(1, 8)) * 8 * (-(-matrix.n_items // 16) * 16)
    return sp, lambda: make(sp.train, seed), draw(st.integers(1, 8)), block_bytes


class TestScorerRelations:
    """Relations between whole evaluation results of a scorer and of a wrapper around it."""

    @settings(max_examples=60, deadline=None)
    @given(scorer_cases())
    def test_row_only_wrapper_gives_the_block_paths_bytes(self, case):
        sp, make, k, block_bytes = case
        with mock.patch.object(pr.model, "_BLOCK_BYTES", block_bytes):
            recs, raw = pr.score_and_select(make(), sp.train, k, sp.test)
            got_recs, got_raw = pr.score_and_select(_RowOnly(make()), sp.train, k, sp.test)
        assert_same_recs(got_recs, recs)
        assert got_raw.tobytes() == raw.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(scorer_cases())
    def test_exact_increasing_score_map_keeps_lists_and_dme(self, case):
        # ldexp by 3 multiplies by 8 exactly: an increasing map that keeps
        # distinct scores distinct, so the lists cannot move
        sp, make, k, block_bytes = case
        args = (sp.train, sp.test, "a", "d", 12, 0.25)
        with mock.patch.object(pr.model, "_BLOCK_BYTES", block_bytes):
            recs, raw = pr.score_and_select(make(), sp.train, k, sp.test)
            scaled = _RowOnly(make(), lambda row: np.ldexp(row, 3))
            got_recs, got_raw = pr.score_and_select(scaled, sp.train, k, sp.test)
        assert_same_recs(got_recs, recs)
        try:
            report = pr.summarize(recs, raw, *args)
        except DataError:  # fewer than 2 distinct items recommended: no slope either way
            with pytest.raises(DataError):
                pr.summarize(got_recs, got_raw, *args)
            return
        got = pr.summarize(got_recs, got_raw, *args)
        assert got.dme_abs == report.dme_abs
        assert got.mae == pytest.approx(report.mae, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(scorer_cases())
    def test_exp_score_map_keeps_lists_and_dme(self, case):
        sp, make, k, block_bytes = case
        scorer = make()
        # a precondition of the relation, not tuning: exp is increasing, but it
        # can round two close scores to one, and then ties break by item
        assume(all((np.diff(np.exp(np.unique(scorer.score_row(u)))) > 0).all()
                   for u in range(scorer.n_users)))
        with mock.patch.object(pr.model, "_BLOCK_BYTES", block_bytes):
            recs = pr.top_k(scorer, sp.train, k)
            got = pr.top_k(_RowOnly(make(), np.exp), sp.train, k)
        assert_same_recs(got, recs)
        try:
            slope = pr.degree_of_matthew_effect(recs, sp.train.n_items)
        except DataError:  # fewer than 2 distinct items recommended: no slope either way
            return
        assert pr.degree_of_matthew_effect(got, sp.train.n_items) == slope

    @settings(max_examples=60, deadline=None)
    @given(scorer_cases(), st.floats(0.25, 4.0), st.floats(-4.0, 4.0))
    def test_positive_affine_score_map_keeps_mae(self, case, a, b):
        sp, make, k, block_bytes = case
        with mock.patch.object(pr.model, "_BLOCK_BYTES", block_bytes):
            raw = pr.score_entries(make(), sp.test)
            got_raw = pr.score_entries(_RowOnly(make(), lambda row: a * row + b), sp.test)
        # a precondition, not tuning: a mapped score is off by at most
        # 2u (|b| + a * max|s|), u = 2**-53, and min-max scaling divides the
        # errors by the mapped spread a * ptp(s). Within 64 spreads, each
        # prediction on a scale 4 wide moves by at most 8 * 4 * 64 * u, 2.3e-13
        spread = np.ptp(raw)
        assume(spread == 0 or abs(b) + a * np.abs(raw).max() <= 64 * a * spread)
        recs = pr.RecommendationSet(k, [np.arange(2)])  # the lists do not enter the MAE
        args = (sp.train, sp.test, "a", "d", 12, 0.25)
        got = pr.summarize(recs, got_raw, *args).mae
        assert got == pytest.approx(pr.summarize(recs, raw, *args).mae, rel=1e-12)


def brute_force_diffs(matrix):
    hist = Counter()
    for u in range(matrix.n_users):
        vals = list(items_of(matrix, u).values())
        for a, b in itertools.combinations(vals, 2):
            d = abs(a - b)
            if d > 0:
                hist[d] += 1
    return dict(hist)


def reference_frequencies(recs, n_items):
    """Per-list loop oracle for recommendation_frequencies."""
    counts = np.zeros(n_items, dtype=np.int64)
    for items in recs.items:
        counts += np.bincount(items, minlength=n_items)
    pos = np.flatnonzero(counts)
    order = np.lexsort((pos, -counts[pos]))
    return counts[pos][order]


def reference_diff_histogram(matrix):
    """Per-user Counter loop oracle for rating_diff_histogram."""
    hist = Counter()
    for u in range(matrix.n_users):
        ratings = matrix.row(u)[1].tolist()
        if len(ratings) < 2:
            continue
        values = Counter(ratings)
        distinct = sorted(values)
        for a in range(len(distinct)):
            for b in range(a + 1, len(distinct)):
                hist[distinct[b] - distinct[a]] += values[distinct[a]] * values[distinct[b]]
    values = sorted(hist)
    counts = np.array([hist[v] for v in values], dtype=float)
    slope = pr.metrics._ols_slope(np.log(np.array(values)), np.log(counts))
    return pr.DiffHistogram(counts={v: hist[v] for v in values}, slope=slope)


class TestCorpusScale:
    """top_k, exposure counts and the difference histogram against their loop oracles."""

    @pytest.mark.parametrize("algo", ["random", "zipf", "factors"])
    def test_top_k_and_frequencies(self, ml_like_split, algo):
        train = ml_like_split.train
        scorer = {
            "random": lambda: pr.RandomScorer(train.n_users, train.n_items, seed=12),
            "zipf": lambda: pr.ZipfScorer(pr.PopularityTable.from_matrix(train), train.n_users),
            "factors": lambda: pr.init_model(train.n_users, train.n_items, 8, seed=12),
        }[algo]()
        recs = pr.top_k(scorer, train, k=10)
        assert_same_recs(recs, reference_top_k(scorer, train, k=10))
        got = pr.recommendation_frequencies(recs, train.n_items)
        want = reference_frequencies(recs, train.n_items)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_evaluate_with_given_lists(self, ml_like_split):
        train, test = ml_like_split.train, ml_like_split.test
        scorer = pr.RandomScorer(train.n_users, train.n_items, seed=12)
        kwargs = dict(algorithm="random", dataset="d", seed=12, test_ratio=0.2)
        report = pr.evaluate_scorer(scorer, train, test, 10, **kwargs)
        recs, raw = pr.top_k(scorer, train, k=10), pr.score_entries(scorer, test)
        assert pr.summarize(recs, raw, train, test, **kwargs) == report

    def test_rating_diff_histogram(self, ml_like_matrix):
        got = pr.rating_diff_histogram(ml_like_matrix)
        want = reference_diff_histogram(ml_like_matrix)
        assert list(got.counts.items()) == list(want.counts.items())
        assert all(type(v) is float and type(c) is int for v, c in got.counts.items())
        assert got.slope.hex() == want.slope.hex()


class TestRatingDiffHistogram:
    def test_four_rating_user(self):
        m = matrix_from([("a", "w", 5), ("a", "x", 4), ("a", "y", 3), ("a", "z", 1)])
        hist = pr.rating_diff_histogram(m)
        assert hist.counts == {1.0: 2, 2.0: 2, 3.0: 1, 4.0: 1}
        assert hist.counts == brute_force_diffs(m)

    def test_constant_user_is_error(self):
        m = matrix_from([("a", "x", 3), ("a", "y", 3), ("a", "z", 3)])
        with pytest.raises(DataError):
            pr.rating_diff_histogram(m)

    def test_two_users(self):
        m = matrix_from([("a", "x", 2), ("a", "y", 1), ("b", "x", 2), ("b", "y", 1)])
        with pytest.raises(DataError, match="need >= 2 distinct positive rating differences"):
            pr.rating_diff_histogram(m)  # every difference is 1: no slope to fit
        m = matrix_from([("a", "x", 2), ("a", "y", 1), ("b", "x", 2), ("b", "y", 1), ("b", "z", 4)])
        assert pr.rating_diff_histogram(m).counts == {1.0: 2, 2.0: 1, 3.0: 1}

    def test_pair_count_identity_random_matrices(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            triples = [
                (f"u{u}", f"i{j}", float(rng.integers(1, 6)))
                for u in range(rng.integers(2, 10))
                for j in rng.choice(10, size=rng.integers(2, 8), replace=False)
            ]
            m = matrix_from(triples)
            try:
                hist = pr.rating_diff_histogram(m)
            except DataError:
                assert len(brute_force_diffs(m)) < 2
                continue
            assert hist.counts == brute_force_diffs(m)
            total = sum(hist.counts.values())
            all_pairs = sum(
                math.comb(len(items_of(m, u)), 2) for u in range(m.n_users)
            )
            tied = all_pairs - total
            assert tied >= 0

    def test_slope_against_oracle(self):
        m = matrix_from([
            *[("a", f"x{n}", 5) for n in range(8)],
            *[("a", f"y{n}", 4) for n in range(4)],
            ("a", "z", 3),
        ])
        hist = pr.rating_diff_histogram(m)
        values = sorted(hist.counts)
        expected = sps.linregress(
            np.log(values), np.log([hist.counts[v] for v in values])
        ).slope
        assert hist.slope == pytest.approx(expected, abs=1e-12)

    def test_csv_export(self, tmp_path):
        data, out = tmp_path / "t.dat", tmp_path / "h.csv"
        data.write_text("a::w::5::0\na::x::4::0\na::y::3::0\na::z::1::0\n")
        with open(data, "rb") as fp:
            hist = pr.rating_diff_histogram(pr.build_matrix(pr.parse_movielens(fp).records))
        assert main(["analyze-powerlaw", "--data", str(data), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "value,count,ln_value,ln_count"
        assert len(lines) == 2 + len(hist.counts)
        first = lines[2].split(",")
        assert float(first[0]) == 1.0
        assert int(first[1]) == 2


def make_report(algorithm, mae_value, dme, dataset="d", seed=1, ratio=0.2, k=10):
    return pr.MetricsReport(
        algorithm=algorithm,
        dataset=dataset,
        mae=mae_value,
        dme_slope=dme,
        dme_abs=abs(dme),
        fit_points=5,
        k=k,
        seed=seed,
        test_ratio=ratio,
    )


class TestCompareReports:
    def test_fairness_ordering(self):
        rows = pr.compare_reports([make_report("A", 1.0, -0.2), make_report("B", 0.5, -0.9)])
        by_name = {r.algorithm: r for r in rows}
        assert by_name["A"].fairness_rank == 1
        assert by_name["B"].fairness_rank == 2
        assert by_name["B"].mae_rank == 1

    def test_tie_breaks_lexicographically(self):
        rows = pr.compare_reports([make_report("b", 1.0, -0.4), make_report("a", 1.0, 0.4)])
        by_name = {r.algorithm: r for r in rows}
        assert by_name["a"].fairness_rank == 1
        assert by_name["b"].fairness_rank == 2

    def test_single_report_is_error(self):
        with pytest.raises(ConfigError):
            pr.compare_reports([make_report("A", 1.0, -0.2)])

    def test_mismatched_runs_rejected(self):
        with pytest.raises(ConfigError):
            pr.compare_reports(
                [make_report("A", 1.0, -0.2, seed=1), make_report("B", 0.5, -0.9, seed=2)]
            )

    def test_ranks_are_permutations(self):
        rows = pr.compare_reports(
            [make_report(n, m_, d_) for n, m_, d_ in
             [("a", 0.9, -1.2), ("b", 1.1, -0.3), ("c", 0.4, -2.0), ("d", 1.0, -0.1)]]
        )
        assert sorted(r.mae_rank for r in rows) == [1, 2, 3, 4]
        assert sorted(r.fairness_rank for r in rows) == [1, 2, 3, 4]

    def test_duplicate_algorithm_rejected(self):
        reports = [make_report("A", 1.0, -0.2), make_report("A", 2.0, -0.3),
                   make_report("B", 1.5, -0.4)]
        with pytest.raises(ConfigError, match="'A'"):
            pr.compare_reports(reports)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.text("abc", min_size=1, max_size=2),
                              st.sampled_from([0.5, 1.0, 1.5]),
                              st.sampled_from([-1.0, -0.5, 0.5, 1.0])),
                    min_size=2, max_size=6, unique_by=lambda t: t[0]),
           st.randoms(use_true_random=False))
    def test_ranks_by_value_then_name_in_any_input_order(self, values, rnd):
        reports = [make_report(*v) for v in values]
        rows = pr.compare_reports(reports)
        rnd.shuffle(reports)
        assert pr.compare_reports(reports) == rows
        assert [r.algorithm for r in rows] == sorted(r.algorithm for r in reports)
        for row, report in zip(rows, sorted(reports, key=lambda r: r.algorithm)):
            for name, rank_column in metrics.REPORT_METRICS.items():
                assert getattr(row, name) == getattr(report, name)
                if rank_column:
                    key = (getattr(report, name), report.algorithm)
                    before = sum((getattr(o, name), o.algorithm) < key for o in reports)
                    assert getattr(row, rank_column) == before + 1


class TestMetricsReport:
    def test_dme_abs_validated(self):
        with pytest.raises(ValueError):
            pr.MetricsReport(
                algorithm="a", dataset="d", mae=1.0, dme_slope=-0.5, dme_abs=0.4,
                fit_points=3, k=10, seed=1, test_ratio=0.2,
            )

    @pytest.mark.parametrize("field", list(metrics.REPORT_METRICS))
    def test_non_finite_rejected(self, field):
        values = {"mae": 1.0, "dme_slope": -0.5, "dme_abs": 0.5, field: math.nan}
        with pytest.raises(ValueError):
            pr.MetricsReport(algorithm="a", dataset="d", fit_points=3, k=10, seed=1,
                             test_ratio=0.2, **values)

    def test_json_roundtrip(self):
        rep = make_report("ppr", 1.25, -0.75)
        again = pr.MetricsReport.from_json(rep.to_json())
        assert again == rep

    def test_json_is_stable(self):
        rep = make_report("ppr", 1.25, -0.75)
        assert rep.to_json() == rep.to_json()
        assert json.loads(rep.to_json())["dme_abs"] == 0.75
