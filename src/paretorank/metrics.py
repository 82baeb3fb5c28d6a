"""Evaluation: rating accuracy (MAE), exposure fairness, power-law diagnostics.

Fairness is measured as the degree of Matthew effect: pool every user's
top-K list, count how often each item was recommended, sort the counts
descending, and fit ln(count) against ln(rank) by ordinary least squares.
A slope near zero means exposure is spread evenly; a steeply negative slope
means a few items dominate the lists. Comparisons use the absolute slope,
smaller is fairer.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import RatingMatrix
from .errors import ConfigError, DataError
from .model import RecommendationSet, scale_scores, score_entries, top_k


@dataclass
class MetricsReport:
    """One algorithm's evaluation on one dataset/split."""

    algorithm: str
    dataset: str
    mae: float
    dme_slope: float
    dme_abs: float
    fit_points: int
    k: int
    seed: int
    test_ratio: float
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mae", "dme_slope", "dme_abs"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mae < 0:
            raise ValueError(f"mae must be >= 0, got {self.mae}")
        if not math.isclose(self.dme_abs, abs(self.dme_slope)):
            raise ValueError("dme_abs must equal |dme_slope|")
        if self.fit_points < 2:
            raise ValueError(f"need at least 2 fit points, got {self.fit_points}")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls(**json.loads(text))


@dataclass
class DiffHistogram:
    """Counts of positive within-user rating differences, with a log-log fit."""

    counts: dict[float, int]
    slope: float


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / (xc @ xc))


def mae(predictions, test: RatingMatrix) -> float:
    """Mean absolute error of per-entry predictions against test ratings.

    Predictions must align with the matrix's entry order, one per entry.
    """
    if test.n_entries == 0:
        raise DataError("cannot compute MAE on an empty test set")
    preds = np.asarray(predictions, dtype=float)
    if preds.shape != (test.n_entries,):
        raise ValueError(f"expected {test.n_entries} predictions, got shape {preds.shape}")
    return float(np.mean(np.abs(preds - test.ratings)))


def recommendation_frequencies(recs: RecommendationSet, n_items: int) -> np.ndarray:
    """Pooled per-item recommendation counts, positive only, sorted descending.

    Ties sort by ascending item index so the ranking is deterministic.
    """
    pooled = np.concatenate([np.empty(0, dtype=np.intp), *recs.items])
    counts = np.bincount(pooled, minlength=n_items)
    pos = np.flatnonzero(counts)
    order = np.lexsort((pos, -counts[pos]))
    return counts[pos][order]


def degree_of_matthew_effect(recs: RecommendationSet, n_items: int) -> tuple[float, int]:
    """Log-log OLS slope of the recommendation-frequency distribution.

    Counts each item's occurrences across all users' lists, keeps items that
    were recommended at least once, ranks them by descending count (ascending
    index on ties), and regresses ln(count) on ln(rank). Items never
    recommended are excluded because ln(0) is undefined; the number of fitted
    points is returned alongside the slope.
    """
    sorted_counts = recommendation_frequencies(recs, n_items).astype(float)
    if sorted_counts.size < 2:
        raise DataError(
            f"need >= 2 distinct recommended items for a slope, got {sorted_counts.size}"
        )
    ranks = np.arange(1, sorted_counts.size + 1, dtype=float)
    slope = _ols_slope(np.log(ranks), np.log(sorted_counts))
    return slope, int(sorted_counts.size)


def rating_diff_histogram(matrix: RatingMatrix) -> DiffHistogram:
    """Histogram of positive rating differences over within-user item pairs.

    For every user and every unordered pair of their rated items, the
    absolute rating difference is recorded when strictly positive. The fit
    is an OLS of ln(count) on ln(difference) over the distinct values, so
    fewer than two distinct differences raise DataError.
    Pairs are counted per pair of distinct rating values from a users x
    values count table, so memory and time grow with users times the
    number of distinct values squared (5 values on a 1-5 star scale).
    """
    vals, value_of = np.unique(matrix.ratings, return_inverse=True)
    nv = vals.size
    # per_user[u, a]: how many of user u's ratings equal vals[a]
    per_user = np.bincount(matrix.entry_users() * nv + value_of,
                           minlength=matrix.n_users * nv).reshape(matrix.n_users, nv)
    pairs = per_user.T @ per_user
    # Python floats, so the histogram's keys are plain numbers, not np.float64
    vals = vals.tolist()
    hist: dict[float, int] = {}
    for a in range(nv):
        for b in range(a + 1, nv):
            if pairs[a, b] > 0:
                diff = vals[b] - vals[a]
                hist[diff] = hist.get(diff, 0) + int(pairs[a, b])
    if len(hist) < 2:
        raise DataError("need >= 2 distinct positive rating differences for a slope")
    values = sorted(hist)
    counts = np.array([hist[v] for v in values], dtype=float)
    slope = _ols_slope(np.log(np.array(values)), np.log(counts))
    return DiffHistogram(counts={v: hist[v] for v in values}, slope=slope)


@dataclass
class ComparisonRow:
    algorithm: str
    mae: float
    mae_rank: int
    dme_slope: float
    dme_abs: float
    fairness_rank: int


def compare_reports(reports: list[MetricsReport]) -> list[ComparisonRow]:
    """Rank algorithms by accuracy and by fairness.

    All reports must describe the same dataset, split and k. Returns one row
    per algorithm (sorted by name) carrying its rank in the ascending-MAE
    table and in the ascending-|slope| (fairest first) table; ties break
    lexicographically by algorithm name.
    """
    if len(reports) < 2:
        raise ConfigError(f"need >= 2 reports to compare, got {len(reports)}")
    ident = {(r.dataset, r.seed, r.test_ratio, r.k) for r in reports}
    if len(ident) != 1:
        raise ConfigError(f"reports describe different runs: {sorted(ident)}")
    mae_order = sorted(reports, key=lambda r: (r.mae, r.algorithm))
    fair_order = sorted(reports, key=lambda r: (r.dme_abs, r.algorithm))
    mae_rank = {r.algorithm: n + 1 for n, r in enumerate(mae_order)}
    fair_rank = {r.algorithm: n + 1 for n, r in enumerate(fair_order)}
    return [
        ComparisonRow(
            algorithm=r.algorithm,
            mae=r.mae,
            mae_rank=mae_rank[r.algorithm],
            dme_slope=r.dme_slope,
            dme_abs=r.dme_abs,
            fairness_rank=fair_rank[r.algorithm],
        )
        for r in sorted(reports, key=lambda r: r.algorithm)
    ]


def evaluate_scorer(
    scorer,
    train: RatingMatrix,
    test: RatingMatrix,
    k: int,
    algorithm: str,
    dataset: str,
    seed: int,
    test_ratio: float,
    config: dict | None = None,
    recs: RecommendationSet | None = None,
) -> MetricsReport:
    """Full evaluation of one scorer: scaled-prediction MAE plus exposure slope.

    Raw test-entry scores are min-max scaled onto the rating scale as one
    batch (the same monotone map for every algorithm), then MAE is taken
    against the held-out ratings. Top-K lists are built from the training
    matrix and summarized by the Matthew-effect slope; a caller that needs
    the lists too builds them with ``top_k(scorer, train, k)`` and passes
    them as ``recs``.
    """
    if recs is not None and recs.k != k:
        raise ValueError(f"recs hold top-{recs.k} lists, expected top-{k}")
    raw = score_entries(scorer, test)
    predictions = scale_scores(raw, (test.r_min, test.r_max))
    err = mae(predictions, test)
    if recs is None:
        recs = top_k(scorer, train, k)
    slope, fit_points = degree_of_matthew_effect(recs, train.n_items)
    return MetricsReport(
        algorithm=algorithm,
        dataset=dataset,
        mae=err,
        dme_slope=slope,
        dme_abs=abs(slope),
        fit_points=fit_points,
        k=k,
        seed=seed,
        test_ratio=test_ratio,
        config=config or {},
    )
