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
from collections import Counter
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

    def write_csv(self, fp, config_echo: str | None = None):
        """Plot-ready rows: value, count, ln_value, ln_count (value ascending)."""
        if config_echo is not None:
            fp.write(f"# config: {config_echo}\n")
        fp.write("value,count,ln_value,ln_count\n")
        for value in sorted(self.counts):
            count = self.counts[value]
            fp.write(f"{value!r},{count},{math.log(value)!r},{math.log(count)!r}\n")


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
    counts = np.zeros(n_items, dtype=np.int64)
    for items in recs.items:
        counts += np.bincount(items, minlength=n_items)
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


def write_dme_points_csv(recs: RecommendationSet, n_items: int, fp, config_echo: str | None = None):
    """Plot-ready DME fit points: rank, count, ln_rank, ln_count."""
    if config_echo is not None:
        fp.write(f"# config: {config_echo}\n")
    fp.write("rank,count,ln_rank,ln_count\n")
    for rank, count in enumerate(recommendation_frequencies(recs, n_items), start=1):
        fp.write(f"{rank},{count},{math.log(rank)!r},{math.log(count)!r}\n")


def rating_diff_histogram(matrix: RatingMatrix) -> DiffHistogram:
    """Histogram of positive rating differences over within-user item pairs.

    For every user and every unordered pair of their rated items, the
    absolute rating difference is recorded when strictly positive. The fit
    is an OLS of ln(count) on ln(difference) over the distinct values.
    """
    hist: Counter = Counter()
    for u in range(matrix.n_users):
        # Python floats, so the CSV's {value!r} reads 1.0 rather than np.float64(1.0)
        ratings = matrix.row(u)[1].tolist()
        if len(ratings) < 2:
            continue
        values = Counter(ratings)
        distinct = sorted(values)
        for a in range(len(distinct)):
            for b in range(a + 1, len(distinct)):
                hist[distinct[b] - distinct[a]] += values[distinct[a]] * values[distinct[b]]
    if not hist:
        raise DataError("no positive rating differences anywhere in the matrix")
    values = sorted(hist)
    if len(values) >= 2:
        counts = np.array([hist[v] for v in values], dtype=float)
        slope = _ols_slope(np.log(np.array(values)), np.log(counts))
    else:
        slope = math.nan
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


def write_comparison_csv(rows: list[ComparisonRow], fp, config_echo: str | None = None):
    if config_echo is not None:
        fp.write(f"# config: {config_echo}\n")
    fp.write("algorithm,mae,mae_rank,dme_slope,dme_abs,fairness_rank\n")
    for r in rows:
        fp.write(
            f"{r.algorithm},{r.mae!r},{r.mae_rank},{r.dme_slope!r},{r.dme_abs!r},{r.fairness_rank}\n"
        )


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
) -> MetricsReport:
    """Full evaluation of one scorer: scaled-prediction MAE plus exposure slope.

    Raw test-entry scores are min-max scaled onto the rating scale as one
    batch (the same monotone map for every algorithm), then MAE is taken
    against the held-out ratings. Top-K lists are built from the training
    matrix and summarized by the Matthew-effect slope.
    """
    raw = score_entries(scorer, test)
    predictions = scale_scores(raw, (test.r_min, test.r_max))
    err = mae(predictions, test)
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
