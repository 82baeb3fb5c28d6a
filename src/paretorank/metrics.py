"""Evaluation: rating accuracy (MAE), exposure fairness, power-law diagnostics.

Fairness is measured as the degree of Matthew effect: pool every user's
top-K list, count how often each item was recommended, sort the counts
descending, and fit ln(count) against ln(rank) by ordinary least squares.
A slope near zero means exposure is spread evenly; a steeply negative slope
means a few items dominate the lists. Comparisons use the absolute slope,
smaller is fairer.
"""

import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dataio import RatingMatrix
from .errors import ConfigError, DataError
from .model import RecommendationSet, scale_scores, score_and_select
# the benchmark's traced runs wrap metrics.top_k and metrics.score_entries by name
from .model import score_entries, top_k  # noqa: F401

# each report metric, in the comparison CSV's column order, and the rank column
# that follows it (ascending value, ties by algorithm name), or None. Every
# metric must be finite
REPORT_METRICS = {
    "mae": "mae_rank",
    "dme_slope": None,
    "dme_abs": "fairness_rank",
}

# one comparison CSV row: the algorithm, then each metric and its rank column
ComparisonRow = namedtuple(
    "ComparisonRow", ["algorithm", *filter(None, itertools.chain(*REPORT_METRICS.items()))])


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
        for name in REPORT_METRICS:
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


def compare_reports(reports: list[MetricsReport]) -> list[ComparisonRow]:
    """Rank algorithms by each metric of REPORT_METRICS that has a rank column.

    All reports must describe the same dataset, split and k, each for a
    different algorithm. Returns one row per algorithm (sorted by name)
    carrying its rank in each ascending table (for ``dme_abs``, fairest
    first); ties break lexicographically by algorithm name.
    """
    if len(reports) < 2:
        raise ConfigError(f"need >= 2 reports to compare, got {len(reports)}")
    ident = {(r.dataset, r.seed, r.test_ratio, r.k) for r in reports}
    if len(ident) != 1:
        raise ConfigError(f"reports describe different runs: {sorted(ident)}")
    rows = {}
    for r in reports:
        if r.algorithm in rows:
            raise ConfigError(f"more than one report for algorithm {r.algorithm!r}")
        rows[r.algorithm] = {name: getattr(r, name) for name in REPORT_METRICS}
    for name, rank_column in REPORT_METRICS.items():
        if rank_column:
            for n, algo in enumerate(sorted(rows, key=lambda a: (rows[a][name], a)), start=1):
                rows[algo][rank_column] = n
    return [ComparisonRow(algorithm=algo, **rows[algo]) for algo in sorted(rows)]


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

    One scoring pass: ``score_and_select`` calls ``score_row`` once per
    user, and the same block of about 1 MiB of score rows gives both the
    user's top-K list and the scores of the user's test entries, so the
    memory in use beyond the lists and the entry scores is a few blocks. See
    ``summarize`` for what the report holds. A caller that needs the lists
    too calls ``score_and_select`` and ``summarize`` itself.
    """
    recs, raw = score_and_select(scorer, train, k, test)
    return summarize(recs, raw, train, test, algorithm, dataset, seed, test_ratio, config)


def summarize(
    recs: RecommendationSet,
    raw: np.ndarray,
    train: RatingMatrix,
    test: RatingMatrix,
    algorithm: str,
    dataset: str,
    seed: int,
    test_ratio: float,
    config: dict | None = None,
) -> MetricsReport:
    """The report of one scorer from its top-K lists and raw test-entry scores.

    Raw test-entry scores are min-max scaled onto the rating scale as one
    batch (the same monotone map for every algorithm), then MAE is taken
    against the held-out ratings. The top-K lists, built from the training
    matrix, are summarized by the Matthew-effect slope. An empty training
    or test set raises DataError, and so do a rating scale of one value and
    raw scores that do not scale to finite predictions.
    """
    if train.n_entries == 0:
        raise DataError("cannot evaluate with an empty training set")
    # checked before scaling, which cannot scale an empty batch or onto one value
    if test.n_entries == 0:
        raise DataError("cannot compute MAE on an empty test set")
    if test.r_min >= test.r_max:
        raise DataError(f"every rating is {test.r_min}: there is no rating scale to "
                        "map scores onto")
    # an infinite score, or a score range past the float range, scales to inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = scale_scores(raw, (test.r_min, test.r_max))
    if not np.isfinite(predictions).all():
        raise DataError("test-entry scores do not scale to finite predictions: "
                        "a score or the score range is not finite")
    err = mae(predictions, test)
    slope, fit_points = degree_of_matthew_effect(recs, train.n_items)
    return MetricsReport(
        algorithm=algorithm,
        dataset=dataset,
        mae=err,
        dme_slope=slope,
        dme_abs=abs(slope),
        fit_points=fit_points,
        k=recs.k,
        seed=seed,
        test_ratio=test_ratio,
        config=config or {},
    )
