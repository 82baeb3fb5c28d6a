"""Pairwise-ranking recommender with power-law loss, baselines and fairness metrics."""

from .baselines import PopularityTable, RandomScorer, ZipfScorer, train_classic_mf
from .dataio import (
    ParseResult,
    RatingColumns,
    RatingMatrix,
    SplitPair,
    build_matrix,
    parse_csv,
    parse_movielens,
    split,
)
from .errors import ConfigError, DataError, DivergenceError, LineParseError
from .metrics import (
    ComparisonRow,
    DiffHistogram,
    MetricsReport,
    compare_reports,
    degree_of_matthew_effect,
    evaluate_scorer,
    mae,
    rating_diff_histogram,
    recommendation_frequencies,
)
from .model import (
    FactorModel,
    RecommendationSet,
    init_model,
    scale_scores,
    score_entries,
    top_k,
)
from .ppr import (
    PairSample,
    PairUpdateResult,
    TrainConfig,
    TrainStats,
    pair_loss,
    pair_update,
    pairwise_concordance,
    train_ppr,
)
from .store import load_model, save_model

__version__ = "0.1.0"
