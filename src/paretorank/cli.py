"""Command-line entry point: train, evaluate, compare, analyze-powerlaw.

Every command is a pure function of its input files and flags; identical
invocations produce byte-identical artifacts. Exit codes: 0 success,
1 usage/configuration error, 2 data error, 3 numeric divergence.
"""

import argparse
import contextlib
import json
import math
import os
import sys

from . import baselines, dataio, metrics, model, ppr, store
from .errors import ConfigError, DataError, DivergenceError

ALGOS = ("mf", "ppr", "random", "zipf")

DEFAULT_SEED = 42
DEFAULT_TEST_RATIO = 0.2
DEFAULT_K = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _data_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--data", required=True, help="ratings file")
    p.add_argument("--format", choices=("movielens", "csv"), default="movielens",
                   help="movielens: '::'-separated, no header; csv: delimited with header")
    p.add_argument("--delimiter", default=",", help="csv delimiter (default ',')")
    p.add_argument("--user-col", default="userID", help="csv user column name")
    p.add_argument("--item-col", default="itemID", help="csv item column name")
    p.add_argument("--rating-col", default="rating", help="csv rating column name")
    p.add_argument("--parse-errors", choices=("raise", "skip"), default="raise",
                   help="fail on the first malformed line, or skip and count")
    p.add_argument("--config", default=None,
                   help="key=value file of flag defaults; explicit flags win")
    return p


def _hyper_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--alpha", type=float, default=1.0, help="power-law exponent")
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--n-factors", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=60)
    p.add_argument("--user-sample-size", type=int, default=512)
    p.add_argument("--item-sample-size", type=int, default=32)
    p.add_argument("--min-margin", type=float, default=1e-6)
    p.add_argument("--mf-learning-rate", type=float, default=0.005)
    p.add_argument("--mf-reg", type=float, default=0.01)
    p.add_argument("--mf-epochs", type=int, default=30)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="paretorank",
                     description="Pairwise-ranking recommender trainer and fairness harness")
    sub = parser.add_subparsers(dest="command", required=True)
    data = _data_parent()
    hyper = _hyper_parent()

    train = sub.add_parser("train", parents=[data, hyper], help="train one algorithm")
    train.add_argument("--algo", choices=ALGOS, default="ppr")
    train.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--model-out", default="model.bin")
    train.add_argument("--stats-out", default=None,
                       help="per-iteration training stats CSV (ppr and mf only)")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", parents=[data], help="evaluate a trained model artifact")
    ev.add_argument("--model", default="model.bin")
    ev.add_argument("--k", type=int, default=None, help=f"list length (default {DEFAULT_K})")
    ev.add_argument("--test-ratio", type=float, default=None,
                    help="defaults to the value echoed in the model artifact")
    ev.add_argument("--seed", type=int, default=None,
                    help="defaults to the value echoed in the model artifact")
    ev.add_argument("--report-out", default="report.json")
    ev.add_argument("--dme-points-out", default=None,
                    help="also write the fairness fit points as plot-ready CSV")
    ev.set_defaults(func=cmd_evaluate)

    cmp_ = sub.add_parser("compare", parents=[data, hyper],
                          help="train+evaluate several algorithms on one split")
    cmp_.add_argument("--algos", default="mf,ppr,random,zipf",
                      help="comma-separated algorithm tags")
    cmp_.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    cmp_.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmp_.add_argument("--k", type=int, default=DEFAULT_K)
    cmp_.add_argument("--out", default="comparison.csv", help="comparison CSV path")
    cmp_.add_argument("--report-dir", default=None, help="also write per-algorithm report JSON")
    cmp_.set_defaults(func=cmd_compare)

    pl = sub.add_parser("analyze-powerlaw", parents=[data],
                        help="histogram of positive within-user rating differences")
    pl.add_argument("--out", default="powerlaw.csv", help="plot-ready CSV path")
    pl.set_defaults(func=cmd_analyze_powerlaw)
    return parser


def _read_config_file(path) -> list[str]:
    flags = []
    try:
        fp = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open config file: {exc}") from None
    with fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            flags += ["--" + key.strip().replace("_", "-"), value.strip()]
    return flags


def _parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # re-parse with file pairs injected before the explicit flags, so flags win
        injected = argv[:1] + _read_config_file(args.config) + argv[1:]
        args = parser.parse_args(injected)
    return args


def _load_matrix(args) -> dataio.RatingMatrix:
    with open(args.data, "rb") as fp:
        if args.format == "movielens":
            result = dataio.parse_movielens(fp, errors=args.parse_errors)
        else:
            columns = (args.user_col, args.item_col, args.rating_col)
            result = dataio.parse_csv(fp, columns, delimiter=args.delimiter,
                                      errors=args.parse_errors)
    if result.skipped:
        print(f"skipped {result.skipped} malformed line(s)", file=sys.stderr)
    return dataio.build_matrix(result.records)


def _data_echo(args) -> dict:
    echo = {
        "dataset": os.path.basename(args.data),
        "format": args.format,
        "parse_errors": args.parse_errors,
    }
    if args.format == "csv":
        echo.update(delimiter=args.delimiter, user_col=args.user_col,
                    item_col=args.item_col, rating_col=args.rating_col)
    return echo


def _hyper_echo(args) -> dict:
    return {
        "alpha": args.alpha,
        "learning_rate": args.learning_rate,
        "n_factors": args.n_factors,
        "max_iters": args.max_iters,
        "user_sample_size": args.user_sample_size,
        "item_sample_size": args.item_sample_size,
        "min_margin": args.min_margin,
        "mf_learning_rate": args.mf_learning_rate,
        "mf_reg": args.mf_reg,
        "mf_epochs": args.mf_epochs,
    }


def _check_ratio(test_ratio: float):
    if not 0.0 <= test_ratio <= 1.0:
        raise ConfigError(f"test-ratio must be in [0, 1], got {test_ratio}")


def _check_seed(seed: int):
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _trainer(algo: str, args):
    """Check one algorithm tag's hyperparameters before any data is read.

    Returns a function of the training matrix that gives (scorer, stats
    rows or None).
    """
    if algo == "ppr":
        config = ppr.TrainConfig(
            alpha=args.alpha,
            learning_rate=args.learning_rate,
            n_factors=args.n_factors,
            max_iters=args.max_iters,
            user_sample_size=args.user_sample_size,
            item_sample_size=args.item_sample_size,
            min_margin=args.min_margin,
            seed=args.seed,
        )
        return lambda train: ppr.train_ppr(train, config)
    if algo == "mf":
        baselines.check_mf_hyperparameters(args.n_factors, args.mf_learning_rate, args.mf_reg,
                                           args.mf_epochs)
        return lambda train: baselines.train_classic_mf(
            train,
            n_factors=args.n_factors,
            learning_rate=args.mf_learning_rate,
            reg=args.mf_reg,
            epochs=args.mf_epochs,
            seed=args.seed,
        )
    if algo == "random":
        return lambda train: (baselines.RandomScorer(train.n_users, train.n_items, args.seed), None)
    if algo == "zipf":
        def zipf(train):
            table = baselines.PopularityTable.from_matrix(train)
            return baselines.ZipfScorer(table, train.n_users), None
        return zipf
    raise ConfigError(f"unknown algorithm {algo!r}")


# header and rows of each algorithm's training stats CSV; an algorithm without
# an entry produces no stats
STATS_LAYOUTS = {
    "ppr": ("iter,mean_pair_loss,updates,skips,clips",
            lambda s: zip(range(1, len(s.updates) + 1), s.mean_loss, s.updates, s.skips, s.clips)),
    "mf": ("epoch,loss", lambda losses: enumerate(losses, start=1)),
}


def _csv(echo: dict, header: str, rows) -> str:
    """An artifact CSV: a `# config:` line echoing the run, the header, one line per row.

    Values are written with str, which gives a float's shortest round-trip
    digits and an integer's digits.
    """
    lines = [f"# config: {json.dumps(echo, sort_keys=True, separators=(',', ':'))}", header]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _distinct_outputs(*paths: str | None) -> None:
    """Refuse two outputs of one command that name the same file; None is no output."""
    seen = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"outputs {seen[real]} and {path} name the same file")
        seen[real] = path


def _write_outputs(outputs: dict) -> None:
    """Write every {path: str or bytes} output to `<path>.<pid>.tmp`, then rename all into place.

    A failure removes the temporary files, leaves every path as it was and
    raises DataError naming the path, not its temporary file.
    """
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in outputs}
    try:
        for path, data in outputs.items():
            with open(temps[path], "wb") as fp:
                fp.write(data.encode("utf-8") if isinstance(data, str) else data)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)


def cmd_train(args) -> None:
    if args.stats_out and args.algo not in STATS_LAYOUTS:
        raise ConfigError(f"algorithm {args.algo!r} produces no training stats")
    _distinct_outputs(args.model_out, args.stats_out)
    _check_seed(args.seed)
    _check_ratio(args.test_ratio)
    trainer = _trainer(args.algo, args)
    matrix = _load_matrix(args)
    sp = dataio.split(matrix, args.test_ratio, args.seed)
    echo = {
        **_data_echo(args),
        **_hyper_echo(args),
        "algo": args.algo,
        "seed": args.seed,
        "test_ratio": args.test_ratio,
    }
    scorer, stats = trainer(sp.train)
    outputs = {args.model_out: store.model_bytes(scorer, args.seed, echo)}
    if args.stats_out:
        header, rows = STATS_LAYOUTS[args.algo]
        outputs[args.stats_out] = _csv(echo, header, rows(stats))
    _write_outputs(outputs)
    print(f"wrote {args.model_out}")


def cmd_evaluate(args) -> None:
    _distinct_outputs(args.report_out, args.dme_points_out)
    scorer, header = store.load_model(args.model)
    trained = header["config"]
    # a bad value echoed from the artifact is a data error; as a flag, a config error
    seed = args.seed
    if seed is None:
        seed = trained.get("seed", DEFAULT_SEED)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise DataError(f"{args.model}: echoed seed {seed!r} is not a non-negative integer")
    else:
        _check_seed(seed)
    test_ratio = args.test_ratio
    if test_ratio is None:
        test_ratio = trained.get("test_ratio", DEFAULT_TEST_RATIO)
        if (isinstance(test_ratio, bool) or not isinstance(test_ratio, (int, float))
                or not 0.0 <= test_ratio <= 1.0):
            raise DataError(
                f"{args.model}: echoed test_ratio {test_ratio!r} is not a number in [0, 1]")
    k = args.k if args.k is not None else DEFAULT_K
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    _check_ratio(test_ratio)
    matrix = _load_matrix(args)
    if (scorer.n_users, scorer.n_items) != (matrix.n_users, matrix.n_items):
        raise DataError(
            f"model shape {scorer.n_users}x{scorer.n_items} does not match "
            f"dataset shape {matrix.n_users}x{matrix.n_items}"
        )
    sp = dataio.split(matrix, test_ratio, seed)
    algorithm = trained.get("algo", header.get("kind", "unknown"))
    echo = {**_data_echo(args), "k": k, "seed": seed, "test_ratio": test_ratio,
            "trained_with": trained}
    recs = model.top_k(scorer, sp.train, k)
    report = metrics.evaluate_scorer(
        scorer, sp.train, sp.test, k,
        algorithm=algorithm,
        dataset=os.path.basename(args.data),
        seed=seed,
        test_ratio=test_ratio,
        config=echo,
        recs=recs,
    )
    outputs = {args.report_out: report.to_json()}
    if args.dme_points_out:
        counts = metrics.recommendation_frequencies(recs, sp.train.n_items)
        outputs[args.dme_points_out] = _csv(
            echo, "rank,count,ln_rank,ln_count",
            ((rank, count, math.log(rank), math.log(count))
             for rank, count in enumerate(counts, start=1)))
    _write_outputs(outputs)
    print(f"wrote {args.report_out}")


def cmd_compare(args) -> None:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if len(set(algos)) != len(algos):
        raise ConfigError(f"duplicate algorithm tags in {args.algos!r}")
    if len(algos) < 2:
        raise ConfigError(f"need at least 2 algorithms to compare, got {algos}")
    for a in algos:
        if a not in ALGOS:
            raise ConfigError(f"unknown algorithm {a!r}; choose from {', '.join(ALGOS)}")
    if args.k < 1:
        raise ConfigError(f"k must be >= 1, got {args.k}")
    _check_seed(args.seed)
    _check_ratio(args.test_ratio)
    report_paths = {a: os.path.join(args.report_dir, f"{a}.json") for a in algos if args.report_dir}
    _distinct_outputs(args.out, *report_paths.values())
    trainers = {algo: _trainer(algo, args) for algo in sorted(algos)}
    matrix = _load_matrix(args)
    sp = dataio.split(matrix, args.test_ratio, args.seed)
    echo = {
        **_data_echo(args),
        **_hyper_echo(args),
        "algos": sorted(algos),
        "k": args.k,
        "seed": args.seed,
        "test_ratio": args.test_ratio,
    }
    reports = []
    for algo, trainer in trainers.items():
        scorer, _ = trainer(sp.train)
        reports.append(metrics.evaluate_scorer(
            scorer, sp.train, sp.test, args.k,
            algorithm=algo,
            dataset=os.path.basename(args.data),
            seed=args.seed,
            test_ratio=args.test_ratio,
            config=echo,
        ))
    rows = metrics.compare_reports(reports)
    outputs = {args.out: _csv(
        echo, "algorithm,mae,mae_rank,dme_slope,dme_abs,fairness_rank",
        ((r.algorithm, r.mae, r.mae_rank, r.dme_slope, r.dme_abs, r.fairness_rank) for r in rows))}
    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)
        outputs.update((report_paths[r.algorithm], r.to_json()) for r in reports)
    _write_outputs(outputs)
    print(f"wrote {args.out}")


def cmd_analyze_powerlaw(args) -> None:
    matrix = _load_matrix(args)
    hist = metrics.rating_diff_histogram(matrix)
    rows = ((v, c, math.log(v), math.log(c)) for v, c in sorted(hist.counts.items()))
    _write_outputs({args.out: _csv(_data_echo(args), "value,count,ln_value,ln_count", rows)})
    print(json.dumps({"distinct_values": len(hist.counts), "slope": hist.slope},
                     sort_keys=True))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
        args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
