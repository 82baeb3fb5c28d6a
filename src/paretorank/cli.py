"""Command-line entry point: train, evaluate, compare, analyze-powerlaw.

Every command is a pure function of its input files and flags; identical
invocations produce byte-identical artifacts. Exit codes: 0 success,
1 usage/configuration error, 2 data error, 3 numeric divergence.
"""

import argparse
import contextlib
import dataclasses
import inspect
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

# each run setting's test and the rule it states, for flags and for values echoed in a model
_RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "test_ratio": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "k": (lambda v: v >= 1, ">= 1"),
}


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
    # the defaults are the library's: PPR's from TrainConfig's class
    # attributes, MF's from train_classic_mf's signature
    p.add_argument("--learning-rate", type=float, default=ppr.TrainConfig.learning_rate)
    p.add_argument("--n-factors", type=int, default=ppr.TrainConfig.n_factors)
    p.add_argument("--max-iters", type=int, default=ppr.TrainConfig.max_iters)
    p.add_argument("--user-sample-size", type=int, default=ppr.TrainConfig.user_sample_size)
    p.add_argument("--item-sample-size", type=int, default=ppr.TrainConfig.item_sample_size)
    mf = inspect.signature(baselines.train_classic_mf).parameters
    p.add_argument("--mf-learning-rate", type=float, default=mf["learning_rate"].default)
    p.add_argument("--mf-reg", type=float, default=mf["reg"].default)
    p.add_argument("--mf-epochs", type=int, default=mf["epochs"].default)
    return p


def build_parser(add_help: bool = True) -> _Parser:
    parser = _Parser(prog="paretorank",
                     description="Pairwise-ranking recommender trainer and fairness harness")
    sub = parser.add_subparsers(dest="command", required=True)
    data = _data_parent()
    hyper = _hyper_parent()

    train = sub.add_parser("train", parents=[data, hyper], add_help=add_help,
                           help="train one algorithm")
    train.add_argument("--algo", choices=ALGOS, default="ppr")
    train.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--model-out", default="model.bin")
    train.add_argument("--stats-out", default=None,
                       help="per-iteration training stats CSV (ppr and mf only)")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", parents=[data], add_help=add_help,
                        help="evaluate a trained model artifact")
    ev.add_argument("--model", default="model.bin")
    ev.add_argument("--k", type=int, default=DEFAULT_K, help="list length")
    ev.add_argument("--test-ratio", type=float, default=None,
                    help="defaults to the value echoed in the model artifact")
    ev.add_argument("--seed", type=int, default=None,
                    help="defaults to the value echoed in the model artifact")
    ev.add_argument("--report-out", default="report.json")
    ev.add_argument("--dme-points-out", default=None,
                    help="also write the fairness fit points as plot-ready CSV")
    ev.set_defaults(func=cmd_evaluate)

    cmp_ = sub.add_parser("compare", parents=[data, hyper], add_help=add_help,
                          help="train+evaluate several algorithms on one split")
    cmp_.add_argument("--algos", default=",".join(ALGOS),
                      help="comma-separated algorithm tags")
    cmp_.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    cmp_.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmp_.add_argument("--k", type=int, default=DEFAULT_K)
    cmp_.add_argument("--out", default="comparison.csv", help="comparison CSV path")
    cmp_.add_argument("--report-dir", default=None, help="also write per-algorithm report JSON")
    cmp_.set_defaults(func=cmd_compare)

    pl = sub.add_parser("analyze-powerlaw", parents=[data], add_help=add_help,
                        help="histogram of positive within-user rating differences")
    pl.add_argument("--out", default="powerlaw.csv", help="plot-ready CSV path")
    pl.set_defaults(func=cmd_analyze_powerlaw)
    return parser


def _read_config_file(path) -> list[str]:
    flags = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fp:
            lines = fp.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot open config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        flags += ["--" + key.strip().replace("_", "-"), value.strip()]
    return flags


def _parse_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None):
        # re-parse with file pairs injected before the explicit flags, so flags win;
        # without --help, a help key is an unrecognized argument, not a usage exit 0
        injected = argv[:1] + _read_config_file(args.config) + argv[1:]
        args = build_parser(add_help=False).parse_args(injected)
    for name, (ok, rule) in _RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ConfigError(f"{name.replace('_', '-')} must be {rule}, got {value}")
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
    """The value of every hyperparameter flag, keyed by its argparse name."""
    return {name: getattr(args, name) for name in vars(_hyper_parent().parse_args([]))}


def _trainer(algo: str, args):
    """Check the hyperparameters of `algo`, one of ALGOS, before any data is read.

    Returns a function of the training matrix that gives (scorer, stats
    rows or None).
    """
    if algo == "ppr":
        config = ppr.TrainConfig(**{f.name: getattr(args, f.name)
                                    for f in dataclasses.fields(ppr.TrainConfig)})
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


# header and rows of each algorithm's training stats CSV; an algorithm without
# an entry produces no stats. An iteration that updated no pair has no mean
# pair loss: its field is left empty
STATS_LAYOUTS = {
    "ppr": ("iter,mean_pair_loss,updates,skips,clips",
            lambda s: zip(range(1, len(s.updates) + 1),
                          (loss if n else "" for loss, n in zip(s.mean_loss, s.updates)),
                          s.updates, s.skips, s.clips)),
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


def _distinct_outputs(args, *paths: str | None) -> None:
    """Refuse an output that names an input file or another output; None is no output."""
    inputs = {os.path.realpath(getattr(args, flag)): flag
              for flag in ("data", "model", "config") if getattr(args, flag, None)}
    seen = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in inputs:
            raise ConfigError(f"output {path} names the --{inputs[real]} input file")
        if real in seen:
            raise ConfigError(f"outputs {seen[real]} and {path} name the same file")
        seen[real] = path


def _write_outputs(outputs: dict, new_dir: str | None = None) -> None:
    """Write every {path: str or bytes} output to `<path>.<pid>.tmp`, then rename all into place.

    `new_dir`, when given, is a directory made first, with any missing
    parents. A failure removes the temporary files and the directories it
    made, leaves every path as it was and raises DataError naming the path,
    not its temporary file.
    """
    made = []  # deepest first
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in outputs}
    try:
        if new_dir:
            path = new_dir  # the path an error names until the outputs are written
            parent = os.path.abspath(new_dir)
            while not os.path.exists(parent):
                made.append(parent)
                parent = os.path.dirname(parent)
            os.makedirs(new_dir, exist_ok=True)
        for path, data in outputs.items():
            with open(temps[path], "wb") as fp:
                fp.write(data.encode("utf-8") if isinstance(data, str) else data)
        for path, temp in temps.items():
            os.replace(temp, path)
        made = []
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)


def cmd_train(args) -> None:
    if args.stats_out and args.algo not in STATS_LAYOUTS:
        raise ConfigError(f"algorithm {args.algo!r} produces no training stats")
    _distinct_outputs(args, args.model_out, args.stats_out)
    trainer = _trainer(args.algo, args)
    matrix = _load_matrix(args)
    sp = dataio.split(matrix, args.test_ratio, args.seed)
    echo = {
        **_data_echo(args),
        **_hyper_echo(args),
        "algo": args.algo,
        "data_sha256": matrix.sha256(),
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
    _distinct_outputs(args, args.report_out, args.dme_points_out)
    scorer, header = store.load_model(args.model)
    trained = header["config"]
    # an unset --seed or --test-ratio takes the value echoed in the artifact; a bad one exits 2
    echoed = (("seed", DEFAULT_SEED, int, "an integer"),
              ("test_ratio", DEFAULT_TEST_RATIO, (int, float), "a number"))
    for name, default, kinds, noun in echoed:
        if getattr(args, name) is None:
            value = trained.get(name, default)
            ok, rule = _RANGES[name]
            if isinstance(value, bool) or not isinstance(value, kinds) or not ok(value):
                raise DataError(f"{args.model}: echoed {name} {value!r} is not {noun} {rule}")
            setattr(args, name, value)
    algorithm = trained.get("algo", header["kind"])
    if not isinstance(algorithm, str):
        raise DataError(f"{args.model}: echoed algo {algorithm!r} is not a string")
    matrix = _load_matrix(args)
    if (scorer.n_users, scorer.n_items) != (matrix.n_users, matrix.n_items):
        raise DataError(
            f"model shape {scorer.n_users}x{scorer.n_items} does not match "
            f"dataset shape {matrix.n_users}x{matrix.n_items}"
        )
    # an artifact without the digest (one saved by the library) is not checked
    if "data_sha256" in trained and trained["data_sha256"] != matrix.sha256():
        raise DataError(f"{args.data} is not the data {args.model} was trained on: "
                        "its sha256 differs from the one in the model")
    sp = dataio.split(matrix, args.test_ratio, args.seed)
    echo = {**_data_echo(args), "k": args.k, "seed": args.seed, "test_ratio": args.test_ratio,
            "trained_with": trained}
    recs, raw = model.score_and_select(scorer, sp.train, args.k, sp.test)
    report = metrics.summarize(
        recs, raw, sp.train, sp.test,
        algorithm=algorithm,
        dataset=os.path.basename(args.data),
        seed=args.seed,
        test_ratio=args.test_ratio,
        config=echo,
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
    report_paths = {a: os.path.join(args.report_dir, f"{a}.json") for a in algos if args.report_dir}
    _distinct_outputs(args, args.out, *report_paths.values())
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
        outputs.update((report_paths[r.algorithm], r.to_json()) for r in reports)
    _write_outputs(outputs, new_dir=args.report_dir)
    print(f"wrote {args.out}")


def cmd_analyze_powerlaw(args) -> None:
    _distinct_outputs(args, args.out)
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
