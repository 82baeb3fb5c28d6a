import argparse
import collections
import contextlib
import dataclasses
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import paretorank as pr
from conftest import movielens_like_lines
from paretorank import baselines, cli, store
from paretorank.cli import main

FAST_PPR = ["--max-iters", "3", "--user-sample-size", "30", "--item-sample-size", "8"]
FAST_MF = ["--mf-epochs", "5"]
NO_DIR = "No such file or directory"


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """run's exit code, or the code of a SystemExit it raised (argparse's --help exits 0)."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def rejects(err, flag):
    """Whether err is the config error that names the hyperparameter behind flag."""
    name = flag.removeprefix("--").removeprefix("mf-").replace("-", "_")
    return err.startswith("config error:") and f"{name} must be" in err


class TestTrain:
    def test_train_twice_is_bit_identical(self, tiny_path, tmp_path):
        outs = []
        for name in ("a.bin", "b.bin"):
            model_out = tmp_path / name
            stats_out = tmp_path / (name + ".csv")
            code = run("train", "--data", tiny_path, "--algo", "ppr", "--seed", "7",
                       "--model-out", model_out, "--stats-out", stats_out, *FAST_PPR)
            assert code == 0
            outs.append((model_out.read_bytes(), stats_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_unknown_algorithm_is_usage_error(self, tiny_path, tmp_path, capsys):
        code = run("train", "--data", tiny_path, "--algo", "zeromat",
                   "--model-out", tmp_path / "m.bin")
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = run("train", "--data", tmp_path / "nope.dat", "--algo", "ppr",
                   "--model-out", tmp_path / "m.bin")
        assert code == 2

    def test_bad_ratio_is_usage_error(self, tiny_path, tmp_path):
        code = run("train", "--data", tiny_path, "--algo", "ppr", "--test-ratio", "1.5",
                   "--model-out", tmp_path / "m.bin")
        assert code == 1

    def test_stats_for_statless_algo_is_usage_error(self, tiny_path, tmp_path):
        for algo in ("random", "zipf"):
            model_out = tmp_path / f"{algo}.bin"
            code = run("train", "--data", tiny_path, "--algo", algo,
                       "--model-out", model_out, "--stats-out", tmp_path / "s.csv")
            assert code == 1
            assert not model_out.exists()

    @pytest.mark.parametrize("algo,flag,value", [
        ("ppr", "--learning-rate", "nan"), ("ppr", "--learning-rate", "inf"),
        ("ppr", "--learning-rate", "-1"), ("ppr", "--learning-rate", "0"),
        ("ppr", "--min-margin", "nan"), ("ppr", "--min-margin", "inf"),
        ("ppr", "--min-margin", "-1"), ("ppr", "--min-margin", "0"),
        ("ppr", "--max-iters", str(2**63)), ("mf", "--mf-epochs", str(2**63)),
        ("mf", "--mf-epochs", "-1"), ("mf", "--mf-epochs", "0"),
        ("mf", "--mf-learning-rate", "-1"), ("mf", "--mf-learning-rate", "nan"),
        ("mf", "--mf-learning-rate", "inf"), ("mf", "--mf-reg", "nan"),
        ("mf", "--mf-reg", "-1"), ("mf", "--mf-reg", "inf"), ("mf", "--n-factors", "0"),
    ])
    def test_bad_hyperparameter_is_config_error(self, tmp_path, capsys, algo, flag, value):
        # the data file is missing: the flags must be rejected before it is read
        model_out = tmp_path / "m.bin"
        # the flag comes last, so FAST_PPR cannot override it
        code = run("train", "--data", tmp_path / "nope.dat", "--algo", algo, *FAST_PPR,
                   "--model-out", model_out, flag, value)
        assert code == 1
        err = capsys.readouterr().err
        if flag == "--min-margin":
            # the guard is the constant ppr.MIN_MARGIN: no value of the flag is accepted
            assert err == f"config error: unrecognized arguments: {flag} {value}\n"
        else:
            assert rejects(err, flag)
        assert not model_out.exists()

    @staticmethod
    def refuses_option(tmp_path, capsys, via, key):
        # the data file is missing: the option must be refused before it is read
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=2\n")
        given = [flag, "2"] if via == "flag" else ["--config", cfg]
        model_out = tmp_path / "m.bin"
        code = run("train", "--data", tmp_path / "nope.dat", "--algo", "ppr", *given,
                   "--model-out", model_out)
        assert code == 1
        assert capsys.readouterr().err == f"config error: unrecognized arguments: {flag} 2\n"
        assert not model_out.exists()

    @pytest.mark.parametrize("via", ["flag", "config-file"])
    def test_alpha_is_not_an_option(self, tmp_path, capsys, via):
        self.refuses_option(tmp_path, capsys, via, "alpha")

    @pytest.mark.parametrize("via", ["flag", "config-file"])
    def test_min_margin_is_not_an_option(self, tmp_path, capsys, via):
        # the guard is ppr.MIN_MARGIN
        self.refuses_option(tmp_path, capsys, via, "min_margin")

    @pytest.mark.parametrize("algo", ["ppr", "mf"])
    def test_unopenable_stats_path_leaves_no_model(self, tiny_path, tmp_path, capsys, algo):
        model_out, stats_out = tmp_path / "m.bin", tmp_path / "missing" / "s.csv"
        code = run("train", "--data", tiny_path, "--algo", algo, "--model-out", model_out,
                   "--stats-out", stats_out, *FAST_PPR, *FAST_MF)
        assert code == 2
        assert capsys.readouterr().err == f"data error: cannot write {stats_out}: {NO_DIR}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.dat"]

    def test_unopenable_model_path_leaves_no_stats(self, tiny_path, tmp_path, capsys):
        model_out = tmp_path / "missing" / "m.bin"
        code = run("train", "--data", tiny_path, "--algo", "mf", "--stats-out", tmp_path / "s.csv",
                   "--model-out", model_out, *FAST_MF)
        assert code == 2
        assert capsys.readouterr().err == f"data error: cannot write {model_out}: {NO_DIR}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.dat"]

    @pytest.mark.parametrize("algo", ["ppr", "mf"])
    def test_unallocatable_n_factors_is_config_error(self, tiny_path, tmp_path, capsys, algo):
        # 2**45 factors for 60 users is about 15 PiB, past any address space: the
        # allocation fails at once
        model_out = tmp_path / "m.bin"
        code = run("train", "--data", tiny_path, "--algo", algo, "--n-factors", 2**45,
                   "--model-out", model_out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: n_factors {2**45} is too large")
        assert f"60x{2**45}" in err and err.count("\n") == 1
        assert not model_out.exists()

    def test_unopenable_stats_path_keeps_existing_model(self, tiny_path, tmp_path):
        model_out = tmp_path / "m.bin"
        model_out.write_bytes(b"an earlier model")
        code = run("train", "--data", tiny_path, "--algo", "mf", "--model-out", model_out,
                   "--stats-out", tmp_path / "missing" / "s.csv", *FAST_MF)
        assert code == 2
        assert model_out.read_bytes() == b"an earlier model"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "tiny.dat"]

    def test_mf_divergence_exit_code(self, tiny_path, tmp_path):
        code = run("train", "--data", tiny_path, "--algo", "mf",
                   "--mf-learning-rate", "50", "--mf-epochs", "200",
                   "--model-out", tmp_path / "m.bin")
        assert code == 3

    def test_ppr_divergence_exit_code(self, tiny_path, tmp_path, capsys):
        model_out = tmp_path / "m.bin"
        code = run("train", "--data", tiny_path, "--algo", "ppr", "--learning-rate", "1e308",
                   "--model-out", model_out, *FAST_PPR)
        assert code == 3
        assert capsys.readouterr().err.startswith("divergence:")
        assert not model_out.exists()

    def test_skip_policy_trains_through_bad_lines(self, tmp_path):
        data = tmp_path / "dirty.dat"
        good = [f"{u}::{i}::{1 + (u + i) % 5}::0" for u in range(1, 9) for i in range(1, 7)]
        data.write_text("\n".join(good[:20] + ["garbage line"] + good[20:]) + "\n")
        code = run("train", "--data", data, "--algo", "ppr", "--parse-errors", "skip",
                   "--model-out", tmp_path / "m.bin", *FAST_PPR)
        assert code == 0
        assert (tmp_path / "m.bin").exists()

    def test_default_output_paths(self, tiny_path, tmp_path, monkeypatch):
        # only the dataset path has no default; algo defaults to ppr,
        # artifacts land in the working directory
        monkeypatch.chdir(tmp_path)
        assert run("train", "--data", tiny_path, *FAST_PPR) == 0
        assert (tmp_path / "model.bin").exists()
        assert run("evaluate", "--data", tiny_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["algorithm"] == "ppr"

    def test_csv_format(self, tmp_path):
        data = tmp_path / "ratings.csv"
        rows = ["userID,itemID,rating,mood"]
        rows += [f"{u},{i},{1 + (u * i) % 5},ok" for u in range(1, 15) for i in range(1, 9)]
        data.write_text("\n".join(rows) + "\n")
        code = run("train", "--data", data, "--format", "csv", "--algo", "zipf",
                   "--model-out", tmp_path / "m.bin")
        assert code == 0
        scorer, header = pr.load_model(tmp_path / "m.bin")
        assert isinstance(scorer, pr.ZipfScorer)
        assert header["config"]["format"] == "csv"


MALFORMED_HEADERS = {
    "factors-no-arrays": lambda h: {k: v for k, v in h.items() if k != "arrays"},
    "random-no-n_users": lambda h: {**{k: v for k, v in h.items() if k != "n_users"},
                                    "kind": "random", "arrays": []},
    "list-header": lambda h: [1, 2],
    "version-99": lambda h: {**h, "version": 99},
    "version-string": lambda h: {**h, "version": "x"},
    "version-null": lambda h: {**h, "version": None},
    "version-true": lambda h: {**h, "version": True},
    "config-list": lambda h: {**h, "config": [1]},
    "echoed-seed-string": lambda h: {**h, "config": {**h["config"], "seed": "7"}},
    "echoed-seed-negative": lambda h: {**h, "config": {**h["config"], "seed": -1}},
    "echoed-test-ratio-above-one": lambda h: {**h, "config": {**h["config"], "test_ratio": 1.5}},
    "echoed-test-ratio-negative": lambda h: {**h, "config": {**h["config"], "test_ratio": -0.1}},
    "echoed-algo-list": lambda h: {**h, "config": {**h["config"], "algo": ["x"]}},
}


EMPTY_SPLITS = [("0", "cannot compute MAE on an empty test set"),
                ("1", "cannot evaluate with an empty training set")]


class TestEvaluate:
    def _train(self, tiny_path, tmp_path, algo="ppr", seed="7"):
        model_out = tmp_path / f"{algo}.bin"
        extra = FAST_PPR if algo == "ppr" else (FAST_MF if algo == "mf" else [])
        assert run("train", "--data", tiny_path, "--algo", algo, "--seed", seed,
                   "--model-out", model_out, *extra) == 0
        return model_out

    def test_report_fields_finite(self, tiny_path, tmp_path):
        model = self._train(tiny_path, tmp_path)
        report_out = tmp_path / "report.json"
        assert run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", report_out) == 0
        report = json.loads(report_out.read_text())
        assert report["algorithm"] == "ppr"
        assert np.isfinite(report["mae"]) and report["mae"] >= 0
        assert np.isfinite(report["dme_slope"])
        assert report["dme_abs"] == abs(report["dme_slope"])
        assert report["fit_points"] >= 2
        assert report["k"] == 10
        assert report["seed"] == 7  # inherited from the artifact
        assert report["config"]["trained_with"]["algo"] == "ppr"

    def test_rerun_is_byte_identical(self, tiny_path, tmp_path):
        model = self._train(tiny_path, tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for out in (r1, r2):
            assert run("evaluate", "--data", tiny_path, "--model", model,
                       "--report-out", out) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_k_zero_is_usage_error(self, tiny_path, tmp_path):
        model = self._train(tiny_path, tmp_path)
        assert run("evaluate", "--data", tiny_path, "--model", model, "--k", "0",
                   "--report-out", tmp_path / "r.json") == 1

    def test_dme_points_csv(self, tiny_path, tmp_path):
        model = self._train(tiny_path, tmp_path)
        points = tmp_path / "points.csv"
        assert run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", tmp_path / "r.json", "--dme-points-out", points) == 0
        lines = points.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "rank,count,ln_rank,ln_count"
        counts = [int(line.split(",")[1]) for line in lines[2:]]
        assert counts == sorted(counts, reverse=True)
        report = json.loads((tmp_path / "r.json").read_text())
        assert len(counts) == report["fit_points"]

    @pytest.mark.parametrize("earlier", [None, b"an earlier report"], ids=["new", "existing"])
    def test_unopenable_points_path_leaves_report_as_it_was(self, tiny_path, tmp_path, capsys,
                                                            earlier):
        model = self._train(tiny_path, tmp_path, algo="random")
        report_out, points = tmp_path / "r.json", tmp_path / "missing" / "d.csv"
        if earlier is not None:
            report_out.write_bytes(earlier)
        code = run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", report_out, "--dme-points-out", points)
        assert code == 2
        assert capsys.readouterr().err == f"data error: cannot write {points}: {NO_DIR}\n"
        assert (report_out.read_bytes() if report_out.exists() else None) == earlier
        assert not list(tmp_path.glob("*.tmp"))

    def test_dme_points_score_each_user_once(self, tiny_path, tmp_path, monkeypatch):
        # one walk gives the report's test-entry scores and the top-K lists it
        # shares with the points CSV
        model = self._train(tiny_path, tmp_path, algo="random")
        calls = collections.Counter()

        class Counting:
            def __init__(self, scorer):
                self.scorer, self.n_users, self.n_items = scorer, scorer.n_users, scorer.n_items

            def score_row(self, user):
                calls[user] += 1
                return self.scorer.score_row(user)

        load_model = store.load_model
        monkeypatch.setattr(store, "load_model",
                            lambda path: (lambda s, h: (Counting(s), h))(*load_model(path)))
        assert run("evaluate", "--data", tiny_path, "--model", model, "--report-out",
                   tmp_path / "r.json", "--dme-points-out", tmp_path / "points.csv") == 0
        with open(tiny_path, "rb") as fp:
            n_users = pr.build_matrix(pr.parse_movielens(fp).records).n_users
        assert calls == {u: 1 for u in range(n_users)}

    @pytest.mark.parametrize("ratio,error", EMPTY_SPLITS, ids=["empty-test", "empty-train"])
    def test_empty_split_is_data_error(self, tiny_path, tmp_path, capsys, ratio, error):
        model = tmp_path / "random.bin"
        assert run("train", "--data", tiny_path, "--algo", "random", "--test-ratio", ratio,
                   "--model-out", model) == 0
        capsys.readouterr()
        report_out = tmp_path / "r.json"
        assert run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", report_out) == 2
        assert capsys.readouterr().err == f"data error: {error}\n"
        assert not report_out.exists()

    @pytest.mark.parametrize("malform", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_artifact_is_data_error(self, tiny_path, tmp_path, capsys, malform):
        model = self._train(tiny_path, tmp_path)
        header_line, payload = model.read_bytes().split(b"\n", 1)
        model.write_bytes(json.dumps(malform(json.loads(header_line))).encode() + b"\n" + payload)
        code = run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", tmp_path / "r.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--test-ratio", "1.5"],
                                      ["--test-ratio", "-0.1"]], ids=["seed", "ratio-high", "ratio-low"])
    def test_bad_flag_value_is_config_error(self, tiny_path, tmp_path, capsys, flag):
        model = self._train(tiny_path, tmp_path)
        code = run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", tmp_path / "r.json", *flag)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("artifact,changed", [
        ("trained", False), ("trained", True), ("library", True),
    ], ids=["same-data", "one-rating-changed", "no-digest"])
    def test_other_data_of_the_same_shape(self, tiny_path, tmp_path, capsys, artifact, changed):
        # the digest train keeps refuses the changed file; an artifact saved by the
        # library keeps none and is not checked
        model = self._train(tiny_path, tmp_path, algo="zipf")
        if artifact == "library":
            scorer, header = store.load_model(model)
            del header["config"]["data_sha256"]
            store.save_model(scorer, model, header["seed"], header["config"])
        if changed:
            lines = tiny_path.read_text().splitlines()
            user, item, rating, stamp = lines[0].split("::")
            lines[0] = "::".join((user, item, str(1 + int(rating) % 5), stamp))
            tiny_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        report_out = tmp_path / "r.json"
        code = run("evaluate", "--data", tiny_path, "--model", model, "--report-out", report_out)
        refused = artifact == "trained" and changed
        assert code == (2 if refused else 0)
        assert report_out.exists() != refused
        if refused:
            assert capsys.readouterr().err == (
                f"data error: {tiny_path} is not the data {model} was trained on:"
                " its sha256 differs from the one in the model\n")

    def test_dimension_mismatch_names_both_shapes(self, tiny_path, tmp_path, capsys):
        model = self._train(tiny_path, tmp_path)
        other = tmp_path / "other.dat"
        other.write_text("\n".join(f"{u}::{i}::3::0" for u in range(1, 5) for i in range(1, 4)) + "\n")
        code = run("evaluate", "--data", other, "--model", model,
                   "--report-out", tmp_path / "r.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "4x3" in err and "does not match" in err

    @pytest.mark.parametrize("scale", [1e200, 1e154], ids=["scores-overflow", "range-overflows"])
    def test_unscalable_scores_are_data_error(self, tiny_path, tmp_path, capsys, scale):
        # one factor of either sign: 1e200 rows give scores of -inf and inf, 1e154 rows
        # give finite scores near -1e308 and 1e308 whose range overflows
        with open(tiny_path, "rb") as fp:
            matrix = pr.build_matrix(pr.parse_movielens(fp).records)

        def rows(n):
            return np.where(np.arange(n) % 3 == 0, -scale, scale)[:, None]

        model = tmp_path / "m.bin"
        store.save_model(pr.FactorModel(U=rows(matrix.n_users), V=rows(matrix.n_items)), model, 7)
        report_out = tmp_path / "r.json"
        with np.errstate(over="ignore"):
            code = run("evaluate", "--data", tiny_path, "--model", model,
                       "--report-out", report_out)
        assert code == 2
        assert capsys.readouterr().err == ("data error: test-entry scores do not scale to finite"
                                           " predictions: a score or the score range is not finite\n")
        assert not report_out.exists()

    def test_overflowing_scores_print_no_numpy_warning(self, tiny_path, tmp_path):
        # the scores of a one-factor +-1e200 model overflow to inf; evaluate still exits 2,
        # and stderr holds the data error alone, with no numpy RuntimeWarning ahead of it
        with open(tiny_path, "rb") as fp:
            matrix = pr.build_matrix(pr.parse_movielens(fp).records)

        def rows(n):
            return np.where(np.arange(n) % 3 == 0, -1e200, 1e200)[:, None]

        model = tmp_path / "m.bin"
        store.save_model(pr.FactorModel(U=rows(matrix.n_users), V=rows(matrix.n_items)), model, 7)
        src = pathlib.Path(pr.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from paretorank.cli import main; sys.exit(main(sys.argv[1:]))",
             "evaluate", "--data", str(tiny_path), "--model", str(model),
             "--report-out", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr == ("data error: test-entry scores do not scale to finite"
                               " predictions: a score or the score range is not finite\n")


class TestCompare:
    def test_four_algo_comparison(self, tiny_path, tmp_path):
        out = tmp_path / "cmp.csv"
        reports = tmp_path / "reports"
        code = run("compare", "--data", tiny_path, "--algos", "ppr,mf,random,zipf",
                   "--seed", "7", "--out", out, "--report-dir", reports,
                   *FAST_PPR, *FAST_MF)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "algorithm,mae,mae_rank,dme_slope,dme_abs,fairness_rank"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["mf", "ppr", "random", "zipf"]
        assert sorted(int(r[2]) for r in rows) == [1, 2, 3, 4]
        assert sorted(int(r[5]) for r in rows) == [1, 2, 3, 4]
        for algo in ("mf", "ppr", "random", "zipf"):
            assert (reports / f"{algo}.json").exists()

    def test_single_algorithm_is_error(self, tiny_path, tmp_path):
        assert run("compare", "--data", tiny_path, "--algos", "ppr",
                   "--out", tmp_path / "c.csv") == 1

    def test_negative_seed_is_config_error(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("compare", "--data", tiny_path, "--algos", "random,zipf", "--seed", "-1",
                   "--out", out) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("algos,flag,value", [
        ("mf,ppr", "--learning-rate", "nan"), ("mf,ppr", "--mf-reg", "-1"),
        ("mf,random", "--n-factors", "0"),
    ], ids=["--learning-rate-nan", "--mf-reg--1", "mf,random---n-factors-0"])
    def test_every_trainer_checked_before_data(self, tmp_path, capsys, algos, flag, value):
        out = tmp_path / "c.csv"
        code = run("compare", "--data", tmp_path / "nope.dat", "--algos", algos,
                   flag, value, "--out", out)
        assert code == 1
        assert rejects(capsys.readouterr().err, flag)
        assert not out.exists()

    def test_unmakeable_report_dir_leaves_no_comparison(self, tiny_path, tmp_path, capsys):
        out, notadir = tmp_path / "c.csv", tmp_path / "notadir"
        notadir.write_text("a file, not a directory")
        code = run("compare", "--data", tiny_path, "--algos", "random,zipf", "--out", out,
                   "--report-dir", notadir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(notadir) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notadir", "tiny.dat"]

    def test_failed_write_leaves_no_new_report_dir(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "missing" / "c.csv"
        code = run("compare", "--data", tiny_path, "--algos", "random,zipf", "--out", out,
                   "--report-dir", tmp_path / "new" / "reports")
        assert code == 2
        assert capsys.readouterr().err == f"data error: cannot write {out}: {NO_DIR}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.dat"]

    @pytest.mark.parametrize("ratio,error", EMPTY_SPLITS, ids=["empty-test", "empty-train"])
    def test_empty_split_is_data_error(self, tiny_path, tmp_path, capsys, ratio, error):
        out = tmp_path / "c.csv"
        code = run("compare", "--data", tiny_path, "--algos", "random,zipf",
                   "--test-ratio", ratio, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"data error: {error}\n"
        assert not out.exists()

    def test_rerun_byte_identical(self, tiny_path, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            code = run("compare", "--data", tiny_path, "--algos", "ppr,random",
                       "--seed", "5", "--out", d / "cmp.csv", "--report-dir", d,
                       *FAST_PPR)
            assert code == 0
            blobs.append(((d / "cmp.csv").read_bytes(), (d / "ppr.json").read_bytes(),
                          (d / "random.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_algos_order_changes_no_byte(self, tmp_path):
        data = tmp_path / "ml.dat"
        data.write_text("\n".join(movielens_like_lines(n_users=150, n_items=200)) + "\n")
        blobs = []
        for algos in ("zipf,random,ppr,mf", "mf,ppr,random,zipf"):
            d = tmp_path / algos.replace(",", "-")
            assert run("compare", "--data", data, "--algos", algos, "--out", d / "cmp.csv",
                       "--report-dir", d, *FAST_PPR, *FAST_MF) == 0
            blobs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert sorted(blobs[0]) == ["cmp.csv", "mf.json", "ppr.json", "random.json", "zipf.json"]
        assert blobs[0] == blobs[1]

    def test_affine_rating_map_doubles_mae_only(self, tmp_path):
        lines = movielens_like_lines(n_users=150, n_items=200)
        mapped = []
        for line in lines:
            u, i, r, ts = line.split("::")
            mapped.append(f"{u}::{i}::{2 * int(r) + 7}::{ts}")
        rows = []
        for name, corpus in (("plain", lines), ("mapped", mapped)):
            data = tmp_path / f"{name}.dat"
            data.write_text("\n".join(corpus) + "\n")
            out = tmp_path / f"{name}.csv"
            assert run("compare", "--data", data, "--algos", "ppr,random,zipf", "--out", out,
                       *FAST_PPR) == 0
            header, *body = out.read_text().splitlines()[1:]
            rows.append([dict(zip(header.split(","), line.split(","))) for line in body])
        plain, mapped = rows
        assert [r["algorithm"] for r in plain] == ["ppr", "random", "zipf"]
        for before, after in zip(plain, mapped):
            assert float(after.pop("mae")) == pytest.approx(2 * float(before.pop("mae")),
                                                            rel=1e-12)
            assert after == before


SHARED_OUTPUTS = {
    "train": ["train", "--model-out", "a.bin", "--stats-out", "a.bin"],
    "evaluate": ["evaluate", "--model", "m.bin", "--report-out", "x", "--dme-points-out", "x"],
    "compare": ["compare", "--algos", "random,zipf", "--out", "rd/zipf.json", "--report-dir", "rd"],
}


@pytest.mark.parametrize("argv", SHARED_OUTPUTS.values(), ids=SHARED_OUTPUTS.keys())
def test_shared_output_path_is_config_error(tmp_path, monkeypatch, capsys, argv):
    # the data file is missing: the paths must be refused before it is read
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--data", "nope.dat") == 1
    assert capsys.readouterr().err.startswith("config error: outputs ")
    assert list(tmp_path.iterdir()) == []


# outputs that name an input file; data.dat, model.bin and run.cfg exist
INPUT_OUTPUTS = {
    "train-model-out-data": ["train", "--algo", "zipf", "--model-out", "data.dat"],
    "train-stats-out-config": ["train", "--config", "run.cfg", "--stats-out", "run.cfg"],
    "evaluate-report-out-model": ["evaluate", "--model", "model.bin", "--report-out", "model.bin"],
    "evaluate-points-out-data": ["evaluate", "--model", "model.bin", "--dme-points-out", "data.dat"],
    "compare-out-config": ["compare", "--algos", "random,zipf", "--config", "run.cfg",
                           "--out", "./run.cfg"],
    "compare-report-dir-data": ["compare", "--algos", "mf,zipf", "--report-dir", ".",
                                "--data", "zipf.json"],
    "analyze-powerlaw-out-data": ["analyze-powerlaw", "--out", "data.dat"],
}


@pytest.mark.parametrize("argv", INPUT_OUTPUTS.values(), ids=INPUT_OUTPUTS.keys())
def test_output_naming_an_input_is_config_error(tiny_path, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    inputs = {"data.dat": tiny_path.read_bytes(), "model.bin": b"not read", "run.cfg": b"seed=3\n",
              "zipf.json": tiny_path.read_bytes()}
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    # an explicit --data in argv comes later and wins
    assert run(argv[0], "--data", "data.dat", *argv[1:]) == 1
    assert capsys.readouterr().err.startswith("config error: output ")
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after == {**inputs, "tiny.dat": inputs["data.dat"]}


# every user's ratings are tied or single: 5,5 / 3,3 / 4
NO_PAIR_LINES = ["1::1::5::0", "1::2::5::0", "2::1::3::0", "2::3::3::0", "3::2::4::0"]
NO_PAIR_RUNS = {
    "train": ["train", "--algo", "ppr", "--test-ratio", "0", "--stats-out", "s.csv"],
    "compare": ["compare", "--algos", "ppr,zipf", "--report-dir", "reports"],
}


@pytest.mark.parametrize("argv", NO_PAIR_RUNS.values(), ids=NO_PAIR_RUNS.keys())
def test_no_preference_pair_is_data_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.dat").write_text("\n".join(NO_PAIR_LINES) + "\n")
    assert run(*argv, "--data", "flat.dat") == 2
    assert capsys.readouterr().err == ("data error: no user rated two items differently:"
                                       " there is no pair to train on\n")
    assert [p.name for p in tmp_path.iterdir()] == ["flat.dat"]


ONE_VALUE_RUNS = {
    "evaluate": ["evaluate", "--model", "m.bin", "--report-out", "r.json",
                 "--dme-points-out", "points.csv"],
    "compare": ["compare", "--algos", "mf,zipf", "--mf-epochs", "2", "--report-dir", "reports"],
}


@pytest.mark.parametrize("argv", ONE_VALUE_RUNS.values(), ids=ONE_VALUE_RUNS.keys())
def test_one_rating_value_is_data_error(tmp_path, monkeypatch, capsys, argv):
    # every rating is 4: there is no scale to map scores onto
    monkeypatch.chdir(tmp_path)
    (tmp_path / "four.dat").write_text(
        "\n".join(f"{u}::{i}::4::0" for u in range(1, 31) for i in range(1, 11)) + "\n")
    assert run("train", "--data", "four.dat", "--algo", "zipf", "--model-out", "m.bin") == 0
    capsys.readouterr()
    assert run(*argv, "--data", "four.dat") == 2
    assert capsys.readouterr().err == ("data error: every rating is 4.0: there is no rating"
                                       " scale to map scores onto\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["four.dat", "m.bin"]


K_RUNS = {
    "evaluate": lambda k: ["evaluate", "--model", "m.bin", "--report-out", f"{k}.json",
                           "--dme-points-out", f"{k}.csv"],
    "compare": lambda k: ["compare", "--algos", "random,zipf", "--out", f"{k}.csv",
                          "--report-dir", f"reports{k}"],
}


@pytest.mark.parametrize("argv", K_RUNS.values(), ids=K_RUNS.keys())
def test_k_past_int64_gives_the_whole_catalogue(tiny_path, tmp_path, monkeypatch, argv):
    # no list is longer than the catalogue (40 items): a k past numpy's integer
    # range gives the lists of k = 40, and the outputs keep the k given
    monkeypatch.chdir(tmp_path)
    assert run("train", "--data", tiny_path, "--algo", "zipf", "--model-out", "m.bin") == 0
    big = 10**20
    for k in (40, big):
        assert run(*argv(k), "--data", tiny_path, "--k", k) == 0
    csvs = [pathlib.Path(f"{k}.csv").read_text().splitlines() for k in (40, big)]
    assert csvs[0][1:] == csvs[1][1:]
    assert json.loads(csvs[1][0].removeprefix("# config: "))["k"] == big
    reports = list(tmp_path.glob(f"*{big}*.json")) + list(tmp_path.glob(f"reports{big}/*.json"))
    assert reports and all(json.loads(p.read_text())["k"] == big for p in reports)


# only user 1 rates two items differently, so an iteration that samples another user
# updates no pair
ONE_PAIR_LINES = ["1::1::5::0", "1::2::3::0", "2::1::4::0", "3::2::4::0", "4::1::2::0",
                  "5::2::1::0", "6::1::3::0"]


def test_iteration_without_update_has_empty_loss_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.dat").write_text("\n".join(ONE_PAIR_LINES) + "\n")
    assert run("train", "--data", "one.dat", "--algo", "ppr", "--test-ratio", "0",
               "--user-sample-size", "1", "--max-iters", "6", "--model-out", "m.bin",
               "--stats-out", "s.csv") == 0
    text = (tmp_path / "s.csv").read_text()
    assert "nan" not in text.lower()
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert len(rows) == 6
    assert any(updates == "0" for _, _, updates, _, _ in rows)
    assert any(updates != "0" for _, _, updates, _, _ in rows)
    for _, loss, updates, _, _ in rows:
        assert (loss == "") == (updates == "0")


def test_hyperparameter_flags_echoed_with_library_defaults():
    # a flag without an echo, a library hyperparameter without a flag, or a
    # default that drifts from the library's, fails here
    defaults = vars(cli._hyper_parent().parse_args([]))
    args = cli._parse_args(["train", "--data", "x.dat", "--mf-reg", "0.5"])
    assert cli._hyper_echo(args) == {**defaults, "mf_reg": 0.5}
    ppr_config = pr.TrainConfig()
    mf = {name: p.default for name, p in
          inspect.signature(baselines.train_classic_mf).parameters.items() if name != "train"}
    library = {f.name: getattr(ppr_config, f.name) for f in dataclasses.fields(ppr_config)}
    library.update({f"mf_{name}": mf[name] for name in ("learning_rate", "reg", "epochs")})
    assert mf["n_factors"] == library["n_factors"]
    assert mf["seed"] == library.pop("seed") == cli.DEFAULT_SEED
    assert defaults == library


class TestAnalyzePowerlaw:
    def test_integer_scale_differences(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert run("analyze-powerlaw", "--data", tiny_path, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "value,count,ln_value,ln_count"
        values = [float(line.split(",")[0]) for line in lines[2:]]
        assert set(values) <= {1.0, 2.0, 3.0, 4.0}
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["distinct_values"] == len(values)

    def test_constant_ratings_error(self, tmp_path):
        data = tmp_path / "flat.dat"
        data.write_text("\n".join(f"{u}::{i}::3::0" for u in range(1, 6) for i in range(1, 6)) + "\n")
        assert run("analyze-powerlaw", "--data", data, "--out", tmp_path / "h.csv") == 2

    def test_one_distinct_difference_is_data_error(self, tmp_path, capsys):
        # ratings 1 and 2 only: every positive difference is 1, so there is no slope to fit
        data = tmp_path / "two_values.dat"
        data.write_text("\n".join(f"{u}::{i}::{1 + (u + i) % 2}::0"
                                  for u in range(1, 6) for i in range(1, 6)) + "\n")
        out = tmp_path / "h.csv"
        assert run("analyze-powerlaw", "--data", data, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == ("data error: need >= 2 distinct positive rating differences"
                                " for a slope\n")
        assert captured.out == ""
        assert not out.exists()


NON_UTF8 = {
    "movielens": b"1::1::1::10\n1::2::2::11\n2::\xff\xfe::3::12\n1::3::4::13\n",
    "csv": b"userID,itemID,rating\n1,1,1\n1,2,2\n2,\xff\xfe,3\n1,3,4\n",
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("fmt", NON_UTF8)
    def test_raise_is_data_error_naming_the_line(self, tmp_path, capsys, fmt):
        data = tmp_path / "ratings.txt"
        data.write_bytes(NON_UTF8[fmt])
        code = run("analyze-powerlaw", "--data", data, "--format", fmt, "--out", tmp_path / "h.csv")
        assert code == 2
        line_no = 3 if fmt == "movielens" else 4
        assert capsys.readouterr().err.startswith(f"data error: line {line_no}: not valid UTF-8")

    @pytest.mark.parametrize("fmt", NON_UTF8)
    def test_skip_counts_the_line(self, tmp_path, capsys, fmt):
        data = tmp_path / "ratings.txt"
        data.write_bytes(NON_UTF8[fmt])
        out = tmp_path / "h.csv"
        code = run("analyze-powerlaw", "--data", data, "--format", fmt, "--parse-errors", "skip",
                   "--out", out)
        assert code == 0
        assert "skipped 1 malformed line(s)" in capsys.readouterr().err
        values = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
        assert values == ["1.0", "2.0", "3.0"]  # user 1's ratings 1, 2, 4


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, tiny_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\nmax_iters=3\nuser_sample_size=30\nitem_sample_size=8\n")
        m1 = tmp_path / "m1.bin"
        assert run("train", "--data", tiny_path, "--algo", "ppr", "--config", cfg,
                   "--model-out", m1) == 0
        _, header = pr.load_model(m1)
        assert header["config"]["seed"] == 9
        assert header["config"]["max_iters"] == 3

        m2 = tmp_path / "m2.bin"
        assert run("train", "--data", tiny_path, "--algo", "ppr", "--config", cfg,
                   "--seed", "11", "--model-out", m2) == 0
        _, header2 = pr.load_model(m2)
        assert header2["config"]["seed"] == 11  # explicit flag beats the file

    def test_malformed_config_file(self, tiny_path, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        assert run("train", "--data", tiny_path, "--algo", "ppr", "--config", cfg,
                   "--model-out", tmp_path / "m.bin") == 1

    def test_unopenable_config_file_is_config_error(self, tiny_path, tmp_path, capsys):
        code = run("train", "--data", tiny_path, "--config", tmp_path / "missing.cfg",
                   "--model-out", tmp_path / "m.bin")
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: cannot open config file:")
        assert not (tmp_path / "m.bin").exists()

    def test_config_file_may_start_with_a_byte_order_mark(self, tiny_path, tmp_path):
        pairs = b"seed=9\nmax_iters=2\nuser_sample_size=30\nitem_sample_size=8\n"
        models = []
        for name, data in (("plain", pairs), ("bom", b"\xef\xbb\xbf" + pairs)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            models.append(tmp_path / f"{name}.bin")
            assert run("train", "--data", tiny_path, "--algo", "ppr", "--config", cfg,
                       "--model-out", models[-1]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()

    @pytest.mark.parametrize("key", ["help", "h", "he"])
    def test_help_key_is_config_error(self, tiny_path, tmp_path, capsys, key):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"{key}=1\n")
        model_out = tmp_path / "m.bin"
        assert exit_code("train", "--data", tiny_path, "--config", cfg, "--model-out", model_out) == 1
        assert capsys.readouterr() == ("", f"config error: unrecognized arguments: --{key} 1\n")
        assert not model_out.exists()

    def test_undecodable_config_file_is_config_error(self, tiny_path, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"max_iters=2\n\xff=1\n")
        code = run("train", "--data", tiny_path, "--config", cfg, "--model-out", tmp_path / "m.bin")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert not (tmp_path / "m.bin").exists()


def _option_strings():
    """Each command's option strings, without -h/--help."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {name: sorted(flag for action in sub._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, sub in commands.items()}


COMMAND_FLAGS = _option_strings()
# hostile values: bad numbers, an empty string, and paths that clash with an
# output, the missing data file or the config file
HOSTILE = ["-1", "-2.5", str(2**63), "nan", "inf", "-inf", "", "clash.out", "nope.dat", "run.cfg"]


@st.composite
def hostile_runs(draw):
    """A command, (flag, value) pairs for it, and key=value config lines or None."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    pairs = st.tuples(st.sampled_from(COMMAND_FLAGS[command]), st.sampled_from(HOSTILE))
    keys = [flag.removeprefix("--") for flag in COMMAND_FLAGS[command]] + ["help", "h"]
    lines = st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(HOSTILE)), max_size=4)
    return (command, draw(st.lists(pairs, max_size=6)),
            draw(st.none() | lines.map(lambda kv: [f"{k}={v}" for k, v in kv])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hostile_runs())
@example(("train", [], ["help=1"]))
def test_hostile_flags_end_in_one_error_line(tmp_path, monkeypatch, hostile):
    # --data names a missing file, so no draw reads data, trains or writes
    command, pairs, config = hostile
    work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    argv = [command, *(part for pair in pairs for part in pair)]
    if config is not None:
        (work / "run.cfg").write_text("\n".join(config) + "\n")
        argv += ["--config", "run.cfg"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(*argv, "--data", "nope.dat")
    assert code in (1, 2), (code, out.getvalue())
    assert err.getvalue().startswith(("config error:", "data error:"))
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert os.listdir(work) == ([] if config is None else ["run.cfg"])
