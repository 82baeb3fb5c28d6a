import collections
import json

import numpy as np
import pytest

import paretorank as pr
from paretorank import store
from paretorank.cli import main

FAST_PPR = ["--max-iters", "3", "--user-sample-size", "30", "--item-sample-size", "8"]
FAST_MF = ["--mf-epochs", "5"]
NO_DIR = "No such file or directory"


def run(*argv):
    return main([str(a) for a in argv])


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
        ("ppr", "--alpha", "nan"), ("ppr", "--alpha", "inf"), ("ppr", "--alpha", "-1"),
        ("ppr", "--learning-rate", "nan"), ("ppr", "--learning-rate", "inf"),
        ("ppr", "--min-margin", "nan"), ("ppr", "--min-margin", "inf"),
        ("mf", "--mf-epochs", "-1"), ("mf", "--mf-epochs", "0"),
        ("mf", "--mf-learning-rate", "-1"), ("mf", "--mf-learning-rate", "nan"),
        ("mf", "--mf-learning-rate", "inf"), ("mf", "--mf-reg", "nan"),
        ("mf", "--mf-reg", "-1"), ("mf", "--mf-reg", "inf"), ("mf", "--n-factors", "0"),
    ])
    def test_bad_hyperparameter_is_config_error(self, tmp_path, capsys, algo, flag, value):
        # the data file is missing: the flags must be rejected before it is read
        model_out = tmp_path / "m.bin"
        code = run("train", "--data", tmp_path / "nope.dat", "--algo", algo, flag, value,
                   "--model-out", model_out, *FAST_PPR)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not model_out.exists()

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
                   "--alpha", "10", "--model-out", model_out, *FAST_PPR)
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
    "config-list": lambda h: {**h, "config": [1]},
    "echoed-seed-string": lambda h: {**h, "config": {**h["config"], "seed": "7"}},
    "echoed-seed-negative": lambda h: {**h, "config": {**h["config"], "seed": -1}},
    "echoed-test-ratio-above-one": lambda h: {**h, "config": {**h["config"], "test_ratio": 1.5}},
    "echoed-test-ratio-negative": lambda h: {**h, "config": {**h["config"], "test_ratio": -0.1}},
}


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
        # the report and the points CSV share one set of top-K lists
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
            test = pr.split(pr.build_matrix(pr.parse_movielens(fp).records), 0.2, seed=7).test
        tested = np.diff(test.indptr) > 0  # score_entries scores each user with test entries once
        assert calls == {u: 1 + int(tested[u]) for u in range(test.n_users)}

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

    def test_dimension_mismatch_names_both_shapes(self, tiny_path, tmp_path, capsys):
        model = self._train(tiny_path, tmp_path)
        other = tmp_path / "other.dat"
        other.write_text("\n".join(f"{u}::{i}::3::0" for u in range(1, 5) for i in range(1, 4)) + "\n")
        code = run("evaluate", "--data", other, "--model", model,
                   "--report-out", tmp_path / "r.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "4x3" in err and "does not match" in err


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
        ("mf,ppr", "--alpha", "nan"), ("mf,ppr", "--mf-reg", "-1"),
        ("mf,random", "--n-factors", "0"),
    ], ids=["--alpha-nan", "--mf-reg--1", "mf,random---n-factors-0"])
    def test_every_trainer_checked_before_data(self, tmp_path, capsys, algos, flag, value):
        out = tmp_path / "c.csv"
        code = run("compare", "--data", tmp_path / "nope.dat", "--algos", algos,
                   flag, value, "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
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
