import json

import numpy as np
import pytest

import paretorank as pr
from paretorank.cli import main

FAST_PPR = ["--max-iters", "3", "--user-sample-size", "30", "--item-sample-size", "8"]
FAST_MF = ["--mf-epochs", "5"]


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
        code = run("train", "--data", tiny_path, "--algo", "random",
                   "--model-out", tmp_path / "m.bin", "--stats-out", tmp_path / "s.csv")
        assert code == 1

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

    @pytest.mark.parametrize("malform", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_artifact_is_data_error(self, tiny_path, tmp_path, capsys, malform):
        model = self._train(tiny_path, tmp_path)
        header_line, payload = model.read_bytes().split(b"\n", 1)
        model.write_bytes(json.dumps(malform(json.loads(header_line))).encode() + b"\n" + payload)
        code = run("evaluate", "--data", tiny_path, "--model", model,
                   "--report-out", tmp_path / "r.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

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
