import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paretorank as pr
from paretorank.errors import DataError


def test_factor_model_roundtrip_bit_exact(tmp_path):
    model = pr.init_model(7, 5, 3, seed=21)
    path = tmp_path / "model.bin"
    pr.save_model(model, path, seed=21, config={"algo": "ppr", "n_factors": 3})
    loaded, header = pr.load_model(path)
    assert isinstance(loaded, pr.FactorModel)
    assert loaded.U.tobytes() == model.U.tobytes()
    assert loaded.V.tobytes() == model.V.tobytes()
    assert header["seed"] == 21
    assert header["config"]["algo"] == "ppr"
    assert header["d"] == 3


def test_save_is_byte_deterministic(tmp_path):
    model = pr.init_model(4, 4, 2, seed=5)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    pr.save_model(model, p1, seed=5, config={"x": 1})
    pr.save_model(model, p2, seed=5, config={"x": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_random_scorer_roundtrip(tmp_path):
    scorer = pr.RandomScorer(6, 9, seed=3)
    path = tmp_path / "random.bin"
    pr.save_model(scorer, path, seed=3, config={"algo": "random"})
    loaded, header = pr.load_model(path)
    assert isinstance(loaded, pr.RandomScorer)
    assert loaded.score_row(2).tolist() == scorer.score_row(2).tolist()


def test_zipf_scorer_roundtrip(tmp_path):
    counts = np.array([4, 9, 9, 1, 0])
    scorer = pr.ZipfScorer(pr.PopularityTable(counts), n_users=3)
    path = tmp_path / "zipf.bin"
    pr.save_model(scorer, path, seed=0, config={"algo": "zipf"})
    loaded, header = pr.load_model(path)
    assert isinstance(loaded, pr.ZipfScorer)
    assert loaded.score_row(0).tolist() == scorer.score_row(0).tolist()
    assert loaded.popularity.ranks.tolist() == scorer.popularity.ranks.tolist()


def test_not_an_artifact(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01\x02 not json\n")
    with pytest.raises(DataError):
        pr.load_model(path)


def test_truncated_artifact(tmp_path):
    model = pr.init_model(4, 4, 2, seed=5)
    path = tmp_path / "model.bin"
    pr.save_model(model, path, seed=5)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError):
        pr.load_model(path)


def write_artifact(path, header, payload=b""):
    path.write_bytes((json.dumps(header) + "\n").encode() + payload)
    return path


def saved_header(tmp_path, scorer):
    path = tmp_path / "saved.bin"
    pr.save_model(scorer, path, seed=4, config={"algo": "x"})
    return json.loads(path.read_bytes().split(b"\n", 1)[0])


@pytest.mark.parametrize("drop", ["arrays", "n_users", "n_items", "seed", "d", "config", "kind",
                                  "version"])
def test_missing_header_key(tmp_path, drop):
    header = saved_header(tmp_path, pr.init_model(3, 4, 2, seed=1))
    del header[drop]
    path = write_artifact(tmp_path / "m.bin", header, bytes(8 * 2 * 7))
    with pytest.raises(DataError):
        pr.load_model(path)


@pytest.mark.parametrize("header", [[1, 2], "factors", None, 3])
def test_header_not_an_object(tmp_path, header):
    with pytest.raises(DataError):
        pr.load_model(write_artifact(tmp_path / "m.bin", header))


def test_arrays_must_match_shape(tmp_path):
    header = saved_header(tmp_path, pr.init_model(3, 4, 2, seed=1))
    header["arrays"][0][1] = [2, 2]  # U claims 2 users, header says 3
    with pytest.raises(DataError):
        pr.load_model(write_artifact(tmp_path / "m.bin", header, bytes(8 * 2 * 6)))


def test_trailing_bytes(tmp_path):
    path = tmp_path / "m.bin"
    pr.save_model(pr.RandomScorer(3, 4, seed=1), path, seed=1)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError):
        pr.load_model(path)


def test_non_finite_factors(tmp_path):
    model = pr.init_model(3, 4, 2, seed=1)
    model.V[2, 1] = np.nan
    path = tmp_path / "m.bin"
    pr.save_model(model, path, seed=1)
    with pytest.raises(DataError):
        pr.load_model(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
HEADER_KEYS = ["format", "version", "kind", "n_users", "n_items", "d", "seed", "config", "arrays"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["factors", "random", "zipf"]),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    dropped=st.sets(st.sampled_from(HEADER_KEYS)),
    replaced=st.dictionaries(st.sampled_from(HEADER_KEYS), JSON_VALUES, max_size=3),
    whole=st.none() | JSON_VALUES,
    payload=st.binary(max_size=200),
)
def test_fuzzed_headers_raise_only_data_error(tmp_path, kind, dims, dropped, replaced, whole, payload):
    # start from a valid header of each kind, then drop, replace or swap out fields
    n_users, n_items, d = dims
    header = {"format": "paretorank-model", "version": 1, "kind": kind, "n_users": n_users,
              "n_items": n_items, "seed": 0, "config": {}}
    if kind == "factors":
        header["d"] = d
    header["arrays"] = {"factors": [["U", [n_users, d], "<f8"], ["V", [n_items, d], "<f8"]],
                        "zipf": [["counts", [n_items], "<i8"]], "random": []}[kind]
    header = {k: v for k, v in header.items() if k not in dropped} | replaced
    path = write_artifact(tmp_path / "fuzz.bin", header if whole is None else whole, payload)
    try:
        scorer, loaded = pr.load_model(path)
    except DataError:
        return
    assert scorer.n_users >= 1 and scorer.n_items >= 1
    assert type(loaded["version"]) is int and loaded["version"] == 1
