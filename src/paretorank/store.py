"""Model artifact persistence.

An artifact is one file: a JSON header line describing the model kind,
dimensions, seed and run configuration, followed by the raw little-endian
bytes of each array named in the header. Factor models store U then V;
Zipf scorers store their popularity counts; a random scorer is a header
only, since its shape and seed pin down its whole score table. Round-trips
are bit-exact. A header of any other format version is refused.
"""

import json
import math
import os

import numpy as np

from .baselines import PopularityTable, RandomScorer, ZipfScorer
from .errors import DataError
from .model import FactorModel

FORMAT_NAME = "paretorank-model"
FORMAT_VERSION = 1


def _header_bytes(header: dict) -> bytes:
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _array_specs(header: dict) -> list:
    """The [name, shape, dtype] of each payload array that a header's kind and shape imply."""
    kind = header["kind"]
    if kind == "factors":
        return [["U", [header["n_users"], header["d"]], "<f8"],
                ["V", [header["n_items"], header["d"]], "<f8"]]
    if kind == "zipf":
        return [["counts", [header["n_items"]], "<i8"]]
    return []


def model_bytes(scorer, seed: int, config: dict | None = None) -> bytes:
    """The artifact of any supported scorer, with its seed and config echoed."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_users": scorer.n_users,
        "n_items": scorer.n_items,
        "seed": seed,
        "config": config or {},
    }
    if isinstance(scorer, FactorModel):
        header["kind"] = "factors"
        header["d"] = scorer.n_factors
        arrays = [scorer.U, scorer.V]
    elif isinstance(scorer, RandomScorer):
        header["kind"] = "random"
        arrays = []
    elif isinstance(scorer, ZipfScorer):
        header["kind"] = "zipf"
        arrays = [scorer.popularity.counts]
    else:
        raise TypeError(f"cannot serialize scorer of type {type(scorer).__name__}")
    header["arrays"] = _array_specs(header)
    return _header_bytes(header) + b"".join(
        np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes() for arr in arrays)


def save_model(scorer, path, seed: int, config: dict | None = None):
    """Persist any supported scorer with its seed and config echoed."""
    with open(path, "wb") as fp:
        fp.write(model_bytes(scorer, seed, config))


def _check_header(header, path):
    """Raise DataError unless the header's version, kind, counts and arrays are all valid."""
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} artifact header")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: header version must be {FORMAT_VERSION}, got {version!r}")
    kind = header.get("kind")
    if kind not in ("factors", "random", "zipf"):
        raise DataError(f"{path}: unknown model kind {kind!r}")
    minimums = {"n_users": 1, "n_items": 1, "seed": 0, **({"d": 1} if kind == "factors" else {})}
    for key, minimum in minimums.items():
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise DataError(f"{path}: header {key} must be an integer >= {minimum}, got {value!r}")
    if not isinstance(header.get("config"), dict):
        raise DataError(f"{path}: header config must be a JSON object")
    if header.get("arrays") != _array_specs(header):
        raise DataError(f"{path}: header arrays {header.get('arrays')!r} do not match its kind and shape")


def load_model(path):
    """Load an artifact; returns (scorer, header).

    Raises:
        DataError: if the header is malformed, the payload is not exactly the
            arrays the header declares, or a factor array is non-finite.
    """
    with open(path, "rb") as fp:
        header_line = fp.readline()
        try:
            header = json.loads(header_line)
        except ValueError as exc:
            raise DataError(f"{path}: not a model artifact ({exc})") from None
        _check_header(header, path)
        specs = _array_specs(header)
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in specs]
        payload = os.fstat(fp.fileno()).st_size - fp.tell()
        if payload != sum(sizes):
            raise DataError(f"{path}: payload is {payload} bytes, the header declares {sum(sizes)}")
        arrays = {name: np.frombuffer(fp.read(size), dtype=dtype).reshape(shape).copy()
                  for (name, shape, dtype), size in zip(specs, sizes)}
    kind = header["kind"]
    if kind == "factors":
        if not (np.isfinite(arrays["U"]).all() and np.isfinite(arrays["V"]).all()):
            raise DataError(f"{path}: factor arrays hold non-finite values")
        scorer = FactorModel(U=arrays["U"], V=arrays["V"])
    elif kind == "random":
        scorer = RandomScorer(header["n_users"], header["n_items"], header["seed"])
    else:
        scorer = ZipfScorer(PopularityTable(arrays["counts"]), header["n_users"])
    return scorer, header
