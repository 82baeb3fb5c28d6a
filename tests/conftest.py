"""Shared fixtures: synthetic rating corpora and session-scoped heavy artifacts.

The large MovieLens-style corpus is synthesized (integer 1-5 ratings, heavy
tailed item popularity, unimodal rating marginal). Point PARETORANK_ML1M at a
real `ratings.dat` to run the dataset-scale tests against real data instead.
"""

import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paretorank as pr


def movielens_like_lines(n_users=900, n_items=1200, mean_ratings=130, seed=2024,
                         pop_exp=0.9, coupling=0.45, noise=0.8, user_sd=0.4):
    """Deterministic MovieLens-style `u::i::r::ts` lines.

    Item popularity is a power law; item quality is partially coupled to
    popularity; ratings are integers 1..5 with a unimodal marginal peaked
    between 3 and 4, which is what makes the positive rating-difference
    counts decay like the real dataset's.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n_items + 1) ** pop_exp
    pop /= pop.sum()
    zq = (np.log(pop) - np.log(pop).mean()) / np.log(pop).std()
    quality = coupling * zq + np.sqrt(max(0.01, 1.0 - coupling**2)) * rng.standard_normal(n_items)
    user_bias = user_sd * rng.standard_normal(n_users)
    activity = np.clip(
        rng.lognormal(np.log(mean_ratings * 0.8), 0.55, n_users), 25, 420
    ).astype(int)
    lines = []
    ts = 978300000
    for u in range(n_users):
        items = rng.choice(n_items, size=min(int(activity[u]), n_items), replace=False, p=pop)
        r = np.clip(
            np.rint(3.55 + 0.6 * quality[items] + user_bias[u]
                    + noise * rng.standard_normal(items.size)),
            1, 5,
        ).astype(int)
        for i, ri in zip(items, r):
            lines.append(f"{u + 1}::{i + 1}::{ri}::{ts}")
            ts += 1
    return lines


def matrix_from(triples):
    """A matrix of (user id, item id, rating) triples, in the order given."""
    triples = list(triples)
    columns = pr.RatingColumns.from_ids([u for u, _, _ in triples], [i for _, i, _ in triples],
                                        [r for _, _, r in triples])
    return pr.build_matrix(columns)


def items_of(matrix, user):
    """User's {item: rating} map, read from the matrix's CSR row."""
    items, ratings = matrix.row(user)
    return dict(zip(items.tolist(), ratings.tolist()))


def entry_triples(matrix):
    """(user, item, rating) per entry, in entry order."""
    return list(zip(matrix.entry_users().tolist(), matrix.indices.tolist(), matrix.ratings.tolist()))


def recs_from_lists(lists, k):
    """A RecommendationSet of per-user item lists, in user order."""
    indptr = np.concatenate(([0], np.cumsum([len(items) for items in lists], dtype=np.int64)))
    indices = np.array([item for items in lists for item in items], dtype=np.intp)
    return pr.RecommendationSet(k=k, indptr=indptr, indices=indices)


def lists_of(recs):
    """Each user's list of a RecommendationSet, as a list of item indices."""
    bounds = recs.indptr.tolist()
    return [recs.indices[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]


def planted_matrix(n_users=200, n_items=100, d=8, per_user=40, seed=11):
    """Ratings quantized from dot products of positive ground-truth factors."""
    rng = np.random.default_rng(seed)
    U = rng.random((n_users, d))
    V = rng.random((n_items, d))
    dots = U @ V.T
    lo, hi = dots.min(), dots.max()
    triples = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            r = 1.0 + float(np.floor((dots[u, i] - lo) / (hi - lo) * 4.999))
            triples.append((f"u{u}", f"i{i}", r))
    return matrix_from(triples)


def tiny_movielens_lines(n_users=60, n_items=40, per_user=12, seed=5):
    """A small, fast corpus for CLI round-trips."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user, replace=False)
        for i in items:
            r = int(rng.integers(1, 6))
            lines.append(f"{u + 1}::{i + 1}::{r}::{978300000 + u * 100 + int(i)}")
    return lines


def openblas_core_name() -> str:
    """The OpenBLAS core in use, read from the OpenBLAS that numpy bundles, or ""."""
    # self-contained: its source is also appended to a child's code
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype, get.argtypes = ctypes.c_char_p, []
            return get().decode()
    return ""


# Appended to a child's code: its last line of output names the OpenBLAS core
# in use, or is empty.
_PRINT_CORE_NAME = (f"\n{inspect.getsource(openblas_core_name)}\n"
                    "print()\nprint(openblas_core_name())\n")


def run_under_openblas_core(core: str, code: str) -> tuple[str, str]:
    """Run Python ``code`` in a child process with OpenBLAS forced onto ``core``.

    Returns the child's stdout and the name of the core it ran on, as
    OpenBLAS reports it ("" where it cannot be read). ``OPENBLAS_CORETYPE``
    picks the kernel set an OpenBLAS built with ``DYNAMIC_ARCH`` uses, so
    one host can run the arithmetic other CPUs get. The calling test is
    skipped where that cannot be done: a host that is not x86-64, a numpy
    not linked to OpenBLAS, or, for ``Haswell``, a CPU without avx2.
    """
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"OpenBLAS core types are x86-64 ones; this host is {platform.machine()}")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy is linked to {blas.get('name', 'an unknown BLAS')}, not OpenBLAS")
    if core == "Haswell":
        try:
            flags = Path("/proc/cpuinfo").read_text(encoding="utf-8").split()
        except OSError:
            flags = []
        if "avx2" not in flags:
            pytest.skip("the Haswell kernels need avx2, which this CPU does not list")
    src = str(Path(pr.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code + _PRINT_CORE_NAME], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out, _, name = done.stdout.rstrip("\n").rpartition("\n")
    return out, name


@pytest.fixture(scope="session")
def ml_like_path(tmp_path_factory) -> Path:
    env = os.environ.get("PARETORANK_ML1M")
    if env:
        # systematic every-kth-entry subsample down to ~120K ratings
        lines = Path(env).read_text(encoding="utf-8", errors="ignore").splitlines()
        step = max(1, len(lines) // 120_000)
        path = tmp_path_factory.mktemp("data") / "ml1m_subsample.dat"
        path.write_text("\n".join(lines[::step]) + "\n", encoding="utf-8")
        return path
    path = tmp_path_factory.mktemp("data") / "ml_like.dat"
    path.write_text("\n".join(movielens_like_lines()) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def ml_like_matrix(ml_like_path) -> pr.RatingMatrix:
    with open(ml_like_path, "rb") as fp:
        result = pr.parse_movielens(fp)
    matrix = pr.build_matrix(result.records)
    assert matrix.n_entries >= 100_000, "dataset-scale fixtures need >= 100K ratings"
    return matrix


@pytest.fixture(scope="session")
def ml_like_split(ml_like_matrix) -> pr.SplitPair:
    return pr.split(ml_like_matrix, 0.2, seed=12)


@pytest.fixture
def tiny_path(tmp_path) -> Path:
    path = tmp_path / "tiny.dat"
    path.write_text("\n".join(tiny_movielens_lines()) + "\n", encoding="utf-8")
    return path
