"""paretorank benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload ml100k-compare --seed 2024 --seconds 10 --trace 0

Generates the workload's inputs from --seed (not timed), then runs the
workload in a fresh child process (perfbench/workload.py) with BLAS pinned to
one thread, so peak memory and caches belong to that workload alone. The
last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. The line before it
records the environment and run details. Runs keep the sha256 of their
reports and artifacts in .bench_out/ and fail if a later run of the same
workload, seed and program source differs; traced runs also write their
spans there. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BLAS_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PINNING)  # before numpy is imported, here and in the child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ml100k-compare", "ml1m-evaluate", "sparse-ppr")
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_pinning": BLAS_PINNING,
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_id() -> str:
    """Short sha256 of the program's source, so outputs are compared only within one version."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "paretorank").rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 2024 for ml100k-compare, the test corpus; 1 otherwise)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/paretorank/__init__.py", "tests/conftest.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a paretorank checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import corpus

    seed = args.seed
    if seed is None:
        seed = corpus.ML100K_DEFAULT_SEED if args.workload == "ml100k-compare" else 1
    workdir = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        inputs = corpus.write_inputs(ROOT, args.workload, seed, workdir)
        spec = {
            "workload": args.workload, "inputs": inputs, "seconds": args.seconds,
            "trace": bool(args.trace), "workdir": str(workdir),
            "result_out": str(workdir / "result.json"),
            "spans_out": str(outdir / f"spans-{args.workload}-seed{seed}.json"),
            "digests_out": str(outdir / f"outputs-{args.workload}-seed{seed}-{source_id()}.json"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
        child = subprocess.run([sys.executable, str(HERE / "workload.py"), str(workdir / "spec.json")],
                               env=env, timeout=CHILD_TIMEOUT_S, check=False)
        if child.returncode != 0:
            print(f"perfbench: workload process exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in result["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment(), **result["details"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
