"""Runs one benchmark workload in a fresh process and writes its measurements.

Usage (normally started by run.py): python3 perfbench/workload.py SPEC.json

The spec names the workload, its generated input files, the measurement
window in seconds, whether to trace, and where to write the result. run.py
pins BLAS threading through the environment before this process starts.
One thread issues every call into paretorank, each after the previous one
returned (a closed loop with one caller).

A run sets up (parse + build + split) at least SETUP_MIN_REPS times and for
at least SETUP_MIN_S seconds, then repeats the workload's pipeline until the
window has elapsed and at least MIN_PASSES passes ran, then measures quality
once on the reference corpus. Every call into paretorank is timed on its own.

Timed runs also sample the host's speed while they run (SpeedProbe): every
PROBE_INTERVAL_S a signal handler times a small fixed piece of work, probe(),
in the same thread. On a shared machine one core runs at two speeds about 2x
apart, switching every few milliseconds, and the share of slow time drifts
over seconds to minutes, so raw times of the same code differ by 20-30% from
run to run. Each call's time, less the handler's, is multiplied by
PROBE_REFERENCE_S over the mean probe time during the call, so the timed
metrics read as seconds at the reference speed. They are the median over
set-ups or passes of these scaled times; the raw medians are in the details
line. Timed runs use no tracer at all; traced runs take no probes and
alternate untraced and traced passes, so the tracing overhead is measured in
the same process.
"""

import contextlib
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from paretorank import baselines, dataio, metrics, ppr, store
from tracing import NullTracer, Tracer

TEST_RATIO = 0.2
SPLIT_SEED = 12  # the split and train seed of the tier-1 headline reports
TRAIN_SEED = 12
K = 10
SETUP_MIN_REPS = 3
SETUP_MIN_S = 5.0
MIN_PASSES = 3
# Training budgets as (PPR iterations, PPR users sampled per iteration, MF
# epochs). ROADMAP's full budget is (60, 512, 30): 129 s + 36 s on the test
# corpus. A pass trains one iteration and one epoch, so that a run holds
# several passes; quality, measured once per run and untimed, trains further.
QUALITY_BUDGET = (1, 512, 1)

WORKLOADS = {
    "ml100k-compare": {"trainers": ("ppr", "mf"), "baselines": True, "budget": (1, 128, 1)},
    "ml1m-evaluate": {"trainers": (), "baselines": True, "budget": None},
    # a quarter of the 12K users per pass, so PPR's per-user work is most of a pass
    "sparse-ppr": {"trainers": ("ppr",), "baselines": False, "budget": (1, 3072, 0)},
}

PROBE_INTERVAL_S = 0.01
MIN_PROBES = 8  # a call with fewer probes of its own is scaled by the latest MIN_PROBES
# probe()'s fastest time on the reference host, a 2-vCPU Intel Xeon KVM guest
# with Python 3.11 and numpy 2.4
PROBE_REFERENCE_S = 2.4e-5
_PROBE_RNG = np.random.default_rng(0)
_PROBE_VEC = _PROBE_RNG.random(8)
_PROBE_ROW = _PROBE_RNG.random(1500)
_PROBE_SORT = _PROBE_RNG.random(1024)
_PROBE_DICT = {i: float(i) for i in range(64)}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "eval_users_per_s": "1/s",
    "peak_rss_mb": "MB", "success_rate": "ratio",
    "ppr_mae": "rating", "ppr_dme_abs": "slope", "ppr_concordance": "ratio",
    "mf_mae": "rating", "mf_dme_abs": "slope", "mf_concordance": "ratio",
}

# span name -> per-layer metric (its self time)
SPAN_METRICS = {
    "dataio.parse": "dataio.parse_s", "dataio.build": "dataio.build_s",
    "dataio.split": "dataio.split_s",
    "ppr.train": "ppr.train_s", "ppr.concordance": "ppr.concordance_s",
    "baselines.mf_train": "baselines.mf_train_s", "baselines.popularity": "baselines.popularity_s",
    "model.score_entries": "model.score_entries_s", "model.top_k": "model.top_k_s",
    "metrics.evaluate": "metrics.evaluate_self_s", "metrics.powerlaw": "metrics.powerlaw_s",
    "metrics.compare": "metrics.compare_s",
    "store.save": "store.save_s", "store.load": "store.load_s",
}
COUNT_METRICS = ("ppr.pairs_visited", "ppr.updates", "ppr.skips", "ppr.clips",
                 "ppr.users_trained", "baselines.mf_entry_steps", "model.score_row_calls",
                 "store.artifact_bytes")
PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **{m: "count" for m in COUNT_METRICS},
    "store.artifact_bytes": "bytes",
    "dataio.entries": "count", "dataio.matrix_alloc_mb": "MB",
    "ppr.update_ratio": "ratio", "ppr.pairs_per_user": "count",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def probe() -> float:
    """A small fixed mix of the workloads' kinds of work: an interpreter loop
    with dict lookups, small dot products, a top-10 partition of a 1,500-item
    row, and a sort."""
    s = 0.0
    for i in range(100):
        s += _PROBE_DICT[i & 63] * 1.5
    for _ in range(8):
        s += float(_PROBE_VEC @ _PROBE_VEC)
    s += float(np.argpartition(-_PROBE_ROW, 10)[0])
    return s + float(np.sort(_PROBE_SORT)[0])


class SpeedProbe:
    """Samples the host's speed while the workload runs, in the calling thread.

    A SIGALRM handler times probe() every PROBE_INTERVAL_S. Python runs the
    handler between bytecodes of the interrupted call (or right after a long
    C call returns), so the probes taken during a call sample the speed the
    call itself ran at.
    """

    def __init__(self):
        self.times = []  # seconds per probe
        self.spent = 0.0  # seconds spent in the handler

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe()  # warms the caches the interrupted call left cold; only the second run is timed
        t1 = perf_counter()
        probe()
        t2 = perf_counter()
        self.times.append(t2 - t1)
        self.spent += perf_counter() - t0

    def __enter__(self):
        for _ in range(MIN_PROBES):
            self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.times), self.spent

    def scale(self, mark, seconds) -> tuple:
        """(seconds minus the handler's share, the same at the reference speed)."""
        n, spent = mark
        times = self.times[n:]
        if len(times) < MIN_PROBES:
            times = self.times[-MIN_PROBES:]
        # a handler that ran between mark() and the call's clock reading can
        # make this slightly short; it is never left below 0
        seconds = max(seconds - (self.spent - spent), 0.0)
        return seconds, seconds * PROBE_REFERENCE_S / statistics.fmean(times)


def total(steps: list, name: str | None = None, scaled: bool = True) -> float:
    """Summed seconds of the steps (only those named name, if given)."""
    return sum(step[2 if scaled else 1] for step in steps if name is None or step[0] == name)


def digest(outputs) -> dict:
    """sha256 of each report's JSON, each artifact's bytes and the quality figures."""
    reports, artifacts, quality = outputs
    sha = lambda b: hashlib.sha256(b).hexdigest()
    return {**{f"report.{a}": sha(r.encode()) for a, r in reports.items()},
            **{f"artifact.{a}": sha(b) for a, b in artifacts.items()},
            "quality": sha(json.dumps(quality, sort_keys=True).encode())}


class Workload:
    def __init__(self, spec: dict):
        self.name = spec["workload"]
        self.shape = WORKLOADS[self.name]
        self.inputs = spec["inputs"]
        self.seconds = spec["seconds"]
        self.trace = spec["trace"]
        self.workdir = Path(spec["workdir"])
        self.tracer = Tracer()
        self.tr = NullTracer()
        self.attempted = 0
        self.errors = []
        self.steps = []  # (op name, seconds, seconds at the reference speed) of the calls
        self.probe = None  # SpeedProbe, while a timed run is measuring

    def phase(self, traced: bool):
        """Start a set-up or pass: a fresh step list, the tracer on or off."""
        gc.collect()
        self.tr = self.tracer if traced else NullTracer()
        self.steps = []

    # -- operations and checks ------------------------------------------------

    def op(self, name, fn, *args, **kwargs):
        """One counted call into paretorank, spanned (when tracing) and timed."""
        self.attempted += 1
        mark = self.probe.mark() if self.probe else None
        t0 = perf_counter()
        with self.tr.span(name):
            result = fn(*args, **kwargs)
        seconds = perf_counter() - t0
        if self.probe:
            self.steps.append((name, *self.probe.scale(mark, seconds)))
        else:
            self.steps.append((name, seconds, seconds))
        return result

    def check(self, ok: bool, what: str):
        if not ok:
            self.errors.append(f"check failed: {what}")

    # -- the calls a pass is made of ---------------------------------------------

    def setup(self, path):
        """Parse + build + split; returns (records, matrix, split)."""
        with open(path, "rb") as fp:
            records = self.op("dataio.parse", dataio.parse_movielens, fp).records
        matrix = self.op("dataio.build", dataio.build_matrix, records)
        sp = self.op("dataio.split", dataio.split, matrix, TEST_RATIO, SPLIT_SEED)
        self.check(sp.train.n_entries + sp.test.n_entries == matrix.n_entries,
                   "split does not partition the entries")
        return records, matrix, sp

    def train_ppr(self, train, iters, users):
        config = ppr.TrainConfig(max_iters=iters, user_sample_size=users, seed=TRAIN_SEED)
        model, stats = self.op("ppr.train", ppr.train_ppr, train, config, on_pair=self.tr.on_pair)
        visited = sum(stats.updates) + sum(stats.skips)
        self.check(len(stats.updates) == iters and visited > 0, "ppr stats length/visits")
        self.check(_finite(*stats.mean_loss) and np.isfinite(model.U).all()
                   and np.isfinite(model.V).all(), "ppr loss or factors not finite")
        self.tr.count("ppr.updates", sum(stats.updates))
        self.tr.count("ppr.skips", sum(stats.skips))
        self.tr.count("ppr.clips", sum(stats.clips))
        if self.tr is self.tracer:
            counted = self.tracer.counts[(self.tracer.phase, "ppr.pairs_visited")]
            self.check(counted == visited, f"on_pair saw {counted} pairs, TrainStats {visited}")
        return model, visited

    def train_mf(self, train, epochs):
        model, losses = self.op("baselines.mf_train", baselines.train_classic_mf, train,
                                epochs=epochs, seed=TRAIN_SEED)
        self.check(len(losses) == epochs and _finite(*losses), "mf losses")
        steps = epochs * train.n_entries
        self.tr.count("baselines.mf_entry_steps", steps)
        return model, steps

    def train(self, sp, trainers, budget) -> tuple:
        """Train the named trainers; returns ({algo: model}, {work counter: count})."""
        models, work = {}, {}
        if not trainers:
            return models, work
        iters, users, epochs = budget
        if "ppr" in trainers:
            models["ppr"], work["ppr_pairs"] = self.train_ppr(sp.train, iters, users)
        if "mf" in trainers:
            models["mf"], work["mf_steps"] = self.train_mf(sp.train, epochs)
        return models, work

    def evaluate(self, algo, scorer, sp):
        report = self.op("metrics.evaluate", metrics.evaluate_scorer, self.tr.scorer(scorer),
                         sp.train, sp.test, K, algorithm=algo, dataset=self.name,
                         seed=SPLIT_SEED, test_ratio=TEST_RATIO)
        self.check(_finite(report.mae, report.dme_slope), f"{algo} report not finite")
        self.check(report.fit_points >= 2, f"{algo} fit_points {report.fit_points} < 2")
        return report

    def round_trip(self, algo, scorer) -> bytes:
        path = self.workdir / f"{algo}.bin"
        self.op("store.save", store.save_model, scorer, path, seed=TRAIN_SEED, config={"algo": algo})
        loaded, _ = self.op("store.load", store.load_model, path)
        blob = path.read_bytes()
        self.tr.count("store.artifact_bytes", len(blob))
        users = (0, scorer.n_users - 1)
        self.check(type(loaded) is type(scorer)
                   and (loaded.n_users, loaded.n_items) == (scorer.n_users, scorer.n_items)
                   and all(np.array_equal(loaded.score_row(u), scorer.score_row(u)) for u in users),
                   f"{algo} artifact round trip is not exact")
        return blob

    def pipeline(self, matrix, sp):
        """The workload's pipeline; returns (reports, artifacts, work counters)."""
        scorers, work = self.train(sp, self.shape["trainers"], self.shape["budget"])
        if "artifact" in self.inputs:
            factors, _ = self.op("store.load", store.load_model, self.inputs["artifact"])
            self.check((factors.n_users, factors.n_items) == (sp.train.n_users, sp.train.n_items),
                       "artifact shape does not match the corpus")
            scorers["factors"] = factors
        if self.shape["baselines"]:
            table = self.op("baselines.popularity", baselines.PopularityTable.from_matrix, sp.train)
            self.check(int(table.counts.sum()) == sp.train.n_entries, "popularity counts")
            scorers["random"] = baselines.RandomScorer(sp.train.n_users, sp.train.n_items, TRAIN_SEED)
            scorers["zipf"] = baselines.ZipfScorer(table, sp.train.n_users)
        reports = {algo: self.evaluate(algo, s, sp) for algo, s in sorted(scorers.items())}
        work["eval_users"] = sum(s.n_users for s in scorers.values())
        if len(reports) >= 2:
            rows = self.op("metrics.compare", metrics.compare_reports, list(reports.values()))
            ranks = list(range(1, len(rows) + 1))
            self.check(sorted(r.mae_rank for r in rows) == ranks
                       and sorted(r.fairness_rank for r in rows) == ranks, "comparison ranks")
        hist = self.op("metrics.powerlaw", metrics.rating_diff_histogram, matrix)
        self.check(len(hist.counts) >= 2 and _finite(hist.slope), "power-law histogram")
        artifacts = {algo: self.round_trip(algo, s) for algo, s in sorted(scorers.items())}
        return reports, artifacts, work

    def quality(self) -> dict:
        """MAE, |DME| and concordance of PPR and MF on the fixed reference corpus."""
        _, _, sp = self.setup(self.inputs["reference"])
        models, _ = self.train(sp, ("ppr", "mf"), QUALITY_BUDGET)
        out = {}
        for algo, model in models.items():
            report = self.evaluate(algo, model, sp)
            conc = self.op("ppr.concordance", ppr.pairwise_concordance, model, sp.test)
            self.check(_finite(conc) and 0.0 <= conc <= 1.0, f"{algo} concordance {conc}")
            out.update({f"{algo}_mae": report.mae, f"{algo}_dme_abs": report.dme_abs,
                        f"{algo}_concordance": conc})
        return out

    # -- the run ----------------------------------------------------------------

    def run(self) -> dict:
        probe = None if self.trace else SpeedProbe()
        with probe or contextlib.nullcontext():
            self.probe = probe
            setups = []
            start = perf_counter()
            while len(setups) < SETUP_MIN_REPS or perf_counter() - start < SETUP_MIN_S:
                self.tracer.phase = f"setup{len(setups)}"
                records = matrix = sp = None
                self.phase(self.trace)
                records, matrix, sp = self.setup(self.inputs["corpus"])
                setups.append(self.steps)
                self.check(matrix.n_entries == self.inputs["lines"],
                           f"{matrix.n_entries} entries from {self.inputs['lines']} lines")
            alloc_mb = 0.0
            if self.trace:
                tracemalloc.start()
                dataio.build_matrix(records)
                alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            records = None

            passes = []
            walls = {False: [], True: []}
            first = None
            start = perf_counter()
            while len(passes) < MIN_PASSES + self.trace or perf_counter() - start < self.seconds:
                traced = self.trace and len(passes) % 2 == 1
                self.tracer.phase = f"pass{len(passes)}"
                self.phase(traced)
                with self.tr.wrapped(metrics, ("score_entries", "top_k"), "model"):
                    t0 = perf_counter()
                    with self.tr.span("pass"):
                        reports, artifacts, work = self.pipeline(matrix, sp)
                    walls[traced].append(perf_counter() - t0)
                passes.append(self.steps)
                outputs = ({a: r.to_json() for a, r in reports.items()}, artifacts, work)
                if first is None:
                    first = outputs
                self.check(outputs == first, "reports, artifacts or work differ between passes")
            self.probe = None

        details = {"passes": len(passes), "setups": len(setups), "entries": matrix.n_entries,
                   "users": matrix.n_users, "items": matrix.n_items, "work_per_pass": work}
        matrix = sp = None  # quality's memory is not the workload's

        self.tracer.phase = "quality"
        self.phase(self.trace)
        with self.tr.wrapped(metrics, ("score_entries", "top_k"), "model"):
            quality = self.quality()
        details["outputs_sha256"] = digest((first[0], first[1], quality))

        if self.trace:
            details["pipeline_walls_s"] = walls
            return {"metrics": self.per_layer(walls, details["entries"], alloc_mb),
                    "details": details}
        setup_s = [total(steps) for steps in setups]
        run_s = [total(steps) for steps in passes]
        eval_s = [total(steps, "metrics.evaluate") for steps in passes]
        details.update({
            "setup_s": setup_s, "run_s": run_s,
            "raw_setup_s": statistics.median(total(steps, scaled=False) for steps in setups),
            "raw_run_s": statistics.median(total(steps, scaled=False) for steps in passes),
            "probes": len(probe.times), "probe_median_s": statistics.median(probe.times),
        })
        out = {"setup_s": statistics.median(setup_s),
               "run_s": statistics.median(run_s),
               "eval_users_per_s": work["eval_users"] / statistics.median(eval_s),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               **quality}
        return {"metrics": out, "details": details}

    def outcome(self) -> dict:
        attempted = max(self.attempted, 1)
        failed = min(len(self.errors), attempted)
        return {"attempted": attempted, "failed": failed, "errors": self.errors,
                "success_rate": 1.0 - failed / attempted}

    def per_layer(self, walls, entries, alloc_mb) -> dict:
        """Best-of-N self time per layer over the traced passes, and their counts."""
        selfs = self.tracer.self_times()
        counts = self.tracer.phase_counts()
        setups = [p for p in selfs if p.startswith("setup")]
        passes = [p for p in selfs if p.startswith("pass")]

        def best(table, name, phases):
            # 0 for a layer the workload does not run, such as PPR on ml1m-evaluate
            return min(table.get(p, {}).get(name, 0) for p in phases)

        def phases(span):
            if span.startswith("dataio."):
                return setups
            if span == "ppr.concordance":
                return ["quality"]  # concordance runs only on the reference corpus
            return passes

        out = {metric: best(selfs, span, phases(span)) for span, metric in SPAN_METRICS.items()}
        out.update({name: best(counts, name, passes) for name in COUNT_METRICS})
        out["dataio.entries"] = entries
        out["dataio.matrix_alloc_mb"] = alloc_mb
        visited = out["ppr.pairs_visited"]
        out["ppr.update_ratio"] = out["ppr.updates"] / visited if visited else 0.0
        out["ppr.pairs_per_user"] = visited / out["ppr.users_trained"] if visited else 0.0
        out["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        out["trace.unaccounted_s"] = best(selfs, "pass", passes)
        return out


def check_digests(bench: Workload, digests: dict, path: Path):
    """Outputs must repeat byte for byte across runs of one workload and seed."""
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        changed = sorted(k for k in earlier.keys() | digests.keys() if earlier.get(k) != digests.get(k))
        bench.check(not changed, f"outputs differ from an earlier run of this seed: {changed}")
    else:
        path.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    bench = Workload(spec)
    try:
        result = bench.run()
        check_digests(bench, result["details"]["outputs_sha256"], Path(spec["digests_out"]))
    except Exception:  # a call that raises ends the run and counts as failed
        bench.errors.append(traceback.format_exc())
        result = {"metrics": {}, "details": {}}
    result.update(bench.outcome())
    if not spec["trace"]:
        result["metrics"]["success_rate"] = result["success_rate"]
    units = PER_LAYER_UNITS if spec["trace"] else END_TO_END_UNITS
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items() if name in result["metrics"]}
    if spec["trace"] and not result["errors"]:
        bench.tracer.write(spec["spans_out"])
    Path(spec["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
