"""In-memory span recording around the calls the benchmark makes into paretorank.

A span is (name, start, end, parent, phase). Span names are layer metric
stems such as ``ppr.train``; a layer's self time is its span's duration minus
the time covered by its direct children. Spans are kept in memory and written
out once, when the run ends. ``NullTracer`` is the untraced stand-in: its
spans do nothing and it installs no hooks or wrappers.
"""

import contextlib
import json
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: no spans, no pair hook, scorers passed through unwrapped."""

    on_pair = None

    def span(self, name):
        return _NULL

    def scorer(self, scorer):
        return scorer

    def count(self, name, n=1):
        pass

    def wrapped(self, module, names, layer):
        return _NULL


class Tracer:
    """Records spans and counts, grouped by phase (setup N, pass N, quality)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (phase, name) -> count
        self.phase = "setup"
        self._stack = []
        self._last_user = None

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self.phase, name)] += n

    def on_pair(self, iteration, pair, result):
        """PPR's public per-pair hook: counts visits and distinct (iteration, user) visits."""
        self.counts[(self.phase, "ppr.pairs_visited")] += 1
        key = (self.phase, iteration, pair.user)
        if key != self._last_user:
            self._last_user = key
            self.counts[(self.phase, "ppr.users_trained")] += 1

    def scorer(self, scorer):
        return CountingScorer(scorer, self)

    @contextlib.contextmanager
    def wrapped(self, module, names, layer):
        """Replace ``module.<name>`` with a spanned wrapper for the duration."""
        originals = {name: getattr(module, name) for name in names}
        for name, fn in originals.items():
            setattr(module, name, self._spanned(f"{layer}.{name}", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def _spanned(self, span_name, fn):
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> dict:
        """{phase: {span name: summed self seconds}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child_time[idx]
        return out

    def phase_counts(self) -> dict:
        """{phase: {count name: value}}."""
        out = defaultdict(dict)
        for (phase, name), value in self.counts.items():
            out[phase][name] = value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, fp)


class CountingScorer:
    """Delegating scorer that counts ``score_row`` calls."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.n_users = inner.n_users
        self.n_items = inner.n_items

    def score_row(self, user):
        self.tracer.count("model.score_row_calls")
        return self.inner.score_row(user)

    def score(self, user, item):
        return self.inner.score(user, item)
