"""In-memory span recorder and the timing wrappers it installs on densematch.

A wrapper replaces a public name at the place its caller looks it up (a
module global or a class attribute), records one span per call with its
parent span and call id, and restores the original when uninstalled.  A
name that no longer exists is listed as absent instead of raising, so a
later rename drops the metrics that depend on it and nothing else.
"""

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import densematch


def _count_sampling(counts, args, kwargs, result, exc):
    if exc is None:
        counts["sampling.attempts"] += result[1]
        counts["sampling.accepted"] += 1
    elif hasattr(exc, "attempts"):
        counts["sampling.attempts"] += exc.attempts


def _count_scoring(counts, args, kwargs, result, exc):
    if exc is None:
        t = len(args[1].edges)
        counts["oracles.score_pairs"] += t * (t - 1) // 2


# (dotted name under densematch, span name, counter hook)
TARGETS = (
    ("generators.complement_of_random_triangle_free", "generators.build", None),
    ("generators.c5_blowup_complement", "generators.build", None),
    ("generators.two_cliques", "generators.build", None),
    ("generators.complete_graph", "generators.build", None),
    ("harness.ExperimentConfig.build_graph", "generators.build", None),
    ("extractor.is_alpha_at_most_2", "graphs.alpha", None),
    ("oracles.is_alpha_at_most_2", "graphs.alpha", None),
    ("extractor.extract_best", "extractor.extract_best", None),
    ("harness.extract_best", "extractor.extract_best", None),
    ("extractor.prepare_extraction", "extractor.prepare", None),
    ("harness.prepare_extraction", "extractor.prepare", None),
    ("extractor.extract_once", "extractor.trial", None),
    ("extractor.sample_edge_heavy_partition", "sampling.sample", _count_sampling),
    ("extractor.nonadjacent_pairs", "oracles.score", _count_scoring),
    ("oracles.count_bad_quadruples", "oracles.badquads", None),
    ("oracles.clique_bound_audit", "oracles.audit", None),
    ("oracles.connected_matching_number", "oracles.cm", None),
    ("oracles.clique_number", "oracles.omega", None),
    ("oracles.min_nonadjacent_matching", "oracles.minmatch", None),
    ("harness.sweep_results", "harness.sweep", None),
    ("harness.run_experiment", "harness.run_experiment", None),
    ("harness.render_csv", "harness.render", None),
    ("harness.render_json", "harness.render", None),
)

SETUP_CALL = -1


def _resolve(dotted: str):
    """``(owner, attribute)`` for a dotted name under densematch, or None."""
    *path, attr = dotted.split(".")
    owner = densematch
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records ``[id, parent, call, name, start, end]`` spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._call = SETUP_CALL

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self._call, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def call(self, call_id: int, name: str = "bench.pass"):
        """Root span of one pass; every span opened inside carries ``call_id``."""
        self._call = call_id
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._call = SETUP_CALL

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if hook is not None:
                    hook(self.counts, args, kwargs, None, exc)
                raise
            self._close(span)
            if hook is not None:
                hook(self.counts, args, kwargs, result, None)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper whose target exists; restore on exit."""
        originals = []
        self.absent = []
        for dotted, name, hook in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def absent_spans(self) -> set[str]:
        """Span names none of whose targets could be wrapped."""
        fed = defaultdict(list)
        for dotted, name, _ in TARGETS:
            fed[name].append(dotted)
        return {name for name, targets in fed.items()
                if all(t in self.absent for t in targets)}

    def write(self, path) -> None:
        keys = ("id", "parent", "call", "name", "start", "end")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarise(spans) -> tuple[dict, dict, dict, dict]:
    """Per span name: inclusive seconds, self seconds, call count, durations.

    A span's self time is its duration minus its direct children's; calls
    run on one thread, so children never overlap each other.
    """
    children = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    incl, self_s, calls, durations = (defaultdict(float), defaultdict(float),
                                      Counter(), defaultdict(list))
    for sid, _, _, name, start, end in spans:
        d = end - start
        incl[name] += d
        self_s[name] += d - children[sid]
        calls[name] += 1
        durations[name].append(d)
    return incl, self_s, calls, durations
