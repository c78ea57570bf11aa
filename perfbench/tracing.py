"""Span tracer wrapped around memvec's public entry points.

A span is ``[name, start_ns, end_ns, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` labels the
benchmark phase or the query the span served. Spans stay in memory and
are written out once, at the end of a run.

Each wrapper is installed where the wrapped name is looked up at call
time, so the library is not edited: ``memvec.search.pinv_vector`` is what
``build_index`` calls, ``memvec.assignment.sum_vector`` is what k-means
calls, and methods are patched on their class. A target the library no
longer has is skipped, and its counts read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name)
TARGETS = (
    ("memvec.core", "Dataset.__post_init__", "core.Dataset"),
    ("memvec.core", "MemoryIndex.representatives", "core.representatives"),
    ("memvec.assignment", "random_assignment", "assignment.random_assignment"),
    ("memvec.assignment", "spherical_kmeans", "assignment.spherical_kmeans"),
    ("memvec.assignment", "Partition.members", "assignment.members"),
    ("memvec.assignment", "imbalance_factor", "assignment.imbalance_factor"),
    ("memvec.assignment", "sum_vector", "construction.sum_vector"),
    ("memvec.assignment", "pinv_vector", "construction.pinv_vector"),
    ("memvec.search", "sum_vector", "construction.sum_vector"),
    ("memvec.search", "pinv_vector", "construction.pinv_vector"),
    ("memvec.search", "build_index", "search.build_index"),
    ("memvec.search", "query", "search.query"),
    ("memvec.search", "binarize", "search.binarize"),
    ("memvec.search", "query_binary", "search.query_binary"),
    ("memvec.harness.io", "read_fvecs", "io.read_fvecs"),
    ("memvec.harness.io", "write_index", "io.write_index"),
    ("memvec.harness.io", "read_index", "io.read_index"),
    ("memvec.harness.evaluation", "cosine_ground_truth", "evaluation.cosine_ground_truth"),
    ("memvec.harness.evaluation", "evaluate_results", "evaluation.evaluate_results"),
    ("memvec.analytic", "threshold_for", "analytic.threshold_for"),
    ("memvec.analytic", "expected_cost_ratio", "analytic.expected_cost_ratio"),
    ("memvec.analytic", "error_rates", "analytic.error_rates"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: object = "setup"
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every target that exists; restore all on exit."""
        patched = []
        try:
            for module, path, name in TARGETS:
                owner = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):  # gone, or no longer a function
                    continue
                setattr(owner, attr, self._wrap(name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def totals(self, keep=lambda request: True) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in seconds, over the
        spans whose request satisfies ``keep``; a name never seen reads 0.
        Self time is a span's duration minus that of its direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, req) in enumerate(self.spans):
            if not keep(req):
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[k]) * 1e-9
        return out

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, req in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "request": req}) + "\n")
