"""Span tracing around numrange's layer boundaries, installed from outside.

The benchmark replaces a layer's public functions with wrappers for the
length of a traced pass and restores them afterwards; the package itself is
not modified.  A wrapper opens a span (name, start, end, parent, request)
only while a request span opened by the benchmark is on the stack, so
oracle code run between requests is never counted.

Counts are kept where the work happens:
  * every Hermitian eigendecomposition (numpy.linalg.eigh / eigvalsh) adds
    its batch size to the "eig" count of each open span;
  * every scipy.linalg.lu_factor call adds one "lu" factorization;
  * every blaschke.evaluate call adds its point count to "pts".
Each span accumulates the counts made while it is open (inclusive counts),
so per-call ratios such as eigensolves per numerical_radius come out of the
same records as the self times.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name). A module that binds a layer function by
# name at import time is listed next to the defining module, so that calls
# through either binding are seen. Missing attributes are skipped: a later
# refactor that removes a function drops its spans, never the benchmark.
SPANS = [
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigh"),
    ("numrange.linalg", "solve", "linalg.lu"),
    ("numrange.linalg", "min_eigenvalue", "linalg.min_eigenvalue"),
    ("numrange.verify", "min_eigenvalue", "linalg.min_eigenvalue"),
    ("numrange.fov", "numerical_radius", "fov.numerical_radius"),
    ("numrange.verify", "numerical_radius", "fov.numerical_radius"),
    ("numrange.fov", "boundary", "fov.boundary"),
    ("numrange.verify", "boundary", "fov.boundary"),
    ("numrange.diskfun", "eval_matrix", "diskfun.eval_matrix"),
    ("numrange.verify", "eval_matrix", "diskfun.eval_matrix"),
    ("numrange.regions", "q_form", "regions.q_form"),
    ("numrange.regions", "teardrop_support", "regions.teardrop_support"),
    ("numrange.regions", "teardrop_boundary", "regions.teardrop_boundary"),
    ("numrange.cli", "_teardrop_boundary", "regions.teardrop_boundary"),
    ("numrange.blaschke", "clark_decomposition", "blaschke.clark_decomposition"),
    ("numrange.blaschke", "level_set", "blaschke.level_set"),
    ("numrange.formats", "parse_matrix", "formats.parse"),
    ("numrange.formats", "parse_function", "formats.parse"),
    ("numrange.cli", "main", "cli.main"),
]

# Functions that only count: wrapping them in spans would cost more than
# the work they do (evaluate runs once per bisection step).
COUNTERS = [
    ("scipy.linalg", "lu_factor", "lu"),
    ("numrange.blaschke", "evaluate", "pts"),
]

EIG_NAMES = ("eigh", "eigvalsh")

REQUEST = "bench"


class Tracer:
    """In-memory span store. Span records are lists:
    [name, start, end, parent index, request id, counts dict, error type]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = {"eig": 0, "lu": 0, "pts": 0}

    def begin(self, name: str) -> int:
        if name == REQUEST:
            self.request += 1
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request, {}, None])
        self.stack.append(index)
        return index

    def end(self, index: int, error: BaseException | None = None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        if error is not None:
            span[6] = type(error).__name__
        self.stack.pop()

    def add(self, kind: str, amount: int):
        self.counts[kind] += amount
        for index in self.stack:
            counts = self.spans[index][5]
            counts[kind] = counts.get(kind, 0) + amount

    def span_wrapper(self, name: str, fn, count_eig: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if count_eig:
                a = args[0] if args else kwargs["a"]
                shape = getattr(a, "shape", ())
                batch = 1
                for extent in shape[:-2]:
                    batch *= extent
                self.add("eig", batch)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, exc)
                raise
            self.end(index)
            return result
        return traced

    def count_wrapper(self, kind: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                if kind == "pts":
                    z = args[1] if len(args) > 1 else kwargs["z"]
                    self.add(kind, int(getattr(z, "size", 1)))
                else:
                    self.add(kind, 1)
            return fn(*args, **kwargs)
        return counted


class Patched:
    """Context manager that installs a Tracer's wrappers and restores the
    original attributes on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def _set(self, owner, key, value, is_item=False):
        if is_item:
            self.saved.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self.saved.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def __enter__(self):
        tr = self.tracer
        for module, attr, name in SPANS:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):
                wrapper = tr.span_wrapper(name, getattr(owner, attr),
                                          count_eig=attr in EIG_NAMES)
                self._set(owner, attr, wrapper)
        for module, attr, kind in COUNTERS:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):
                self._set(owner, attr, tr.count_wrapper(kind, getattr(owner, attr)))
        # suites are dispatched through the verify.SUITES table
        suites = importlib.import_module("numrange.verify").SUITES
        for suite, fn in list(suites.items()):
            self._set(suites, suite, tr.span_wrapper(f"verify.{suite}", fn),
                      is_item=True)
        return tr

    def __exit__(self, *exc):
        for owner, key, original, is_item in reversed(self.saved):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.saved.clear()
        return False


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, self seconds, inclusive counts, errors."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    totals = {}
    for i, (name, start, end, _parent, _req, counts, error) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                         "errors": 0, "eig": 0, "lu": 0, "pts": 0})
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
        entry["errors"] += error is not None
        for kind, amount in counts.items():
            entry[kind] += amount
    return totals
