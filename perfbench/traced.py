"""Per-layer tracing from outside the program.

The benchmark does not edit invclust. For a traced run it swaps each
module's entry function (parse, rename, run_suite, detect, ...) for a
wrapper that records a span around the call, in every module that imported
it, runs the real `run_pipeline` and `invclust closest`, and puts the
originals back. The spans therefore time the program's own code, and a
change inside `run_pipeline` (a cache that skips a step, say) shows in them.
A function a later version no longer has is skipped: its span stays empty.
"""

import builtins
import json
import os
import sys
import time
from contextlib import contextmanager
from itertools import count

from invclust.errors import CSyntaxError, UnsupportedFeature


def _count_parse(spans, result, error):
    spans.add("parse.programs", 1)
    if isinstance(error, (CSyntaxError, UnsupportedFeature)):
        spans.add("parse.rejected", 1)


def _count_trace(spans, result, error):
    if error is None:
        samples = result[0].samples
        spans.add("trace.snapshots", sum(len(s) for s in samples.values()))
        spans.add("trace.points", len(samples))


def _count_detect(spans, result, error):
    if error is None:
        spans.add("detect.invariants",
                  sum(len(v) for v in result.by_point.values()))


# (module, function, span name, counter). The four functions that build a
# program's documents share the span "docs".
LAYERS = (
    ("invclust.corpus", "ingest", "ingest", None),
    ("invclust.corpus", "persist", "persist", None),
    ("invclust.parser", "parse", "parse", _count_parse),
    ("invclust.renamer", "rename", "rename", None),
    ("invclust.tracer", "run_suite", "trace", _count_trace),
    ("invclust.invariants", "detect", "detect", _count_detect),
    ("invclust.unparse", "unparse", "docs", None),
    ("invclust.anonymizer", "anonymize", "docs", None),
    ("invclust.anonymizer", "serialize_aast", "docs", None),
    ("invclust.invariants", "flatten", "docs", None),
    ("invclust.vectorizer", "build_vocab_for_mode", "vocab", None),
    ("invclust.vectorizer", "represent", "vectorize", None),
    ("invclust.clusterer", "kmeans", "kmeans", None),
    ("invclust.cli", "_load_model", "closest.load_model", None),
    ("invclust.cli", "_load_vectors", "closest.load_vectors", None),
    ("invclust.clusterer", "closest_program", "closest.scan", None),
)


class Spans:
    """Spans kept in memory: name, start, end, the span that caused it, and
    the trace (one pipeline run or one query) it belongs to. Counters are
    recorded at the same boundaries."""

    def __init__(self):
        self.records = []
        self.counts = {}
        self._ids = count(1)
        self._stack = []
        self._trace = None

    def active(self, name):
        return any(n == name for _, n in self._stack)

    @contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        if parent is None:
            self._trace = sid
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({"id": sid, "parent": parent,
                                 "trace": self._trace, "name": name,
                                 "start": start, "end": end})

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name):
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def by_trace(self):
        """Per trace, in order: {span name: seconds}."""
        out = {}
        for r in self.records:
            d = out.setdefault(r["trace"], {})
            d[r["name"]] = d.get(r["name"], 0.0) + r["end"] - r["start"]
        return [out[t] for t in sorted(out)]

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.records, "counts": self.counts}, f)


def _wrap(spans, fn, name, counter):
    def traced(*args, **kwargs):
        if spans.active(name):  # a nested call belongs to the outer span
            return fn(*args, **kwargs)
        result = error = None
        try:
            with spans.span(name):
                result = fn(*args, **kwargs)
            return result
        except Exception as e:
            error = e
            raise
        finally:
            if counter is not None:
                counter(spans, result, error)
    return traced


class Instrument:
    """Where each traced function is bound: its own module and every module
    that imported it by name. `on(spans)` records into `spans` while active."""

    def __init__(self):
        self.sites = []  # (module dict, attribute, original, span, counter)
        for modname, attr, name, counter in LAYERS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            for mod in list(sys.modules.values()):
                d = getattr(mod, "__dict__", None) or {}
                for key, value in list(d.items()):
                    if value is fn:
                        self.sites.append((d, key, fn, name, counter))

    @contextmanager
    def on(self, spans):
        for d, key, fn, name, counter in self.sites:
            d[key] = _wrap(spans, fn, name, counter)
        try:
            yield
        finally:
            for d, key, fn, _, _ in self.sites:
                d[key] = fn


@contextmanager
def count_reads(spans, directory, name):
    """Count into `name` the files opened under `directory`, other than its
    model.json."""
    real = builtins.open
    prefix = os.path.abspath(directory) + os.sep

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            path = os.path.abspath(file)
            if path.startswith(prefix) and \
                    os.path.basename(path) != "model.json":
                spans.add(name, 1)
        return real(file, *args, **kwargs)

    builtins.open = counting_open
    try:
        yield
    finally:
        builtins.open = real
