"""Span tracing from outside the library.

The tracer wraps every public module-level function of the five monoplane
modules at module-attribute level, in every module namespace that binds it
(``cli.minimerror_train`` and ``perceptron.minimerror_train`` are separate
bindings of one function). A wrapper records a span only while the tracer is
``active``, which the benchmark sets for the timed part of an operation, so
the output checks that run between operations leave no spans.

Self time is a span's duration minus the durations of its direct children.
Spans are kept in memory as compact arrays and written out once, by
``write_spans``, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import types
from array import array
from time import perf_counter

LAYERS = ("data", "perceptron", "network", "evaluation", "cli")
BENCH = "bench"

EPOCH_BUCKETS = ("p208", "p104", "p40")


def epoch_bucket(n_patterns):
    """The pattern-count bucket of an anneal: the combined sonar set, one
    sonar part, or a small problem of at most 40 patterns; else None."""
    if n_patterns == 208:
        return "p208"
    if n_patterns == 104:
        return "p104"
    return "p40" if n_patterns <= 40 else None


class Tracer:
    """Records spans around calls into the library's public functions."""

    def __init__(self, modules):
        # modules: {layer name: imported module}, one per monoplane module
        self.modules = modules
        self.active = False
        self.names = [(BENCH, "op")]        # span key -> (layer, function)
        self._key_of = {(BENCH, "op"): 0}
        self._stack = []                    # open frames: [key, child seconds]
        self.calls = [0]
        self.total = [0.0]
        self.self_time = [0.0]
        # raw spans, written at exit: key, parent key, start, end
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # anneal work observed at the perceptron boundary
        self.anneal = {name: [0.0, 0] for name in EPOCH_BUCKETS}
        self.anneal_epochs = 0
        self.units_in_network = 0
        self.rosenblatt = [0.0, 0]
        self._patches = self._build_patches()

    # -- installation -----------------------------------------------------

    def _build_patches(self):
        layer_of = {m.__name__: layer for layer, m in self.modules.items()}
        wrappers = {}
        patches = []
        for module in self.modules.values():
            for name, value in vars(module).items():
                if (name.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ not in layer_of):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(layer_of[value.__module__], value)
                patches.append((module, name, value, wrappers[value]))
        return patches

    def install(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def _key(self, layer, name):
        k = self._key_of.get((layer, name))
        if k is None:
            k = self._key_of[(layer, name)] = len(self.names)
            self.names.append((layer, name))
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return k

    def _wrap(self, layer, fn):
        key = self._key(layer, fn.__name__)
        observe = {"minimerror_train": self._observe_anneal,
                   "rosenblatt_train": self._observe_rosenblatt}.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(frame, t0, t1)
            if observe is not None:
                observe(args, result, t1 - t0)
            return result

        return wrapper

    # -- span bookkeeping -------------------------------------------------

    def _open(self, key):
        frame = [key, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        key, child = frame
        dur = t1 - t0
        self.calls[key] += 1
        self.total[key] += dur
        self.self_time[key] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.span_key.append(key)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_start.append(t0)
        self.span_end.append(t1)

    def _observe_anneal(self, args, result, seconds):
        n_patterns, epochs = len(args[0]), len(result[1])
        self.anneal_epochs += epochs
        bucket = epoch_bucket(n_patterns)
        if bucket is not None:
            self.anneal[bucket][0] += seconds
            self.anneal[bucket][1] += epochs
        if self._stack and self.names[self._stack[-1][0]][0] == "network":
            self.units_in_network += 1

    def _observe_rosenblatt(self, args, result, seconds):
        self.rosenblatt[0] += seconds
        self.rosenblatt[1] += len(result[1])

    def op_span(self):
        """Context manager for one operation's timed region: the root span."""
        return _OpSpan(self)

    # -- reading ----------------------------------------------------------

    def function(self, layer, name):
        """(calls, inclusive seconds) of one wrapped function."""
        k = self._key_of.get((layer, name))
        return (0, 0.0) if k is None else (self.calls[k], self.total[k])

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every recorded span."""
        out = {layer: [0, 0.0] for layer in (*LAYERS, BENCH)}
        for k, (layer, _) in enumerate(self.names):
            out[layer][0] += self.calls[k]
            out[layer][1] += self.self_time[k]
        return {layer: tuple(v) for layer, v in out.items()}

    def n_spans(self):
        return len(self.span_key)

    def write_spans(self, path):
        """One CSV row per span: layer, function, parent, start, end (s)."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("layer,function,parent,start_s,end_s\n")
            for k, p, t0, t1 in zip(self.span_key, self.span_parent,
                                    self.span_start, self.span_end):
                layer, name = self.names[k]
                parent = "" if p < 0 else "%s.%s" % self.names[p]
                fh.write(f"{layer},{name},{parent},{t0!r},{t1!r}\n")


class _OpSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.frame = self.tracer._open(0)
        self.tracer.active = True
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer.active = False
        self.tracer._close(self.frame, self.t0, t1)
        self.seconds = t1 - self.t0
        # the root span's children are top-level library calls, so their
        # time is the layers' self time in this operation
        self.layer_seconds = self.frame[1]
        return False
