"""Tracing from outside the library.

`Tracer.installed()` replaces, for the duration of a `with` block, the
module-level names that `bsg`, `baselines`, `serialize` and `evaluate` look
up at call time. Each wrapper passes its arguments and result through
unchanged. Coarse boundaries (train call, optimizer step, save, load,
query, eval call) become spans; per-window calls only add to a count and a
total time. A name that no longer exists is skipped, so its count stays 0.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from bayesgram import baselines, bsg, evaluate, serialize

perf_counter = time.perf_counter

# (module, attribute, counter key) of per-call functions: counted and timed
COUNTED = [
    (bsg, "infer_posterior", "encoder.forward"),
    (bsg, "encoder_backward", "encoder.backward"),
    (serialize, "kl_divergence", "gauss.kl"),
    (evaluate, "kl_divergence", "gauss.kl"),
    (serialize, "cosine", "gauss.cosine"),
    (evaluate, "cosine", "gauss.cosine"),
    (baselines, "clip_params", "baselines.clip"),
]
# called inside another public call, so recorded as a child span
SPANNED = [
    (evaluate, "best_f1_threshold", "evaluate.best_f1"),
]


class Span:
    __slots__ = ("name", "label", "start", "end", "parent")

    def __init__(self, name, label, start, parent):
        self.name, self.label, self.start, self.parent = name, label, start, parent
        self.end = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Spans and per-label counters, kept in memory until the run ends.

    The label names what the benchmark is doing (a model kind while it
    trains, "read" or "eval" afterwards), so every counter splits by it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.label = None
        self.counters = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        self.step_seconds = []
        self.adam_state_bytes = {}
        self.adam_bytes_per_step = {}

    # ------------------------------------------------------------- spans
    @contextmanager
    def span(self, name):
        s = Span(name, self.label, perf_counter(),
                 self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def span_seconds(self, name, label=None):
        return sum(s.seconds for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def counter(self, key, label=None):
        """(seconds, calls) of a counter, for one label or summed over all."""
        labels = [label] if label is not None else list(self.counters)
        secs = sum(self.counters[lab][key][0] for lab in labels if lab in self.counters)
        calls = sum(self.counters[lab][key][1] for lab in labels if lab in self.counters)
        return secs, calls

    # ----------------------------------------------------------- wrappers
    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            slot = self.counters[self.label][key]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += perf_counter() - t0
                slot[1] += 1
        return wrapper

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _stream(self, fn):
        """Time each next() of the window stream."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            slot = self.counters[self.label]["corpus.stream"]
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    slot[0] += perf_counter() - t0
                    return
                slot[0] += perf_counter() - t0
                slot[1] += 1
                yield item
        return wrapper

    def _adam(self, cls):
        """Build the real optimizer, then time its step on the instance."""
        def factory(*args, **kwargs):
            opt = cls(*args, **kwargs)
            step = opt.step
            label = self.label
            # computed, not measured: gradient read, m and v read and
            # written, parameter read and written, per Adam step
            self.adam_bytes_per_step[label] = sum(
                p.size * (8 + 16 + 16 + 2 * p.itemsize) for p in opt.params.values())
            self.adam_state_bytes[label] = sum(
                m.nbytes for m in opt.m.values()) + sum(v.nbytes for v in opt.v.values())
            slot = self.counters[label]["optim.step"]

            def timed_step(*a, **k):
                with self.span("optim.step") as s:
                    result = step(*a, **k)
                slot[0] += s.seconds
                slot[1] += 1
                self.step_seconds.append(s.seconds)
                return result

            opt.step = timed_step
            return opt
        return factory

    @contextmanager
    def installed(self):
        patches = []
        for module, attr, key in COUNTED:
            if hasattr(module, attr):
                patches.append((module, attr, self._counted(getattr(module, attr), key)))
        for module, attr, name in SPANNED:
            if hasattr(module, attr):
                patches.append((module, attr, self._spanned(getattr(module, attr), name)))
        if hasattr(bsg, "iter_training_windows"):
            patches.append((bsg, "iter_training_windows",
                            self._stream(bsg.iter_training_windows)))
        if hasattr(bsg, "Adam"):
            patches.append((bsg, "Adam", self._adam(bsg.Adam)))
        saved = [(m, a, getattr(m, a)) for m, a, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def median_step_ms(self):
        return float(np.median(self.step_seconds)) * 1e3 if self.step_seconds else 0.0
