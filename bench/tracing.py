"""Spans around calls into the library's layers, recorded from outside it.

`traced(tracer)` swaps each listed module attribute for a wrapper that opens
a span, calls the original and closes the span, and puts the originals back
on exit.  Functions are patched in the namespace that calls them (the
modules import them by name), so a wrapper sees exactly the calls made
across that layer boundary.  GF arithmetic is not wrapped: it runs millions
of times per trial and is counted in the self time of its callers.

Spans are kept in memory as [tag, id, parent, name, start_ns, end_ns] rows;
a span's self time is its duration minus the durations of its direct
children, which are the only spans it covers on one thread.  A call made
inside a span of the same name (recursion, as in codec_tensor.recurse_linear,
which runs about 33 000 times per tensor-toy decode) is counted but opens no
span of its own, so it stays in the self time of the outermost one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from streamcode import codec_repeat, codec_tensor, codes, ldc_binary, ldc_large, stream

# (namespace, attribute, span name, counter taking len(result) or None)
WRAPPED = [
    (codes, "codebook", "codes.codebook", None),
    (ldc_binary, "codebook", "codes.codebook", None),
    (ldc_large, "codebook", "codes.codebook", None),
    (codec_tensor, "codebook", "codes.codebook", None),
    (codes, "gf_solve", "codes.gf_solve", None),
    (ldc_binary, "unique_decode", "codes.unique_decode", None),
    (ldc_binary, "list_decode_concat", "codes.list_decode", "codes.list_candidates"),
    (codec_repeat, "sample_smooth_plan", "ldc_binary.plan", None),
    (codec_repeat, "sample_advice_plan", "ldc_binary.plan", None),
    (codec_repeat, "sample_advice", "ldc_binary.plan", None),
    (codec_repeat, "smooth_confidence_from_words", "ldc_binary.smooth_confidence", None),
    (codec_repeat, "decode_advice_from_words", "ldc_binary.advice_decode", None),
    (codec_repeat, "state_size_bits", "stream.state_size", None),
    (stream.SymbolStream, "read_run", "stream.read", None),
    (stream.SymbolStream, "read_next", "stream.read", None),
    (stream.SymbolStream, "skip", "stream.read", None),
    (codec_tensor, "gen_qlists", "ldc_large.gen_qlists", None),
    (codec_tensor, "confidence_from_words_large", "ldc_large.curve_scan", None),
    (codec_tensor, "recurse_linear", "codec_tensor.recurse", None),
]


class Tracer:
    """Spans, call counts and counters of one run, keyed by `tag`: "setup"
    until the first measured trial, then the trial number."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = defaultdict(lambda: defaultdict(int))
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.tag = "setup"
        self._stack: list = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.tag, sid, parent, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def count(self, name: str, amount: int):
        self.counters[self.tag][name] += amount

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][3] == name

    def self_times(self) -> dict:
        """{tag: {span name: self seconds}}."""
        covered = [0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for (tag, _, _, name, start, end), cov in zip(self.spans, covered):
            out[tag][name] += (end - start - cov) / 1e9
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("tag\tid\tparent\tname\tstart_ns\tend_ns\n")
            for row in self.spans:
                fh.write("\t".join(str(v) for v in row) + "\n")


def _wrap(tracer: Tracer, fn, name: str, counter: str | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[tracer.tag][name] += 1
        if tracer.inside(name):
            out = fn(*args, **kwargs)
        else:
            sid = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
        if counter is not None:
            tracer.count(counter, len(out))
        return out
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every call in WRAPPED through the tracer while the block runs."""
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in WRAPPED]
    try:
        for (ns, attr, name, counter), (_, _, fn) in zip(WRAPPED, saved):
            setattr(ns, attr, _wrap(tracer, fn, name, counter))
        yield tracer
    finally:
        for ns, attr, fn in saved:
            setattr(ns, attr, fn)
