"""In-memory spans and counters recorded around the benchmark's calls into fbst.

A span records name, start, end, parent span and op id.  Kernel calls are
too many to keep one span each (tens of thousands per op), so the counting
kernel adds its calls, rows and time to the innermost open span instead;
that time counts as child time when a layer's self time is taken.

`NULL` records nothing: its spans are a shared no-op context and it wraps
nothing, so an untraced op runs the same calls as a traced one.  A
`StageClock` is NULL plus the op's stage times, each paired with a timing of
the reference computation made right after the stage; a `Tracer` keeps
those too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import time
from collections import defaultdict

import numpy as np
from fbst import GridModel

_NOOP = contextlib.nullcontext()

# The reference computation's time at the reference speed: about its time on
# an unloaded core of the 2-core Xeon of the README's reference figures.
REFERENCE_S = 0.0015
_STEPS = np.random.default_rng(0).standard_normal((150, 4, 5))


def reference():
    """A fixed computation shaped like fbst's inner loops: small numpy arrays
    updated in a Python loop, as a sampler step does.  It uses nothing of
    fbst, so a change to the program leaves its time alone."""
    x, acc = np.zeros((4, 5)), 0.0
    for step in _STEPS:
        proposal = x + 0.1 * step
        value = -0.5 * np.sum(proposal * proposal, axis=-1)
        accept = value > -1.0
        x[accept] = proposal[accept]
        acc += float(value[0])
    return acc


def time_reference():
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def at_reference_speed(times, reference_times, reference_s=REFERENCE_S):
    """A repeated step's time at the reference speed: the median over its
    repetitions of (its time / the reference's time next to it), in units
    of reference_s, the reference's time at that speed.  The machine's speed
    changes by up to 80 % over seconds to minutes and moves both times
    alike, so the ratio keeps the program's own cost and drops the
    machine's."""
    ratios = [t / r for t, r in zip(times, reference_times)]
    return reference_s * statistics.median(ratios)


class NullTracer:
    def span(self, name):
        return _NOOP

    def stage(self, name):
        return _NOOP

    def count(self, name, n=1):
        pass

    def model(self, model):
        return model

    def grid_model(self, masses, surprise):
        return GridModel(masses, surprise)


NULL = NullTracer()


class StageClock(NullTracer):
    """Times the top-level stages of an op, in order, into `stage_times`,
    and the reference computation after each stage into `reference_times`."""

    def __init__(self):
        self.stage_times, self.reference_times = [], []

    @contextlib.contextmanager
    def stage(self, name):
        started = time.perf_counter()
        yield
        self.stage_times.append(time.perf_counter() - started)
        self.reference_times.append(time_reference())


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: str
    end: float = math.nan
    kernel_s: float = 0.0
    kernel_calls: int = 0


class Tracer(StageClock):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self._stack: list[int] = []
        self.op = "setup"

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[self.op][name] += n

    def model(self, model):
        """The model with a log_kernel that counts and times its calls."""
        inner = model.log_kernel

        clock, spans, stack = time.perf_counter, self.spans, self._stack

        def counting_kernel(theta):
            started = clock()
            out = inner(theta)
            elapsed = clock() - started
            counts = self.counts[self.op]
            counts["model.kernel_calls"] += 1
            counts["model.kernel_rows"] += theta.size // theta.shape[-1]  # fbst passes arrays
            if stack:
                span = spans[stack[-1]]
                span.kernel_s += elapsed
                span.kernel_calls += 1
            return out

        return dataclasses.replace(model, log_kernel=counting_kernel)

    def grid_model(self, masses, surprise):
        return CountingGridModel(masses, surprise, tracer=self)

    def layer_totals(self, op):
        """name -> (total span seconds, self seconds, kernel seconds, kernel calls)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
        for i, s in spans:
            rec = out[s.name]
            duration = s.end - s.start
            rec[0] += duration
            rec[1] += duration - child[i] - s.kernel_s
            rec[2] += s.kernel_s
            rec[3] += s.kernel_calls
        return out

    def ops(self):
        return sorted({s.op for s in self.spans} - {"setup"}, key=int)

    def dump(self):
        return [dataclasses.asdict(s) for s in self.spans]


@dataclasses.dataclass(frozen=True)
class CountingGridModel(GridModel):
    """GridModel whose evalue calls are counted, decide's included."""

    tracer: object = dataclasses.field(default=NULL, compare=False)

    def evalue(self, mask):
        self.tracer.count("gfbst.grid_evalues")
        return super().evalue(mask)
