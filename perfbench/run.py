"""Benchmark of the fbst pipeline: one seeded workload per run, one op at a time.

    python3 perfbench/run.py --workload select-fbst --seed 0 --seconds 20 --trace 0

Runs from a checkout of the repository and imports fbst from its `src/`.
It sets the workload up, then repeats the workload's op (equal work each
time, one caller, closed loop) until --seconds have passed, checks the
outputs against oracles.py, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 spends the first half
of the time on untraced ops and the second half on traced replays of the
same op, reports the per-layer metrics, prints the tracing overhead and
writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("select-fbst", "gaussian-batch", "constrained-ev", "exact-calculus")
IMPORT_PROBES = 3  # fresh interpreters timing `import fbst`, besides this one
SETUPS = 3  # in-process set-ups per run
# Each `import fbst` is paired with a fresh interpreter's import of this
# module, which uses nothing of fbst.  Imports slow down with the machine
# by less than the numpy reference does, and by as much as other imports.
IMPORT_REFERENCE = "scipy.stats"
IMPORT_REFERENCE_S = 1.0  # about its import time in the machine's fast stretches
# one BLAS thread: the benchmark runs one op at a time and starts no threads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "t = time.perf_counter(); import {}; print(time.perf_counter() - t)")


def import_fbst():
    if not (SRC / "fbst" / "__init__.py").is_file():
        sys.exit(f"error: no fbst package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import fbst

    elapsed = time.perf_counter() - started
    if SRC not in Path(fbst.__file__).resolve().parents:
        sys.exit(f"error: imported fbst from {fbst.__file__}, not from {SRC}")
    return elapsed


def probe_import(module):
    """Seconds a fresh interpreter takes to import `module`."""
    done = subprocess.run([sys.executable, "-c", PROBE.format(module), str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def same(a, b):
    """Exact equality of op outputs on the keys of `a`."""
    import numpy as np

    for key, value in a.items():
        other = b[key]
        if isinstance(value, (np.ndarray, list)):
            if not np.array_equal(np.asarray(value), np.asarray(other), equal_nan=True):
                return False
        elif value != other:
            return False
    return True


class Loop:
    """Repeats one op for a time budget, keeping each op's stage and
    reference times and checking that every op returns the first op's
    output."""

    def __init__(self, clock):
        self.clock, self.stages, self.references, self.attempted, self.failed = clock, [], [], 0, 0
        self.first, self.mismatch = None, 0

    def run(self, op, seconds, reference=None):
        deadline = time.perf_counter() + seconds
        while self.attempted == 0 or time.perf_counter() < deadline:
            self.attempted += 1
            self.clock.stage_times, self.clock.reference_times = [], []
            try:
                out = op()
            except Exception:  # an op that raises counts as failed; the run goes on
                self.failed += 1
                traceback.print_exc()
                continue
            self.stages.append(self.clock.stage_times)
            self.references.append(self.clock.reference_times)
            if self.first is None:
                self.first = out
            if not same(reference or self.first, out):
                self.mismatch += 1
        return self

    @property
    def times(self):
        return [sum(stages) for stages in self.stages]

    @property
    def op_s(self):
        """The op's time at the reference speed: each stage's, summed."""
        import spans

        return sum(spans.at_reference_speed(times, refs)
                   for times, refs in zip(zip(*self.stages), zip(*self.references)))


def per_layer(tr, ess):
    """Each layer's figure: its share of the set-up plus its share of the
    median traced op.  Times are span totals; sampler.self_s leaves out the
    kernel calls made inside the sampler's spans."""

    def one(op):
        tot, cnt = tr.layer_totals(op), tr.counts[op]
        span = {name: rec[0] for name, rec in tot.items()}.get
        opt = ("optimizer.optimize", "optimizer.infeasible")
        return {
            "model.build_s": span("model.build", 0.0),
            "model.kernel_calls": cnt["model.kernel_calls"],
            "model.kernel_rows": cnt["model.kernel_rows"],
            "model.kernel_s": sum(rec[2] for rec in tot.values()),
            "expressions.compile_s": span("expressions.compile", 0.0),
            "sampler.sample_s": span("sampler.sample", 0.0),
            "sampler.self_s": tot["sampler.sample"][1] if "sampler.sample" in tot else 0.0,
            "sampler.steps": cnt["sampler.steps"],
            "sampler.draws": cnt["sampler.draws"],
            "truth.ladder_s": span("truth.ladder", 0.0),
            "optimizer.optimize_s": sum(span(n, 0.0) for n in opt),
            "optimizer.kernel_calls": sum(tot[n][3] for n in opt if n in tot),
            "optimizer.restarts": cnt["optimizer.restarts"],
            "optimizer.multistart": cnt["optimizer.multistart"],
            "optimizer.annealing": cnt["optimizer.annealing"],
            "optimizer.infeasible_s": span("optimizer.infeasible", 0.0),
            "evalue.ess_s": span("evalue.ess", 0.0),
            "evalue.standardize_s": span("evalue.standardize", 0.0),
            "evalue.report_s": span("evalue.report", 0.0),
            "composition.convolve_s": span("composition.convolve", 0.0),
            "composition.pairs": cnt["composition.pairs"],
            "gfbst.verify_s": span("gfbst.verify", 0.0),
            "gfbst.grid_evalues": cnt["gfbst.grid_evalues"],
            "modelsel.table_s": span("modelsel.table", 0.0),
        }

    setup, ops = one("setup"), [one(op) for op in tr.ops()]
    values = {name: setup[name] + statistics.median(o[name] for o in ops) for name in setup}
    values.update((name, round(v)) for name, v in values.items() if unit(name) == "count")
    sample_s, steps, draws = values["sampler.sample_s"], values["sampler.steps"], values.pop("sampler.draws")
    values["sampler.step_us"] = 1e6 * sample_s / steps if steps else 0.0
    values["sampler.draws_per_s"] = draws / sample_s if sample_s else 0.0
    values["sampler.ess_per_draw"] = sum(ess) / draws if draws else 0.0
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_s = [import_fbst()]
    import spans
    import workloads

    spans.reference()  # the first call pays numpy's first-use costs

    work = workloads.WORKLOADS[args.workload]
    failures = []
    if args.trace:
        tr = spans.Tracer()
        state = work.setup(args.seed, tr)
        clock = spans.StageClock()
        untraced = Loop(clock).run(lambda: work.replay(state, clock), args.seconds / 2)
        traced = Loop(tr)

        def traced_op():
            tr.op = str(traced.attempted)
            return work.replay(state, tr)

        with workloads.instrument(tr):
            traced.run(traced_op, args.seconds / 2, untraced.first)
        loops = (untraced, traced)
    else:
        import_refs = [probe_import(IMPORT_REFERENCE)]  # pairs with this process's import
        for _ in range(IMPORT_PROBES):
            import_s.append(probe_import("fbst"))
            import_refs.append(probe_import(IMPORT_REFERENCE))
        build_s, build_refs = [], []
        for _ in range(SETUPS):
            started = time.perf_counter()
            state = work.setup(args.seed, spans.NULL)
            build_s.append(time.perf_counter() - started)
            build_refs.append(spans.time_reference())
        clock = spans.StageClock()
        loop = Loop(clock).run(lambda: work.replay(state, clock), args.seconds)
        loops = (loop,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = loops[0].first
    if first is None:
        sys.exit("error: every op failed")
    failures += work.check(state, first)
    for loop in loops:
        if loop.mismatch:
            failures.append(f"{loop.mismatch} ops returned another output than the first")

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    times = loops[0].times
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed; "
          f"untraced ops: fastest {min(times):.4f} s, median {statistics.median(times):.4f} s, "
          f"p90 {statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]:.4f} s "
          f"(of {len(times)}); wall {time.perf_counter() - STARTED:.2f} s")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in per_layer(tr, work.ess(state, first)).items()}
        overhead = traced.op_s - untraced.op_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"trace overhead: traced op_s {traced.op_s:.6f} - untraced {untraced.op_s:.6f}"
              f" = {overhead:+.6f} s")
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tr.dump(), fh)
    else:
        setup_s = (spans.at_reference_speed(import_s, import_refs, IMPORT_REFERENCE_S)
                   + spans.at_reference_speed(build_s, build_refs))
        print(f"setup: import fbst {[round(t, 4) for t in import_s]} s, "
              f"import {IMPORT_REFERENCE} {[round(t, 4) for t in import_refs]} s; "
              f"build {[round(t, 4) for t in build_s]} s, reference after each build "
              f"{[round(1e3 * t, 3) for t in build_refs]} ms")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": loop.op_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def unit(name):
    for suffix, unit_name in (("_per_s", "1/s"), ("_per_draw", "1/draw"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit_name
    return "count"


if __name__ == "__main__":
    main()
