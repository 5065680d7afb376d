"""Two sets of benchmark runs of the same commit, compared against the bounds.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json ten times, for its
run_seconds, set 1 on seeds 1..10 and set 2 on seeds 101..110.  The two sets
are interleaved: for each i, every workload runs set 1's i-th seed and then
set 2's, so a stretch of slow machine time falls on both sets alike.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median), how much worse
the second median is than the first, and the bound.  It exits 1 unless
every run is correct, the failed share is the same in both sets, and every
spread and every change of median is within the metric's bound.  The raw
results go to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(1, RUNS + 1):
        for w in workloads:
            for s in range(SETS):
                seed = 100 * s + i
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results))

    print(f"\n{'workload':16} {'metric':12} {'median 1 [q1, q3]':32} {'median 2 [q1, q3]':32} "
          f"{'spread 1':>8} {'spread 2':>8} {'worse':>7} {'bound':>6}")
    ok = True
    for w, sets in results.items():
        correct = all(r["correct"] for runs in sets for r in runs)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        if len(shares) > 1 or not correct:
            ok = False
            print(f"{w}: failed shares {sorted(shares)}, all correct: {correct}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = (second[0] - first[0]) / first[0]
            worse = worse if metric["better"] == "lower" else -worse
            ok &= worse <= bound and first[3] <= bound and second[3] <= bound
            cells = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for m, q1, q3, _ in (first, second)]
            print(f"{w:16} {name:12} {cells[0]:32} {cells[1]:32} {first[3]:8.3f} {second[3]:8.3f} "
                  f"{worse:+7.3f} {bound:6.3f}")
    print("\nwithin bounds" if ok else "\nNOT within bounds")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
