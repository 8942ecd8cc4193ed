#!/usr/bin/env python3
"""Run each workload several times and print each metric's spread.

For every workload and every metric in ``BENCHMARK.json`` (end-to-end
with ``--trace 0``; per-layer with ``--trace 1``) this prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` and, for end-to-end metrics, the bound
and whether the spread is within a third of it.  Each run uses another
seed.  With ``--sets 2`` it makes a second set of runs of the same code
right after the first, on other seeds, and also prints how much worse
each end-to-end median of the second set is than the first's, against
the bound.  Run from the root of a source checkout::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --runs 5 --workload service_mixed

Exit code 0 when every spread is within a third of its bound and every
second-set median is within its bound, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        medians = []
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            results = []
            for i in range(args.runs):
                results.append(run_once(workload, first + i, args.seconds,
                                        args.trace))
                print(f"# {workload} set {k + 1} run {i + 1}/{args.runs} "
                      f"done", file=sys.stderr)
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"{workload} set {k + 1} (seeds {first}..{first + args.runs - 1}): "
                  f"attempted {[r['attempted'] for r in results]}, "
                  f"failed share {sorted(shares)}")
            meds = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med = meds[m["name"]] = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                line = (f"  {m['name']:34s} median {med:<12.6g} "
                        f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}")
                if "bound" in m:
                    ok = spread < m["bound"] / 3
                    steady &= ok
                    line += f"  bound {m['bound']:.0%} {'ok' if ok else 'WIDE'}"
                print(line)
            medians.append(meds)
        if len(medians) == 2:
            print(f"{workload}: second set against the first")
            for m in metrics:
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line = f"  {m['name']:34s} worse by {worse:8.2%}"
                if "bound" in m:
                    ok = worse <= m["bound"]
                    steady &= ok
                    line += f"  bound {m['bound']:.0%} {'ok' if ok else 'OVER'}"
                print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
