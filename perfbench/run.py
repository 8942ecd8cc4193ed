#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload per process.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload transient_envelope --seed 1 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --smoke    # brief, same checks

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the traced mode: the same work with span wrappers
around the program's layers (``layers.py``), reporting the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
everything above it is a human-readable report.  Exit code 2 means the
benchmark could not run (for example no ``src/repro`` in the checkout),
3 means an open-loop run whose backlog grew, which has no valid latency.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from harness import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    BenchError,
    InvalidRun,
    emit_result,
    import_seconds,
    median,
    metric,
    peak_rss_mb,
    print_table,
    use_checkout_source,
)

WORKLOADS = ("transient_envelope", "steady_state", "service_mixed")
SMOKE_SECONDS = 2.0
#: Fresh interpreters in which set-up times the program's imports.
IMPORT_REPEATS = 5
#: Order of the end-to-end metrics in the result object.
END_TO_END = ("setup_s", "peak_rss_mb", "solve_p50_s", "points_per_s")


def default_seconds() -> float:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise BenchError(f"missing {spec}; pass --seconds")
    return float(json.loads(spec.read_text())["run_seconds"])


def run_one(args) -> int:
    use_checkout_source()
    if args.workload == "service_mixed":
        import service_workload as workload_module
    else:
        import algo_workloads as workload_module
    imports = import_seconds(workload_module.MODULES, IMPORT_REPEATS)
    extra = {}
    if args.rate_scale != 1.0:
        if args.workload != "service_mixed":
            raise BenchError("--rate-scale applies to service_mixed only")
        extra["rate_scale"] = args.rate_scale
    out = workload_module.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, median(imports),
                              **extra)
    tally = out["tally"]
    e2e = dict(out["e2e"])
    e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    e2e = {name: e2e[name] for name in END_TO_END}
    report = out["report"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  smoke {args.smoke}")
    for key, value in report.items():
        print(f"#   {key}: {value}")
    print(f"#   attempted {tally.attempted}  failed {tally.failed}")
    for note in tally.notes:
        print(f"#   FAILED: {note}")
    title = "end-to-end" if not args.trace else \
        "end-to-end (untraced calls of the traced run)"
    print_table(title, e2e)
    if args.trace:
        print_table("per-layer (traced calls)", out["layer"])
        path = OUT_DIR / f"{args.workload}.spans.npz"  # the latest run
        out["tracer"].write_spans(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    emit_result(tally, out["layer"] if args.trace else e2e)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}")
            status = status or proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"] or not result["correct"]:
            status = status or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and short runs, same checks")
    parser.add_argument("--rate-scale", type=float, default=1.0,
                        help="service_mixed only: multiply the offered "
                             "rates (for the capacity table in README.md)")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else default_seconds()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"# wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
