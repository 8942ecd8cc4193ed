#!/usr/bin/env python3
"""Regenerate ``reference.json``: simulated time of every pool instance.

Simulated parallel time is the paper's quantity and must never change
under host-side work, so the benchmark checks each instance it runs
against a copy of the program's output made here.  Run from the root of
a source checkout (a few minutes on one core)::

    python3 perfbench/make_reference.py

Entries: ``<workload>/n<n>/i<index>/<problem>/<machine>`` for the
algorithm workloads at their measured and smoke sizes, and
``service_mixed/<index>`` for every run in the service's static pool.
"""

from __future__ import annotations

import json
import sys

from harness import REFERENCE_PATH, use_checkout_source


def algorithm_entries() -> dict:
    import algo_workloads as aw

    problems = aw.Problems()
    out = {}
    for workload, sizes in aw.SIZES.items():
        for n in sorted(set(sizes.values())):
            for index in range(aw.POOL[workload]):
                inputs = problems.inputs(workload, n, aw.instance_seed(index))
                for problem, kind in aw.ROUNDS[workload]:
                    machine = problems.machine(problem, kind, n)
                    problems.run[problem](machine, inputs[problem])
                    key = aw.reference_key(workload, n, index, problem, kind)
                    out[key] = float(machine.metrics.time)
                print(f"{workload} n={n} instance {index}", file=sys.stderr)
    return out


def service_entries() -> dict:
    import service_workload as sw

    from repro.service.model import run_driver

    out = {}
    for index, spec in enumerate(sw.static_pool()):
        req = sw.pool_request(spec, query=None)
        entry = run_driver(req.algorithm, req.family, req.run_params(),
                           req.backend, sw.MACHINE_SIZE)
        out[f"service_mixed/{index}"] = float(entry["sim_time"])
    return out


def main() -> int:
    use_checkout_source()
    entries = algorithm_entries()
    entries.update(service_entries())
    REFERENCE_PATH.write_text(json.dumps(entries, indent=0, sort_keys=True)
                              + "\n")
    print(f"wrote {len(entries)} entries to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
