"""The two algorithm workloads: paper drivers called directly, one thread.

``transient_envelope``: Theorem 4.1 ``closest_point_sequence`` on random
d=2, k=2 systems and Theorem 4.6 ``containment_intervals`` on converging
swarms, n = 4096, on a mesh of ``lambda_mesh_size`` PEs and a hypercube of
``lambda_hypercube_size`` PEs.

``steady_state``: Table 3 ``steady_hull`` and ``steady_closest_pair`` on
random d=2, k=2 systems, n = 1024, on a mesh and a hypercube of n PEs.

A *round* is the four driver calls of a workload, alternating mesh and
hypercube, on one input instance per problem.  A run does whole rounds
until ``--seconds`` have passed.  Instances come from a fixed pool of
:data:`POOL` generator seeds per size, in an order drawn from the run's
seed, so the simulated time of every instance can be checked against
``reference.json``.  Times are reported at a nominal host speed
(``harness.HostSpeed``): the run samples a calibration loop before every
driver call.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from harness import BenchError, HostSpeed, Tally, load_reference, median, metric
from layer_report import registry_values

#: Instances per workload: as many as the rounds a 32 s run makes, so
#: every run visits all of them (in an order drawn from its seed) and
#: runs differ by the host's speed, not by which instances they drew.
POOL = {"transient_envelope": 3, "steady_state": 4}
SETUP_REPEATS = 5
BOX = (60.0, 60.0)
#: n per workload for the measured and the smoke setting.
SIZES = {
    "transient_envelope": {"full": 4096, "smoke": 256},
    "steady_state": {"full": 1024, "smoke": 256},
}
#: The four calls of a round: (problem, machine).
ROUNDS = {
    "transient_envelope": [("closest", "mesh"), ("closest", "hypercube"),
                           ("containment", "mesh"),
                           ("containment", "hypercube")],
    "steady_state": [("hull", "mesh"), ("hull", "hypercube"),
                     ("pair", "mesh"), ("pair", "hypercube")],
}

#: The input kind each problem runs on.
INPUT = {"closest": "system", "containment": "swarm", "hull": "system",
         "pair": "system"}


def instance_seed(index: int) -> int:
    """Generator seed of pool instance ``index`` (fixed, seed-independent)."""
    return 7001 + index


#: The program's modules this workload imports (set-up times them).
MODULES = ("repro.core.containment", "repro.core.neighbors",
           "repro.core.steady", "repro.machines.machine",
           "repro.trace.registry")


class Problems:
    """Input builders, machine sizes and drivers, bound after import."""

    def __init__(self) -> None:
        from repro.core.containment import containment_intervals
        from repro.core.neighbors import closest_point_sequence
        from repro.core.steady.hull import steady_hull
        from repro.core.steady.neighbors import steady_closest_pair
        from repro.kinetics.davenport_schinzel import (
            lambda_hypercube_size,
            lambda_mesh_size,
        )
        from repro.kinetics.motion import converging_swarm, random_system
        from repro.machines.machine import hypercube_machine, mesh_machine

        self.factory = {"mesh": mesh_machine, "hypercube": hypercube_machine}
        self.pe = {
            ("closest", "mesh"): lambda n: lambda_mesh_size(n - 1, 4),
            ("closest", "hypercube"): lambda n: lambda_hypercube_size(n - 1, 4),
            ("containment", "mesh"): lambda n: lambda_mesh_size(n, 1),
            ("containment", "hypercube"): lambda n: lambda_hypercube_size(n, 1),
            ("hull", "mesh"): lambda n: n,
            ("hull", "hypercube"): lambda n: n,
            ("pair", "mesh"): lambda n: n,
            ("pair", "hypercube"): lambda n: n,
        }
        self.make = {
            "system": lambda n, s: random_system(n, d=2, k=2, seed=s),
            "swarm": lambda n, s: converging_swarm(n, seed=s),
        }
        self.run = {
            "closest": closest_point_sequence,
            "containment": lambda m, s: containment_intervals(m, s, BOX),
            "hull": steady_hull,
            "pair": steady_closest_pair,
        }

    def inputs(self, workload: str, n: int, seed: int) -> dict:
        """Each problem's input instance (one system shared where equal)."""
        built = {kind: self.make[kind](n, seed)
                 for kind in {INPUT[p] for p, _ in ROUNDS[workload]}}
        return {p: built[INPUT[p]] for p, _ in ROUNDS[workload]}

    def machine(self, problem: str, kind: str, n: int):
        return self.factory[kind](self.pe[(problem, kind)](n))


def reference_key(workload: str, n: int, index: int, problem: str,
                  kind: str) -> str:
    return f"{workload}/n{n}/i{index}/{problem}/{kind}"


# ----------------------------------------------------------------------
# Checks (outside every timed window)
# ----------------------------------------------------------------------
def check_output(problem: str, system, out, rng) -> str | None:
    if problem == "closest":
        finite = [p.lo for p in out.pieces if p.lo > 0]
        horizon = 1.5 * (max(finite) if finite else 1.0) + 1.0
        return checks.check_closest_sequence(system, 2, out,
                                             rng.uniform(0, horizon, 32))
    if problem == "containment":
        return checks.check_containment(system, out, BOX,
                                        rng.uniform(0, 30, 64))
    C = checks.motion_coeffs(system, 2)
    if problem == "hull":
        return checks.check_steady_hull(C, out)
    return checks.check_steady_closest_pair(C, out)


def same_across_machines(problem: str, a, b) -> str | None:
    """Mesh and hypercube must agree on the answer."""
    if problem == "closest":
        la, lb = a.labels(), b.labels()
        return None if la == lb else "mesh and hypercube label sequences differ"
    if problem == "containment":
        ok = len(a) == len(b) and all(
            abs(x - y) <= 1e-9 * max(1.0, abs(x))
            for u, v in zip(a, b) for x, y in zip(u, v))
        return None if ok else "mesh and hypercube intervals differ"
    if problem == "hull":
        return None if sorted(a) == sorted(b) else \
            "mesh and hypercube hulls differ"
    return None if sorted(a) == sorted(b) else \
        "mesh and hypercube closest pairs differ"


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool, import_s: float) -> dict:
    """Run the workload; returns tally, metrics and the report extras.

    ``import_s`` is the time to import :data:`MODULES` (set-up counts it).
    """
    problems = Problems()
    host = HostSpeed()
    reference = load_reference()
    n = SIZES[workload]["smoke" if smoke else "full"]
    pool = POOL[workload]
    order = np.random.default_rng(seed).permutation(pool)

    # Set-up, repeated (the median is reported): input generation,
    # machine construction, and one small call per (problem, machine) so
    # lazy imports and one-time initialisation finish before timing.
    setups = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        first = problems.inputs(workload, n, instance_seed(int(order[0])))
        small = problems.inputs(workload, 64, 1)
        for problem, kind in ROUNDS[workload]:
            problems.run[problem](problems.machine(problem, kind, 64),
                                  small[problem])
            problems.machine(problem, kind, n)
        setups.append(time.perf_counter() - t0)
    setup_raw_s = import_s + median(setups)

    tally = Tally()
    tracer = None
    if traced:
        from layers import LayerTracer

        tracer = LayerTracer()
    times, traced_times, untraced_pair = [], [], []
    calls: list[str] = []
    points = 0
    reg0 = registry_values()
    t_start = time.perf_counter()
    rnd = 0
    # Whole rounds; another one starts while at least half a round's
    # time (at the run's mean round length so far) is left.
    while rnd == 0 or (time.perf_counter() - t_start) * (1 + 0.5 / rnd) \
            < seconds:
        index = int(order[rnd % pool])
        inputs = first if rnd == 0 else \
            problems.inputs(workload, n, instance_seed(index))
        rng = np.random.default_rng([seed, rnd])
        outputs: dict = {}
        for problem, kind in ROUNDS[workload]:
            system = inputs[problem]
            passes = [False, True] if traced else [False]
            for with_trace in passes:
                machine = problems.machine(problem, kind, n)
                if with_trace:
                    tracer.install()
                else:
                    host.sample()
                t0 = time.perf_counter()
                try:
                    out = problems.run[problem](machine, system)
                    err = None
                except Exception as exc:  # an operation that fails counts
                    out, err = None, f"{problem}/{kind} raised {exc!r}"
                dt = time.perf_counter() - t0
                if with_trace:
                    tracer.uninstall()
                    traced_times.append(dt)
                    untraced_pair.append(times[-1])
                else:
                    times.append(dt)
                    points += len(system)
                    calls.append(f"{problem}/{kind}/i{index}:{dt:.3f}")
                if err is None:
                    err = check_output(problem, system, out, rng)
                if err is None:
                    key = reference_key(workload, n, index, problem, kind)
                    want = reference.get(key)
                    got = float(machine.metrics.time)
                    if want is None:
                        raise BenchError(f"reference.json has no entry {key}")
                    if got != want:
                        err = f"{key}: simulated time {got!r} != {want!r}"
                if err is None and kind == "hypercube":
                    err = same_across_machines(problem, outputs.get(problem),
                                               out)
                if kind == "mesh":
                    outputs[problem] = out
                tally.op(err is None, err or "")
        rnd += 1
    reg1 = registry_values()

    scale = host.scale()
    e2e = {
        "setup_s": metric(setup_raw_s * scale, "s"),
        "solve_p50_s": metric(median(times) * scale, "s"),
        "points_per_s": metric(points / sum(times) / scale, "points/s"),
    }
    report = {"rounds": rnd, "n": n, "call_s": " ".join(calls),
              "import_s": import_s, "setup_repeats_s": setups,
              "calibration_mean_ms": 1e3 * host.mean_s(),
              "host_scale": scale,
              "raw": {"setup_s": setup_raw_s, "solve_p50_s": median(times),
                      "points_per_s": points / sum(times)}}
    layer = None
    if traced:
        from layer_report import layer_metrics

        registry = {k: reg1[k] - reg0[k] for k in reg1}
        layer = layer_metrics(tracer, n_ops=len(traced_times),
                              registry=registry,
                              registry_ops=len(times) + len(traced_times))
        layer["trace.overhead_pct"] = metric(
            100.0 * (sum(traced_times) / sum(untraced_pair) - 1.0), "%")
        layer["host.calibration_ms"] = metric(1e3 * host.mean_s(), "ms")
    return {"tally": tally, "e2e": e2e, "layer": layer, "report": report,
            "tracer": tracer}
