"""The per-layer metrics of a traced run, named as in ``BENCHMARK.json``.

Every workload reports every metric; a layer the workload never enters
reads 0.  Times and counts are per *operation*: one driver call in the
algorithm workloads, one request or write in ``service_mixed``.
"""

from __future__ import annotations

from harness import metric

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("kinetics.root_s", "s/op"),
    ("kinetics.polys_rooted", "count/op"),
    ("kinetics.polys_built", "count/op"),
    ("core.family.crossing_s", "s/op"),
    ("core.family.crossing_misses", "count/op"),
    ("core.family.crossing_hit_ratio", "ratio"),
    ("core.envelope.combine_s", "s/op"),
    ("core.envelope.combines", "count/op"),
    ("machines.charge_s", "s/op"),
    ("machines.charge_calls", "count/op"),
    ("ops.plan_s", "s/op"),
    ("ops.plan_misses", "count/op"),
    ("ops.plan_compile_s", "s/op"),
    ("ops.vexec_fallbacks", "count/op"),
    ("ops.vexec_lowered_ratio", "ratio"),
    ("core.steady.compares", "count/op"),
    ("geometry.hull_s", "s/op"),
    ("service.plan_s", "s/op"),
    ("service.worker_busy_s", "s/op"),
    ("service.utilization", "ratio"),
    ("service.driver_p50_ms", "ms"),
    ("service.payload_s", "s/op"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.mean_batch_size", "count"),
    ("service.dedup_hits", "count/op"),
    ("service.invalidations", "count/op"),
    ("service.miss_p99_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.write_visible_p50_ms", "ms"),
    ("service.generator_lag_p99_ms", "ms"),
    ("service.backlog_end", "count"),
    ("incremental.update_s", "s/op"),
    ("incremental.certificates", "count/op"),
    ("incremental.events", "count/op"),
    ("incremental.owner_delete_ms", "ms"),
    ("obs.telemetry_s", "s/op"),
    ("obs.events_dropped", "count/op"),
    ("obs.spans_dropped", "count/op"),
    ("trace.spans", "count/op"),
    ("trace.overhead_pct", "%"),
    ("host.calibration_ms", "ms"),
]

#: Registry counters the per-layer metrics read (always on, so their
#: change covers traced and untraced operations alike).
REGISTRY_KEYS = ("crossing_cache.hits", "crossing_cache.misses",
                 "movement_plans.misses", "movement_plans.compile_seconds",
                 "vexec.fallbacks", "vexec.lowered")


def registry_values() -> dict:
    from repro.trace.registry import registry_snapshot

    snap = registry_snapshot()
    return {k: float(snap.get(k, 0)) for k in REGISTRY_KEYS}


#: Span layers reported as self time (``<layer>_s``), by metric name.
_SELF_TIME = {
    "kinetics.root_s": "kinetics.root",
    "core.family.crossing_s": "core.family.crossing",
    "core.envelope.combine_s": "core.envelope.combine",
    "machines.charge_s": "machines.charge",
    "ops.plan_s": "ops.plan",
    "geometry.hull_s": "geometry.hull",
    "service.plan_s": "service.plan",
    "service.payload_s": "service.payload",
    "incremental.update_s": "incremental.update",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, *, n_ops: int, registry: dict,
                  registry_ops: int, service: dict | None = None) -> dict:
    """All :data:`PER_LAYER` metrics.

    ``tracer`` holds the spans of ``n_ops`` traced operations;
    ``registry`` is the change of the program's registry counters over
    ``registry_ops`` operations (traced or not: the counters are always
    on); ``service`` carries figures only the service workload has.
    """
    totals = tracer.layer_totals()
    ops = max(1, n_ops)
    rops = max(1, registry_ops)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, layer in _SELF_TIME.items():
        values[name] = totals[layer]["self_s"] / ops
    values["kinetics.polys_rooted"] = totals["kinetics.root"]["items"] / ops
    values["kinetics.polys_built"] = totals["kinetics.polys_built"]["calls"] / ops
    values["core.envelope.combines"] = (
        totals["core.envelope.combine"]["calls"] / ops)
    values["machines.charge_calls"] = totals["machines.charge"]["calls"] / ops
    values["core.steady.compares"] = (
        totals["core.steady.compares"]["calls"] / ops)
    values["service.worker_busy_s"] = totals["service.worker"]["total_s"] / ops
    values["obs.telemetry_s"] = totals["obs.telemetry"]["total_s"] / ops
    values["trace.spans"] = tracer.span_count() / ops

    hits = registry.get("crossing_cache.hits", 0.0)
    misses = registry.get("crossing_cache.misses", 0.0)
    values["core.family.crossing_misses"] = misses / rops
    values["core.family.crossing_hit_ratio"] = _ratio(hits, hits + misses)
    values["ops.plan_misses"] = registry.get("movement_plans.misses", 0.0) / rops
    values["ops.plan_compile_s"] = (
        registry.get("movement_plans.compile_seconds", 0.0) / rops)
    fallbacks = registry.get("vexec.fallbacks", 0.0)
    lowered = registry.get("vexec.lowered", 0.0)
    values["ops.vexec_fallbacks"] = fallbacks / rops
    values["ops.vexec_lowered_ratio"] = _ratio(lowered, lowered + fallbacks)
    values.update(service or {})
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}
