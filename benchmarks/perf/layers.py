"""Metric tables of the perf ledger and how the traced run fills them.

Layers are the repo's modules.  Three kinds of per-layer number:

* ``*_busy_s``  host seconds inside the wrapped public call;
* ``*_self_s``  busy minus the time its child spans cover — the most a
  change to that layer alone can save, since the simulator is
  single-threaded and nothing overlaps;
* ``*_calls``, counts and ratios — exact for a fixed seed; a change meant
  only to speed the simulator leaves them bit-identical.

``moves`` records, before anything is measured, which end-to-end metric
on which workload a layer metric should move (README.md has the same
table with today's shares).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

LAYERS = ("sim", "gateway", "engine", "scheduler", "costs", "metrics",
          "cluster", "tenancy", "prefix", "disagg", "telemetry", "workload")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: relative bound on a same-seed comparison (compare.py); None = exact:
    #: simulated metrics repeat bit for bit, so any difference is a change
    #: of modelled behaviour
    bound: Optional[float]
    #: bound in BENCHMARK.json, where the driver compares runs made with
    #: *different* seeds minutes apart, so it must sit three times above
    #: the run-to-run spread seen on this box (host times drift by up to
    #: 9% over minutes); None = not reported to the driver because the
    #: metric's seed-to-seed spread exceeds any bound the driver accepts
    driver_bound: Optional[float]


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.15, 0.25),
    EndToEnd("replay_wall_s", "s", "lower", 0.10, 0.25),
    EndToEnd("requests_per_host_s", "1/s", "higher", 0.10, 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, 0.10),
    EndToEnd("sim_ttft_p50_s", "sim_s", "lower", None, None),
    EndToEnd("sim_ttft_p99_s", "sim_s", "lower", None, None),
    EndToEnd("sim_e2e_p50_s", "sim_s", "lower", None, None),
    EndToEnd("sim_time_per_token_mean_s", "sim_s", "lower", None, None),
    EndToEnd("sim_token_throughput", "tokens/sim_s", "higher", None, 0.15),
    EndToEnd("sim_goodput_rps", "1/sim_s", "higher", None, 0.15),
    EndToEnd("sim_slo_attainment", "ratio", "higher", None, None),
]
#: absolute floor under setup_s's relative bound (a 0.1 s setup cannot be
#: held to 15%)
SETUP_FLOOR_S = 0.1


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


_DECODE = "replay_wall_s, requests_per_host_s on decode_long"
_CHURN = "requests_per_host_s on churn_short"
_DASH = "replay_wall_s, peak_rss_mb on dashboard_keepall"
_CLUSTER = "replay_wall_s on cluster_bursty, tenants_overload"
_TENANTS = "replay_wall_s on tenants_overload"
_SESSIONS = "replay_wall_s on sessions_disagg_prefix"
_NONE = "none: describes the run"


def _rows(prefix: str, moves: str, *specs: str) -> List[PerLayer]:
    """``specs`` are ``suffix:unit:better`` triples under one layer."""
    rows = []
    for spec in specs:
        suffix, unit, better = spec.split(":")
        rows.append(PerLayer(f"{prefix}.{suffix}", unit, better, moves))
    return rows


PER_LAYER: List[PerLayer] = [
    *_rows("host", _NONE, "calibration_s:s:lower",
           "trace_overhead_ratio:ratio:lower", "gc_collections:count:lower"),
    *_rows("workload", _NONE, "generate_s:s:lower", "requests:count:higher",
           "sim_duration_s:sim_s:lower", "self_s:s:lower"),
    *_rows("sim", _CHURN + "; sim.emit_* on tenants_overload",
           "emit_calls:count:lower", "emit_busy_s:s:lower",
           "queue_push_calls:count:lower", "queue_push_busy_s:s:lower",
           "self_s:s:lower"),
    *_rows("gateway", _CHURN, "ingest_calls:count:lower",
           "ingest_busy_s:s:lower", "replay_self_s:s:lower",
           "step_self_s:s:lower", "self_s:s:lower"),
    *_rows("engine", _DECODE + "; diluted on cluster_bursty",
           "steps:count:lower", "step_busy_s:s:lower", "step_self_s:s:lower",
           "host_us_per_step:us:lower", "idle_step_ratio:ratio:lower",
           "admit_calls:count:lower", "admit_self_s:s:lower",
           "iteration_cost_self_s:s:lower", "retire_self_s:s:lower",
           "self_s:s:lower"),
    PerLayer("engine.mean_batch_size", "count", "higher",
             "sim_token_throughput up and sim_time_per_token_mean_s up "
             "(larger batches lengthen token gaps)"),
    *_rows("engine", "sim_ttft_p99_s on decode_long",
           "swap_ins:count:lower", "preemptions:count:lower"),
    *_rows("scheduler", _DECODE + "; scheduler.add_* on churn_short",
           "schedule_calls:count:lower", "schedule_busy_s:s:lower",
           "schedule_us_per_call:us:lower", "add_calls:count:lower",
           "add_busy_s:s:lower", "reinsert_calls:count:lower",
           "queue_len_mean:count:lower", "admitted_per_call:count:higher",
           "self_s:s:lower"),
    *_rows("costs", _DECODE + "; repeat_batch_ratio bounds any memo",
           "calls:count:lower", "busy_s:s:lower", "us_per_call:us:lower",
           "repeat_batch_ratio:ratio:higher", "self_s:s:lower"),
    *_rows("metrics", _CHURN + " (observe, record); " + _DASH +
           " (read, merge); no move predicted on decode_long",
           "observe_calls:count:lower", "observe_busy_s:s:lower",
           "observe_us_per_call:us:lower", "record_calls:count:lower",
           "record_busy_s:s:lower", "read_calls:count:lower",
           "read_busy_s:s:lower", "read_us_per_call:us:lower",
           "merge_busy_s:s:lower", "self_s:s:lower"),
    *_rows("cluster", _CLUSTER + "; zero calls on single-engine workloads",
           "steps:count:lower", "step_self_s:s:lower",
           "self_us_per_engine_step:us:lower", "choose_calls:count:lower",
           "choose_busy_s:s:lower", "sticky_route_ratio:ratio:higher",
           "replica_steps_max_share:ratio:lower",
           "autoscaler_calls:count:lower", "autoscaler_busy_s:s:lower",
           "spawns:count:lower", "drains:count:lower", "self_s:s:lower"),
    *_rows("tenancy", _TENANTS, "step_self_s:s:lower",
           "offer_calls:count:lower", "offer_busy_s:s:lower",
           "pop_calls:count:lower", "pop_busy_s:s:lower",
           "cancel_calls:count:lower", "cancel_busy_s:s:lower",
           "refund_calls:count:lower", "self_s:s:lower"),
    PerLayer("tenancy.admitted_ratio", "ratio", "higher",
             "down -> sim_slo_attainment down for the shed tenant"),
    *_rows("tenancy", "sim_goodput_rps on tenants_overload",
           "shed:count:lower", "cancelled:count:lower",
           "expired:count:lower"),
    *_rows("prefix", _SESSIONS, "lookup_calls:count:lower",
           "lookup_busy_s:s:lower", "insert_calls:count:lower",
           "insert_busy_s:s:lower", "block_keys_calls:count:lower",
           "block_keys_busy_s:s:lower", "self_s:s:lower"),
    PerLayer("prefix.hit_token_ratio", "ratio", "higher",
             "sim_ttft_p50_s on sessions_disagg_prefix"),
    *_rows("prefix", "peak_rss_mb on sessions_disagg_prefix",
           "evictions:count:lower", "blocks_peak:count:lower"),
    *_rows("disagg", _SESSIONS, "step_self_s:s:lower",
           "worker_steps:count:lower", "plan_calls:count:lower",
           "plan_busy_s:s:lower", "self_s:s:lower"),
    *_rows("disagg", "sim_e2e_p50_s on sessions_disagg_prefix (computed "
           "from tensor sizes, not measured)",
           "kv_transfers:count:lower", "kv_transfer_bytes:bytes:lower"),
    *_rows("telemetry", _TENANTS, "advance_calls:count:lower",
           "advance_busy_s:s:lower", "events_emitted:count:lower",
           "spans_closed:count:lower", "snapshots:count:lower",
           "self_s:s:lower"),
]
PER_LAYER_NAMES = [row.name for row in PER_LAYER]


_UNITS = {row.name: row.unit for row in PER_LAYER}


def is_exact(name: str) -> bool:
    """Does this metric repeat bit for bit on a fixed seed?"""
    if name.startswith("sim_"):
        return True
    return _UNITS.get(name) in ("count", "ratio", "bytes", "sim_s") \
        and name not in ("host.trace_overhead_ratio", "host.gc_collections")


# ------------------------------------------------------------------ #
# reading the serving stack (after a replay)
# ------------------------------------------------------------------ #
def serving_gateway(gateway):
    """The gateway engines report completions to: a ``TenantGateway``
    wraps it as ``inner`` (and has no completion listeners of its own)."""
    return getattr(gateway, "inner", gateway)


def engines_of(gateway) -> list:
    """Every engine under a gateway, retired replicas included."""
    inner = serving_gateway(gateway)
    if hasattr(inner, "replicas"):                      # ClusterGateway
        return [r.engine for r in inner.retired + inner.replicas]
    return [inner.engine]


def prefix_caches(gateway) -> Iterable:
    """Live prefix caches (engine-private state: the refcount
    conservation check has no public accessor to go through)."""
    for engine in engines_of(gateway):
        pool = getattr(engine, "_prefill_pool", None) or [engine]
        for member in pool:
            cache = getattr(member, "_prefix_cache", None)
            if cache is not None:
                yield cache


def admission_counts(gateway) -> Dict[str, int]:
    """Requests the admission layer resolved itself (never in result())."""
    controller = getattr(gateway, "controller", None)
    out = {"offered": 0, "accepted": 0, "shed": 0, "rejected": 0,
           "cancelled": 0, "expired": 0}
    if controller is not None:
        for stats in controller.stats.values():
            for key in out:
                out[key] += getattr(stats, key)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: Dict[str, Dict[str, float]], tracer, replay,
                      result) -> Dict[str, float]:
    """Every per-layer metric a traced replay yields (``host.*`` and
    ``workload.generate_s`` are filled in by the caller)."""

    def get(span: str, field: str) -> float:
        return spans.get(span, {}).get(field, 0)

    def calls(span: str) -> int:
        return int(get(span, "calls") + get(span, "nested_calls"))

    stats = [engine.stats for engine in engines_of(replay.gateway)]

    def total(field: str) -> float:
        return sum(getattr(s, field) for s in stats)

    iterations = total("iterations")
    engine_steps = calls("engine.step")
    admission = admission_counts(replay.gateway)
    telemetry = replay.telemetry
    counters = tracer.counters

    out = {
        "workload.requests": replay.attempted,
        "workload.sim_duration_s": result.makespan_s,
        "sim.emit_calls": calls("sim.emit"),
        "sim.emit_busy_s": get("sim.emit", "busy_s"),
        "sim.queue_push_calls": calls("sim.queue_push"),
        "sim.queue_push_busy_s": get("sim.queue_push", "busy_s"),
        "gateway.ingest_calls": calls("gateway.ingest"),
        "gateway.ingest_busy_s": get("gateway.ingest", "busy_s"),
        "gateway.replay_self_s": get("gateway.replay", "self_s"),
        "gateway.step_self_s": get("gateway.step", "self_s"),
        "engine.steps": engine_steps,
        "engine.step_busy_s": get("engine.step", "busy_s"),
        "engine.step_self_s": get("engine.step", "self_s"),
        "engine.host_us_per_step":
            1e6 * _ratio(get("engine.step", "busy_s"), engine_steps),
        "engine.idle_step_ratio": 1.0 - _ratio(iterations, engine_steps),
        "engine.admit_calls": calls("engine.admit"),
        "engine.admit_self_s": get("engine.admit", "self_s"),
        "engine.iteration_cost_self_s":
            get("engine.iteration_cost", "self_s"),
        "engine.retire_self_s": get("engine.retire", "self_s"),
        "engine.mean_batch_size":
            _ratio(total("batched_requests"), iterations),
        "engine.swap_ins": total("swap_ins"),
        "engine.preemptions": total("preemptions"),
        "scheduler.schedule_calls": calls("scheduler.schedule"),
        "scheduler.schedule_busy_s": get("scheduler.schedule", "busy_s"),
        "scheduler.schedule_us_per_call":
            1e6 * _ratio(get("scheduler.schedule", "busy_s"),
                         calls("scheduler.schedule")),
        "scheduler.add_calls": calls("scheduler.add"),
        "scheduler.add_busy_s": get("scheduler.add", "busy_s"),
        "scheduler.reinsert_calls": calls("scheduler.reinsert"),
        "scheduler.queue_len_mean":
            _ratio(counters["scheduler.queue_len"],
                   calls("scheduler.schedule")),
        "scheduler.admitted_per_call":
            _ratio(counters["scheduler.admitted"],
                   calls("scheduler.schedule")),
        "costs.calls": calls("costs.iteration_time"),
        "costs.busy_s": get("costs.iteration_time", "busy_s"),
        "costs.us_per_call":
            1e6 * _ratio(get("costs.iteration_time", "busy_s"),
                         calls("costs.iteration_time")),
        "costs.repeat_batch_ratio":
            _ratio(counters["costs.repeat_batches"],
                   calls("costs.iteration_time")),
        "metrics.observe_calls": calls("metrics.observe"),
        "metrics.observe_busy_s": get("metrics.observe", "busy_s"),
        "metrics.observe_us_per_call":
            1e6 * _ratio(get("metrics.observe", "busy_s"),
                         calls("metrics.observe")),
        "metrics.record_calls": calls("metrics.record"),
        "metrics.record_busy_s": get("metrics.record", "busy_s"),
        # outermost reads only: a cluster read fans out into one nested
        # read per replica, which is one read to the operator
        "metrics.read_calls": int(get("metrics.read", "calls")),
        "metrics.read_busy_s": get("metrics.read", "busy_s"),
        "metrics.read_us_per_call":
            1e6 * _ratio(get("metrics.read", "busy_s"),
                         get("metrics.read", "calls")),
        "metrics.merge_busy_s": get("metrics.merge", "busy_s"),
        "cluster.steps": calls("cluster.step"),
        "cluster.step_self_s": get("cluster.step", "self_s"),
        "cluster.self_us_per_engine_step":
            1e6 * _ratio(get("cluster.step", "self_s"), engine_steps)
            if calls("cluster.step") else 0.0,
        "cluster.choose_calls": int(get("cluster.choose", "calls")),
        "cluster.choose_busy_s": get("cluster.choose", "busy_s"),
        "cluster.sticky_route_ratio":
            _ratio(counters["cluster.sticky_routes"],
                   get("cluster.choose", "calls")),
        "cluster.replica_steps_max_share":
            _ratio(max(s.iterations for s in stats), iterations)
            if calls("cluster.step") else 0.0,
        "cluster.autoscaler_calls": calls("cluster.autoscaler"),
        "cluster.autoscaler_busy_s": get("cluster.autoscaler", "busy_s"),
        "cluster.spawns": calls("cluster.spawn"),
        "cluster.drains": calls("cluster.drain"),
        "tenancy.step_self_s": get("tenancy.step", "self_s"),
        "tenancy.offer_calls": calls("tenancy.offer"),
        "tenancy.offer_busy_s": get("tenancy.offer", "busy_s"),
        "tenancy.pop_calls": calls("tenancy.pop"),
        "tenancy.pop_busy_s": get("tenancy.pop", "busy_s"),
        "tenancy.cancel_calls": calls("tenancy.cancel"),
        "tenancy.cancel_busy_s": get("tenancy.cancel", "busy_s"),
        "tenancy.refund_calls": calls("tenancy.refund"),
        "tenancy.admitted_ratio":
            _ratio(admission["accepted"], admission["offered"]),
        "tenancy.shed": admission["shed"] + admission["rejected"],
        "tenancy.cancelled": admission["cancelled"],
        "tenancy.expired": admission["expired"],
        "prefix.lookup_calls": calls("prefix.lookup"),
        "prefix.lookup_busy_s": get("prefix.lookup", "busy_s"),
        "prefix.insert_calls": calls("prefix.insert"),
        "prefix.insert_busy_s": get("prefix.insert", "busy_s"),
        "prefix.block_keys_calls": calls("prefix.block_keys"),
        "prefix.block_keys_busy_s": get("prefix.block_keys", "busy_s"),
        "prefix.hit_token_ratio":
            _ratio(total("prefix_hit_tokens"), replay.prompt_tokens),
        "prefix.evictions": total("prefix_evictions"),
        "prefix.blocks_peak": counters["prefix.blocks_peak"],
        "disagg.step_self_s": get("disagg.step", "self_s"),
        "disagg.worker_steps":
            int(get("engine.step", "calls_under.disagg.step")),
        "disagg.plan_calls": calls("disagg.plan"),
        "disagg.plan_busy_s": get("disagg.plan", "busy_s"),
        "disagg.kv_transfers": total("kv_transfers"),
        "disagg.kv_transfer_bytes": total("kv_transfer_bytes"),
        "telemetry.advance_calls": calls("telemetry.advance"),
        "telemetry.advance_busy_s": get("telemetry.advance", "busy_s"),
        "telemetry.events_emitted":
            tracer.emits_by_kernel.get(id(telemetry.kernel), 0)
            if telemetry is not None else 0,
        "telemetry.spans_closed":
            telemetry.spans.n_closed if telemetry is not None else 0,
        "telemetry.snapshots":
            len(telemetry.gauges) if telemetry is not None else 0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for span, row in spans.items()
            if span.split(".", 1)[0] == layer)
    return out
