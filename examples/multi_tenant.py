"""Multi-tenant admission control walkthrough: buckets, VTC, shedding.

One serving replica, three tenants sharing it:

* ``agg`` — a batch tenant offering ~6 req/s, far beyond capacity;
* ``gold`` — a paying interactive tenant (2x fair-share weight, 10s SLO);
* ``silver`` — a standard tenant.

The script replays the same tenant-tagged trace through three admission
configurations — plain FCFS (the legacy behavior), VTC fair queueing, and
VTC plus SLO-aware shedding — and prints what each tenant experienced.
It then shows the online path: a token-bucket-limited tenant submitting
live requests and reading back its admission decisions.

Run:  python examples/multi_tenant.py
"""

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_7B, ModelManager,
                           SchedulerConfig, ServingGateway, Tenant,
                           TenantGateway, create_engine,
                           jain_fairness_index)
from repro.workload import TenantWorkload, multi_tenant_trace

DURATION_S = 90.0
SEED = 7

TENANTS = (
    Tenant("agg", weight=1.0, slo_class="batch"),
    Tenant("gold", weight=2.0, slo_class="interactive"),
    Tenant("silver", weight=1.0, slo_class="standard"),
)
WORKLOADS = (
    TenantWorkload("agg", rate=6.0, n_models=4),
    TenantWorkload("gold", rate=0.4, n_models=2),
    TenantWorkload("silver", rate=0.4, n_models=2),
)


def build_gateway(trace, policy, shed=False, tenants=TENANTS):
    manager = ModelManager(LLAMA_7B)
    manager.register_base("base")
    for model_id in trace.model_ids:
        manager.register_delta(model_id, "base", 8.0)
    engine = create_engine(
        "deltazip", manager, GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=1))
    return TenantGateway(ServingGateway(engine), tenants=tenants,
                         policy=policy, shed=shed)


def replay_study():
    trace = multi_tenant_trace(WORKLOADS, duration_s=DURATION_S, seed=SEED)
    print(f"{len(trace)} requests over {DURATION_S:.0f}s from "
          f"{len(WORKLOADS)} tenants\n")
    for policy, shed in (("fcfs", False), ("vtc", False), ("vtc", True)):
        gateway = build_gateway(trace, policy, shed=shed)
        result = gateway.replay(trace)
        label = f"{policy}{' + shed' if shed else ''}"
        attainment = gateway.slo_attainment(result)
        print(f"=== {label}  ({result.n_requests}/{len(trace)} served) ===")
        print(f"{'tenant':8s} {'offered':>7s} {'done':>6s} {'shed':>5s} "
              f"{'p99_ttft':>9s} {'slo':>5s} {'attain':>7s}")
        for tenant in TENANTS:
            stats = gateway.controller.stats[tenant.tenant_id]
            sliced = result.for_tenant(tenant.tenant_id)
            print(f"{tenant.tenant_id:8s} {stats.offered:7d} "
                  f"{sliced.n_requests:6d} {stats.shed:5d} "
                  f"{sliced.percentile_ttft_s(99):9.2f} "
                  f"{tenant.slo_s:5.0f} "
                  f"{attainment[tenant.tenant_id]:7.1%}")
        print(f"Jain fairness: "
              f"{jain_fairness_index(list(attainment.values())):.3f}\n")


def online_token_bucket():
    """A rate-limited tenant submitting live: admit -> defer -> reject."""
    trace = multi_tenant_trace(WORKLOADS, duration_s=1.0, seed=SEED)
    gateway = build_gateway(
        trace, policy="fcfs",
        tenants=(Tenant("metered", rate_tokens_per_s=100.0,
                        burst_tokens=400.0, max_outstanding=6),))
    print("=== online: tenant 'metered' at 100 tokens/s, burst 400, "
          "quota 6 outstanding ===")
    for i in range(8):
        handle = gateway.submit("agg-variant-00", prompt_len=128,
                                output_len=64, tenant_id="metered")
        print(f"request {handle.id}: "
              f"{gateway.decision(handle.id).value}")
    result = gateway.run_until_drained()
    stats = gateway.controller.stats["metered"]
    print(f"completed {result.n_requests}; admitted {stats.admitted}, "
          f"deferred {stats.deferred} (bucket refill), "
          f"rejected {stats.rejected} (quota)")


if __name__ == "__main__":
    replay_study()
    online_token_bucket()
