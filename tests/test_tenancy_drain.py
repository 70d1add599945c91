"""Differential: ``run_until_drained()`` == ``while step()`` under
admission, telemetry and completion listeners.

Every stack here is drained twice from the same inputs: once through its
own ``run_until_drained()`` and once through
``Gateway.run_until_drained`` (``while gateway.step(): pass``, one
iteration per step at every layer).  The two runs must agree on the
records in retirement order, every gauge snapshot, the span status
counts, each admission decision and the admission summary, and every
engine's ``EngineStats``.  The stacks: each tenancy cell of the golden
table (with gauges sampled and without), a ``tenants_overload``-shaped
stack (three tenants over an autoscaled cluster, impatient clients,
telemetry) over three seeds, a cluster whose completion listener submits
follow-up work, and a cluster with a completion listener that only
listens.
"""

from dataclasses import asdict, replace

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (Autoscaler, ClusterGateway, EngineConfig,
                           LLAMA_7B, ModelManager, SchedulerConfig, Tenant,
                           TenantGateway, create_engine)
from repro.serving.gateway import Gateway
from repro.serving.stack import build
from repro.telemetry import Telemetry
from repro.workload import (PatienceModel, TenantWorkload,
                            impatient_cancel_schedule, multi_tenant_trace,
                            synthetic_trace)
from repro.workload.spec import Trace, TraceRequest
from test_golden_digests import (SCENARIOS, TENANT_CELLS, VTC_CELLS,
                                 VTC_TENANTS, make_manager, sessions,
                                 spec_of)

DRAINS = {"drained": lambda gateway: gateway.run_until_drained(),
          "stepped": lambda gateway: Gateway.run_until_drained(gateway)}


def engines_of(gateway):
    """Every engine under ``gateway``, retired replicas included."""
    inner = getattr(gateway, "inner", gateway)
    if isinstance(inner, ClusterGateway):
        return [r.engine for r in inner.retired + inner.replicas]
    return [inner.engine]


def view(gateway, telemetry):
    """What both drains must agree on."""
    result = gateway.result()
    out = {"records": [tuple(r) for r in result.records],
           "stats": [asdict(e.stats) for e in engines_of(gateway)],
           "unfinished": gateway.unfinished}
    controller = gateway.controller
    if controller is not None:
        out["decisions"] = dict(controller.decisions)
        out["admission"] = controller.summary()
        out["tenant_stats"] = {tid: asdict(s)
                               for tid, s in controller.stats.items()}
    if telemetry is not None:
        out["gauges"] = [s.as_dict() for s in telemetry.series()]
        out["spans"] = telemetry.spans.summary()["status_counts"]
        assert out["gauges"], "a run that sampled no gauge pins nothing"
    return out


def both_drains(make, trace, cancels=(), gauges=True):
    """Drain the stack ``make(telemetry)`` builds both ways; the views."""
    views = {}
    for name, drain in DRAINS.items():
        telemetry = Telemetry(interval_s=0.25) if gauges else None
        gateway = make(telemetry)
        gateway.reset()
        for request in trace:
            gateway.ingest(request)
        for request_id, at_s in cancels or ():
            gateway.cancel(request_id, at_s=at_s)
        drain(gateway)
        views[name] = view(gateway, telemetry)
    assert len(views["stepped"]["records"]) > 0
    return views


def attached(gateway, telemetry):
    if telemetry is not None:
        telemetry.attach(gateway)
    return gateway


# --------------------------------------------------------------------- #
# the tenancy cells of the golden table
# --------------------------------------------------------------------- #
def tenant_cell(cell):
    """The stack and inputs of one tenancy golden cell."""
    if cell in TENANT_CELLS:
        spec = replace(SCENARIOS["disagg-1p1d-cache"].spec, replicas=2,
                       balancer=cell.split("/")[1], admission="fcfs",
                       tenants=(Tenant("default"),))
        trace, cancels = sessions()
        return spec, trace, cancels
    scenario, wrapper, stepping = cell[len("tenant-vtc-"):].split("/")
    trace, cancels = SCENARIOS[scenario].trace()
    tagged = Trace(requests=[replace(r, tenant_id=VTC_TENANTS[i % 2].tenant_id)
                             for i, r in enumerate(trace.requests)],
                   model_ids=trace.model_ids, duration_s=trace.duration_s)
    spec = replace(spec_of(scenario, wrapper, stepping), admission="vtc",
                   tenants=VTC_TENANTS, engine_queue_depth=4)
    return spec, tagged, cancels


@pytest.mark.parametrize("gauges", [True, False], ids=["gauges", "plain"])
@pytest.mark.parametrize("cell", TENANT_CELLS + VTC_CELLS)
def test_a_tenancy_cell_drains_as_it_steps(cell, gauges):
    spec, trace, cancels = tenant_cell(cell)
    views = both_drains(
        lambda telemetry: attached(build(spec, make_manager(spec.engine)),
                                   telemetry),
        trace, cancels, gauges)
    assert views["drained"] == views["stepped"]
    assert len(views["stepped"]["records"]) == len(trace)


@pytest.mark.parametrize("scenario", ["deltazip-cancels", "disagg-2p2d",
                                      "disagg-cancels", "dedicated-cancels",
                                      "sharded-2node"])
def test_a_sampled_engine_drains_as_it_steps(scenario):
    """One engine behind a serving gateway whose gauges are sampled."""
    spec = spec_of(scenario, "gateway", "skip")
    trace, cancels = SCENARIOS[scenario].trace()
    views = both_drains(
        lambda telemetry: attached(build(spec, make_manager(spec.engine)),
                                   telemetry),
        trace, cancels)
    assert views["drained"] == views["stepped"]


# --------------------------------------------------------------------- #
# tenants_overload's shape at test size
# --------------------------------------------------------------------- #
POOL = [f"variant-{i:02d}" for i in range(8)]


def overload_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in POOL:
        mgr.register_delta(model_id, "base", 8.0)
    return mgr


def overload_inputs(seed, n=400):
    trace = multi_tenant_trace(
        (TenantWorkload("aggressor", rate=12.0, cv=2.0, model_ids=POOL),
         TenantWorkload("gold", rate=1.0, model_ids=POOL[:4]),
         TenantWorkload("silver", rate=1.0, model_ids=POOL[4:])),
        duration_s=n / 14.0, seed=seed)
    cancels = impatient_cancel_schedule(trace, PatienceModel(mean_s=20.0),
                                        seed=seed + 7)
    return trace, cancels


def overload_stack(telemetry):
    mgr = overload_manager()

    def factory(node):
        return create_engine(
            "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1))

    cluster = ClusterGateway(
        engine_factory=factory, cluster=Cluster.from_name("a800", 4, 1),
        n_replicas=2, balancer="lineage",
        autoscaler=Autoscaler(min_replicas=2, max_replicas=4,
                              high_queue_per_replica=8.0,
                              low_queue_per_replica=1.0,
                              check_interval_s=2.0,
                              scale_up_cooldown_s=5.0,
                              scale_down_cooldown_s=30.0))
    return TenantGateway(
        cluster, policy="vtc", shed=True, telemetry=telemetry,
        tenants=(Tenant("aggressor", weight=1.0, slo_class="standard",
                        rate_tokens_per_s=2000.0, burst_tokens=8000.0,
                        patience_s=20.0),
                 Tenant("gold", weight=2.0, slo_class="interactive"),
                 Tenant("silver", weight=1.0, slo_class="standard",
                        max_outstanding=4)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_tenants_overload_stack_drains_as_it_steps(seed):
    trace, cancels = overload_inputs(seed)
    views = both_drains(overload_stack, trace, cancels)
    assert views["drained"] == views["stepped"]
    admission = views["stepped"]["admission"]
    assert admission["deferred"] and \
        admission["shed_requests"] + admission["rejected"]
    assert admission["cancelled"] or admission["expired"]


# --------------------------------------------------------------------- #
# a cluster heard on completion
# --------------------------------------------------------------------- #
MODELS = POOL[:4]


def fleet(telemetry, balancer="round-robin"):
    mgr = overload_manager()

    def factory(node=None):
        return create_engine(
            "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=6,
                                             max_concurrent_deltas=3),
            engine_config=EngineConfig(tp_degree=1))
    return ClusterGateway(engine_factory=factory,
                          cluster=Cluster.from_name("a800", 3, 1),
                          n_replicas=3, balancer=balancer,
                          telemetry=telemetry)


@pytest.mark.parametrize("gauges", [True, False], ids=["gauges", "plain"])
def test_a_cluster_closed_loop_drains_as_it_steps(gauges):
    """Every completion ingests a follow-up arriving at that finish."""
    n_first, n_more = 6, 60

    def make(telemetry):
        gateway = fleet(telemetry)
        state = {"next": n_first}

        def follow_up(record):
            i = state["next"]
            if i < n_first + n_more:
                state["next"] += 1
                gateway.ingest(TraceRequest(
                    request_id=i, model_id=MODELS[i % 4],
                    arrival_s=record.finish_s, prompt_tokens=32 + i % 17,
                    output_tokens=20 + (37 * i) % 90))
        gateway.add_completion_listener(follow_up)
        return gateway

    first = [TraceRequest(request_id=i, model_id=MODELS[i % 4],
                          arrival_s=0.0, prompt_tokens=32,
                          output_tokens=30 + 25 * i) for i in range(n_first)]
    views = both_drains(make, first, gauges=gauges)
    assert views["drained"] == views["stepped"]
    assert len(views["stepped"]["records"]) == n_first + n_more


@pytest.mark.parametrize("gauges", [True, False], ids=["gauges", "plain"])
@pytest.mark.parametrize("balancer", ["lineage", "least-outstanding"])
def test_a_cluster_with_a_passive_listener_drains_as_it_steps(balancer,
                                                               gauges):
    trace = synthetic_trace(4, rate=6.0, duration_s=8.0, seed=11)
    heard = {}

    def make(telemetry):
        gateway = fleet(telemetry, balancer)
        seen = heard.setdefault(len(heard), [])
        gateway.add_completion_listener(
            lambda record: seen.append((record.request_id, record.finish_s)))
        return gateway

    cancels = [(r.request_id, r.arrival_s + 0.7)
               for r in trace.requests[::6]]
    views = both_drains(make, trace, cancels, gauges)
    assert views["drained"] == views["stepped"]
    assert heard[0] == heard[1] and len(heard[0]) == len(trace)
