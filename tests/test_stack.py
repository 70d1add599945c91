"""The stack builder: a :class:`StackSpec` is a value, and
:func:`build` is a function of it.

Over a small domain (engine × replicas × admission × autoscaler) a spec
survives a pickle round trip as ``==``, two stacks built from one spec
replay one trace to ``==`` records, and a spec that names no layer for
its fields is refused at construction.  The stacks the session layer
used to build come out of :func:`build` with the records pinned in
``tests/test_stack_differential.py``.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import node_from_name
from repro.serving import (ENGINES, AutoscalerConfig, ClusterGateway,
                           EngineConfig, SchedulerConfig, ServingGateway,
                           StackSpec, TenantGateway, build)
from repro.workload import synthetic_trace

from test_stack_differential import (STACK_DIGESTS, TENANTS, records_digest,
                                     stack_manager, stack_trace)

#: the one-GPU stack of the session tests: K=8, N=2, TP=1
SMALL = StackSpec(node=node_from_name("a800", 1),
                  scheduler=SchedulerConfig(max_batch_requests=8,
                                            max_concurrent_deltas=2),
                  config=EngineConfig(tp_degree=1))
AUTOSCALER = AutoscalerConfig(max_replicas=3, high_queue_per_replica=2.0)
ONE_GPU = node_from_name("a800", 1)

SPECS = {
    "single": SMALL,
    "replicas2-lineage": replace(SMALL, replicas=2, balancer="lineage"),
    "autoscaler": replace(SMALL, replicas=1, autoscaler=AUTOSCALER),
    "vtc-tenants": replace(SMALL, admission="vtc", tenants=TENANTS),
    "vtc-tenants-replicas2": replace(SMALL, replicas=2, admission="vtc",
                                     tenants=TENANTS),
    "disagg-2p2d": StackSpec("disagg", node=ONE_GPU,
                             engine_kwargs={"prefill_workers": 2,
                                            "decode_workers": 2}),
    "sharded-tp2": StackSpec("sharded", node=ONE_GPU,
                             engine_kwargs={"tp_degree": 2}),
}


@pytest.mark.parametrize("name", sorted(STACK_DIGESTS))
def test_build_serves_the_pinned_records(name):
    spec = SPECS[name]
    trace = stack_trace()
    result = build(spec, stack_manager(spec.engine, trace)).replay(trace)
    assert records_digest(result.records) == STACK_DIGESTS[name]


def test_the_layers_nest_in_one_order():
    mgr = stack_manager("deltazip", stack_trace())
    assert isinstance(build(SMALL, mgr), ServingGateway)
    cluster = build(replace(SMALL, replicas=1), mgr)
    assert isinstance(cluster, ClusterGateway) and cluster.n_replicas == 1
    tenancy = build(SPECS["vtc-tenants-replicas2"], mgr)
    assert isinstance(tenancy, TenantGateway)
    assert isinstance(tenancy.inner, ClusterGateway)
    assert len(tenancy.inner.replicas) == 2


@settings(max_examples=30, deadline=None)
@given(engine=st.sampled_from(sorted(ENGINES)),
       replicas=st.sampled_from([None, 1, 2]),
       admission=st.sampled_from([None, "fcfs", "vtc"]),
       autoscaled=st.booleans(), shed=st.booleans())
def test_a_spec_is_a_value_and_build_is_a_function_of_it(
        engine, replicas, admission, autoscaled, shed):
    fields = dict(engine=engine, replicas=replicas,
                  autoscaler=AUTOSCALER if autoscaled else None,
                  admission=admission,
                  tenants=TENANTS if admission else (),
                  shed=shed and admission is not None)
    if autoscaled and replicas is None:
        with pytest.raises(ValueError, match="need replicas"):
            replace(SMALL, **fields)
        return
    spec = replace(SMALL, **fields)
    assert pickle.loads(pickle.dumps(spec)) == spec
    trace = synthetic_trace(3, rate=1.0, duration_s=10.0, seed=2)
    mgr = stack_manager(engine, trace)
    first = build(spec, mgr).replay(trace)
    second = build(spec, mgr).replay(trace)
    assert first.records and first.records == second.records


@pytest.mark.parametrize("fields, match", [
    ({"engine": "warp-drive"}, "unknown engine 'warp-drive'; registered"),
    ({"replicas": 0}, "at least one replica"),
    ({"replicas": -2}, "at least one replica"),
    ({"balancer": "lineage"}, "need replicas"),
    ({"tenants": TENANTS}, "admission policy"),
    ({"shed": True}, "admission policy"),
    ({"engine_queue_depth": 4}, "admission policy"),
])
def test_a_spec_without_its_layer_is_refused(fields, match):
    with pytest.raises(ValueError, match=match):
        replace(SMALL, **fields)
