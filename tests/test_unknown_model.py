"""A request for a model no manager registers is refused at ingest.

Every layer that accepts a request — an engine's ``submit`` (the disagg
owner's and the ``dedicated`` engine's included), ``ClusterGateway.ingest``,
``TenantGateway.ingest`` and every gateway's online ``submit`` — raises a
``KeyError`` naming the request id and the model before it queues
anything.  The request before it is still served, and the drain never
meets the unknown model (it used to fail mid-step, once an engine went
to load it).

The table is {bare engine, ``ServingGateway``, 2-replica
``ClusterGateway``, ``TenantGateway`` over that cluster} x the five
registered engines, the stacks of ``tests/test_retention.py``.
"""

import pytest

from repro.hardware import GPUNode, node_from_name
from repro.serving import (ClusterGateway, LLAMA_7B, ModelManager,
                           RecordPolicy, create_engine)
from repro.workload.spec import TraceRequest
from test_retention import ENGINE_KWARGS, WRAPPERS, build, per_request_state

UNKNOWN = "no-such-variant"
REFUSED = r"request 1: unknown model 'no-such-variant'"


def held(stack):
    """How many entries each per-request container of the stack holds."""
    return {where: len(what)
            for where, what in per_request_state(stack).items()}


@pytest.mark.parametrize("wrapper", WRAPPERS)
@pytest.mark.parametrize("name", sorted(ENGINE_KWARGS))
def test_an_unknown_model_is_refused_before_anything_is_queued(name,
                                                               wrapper):
    stack = build(name, wrapper, RecordPolicy.KEEP_ALL)
    accept = stack.submit if wrapper == "bare" else stack.ingest
    accept(TraceRequest(0, "variant-00", 0.0, 16, 8))
    before = held(stack)
    with pytest.raises(KeyError, match=REFUSED):
        accept(TraceRequest(1, UNKNOWN, 0.0, 16, 8))
    assert held(stack) == before
    assert stack.unfinished == 1

    result = stack.run_until_drained()
    if wrapper == "bare":
        result = stack.build_result()
    assert [(r.request_id, r.status) for r in result.records] == \
        [(0, "finished")]


@pytest.mark.parametrize("wrapper", [w for w in WRAPPERS if w != "bare"])
def test_an_online_submit_for_an_unknown_model_leaves_no_handle(wrapper):
    stack = build("deltazip", wrapper, RecordPolicy.KEEP_ALL)
    first = stack.submit("variant-00", 16, 8, arrival_s=0.0)
    with pytest.raises(KeyError, match=r"request 1: unknown model"):
        stack.submit(UNKNOWN, 16, 8, arrival_s=0.0)
    assert list(stack._handles) == [first.id]
    # the refused request took no id: the next one gets the one it had
    assert stack.submit("variant-01", 16, 8, arrival_s=0.0).id == 1
    assert sorted(r.request_id for r in stack.run_until_drained().records) \
        == [0, 1]


def test_a_cluster_over_several_managers_serves_each_ones_models():
    engines = []
    for base in ("base-a", "base-b"):
        manager = ModelManager(LLAMA_7B)
        manager.register_base(base)
        manager.register_delta(f"{base}-v0", base, 8.0)
        engines.append(create_engine("deltazip", manager,
                                     GPUNode(node_from_name("a800", 1))))
    gateway = ClusterGateway.from_engines(engines, balancer="lineage")
    gateway.ingest(TraceRequest(0, "base-a-v0", 0.0, 16, 8))
    gateway.ingest(TraceRequest(1, "base-b-v0", 0.0, 16, 8))
    with pytest.raises(KeyError, match=r"request 2: unknown model"):
        gateway.ingest(TraceRequest(2, UNKNOWN, 0.0, 16, 8))
    assert sorted(r.request_id for r in gateway.run_until_drained().records) \
        == [0, 1]
