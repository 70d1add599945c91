"""Live state is O(active): a finished request leaves one object behind.

After a drained replay — sessions on a prefix cache, client cancels,
deadlines, a cancel that precedes its arrival — nothing under the stack
still refers to a request: every engine's ``_live`` is empty (pool
workers and per-variant groups included), so are the ``dedicated``
engine's request -> group map, ``ClusterGateway._owner``, the prefix
references a ``DeltaZipEngine`` holds per request, the disagg owner's
per-request maps and every set or map of a ``TenantGateway`` (held,
dispatched, scheduled cancels), and the garbage collector finds no
``ServingRequest`` the replay created.  What survives is the record
(``KEEP_ALL``), a sample (``SAMPLE_K``) or nothing (``DROP``) — never
the request.  The one exception is the admission controller's
``decisions``, one verdict per request, which ``decision(id)`` reads
after the drain.

The table is {bare engine, ``ServingGateway``, 2-replica
``ClusterGateway``, ``TenantGateway`` over that cluster} x the five
registered engines x the record policies.
"""

import gc
from dataclasses import replace

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ENGINES, ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, RecordPolicy, SchedulerConfig,
                           ServingGateway, Tenant, TenantGateway,
                           create_engine)
from repro.serving.request import ServingRequest
from repro.workload import session_trace
from repro.workload.spec import Trace

N_MODELS = 4
ENGINE_KWARGS = {
    "deltazip": {},
    "vllm-scb": {},
    "dedicated": {},
    "disagg": {"prefill_workers": 1, "decode_workers": 2},
    "sharded": {"tp_degree": 2, "n_nodes": 2},
}
WRAPPERS = ("bare", "gateway", "cluster2", "tenant")
POLICIES = tuple(RecordPolicy)
SAMPLE_K = 2


# --------------------------------------------------------------------- #
# the replay
# --------------------------------------------------------------------- #
def workload():
    """Multi-turn sessions (conversation and shared-prefix tags for the
    prefix cache); every seventh request carries a deadline it cannot
    meet, every fifth is cancelled half a second in, and request 3 is
    cancelled before it arrives."""
    trace = session_trace(N_MODELS, rate=1.0, duration_s=30.0, seed=7)
    requests = [replace(r, deadline_s=r.arrival_s + 0.4)
                if r.request_id % 7 == 2 else r for r in trace.requests]
    cancels = [(r.request_id, r.arrival_s + 0.5)
               for r in requests if r.request_id % 5 == 0]
    cancels.append((3, requests[3].arrival_s - 0.01))
    return Trace(requests=requests, model_ids=trace.model_ids,
                 duration_s=trace.duration_s), cancels


def make_engine(name, policy, mgr, node=None):
    kwargs = ENGINE_KWARGS[name]
    return create_engine(
        name, mgr, node or GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=kwargs.get("tp_degree", 1),
                                   prefix_cache=True, record_policy=policy,
                                   sample_k=SAMPLE_K),
        **kwargs)


def build(name, wrapper, policy):
    """The stack under test: a bare engine or the outermost gateway."""
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        ENGINES[name].register_variant(mgr, f"variant-{i:02d}", "base", 8.0)
    if wrapper == "bare":
        return make_engine(name, policy, mgr)
    if wrapper == "gateway":
        return ServingGateway(make_engine(name, policy, mgr))
    cluster = ClusterGateway(
        engine_factory=lambda node: make_engine(name, policy, mgr, node),
        cluster=Cluster(node_from_name("a800", 1), n_nodes=2),
        n_replicas=2, balancer="conversation")
    if wrapper == "cluster2":
        return cluster
    return TenantGateway(cluster, tenants=(Tenant("default"),))


def serve(stack, trace, cancels):
    if isinstance(stack, (ServingGateway, ClusterGateway, TenantGateway)):
        return stack.replay(trace, cancels=cancels)
    for request in trace:
        stack.submit(request)
    for request_id, at_s in cancels:
        stack.schedule_cancel(request_id, at_s)
    stack.run_until_drained()
    return stack.build_result()


# --------------------------------------------------------------------- #
# walking a stack
# --------------------------------------------------------------------- #
def engines_under(stack):
    """Every engine object of the stack: the wrapper's engines, and below
    each the per-variant groups / pool workers."""
    roots = stack.engines() if hasattr(stack, "engines") else [stack]
    found = []
    for engine in roots:
        found.append(engine)
        found.extend(getattr(engine, "_groups", {}).values())
        found.extend(getattr(engine, "_prefill_pool", []))
        found.extend(getattr(engine, "_decode_pool", []))
    return found


def per_request_state(stack):
    """Every per-request container of the stack that should be empty once
    it drained, by name."""
    state = {}
    gateway = stack
    while gateway is not None:
        if isinstance(gateway, ClusterGateway):
            state["cluster._owner"] = gateway._owner
            state["cluster._pending_cancels"] = gateway._pending_cancels
        if isinstance(gateway, TenantGateway):
            # every set or map of the admission layer (its controller's
            # ``decisions`` is kept on purpose: read after the drain)
            for attr, value in vars(gateway).items():
                if isinstance(value, (set, dict)):
                    state[f"tenancy.{attr}"] = value
        gateway = getattr(gateway, "inner", None)
    for i, engine in enumerate(engines_under(stack)):
        who = f"{engine.name}#{i}"
        state[f"{who}._live"] = engine._live
        state[f"{who}.batch"] = engine.batch.requests
        for attr in ("_request_group",                  # dedicated
                     "_prefix_refs",                    # deltazip family
                     "_owner_of", "_cancel_log", "_in_transfer",  # disagg
                     "_seeded"):                        # decode workers
            if hasattr(engine, attr):
                state[f"{who}.{attr}"] = getattr(engine, attr)
    return state


def live_requests():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, ServingRequest)]


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("wrapper", WRAPPERS)
@pytest.mark.parametrize("name", sorted(ENGINE_KWARGS))
def test_a_drained_replay_retains_no_request(name, wrapper, policy):
    before = live_requests()      # other tests' leftovers, held by identity
    trace, cancels = workload()
    stack = build(name, wrapper, policy)
    result = serve(stack, trace, cancels)

    # the replay was worth checking: all three terminal paths were taken
    # and everything the stack kept is a record
    n = len(trace)
    assert stack.unfinished == 0
    assert result.n_requests == n
    counts = result.stream.status_counts()
    assert sum(counts.values()) == n
    assert counts["finished"] > n // 2
    assert counts["cancelled"] >= 3 and counts["expired"] >= 2
    if policy is RecordPolicy.DROP:
        # no engine kept one; a cluster or an admission frontier still
        # lists the aborts it synthesized itself (request 3 at least)
        assert all(r.first_token_s is None and not r.finished
                   for r in result.records)
        assert bool(result.records) == (wrapper in ("cluster2", "tenant"))
    elif policy is RecordPolicy.SAMPLE_K:
        assert 0 < len(result.records) < n    # a reservoir per sink
    else:
        assert len(result.records) == n

    held = {where: len(what)
            for where, what in per_request_state(stack).items() if what}
    assert held == {}
    leaked = [r for r in live_requests()
              if not any(r is old for old in before)]
    assert [r.request_id for r in leaked] == []


def test_the_table_covers_every_registered_engine():
    assert sorted(ENGINE_KWARGS) == sorted(ENGINES)
    assert len(POLICIES) == 3


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", sorted(ENGINE_KWARGS))
def test_whatever_arrives_after_the_release_is_stale(name, policy):
    """A status read, a cancel and an abort that come after a request
    retired find no request: the handle answers from its record and the
    cancel changes nothing — under every policy what ``DROP`` always did."""
    gateway = build(name, "gateway", policy)
    engine = gateway.engine
    handle = gateway.submit("variant-00", 64, 6)
    doomed = gateway.submit("variant-01", 64, 400, deadline_s=0.2)
    gateway.run_until_drained()
    assert engine.lookup(handle.id) is None and not engine._live

    assert handle.status.value == "finished"
    assert handle.record().served_tokens == 6
    assert doomed.status.value == "expired"
    assert doomed.record().served_tokens < 400
    # the handle map is the one thing KEEP_ALL still keeps per request
    kept = policy is RecordPolicy.KEEP_ALL
    assert (gateway.handle(handle.id) is handle) == kept
    assert len(gateway._handles) == (2 if kept else 0)

    clock, observed = engine.clock, gateway.result().n_requests
    handle.cancel()                               # answered by the handle
    gateway.cancel(handle.id)                     # stale at the engine
    gateway.cancel(doomed.id, at_s=clock + 5.0)
    assert engine.abort(handle.id) is None
    assert not gateway.step()                     # nothing to wake for
    assert (engine.clock, gateway.result().n_requests) == (clock, observed)
    assert handle.status.value == "finished"

    # and the engine serves on: a stale cancel is not waited for
    later = gateway.submit("variant-00", 64, 4)
    gateway.run_until_drained()
    assert later.record().finished and later.record().finish_s < clock + 5.0
