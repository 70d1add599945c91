"""The repro.sim kernel: clock/queue/event primitives and the
record-identity contract of idle-skip across every serving layer."""

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           TenantGateway, create_engine)
from repro.sim import (Arrival, AutoscalerTick, BucketRefill, EventQueue,
                       ForwardingCycleError, IterationDone, ReplicaSpawn,
                       SimClock, SimKernel)
from repro.workload import synthetic_trace
from repro.workload.spec import TraceRequest

N_MODELS = 4


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #
class TestSimClock:
    def test_advance_is_monotone(self):
        clock = SimClock()
        assert clock.advance(5.0) == 5.0
        assert clock.advance(3.0) == 5.0      # no rewind
        assert clock.now == 5.0

    def test_tick_is_relative(self):
        clock = SimClock(2.0)
        assert clock.tick(0.5) == 2.5

    def test_reset(self):
        clock = SimClock(9.0)
        clock.reset()
        assert clock.now == 0.0


def _req(rid, arrival):
    return TraceRequest(request_id=rid, model_id="m", arrival_s=arrival,
                        prompt_tokens=8, output_tokens=4)


class TestEventQueue:
    def test_orders_by_time_then_request_id(self):
        queue = EventQueue()
        queue.push(Arrival(time=2.0, request=_req(5, 2.0)))
        queue.push(Arrival(time=1.0, request=_req(9, 1.0)))
        queue.push(Arrival(time=1.0, request=_req(3, 1.0)))
        popped = [queue.pop().request.request_id for _ in range(3)]
        assert popped == [3, 9, 5]

    def test_peek_and_pop_due(self):
        queue = EventQueue()
        for rid, t in ((0, 1.0), (1, 2.0), (2, 10.0)):
            queue.push(Arrival(time=t, request=_req(rid, t)))
        assert queue.peek_time() == 1.0
        due = [e.request.request_id for e in queue.pop_due(5.0)]
        assert due == [0, 1]
        assert len(queue) == 1
        assert queue.peek().request.request_id == 2

    def test_count_after_tracks_pops_and_pushes(self):
        queue = EventQueue()
        for rid in range(100):
            queue.push(Arrival(time=float(rid), request=_req(rid, rid)))
        assert queue.count_after(49.5) == 50
        for _ in queue.pop_due(80.0):      # exercises index compaction
            pass
        assert queue.count_after(49.5) == queue.count_after(80.0) == 19
        queue.push(Arrival(time=90.5, request=_req(200, 90.5)))
        assert queue.count_after(90.0) == 10
        assert queue.count_after(1e9) == 0

    def test_in_order_is_non_destructive(self):
        queue = EventQueue()
        queue.push(Arrival(time=3.0, request=_req(1, 3.0)))
        queue.push(Arrival(time=1.0, request=_req(2, 1.0)))
        assert [e.request.request_id for e in queue.in_order()] == [2, 1]
        assert len(queue) == 2

    def test_clear(self):
        queue = EventQueue()
        queue.push(AutoscalerTick(time=1.0))
        queue.clear()
        assert not queue
        assert queue.peek_time() is None


class TestSimKernel:
    def test_journal_records_emitted_events(self):
        kernel = SimKernel(journal=True)
        kernel.emit(ReplicaSpawn(time=0.0, replica_id=0))
        kernel.emit(IterationDone(time=1.0, iter_time_s=0.1))
        assert [type(e) for e in kernel.journal] == \
            [ReplicaSpawn, IterationDone]
        kernel.reset()
        assert kernel.journal == [] and kernel.now == 0.0

    def test_subscribers_filter_by_type(self):
        kernel = SimKernel()
        seen = []
        kernel.subscribe(BucketRefill, seen.append)
        kernel.emit(BucketRefill(time=1.0, tenant_id="t"))
        kernel.emit(ReplicaSpawn(time=2.0, replica_id=1))
        assert len(seen) == 1 and seen[0].tenant_id == "t"

    def test_advance_is_monotone(self):
        kernel = SimKernel()
        kernel.advance(4.0)
        assert kernel.advance(1.0) == 4.0


class TestForwarding:
    """A layer kernel forwards into a downstream kernel; ``wants`` looks
    through the forward and is answered when asked, never at wiring."""

    def test_wants_nothing_without_a_downstream_subscriber(self):
        upstream, downstream = SimKernel(), SimKernel()
        upstream.forward(downstream)
        assert not upstream.wants(IterationDone)
        assert not downstream.wants(IterationDone)

    def test_a_later_downstream_subscriber_is_wanted_with_no_rewiring(self):
        upstream, downstream = SimKernel(), SimKernel()
        upstream.forward(downstream)
        seen = []
        downstream.subscribe(IterationDone, seen.append)
        assert upstream.wants(IterationDone)
        assert not upstream.wants(BucketRefill)
        upstream.emit(IterationDone(time=1.0, iter_time_s=0.1))
        assert [e.time for e in seen] == [1.0]

    def test_an_upstream_journal_wants_everything(self):
        upstream, downstream = SimKernel(journal=True), SimKernel()
        upstream.forward(downstream)
        assert upstream.wants(IterationDone)
        assert not downstream.wants(IterationDone)

    def test_a_forwarding_cycle_raises_a_typed_value_error(self):
        a, b, c = SimKernel(), SimKernel(), SimKernel()
        a.forward(b)
        b.forward(c)
        with pytest.raises(ForwardingCycleError, match="cycle"):
            c.forward(a)
        with pytest.raises(ValueError, match="cycle"):
            a.forward(a)
        assert not a.wants(IterationDone)      # the rejected edges are absent


# --------------------------------------------------------------------------- #
# the record-identity contract
# --------------------------------------------------------------------------- #
def make_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


#: per-engine constructor kwargs that exercise the interesting shape
#: (sharded across 2 single-GPU nodes; disagg with a 1+1 worker split)
ENGINE_EXTRAS = {"sharded": {"tp_degree": 2},
                 "disagg": {"prefill_workers": 1, "decode_workers": 1}}


def make_factory(mgr, engine_name, idle_quantum_s):
    config = EngineConfig(tp_degree=1, idle_quantum_s=idle_quantum_s)
    extra = ENGINE_EXTRAS.get(engine_name, {})

    def factory(node):
        return create_engine(
            engine_name, mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=config, **extra)
    return factory


def build_wrapper(wrapper, mgr, engine_name, idle_quantum_s):
    factory = make_factory(mgr, engine_name, idle_quantum_s)
    if wrapper == "gateway":
        return ServingGateway(factory(None))
    kind, _, arg = wrapper.partition(":")
    balancer = arg if kind == "cluster" else "least-outstanding"
    cluster = ClusterGateway(
        engine_factory=factory,
        cluster=Cluster.from_name("a800", 2, 1), n_replicas=2,
        balancer=balancer)
    if kind == "tenant":
        return TenantGateway(cluster, policy=arg or "fcfs")
    return cluster


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s)


WRAPPERS = ["gateway", "cluster:round-robin", "cluster:least-outstanding",
            "cluster:lineage", "tenant:fcfs", "tenant:vtc"]


class TestKernelDeterminism:
    """Property: replay is record-identical across engines x balancers x
    {gateway, cluster, tenant} wrappers, run-to-run and before/after
    idle-skip (event-driven vs dense-quantum stepping)."""

    @pytest.mark.parametrize("engine_name", ["deltazip", "vllm-scb",
                                             "disagg", "sharded"])
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_replay_identical_across_idle_skip_and_reruns(
            self, engine_name, wrapper):
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=30.0, seed=13)
        mgr = make_manager()
        skip = build_wrapper(wrapper, mgr, engine_name, None)
        first = [record_key(r) for r in skip.replay(trace).records]
        second = [record_key(r) for r in skip.replay(trace).records]
        assert first == second, "replay must be deterministic run-to-run"
        dense = build_wrapper(wrapper, mgr, engine_name, 0.05)
        quantized = [record_key(r) for r in dense.replay(trace).records]
        assert first == quantized, \
            "idle-skip must not change simulated history"
        assert len(first) == len(trace)

    def test_dedicated_engine_identical_through_gateway(self):
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=20.0, seed=5)
        mgr_full = ModelManager(LLAMA_7B)
        mgr_full.register_base("base")
        for i in range(N_MODELS):
            mgr_full.register_full(f"variant-{i:02d}", "base")
        results = []
        for quantum in (None, 0.05):
            engine = create_engine(
                "dedicated", mgr_full, GPUNode(node_from_name("a800", 1)),
                engine_config=EngineConfig(tp_degree=1,
                                           idle_quantum_s=quantum))
            result = ServingGateway(engine).replay(trace)
            results.append([record_key(r) for r in result.records])
        assert results[0] == results[1]

    def test_cluster_journal_identical_across_idle_skip(self):
        """The kernel journal (IterationDone stream) — not just the final
        records — is the same simulated history in both stepping modes."""
        trace = synthetic_trace(N_MODELS, rate=1.5, duration_s=20.0, seed=3)
        mgr = make_manager()
        journals = []
        for quantum in (None, 0.05):
            gateway = ClusterGateway(
                engine_factory=make_factory(mgr, "deltazip", quantum),
                cluster=Cluster.from_name("a800", 2, 1), n_replicas=2,
                journal=True)
            gateway.replay(trace)
            journals.append([e for e in gateway.kernel.journal
                            if isinstance(e, IterationDone)])
        assert journals[0] == journals[1]
        assert len(journals[0]) > 0

    def test_quantum_validation(self):
        with pytest.raises(ValueError, match="idle_quantum_s"):
            EngineConfig(idle_quantum_s=0.0)
