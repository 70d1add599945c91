"""First-class request handles: streaming, cancellation, deadlines.

Covers the PR-5 contract: ``submit()`` returns a ``RequestHandle`` at
every gateway layer; aborted requests free batch slots, refund admission
charge, and surface as distinct terminal states; cancellation is
deterministic (same seed + same cancel schedule → record-identical
across engines × wrappers × idle-skip modes); zero-cancel replay stays
bit-identical to the pre-handle behavior.
"""

import inspect
import json
import math
import re

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ClusterGateway, EngineConfig, HandleStatus,
                           LLAMA_7B, LineageAffinityBalancer, ModelManager,
                           RequestHandle, SchedulerConfig, ServingGateway,
                           StackSpec, Tenant, TenantGateway, build,
                           create_engine)
from repro.serving.router import BaseModelGroup, MultiBaseRouter
from repro.sim import Arrival, Cancel, EventQueue, SimKernel
from repro.telemetry import chrome_trace_events, export_chrome_trace
from repro.workload import (ClosedLoopClient, PatienceModel,
                            impatient_cancel_schedule, synthetic_trace)
from repro.workload.io import load_trace
from repro.workload.spec import TraceRequest

N_MODELS = 4


def make_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


def make_engine(mgr=None, engine_name="deltazip", batch=8, deltas=4,
                idle_quantum_s=None):
    mgr = mgr or make_manager()
    return create_engine(
        engine_name, mgr, GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=batch,
                                         max_concurrent_deltas=deltas),
        engine_config=EngineConfig(tp_degree=1,
                                   idle_quantum_s=idle_quantum_s))


def make_factory(mgr, engine_name, idle_quantum_s=None, **engine_config):
    def factory(node):
        return create_engine(
            engine_name, mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1,
                                       idle_quantum_s=idle_quantum_s,
                                       **engine_config))
    return factory


def build_wrapper(wrapper, mgr, engine_name, idle_quantum_s=None,
                  **engine_config):
    factory = make_factory(mgr, engine_name, idle_quantum_s, **engine_config)
    if wrapper == "gateway":
        return ServingGateway(factory(None))
    if wrapper == "stack":
        return build(StackSpec(
            engine_name, node=node_from_name("a800", 1),
            scheduler=SchedulerConfig(max_batch_requests=8,
                                      max_concurrent_deltas=4),
            config=EngineConfig(tp_degree=1, idle_quantum_s=idle_quantum_s,
                                **engine_config)), mgr)
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
            rec.queue_wait_s, rec.loading_s, rec.inference_s, rec.status,
            rec.served_tokens)


WRAPPERS = ["gateway", "cluster:round-robin", "cluster:least-outstanding",
            "cluster:lineage", "tenant:fcfs", "tenant:vtc"]
#: every client entry point: the gateway layers plus the stack builder
FRONTS = WRAPPERS + ["stack"]
#: the fronts plus a fixed replica set over pre-built engines
LISTENER_FRONTS = FRONTS + ["from-engines"]


def build_listener_front(front, mgr):
    if front == "from-engines":
        return ClusterGateway.from_engines(
            [make_engine(mgr), make_engine(mgr)], names=["r0", "r1"])
    return build_wrapper(front, mgr, "deltazip")


# --------------------------------------------------------------------------- #
# kernel primitives
# --------------------------------------------------------------------------- #
class TestCancelEvent:
    def test_orders_by_time_then_request_id(self):
        queue = EventQueue()
        queue.push(Cancel(time=2.0, request_id=7))
        queue.push(Cancel(time=1.0, request_id=9))
        queue.push(Cancel(time=1.0, request_id=3))
        assert [queue.pop().request_id for _ in range(3)] == [3, 9, 7]

    def test_remove_request(self):
        queue = EventQueue()

        def req(rid, t):
            return TraceRequest(request_id=rid, model_id="m", arrival_s=t,
                                prompt_tokens=8, output_tokens=4)
        for rid, t in ((0, 1.0), (1, 2.0), (2, 3.0)):
            queue.push(Arrival(time=t, request=req(rid, t)))
        removed = queue.remove_request(1)
        assert removed.request.request_id == 1
        assert queue.remove_request(99) is None
        assert len(queue) == 2
        assert queue.count_after(0.0) == 2
        assert [e.request.request_id for e in queue.in_order()] == [0, 2]

    def test_chrome_trace_export(self, tmp_path):
        from repro.sim import IterationDone, ReplicaSpawn
        journal = [ReplicaSpawn(time=0.0, replica_id=0),
                   IterationDone(time=1.0, iter_time_s=0.2, load_time_s=0.1,
                                 source="deltazip"),
                   Cancel(time=1.5, request_id=3, reason="deadline")]
        events = chrome_trace_events(journal)
        assert [e["ph"] for e in events] == ["i", "X", "i"]
        span = events[1]
        assert span["ts"] == pytest.approx((1.0 - 0.3) * 1e6)
        assert span["dur"] == pytest.approx(0.3 * 1e6)
        assert events[2]["name"] == "cancel:deadline"
        path = tmp_path / "trace.json"
        n = export_chrome_trace(journal, str(path))
        assert n == 3
        import json
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == 3


# --------------------------------------------------------------------------- #
# the handle surface (engine-backed gateway)
# --------------------------------------------------------------------------- #
class TestHandleBasics:
    def test_token_stream_drives_the_simulation(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 6)
        events = list(h.tokens)
        assert len(events) == 6
        clocks = [t for t, _ in events]
        assert clocks == sorted(clocks)
        assert [n for _, n in events] == [1, 2, 3, 4, 5, 6]
        assert h.status is HandleStatus.FINISHED
        assert h.record().tokens_served == 6
        # a second iterator replays from the first token
        assert list(h.tokens) == events

    def test_record_raises_until_terminal(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4)
        with pytest.raises(ValueError, match="not terminal"):
            h.record()
        gw.run_until_drained()
        assert h.record().finished

    def test_result_drains_to_completion(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4)
        assert h.result().status == "finished"

    def test_done_callback_fires_on_completion_and_immediately(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4)
        seen = []
        h.add_done_callback(lambda handle: seen.append(handle.id))
        gw.run_until_drained()
        assert seen == [0]
        h.add_done_callback(lambda handle: seen.append(handle.id))
        assert seen == [0, 0]               # already terminal: fires now

    def test_status_progression(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4, arrival_s=5.0)
        assert h.status is HandleStatus.QUEUED          # future arrival
        gw.step()                                       # clock jumps to 5.0
        gw.step()
        assert h.status in (HandleStatus.RUNNING, HandleStatus.FINISHED)

    def test_cancel_mid_flight_charges_only_generated_tokens(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 50)
        stream = iter(h.tokens)
        for _ in range(10):
            next(stream)
        h.cancel()                           # "now", mid-decode
        res = gw.run_until_drained()
        rec = h.record()
        assert h.status is HandleStatus.CANCELLED
        assert rec.status == "cancelled"
        assert 10 <= rec.tokens_served < 50
        assert res.status_counts() == {"cancelled": 1}
        assert res.wasted_token_fraction() == 1.0
        assert gw.engine.stats.aborts == 1

    def test_cancel_before_arrival(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4, arrival_s=100.0)
        h.cancel(at_s=1.0)
        gw.run_until_drained()
        rec = h.record()
        assert rec.status == "cancelled" and rec.tokens_served == 0
        assert rec.finish_s == 100.0         # never negative latency

    def test_deadline_expires_running_request(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 500, deadline_s=0.5)
        gw.run_until_drained()
        rec = h.record()
        assert h.status is HandleStatus.EXPIRED
        assert rec.status == "expired"
        assert 0 < rec.tokens_served < 500
        assert rec.finish_s >= 0.5

    def test_deadline_met_is_not_expired(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4, deadline_s=1000.0)
        gw.run_until_drained()
        assert h.status is HandleStatus.FINISHED

    def test_deadline_validation(self):
        gw = ServingGateway(make_engine())
        with pytest.raises(ValueError, match="deadline_s"):
            gw.submit("variant-00", 32, 4, deadline_s=0.0)

    def test_abort_frees_batch_slot(self):
        """The freed slot admits waiting work before the long requests
        would have finished — the mechanism behind the patience sweep
        of ``test_feature_shapes.py``."""
        gw = ServingGateway(make_engine(batch=2, deltas=2))
        long_a = gw.submit("variant-00", 32, 400)
        long_b = gw.submit("variant-00", 32, 400)
        waiter = gw.submit("variant-00", 32, 4)
        for _ in range(4):
            gw.step()                       # both long requests running
        assert waiter.status is HandleStatus.ADMITTED   # no free slot
        long_a.cancel()
        gw.run_until_drained()
        assert long_a.record().status == "cancelled"
        assert waiter.record().finished
        # the waiter finished long before the surviving long request
        assert waiter.record().finish_s < long_b.record().finish_s

    def test_handle_lookup_and_reset_drops_handles(self):
        gw = ServingGateway(make_engine())
        h = gw.submit("variant-00", 32, 4)
        assert gw.handle(0) is h
        gw.reset()
        assert gw.handle(0) is None


#: a valid envelope, and each field value it must refuse
ENVELOPE = dict(request_id=7, model_id="variant-00", arrival_s=0.0,
                prompt_tokens=32, output_tokens=4)
HOSTILE = [("arrival_s", math.nan), ("arrival_s", math.inf),
           ("arrival_s", -math.inf), ("deadline_s", math.nan),
           ("deadline_s", math.inf), ("prompt_tokens", 0),
           ("prompt_tokens", -5), ("output_tokens", 0),
           ("output_tokens", -5)]


class TestRequestEnvelope:
    """One ``submit()`` builds the one ``TraceRequest`` envelope: the
    same validation and the same tag forwarding behind every front."""

    @pytest.mark.parametrize("front", FRONTS)
    @pytest.mark.parametrize("times", [
        {"arrival_s": math.nan}, {"arrival_s": math.inf},
        {"arrival_s": -math.inf}, {"deadline_s": math.nan},
        {"deadline_s": math.inf}, {"deadline_s": -1.0}],
        ids=lambda times: "{}={}".format(*next(iter(times.items()))))
    def test_non_finite_times_are_rejected(self, front, times):
        """Regression: ``arrival_s=nan`` used to spin ``run_until_drained``
        forever and ``inf`` stranded the request at ``clock == inf``."""
        (name, value), = times.items()
        front = build_wrapper(front, make_manager(), "deltazip")
        with pytest.raises(ValueError, match=f"{name}.*{value!r}"):
            front.submit("variant-00", 32, 4, **times)
        handle = front.submit("variant-00", 32, 4)
        result = front.run_until_drained()
        assert result.n_requests == 1 and handle.record().finished
        assert math.isfinite(front.clock)

    @pytest.mark.parametrize("front", WRAPPERS)
    @pytest.mark.parametrize("field, value", HOSTILE)
    def test_hostile_envelopes_are_rejected_at_ingest(self, front, field,
                                                      value):
        """Regression: through ``ingest`` a NaN arrival hung the drain,
        an infinite one was served as nothing, and 0 / -5 token lengths
        came back ``finished``."""
        front = build_wrapper(front, make_manager(), "deltazip")
        row = dict(ENVELOPE)
        with pytest.raises(ValueError, match=(
                rf"request 7: {field} .*{re.escape(repr(value))}")):
            front.ingest(TraceRequest(**{**row, field: value}))
        front.ingest(TraceRequest(**row))
        result = front.run_until_drained()
        assert [r.status for r in result.records] == ["finished"]
        assert math.isfinite(front.clock)

    @pytest.mark.parametrize("field, value", HOSTILE)
    def test_hostile_rows_are_rejected_by_load_trace(self, tmp_path, field,
                                                     value):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({**ENVELOPE, field: value}) + "\n")
        with pytest.raises(ValueError, match=(
                rf"request 7: {field} .*{re.escape(repr(value))}")):
            load_trace(str(path))

    # round-robin alternates replicas, so turn 2 meets a cold cache there
    @pytest.mark.parametrize(
        "front", [f for f in FRONTS if f != "cluster:round-robin"])
    def test_tags_reach_the_engine(self, front):
        front = build_wrapper(front, make_manager(), "deltazip",
                              prefix_cache=True, prefix_block_tokens=16)
        tags = dict(conversation_id="conv-0", shared_prefix_id="sys",
                    shared_prefix_tokens=64)
        first = front.submit("variant-00", 200, 8, **tags)
        assert isinstance(first, RequestHandle) and first.id == 0
        front.run_until_drained()
        second = front.submit("variant-00", 260, 8, **tags)
        front.run_until_drained()
        assert first.record().cached_prefix_tokens == 0
        assert second.record().cached_prefix_tokens > 0
        assert second.record().conversation_id == "conv-0"

    @pytest.mark.parametrize("front", FRONTS)
    def test_unknown_tag_is_a_type_error(self, front):
        front = build_wrapper(front, make_manager(), "deltazip")
        with pytest.raises(TypeError, match="no_such_tag"):
            front.submit("variant-00", 32, 4, no_such_tag=1)

    def test_no_frontend_names_the_prefix_tags(self):
        """A per-request field that only engines read is threaded by the
        envelope alone: no gateway, stack builder or client spells it."""
        import repro.serving.cluster
        import repro.serving.gateway
        import repro.serving.handle
        import repro.serving.stack
        import repro.serving.tenancy
        import repro.workload.clients
        for module in (repro.serving.gateway, repro.serving.cluster,
                       repro.serving.tenancy, repro.serving.handle,
                       repro.serving.stack, repro.workload.clients):
            assert "shared_prefix" not in inspect.getsource(module), module


class TestTokenListeners:
    def test_add_token_listener_parity(self):
        """Satellite fix: token listeners register like completion
        listeners, without a constructor callback."""
        gw = ServingGateway(make_engine())
        tokens, completions = [], []
        gw.add_token_listener(
            lambda rid, mid, n, t: tokens.append((rid, n)))
        gw.add_completion_listener(lambda rec: completions.append(rec))
        gw.submit("variant-00", 32, 3)
        gw.run_until_drained()
        assert tokens == [(0, 1), (0, 2), (0, 3)]
        assert len(completions) == 1

    def test_listeners_survive_reset(self):
        gw = ServingGateway(make_engine())
        tokens, completions = [], []
        gw.add_token_listener(lambda rid, mid, n, t: tokens.append(n))
        gw.add_completion_listener(lambda rec: completions.append(rec))
        gw.submit("variant-00", 32, 2)
        gw.run_until_drained()
        gw.reset()
        gw.submit("variant-00", 32, 2)
        gw.run_until_drained()
        assert tokens == [1, 2, 1, 2]
        assert len(completions) == 2

    def test_no_listener_no_engine_hook(self):
        engine = make_engine()
        ServingGateway(engine)
        assert engine.on_token is None       # replay paths stay hook-free

    def test_cluster_token_listener_spans_replicas(self):
        mgr = make_manager()
        cluster = ClusterGateway(
            engine_factory=make_factory(mgr, "deltazip"),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=2)
        seen = []
        cluster.add_token_listener(lambda rid, mid, n, t: seen.append(rid))
        cluster.submit("variant-00", 32, 2)
        cluster.submit("variant-01", 32, 2)
        cluster.run_until_drained()
        assert sorted(set(seen)) == [0, 1]

    @pytest.mark.parametrize("front", LISTENER_FRONTS)
    def test_listeners_fire_in_registration_order(self, front):
        """Each token and each completion reaches the listeners in the
        order they were added, and a request's completion follows its
        last token, on every layer."""
        gw = build_listener_front(front, make_manager())
        heard = []
        for tag in ("first", "second"):
            gw.add_token_listener(lambda rid, mid, n, t, tag=tag:
                                  heard.append((tag, rid, n)))
            gw.add_completion_listener(lambda rec, tag=tag:
                                       heard.append((tag, rec.request_id,
                                                     "done")))
        for i in range(3):
            gw.submit(f"variant-{i:02d}", 32, 3)
        result = gw.run_until_drained()
        assert [e[0] for e in heard] == ["first", "second"] * (len(heard) // 2)
        events = [e[1:] for e in heard[::2]]
        assert events == [e[1:] for e in heard[1::2]]
        for rid in range(3):
            assert [n for r, n in events if r == rid] == [1, 2, 3, "done"]
        assert sorted(r.request_id for r in result.records) == [0, 1, 2]

    @pytest.mark.parametrize("front", LISTENER_FRONTS)
    def test_listeners_survive_reset_on_every_front(self, front):
        gw = build_listener_front(front, make_manager())
        tokens, completions = [], []
        gw.add_token_listener(lambda rid, mid, n, t: tokens.append((rid, n)))
        gw.add_completion_listener(
            lambda rec: completions.append(rec.request_id))
        for _ in range(2):
            gw.submit("variant-00", 32, 2)
            gw.run_until_drained()
            gw.reset()
        assert tokens == [(0, 1), (0, 2)] * 2
        assert completions == [0, 0]

    @pytest.mark.parametrize("make", [
        lambda mgr, **kw: ServingGateway(make_engine(mgr), **kw),
        lambda mgr, **kw: ClusterGateway(
            engine_factory=make_factory(mgr, "deltazip"), **kw),
        lambda mgr, **kw: ClusterGateway.from_engines(
            [make_engine(mgr)], **kw),
        lambda mgr, **kw: MultiBaseRouter([BaseModelGroup(
            base_id="base", manager=mgr,
            node=GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(8, 4),
            engine_config=EngineConfig(tp_degree=1))]).gateway(**kw)],
        ids=["serving-gateway", "cluster", "from-engines", "router"])
    def test_listeners_are_added_not_constructed(self, make):
        """The listener methods are the one way in: no constructor takes
        a token or completion callback."""
        mgr = make_manager()
        make(mgr)
        for kwarg in ("on_token", "on_request_complete"):
            with pytest.raises(TypeError, match=kwarg):
                make(mgr, **{kwarg: print})


# --------------------------------------------------------------------------- #
# cluster layer
# --------------------------------------------------------------------------- #
class TestClusterHandles:
    def make_cluster(self, balancer="least-outstanding"):
        return ClusterGateway(
            engine_factory=make_factory(make_manager(), "deltazip"),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=2,
            balancer=balancer)

    def test_streaming_and_cancel_on_routed_request(self):
        cluster = self.make_cluster()
        h = cluster.submit("variant-00", 32, 50)
        stream = iter(h.tokens)
        for _ in range(5):
            next(stream)
        h.cancel()
        res = cluster.run_until_drained()
        assert h.record().status == "cancelled"
        assert 5 <= h.record().tokens_served < 50
        assert res.status_counts()["cancelled"] == 1

    def test_replay_cancel_before_routing_makes_orphan_record(self):
        cluster = self.make_cluster()
        trace = synthetic_trace(N_MODELS, rate=0.5, duration_s=30.0, seed=3)
        # cancel a far-future request before it ever arrives
        victim = trace.requests[-1].request_id
        at = trace.requests[-1].arrival_s - 1.0
        res = cluster.replay(trace, cancels=[(victim, at)])
        assert res.n_requests == len(trace)
        rec = next(r for r in res.records if r.request_id == victim)
        assert rec.status == "cancelled" and rec.tokens_served == 0
        assert res.n_finished == len(trace) - 1

    def test_the_earliest_cancel_before_routing_wins(self) -> None:
        """Two cancels reach the cluster before its request is routed:
        the earlier one decides, in either order, exactly as behind a
        single gateway (the later one used to overwrite it)."""
        request = TraceRequest(request_id=0, model_id="variant-00",
                               arrival_s=1.0, prompt_tokens=64,
                               output_tokens=400)
        outcomes = []
        for gateway, times in ((ServingGateway(make_engine()), (2.0, 6.0)),
                               (self.make_cluster(), (2.0, 6.0)),
                               (self.make_cluster(), (6.0, 2.0))):
            gateway.ingest(request)
            for at_s in times:
                gateway.cancel(0, at_s)
            outcomes.append(record_key(
                gateway.run_until_drained().records[0]))
        assert outcomes[0][7] == "cancelled" and 2.0 <= outcomes[0][2] < 2.1
        assert outcomes[1] == outcomes[2] == outcomes[0]

    def test_a_cancel_for_nothing_waiting_is_dropped_as_stale(self) -> None:
        cluster = self.make_cluster()
        cluster.ingest(TraceRequest(request_id=0, model_id="variant-00",
                                    arrival_s=1.0, prompt_tokens=64,
                                    output_tokens=4))
        cluster.run_until_drained()
        cluster.cancel(0, 50.0)         # retired: no longer routed
        cluster.cancel(12345, 1.0)      # never seen
        assert cluster._pending_cancels == {}
        assert cluster.run_until_drained().status_counts() == {"finished": 1}

    def test_deadline_through_cluster(self):
        cluster = self.make_cluster()
        h = cluster.submit("variant-00", 32, 500, deadline_s=0.5)
        cluster.run_until_drained()
        assert h.status is HandleStatus.EXPIRED

    def test_lineage_unpins_abandoned_work(self):
        balancer = LineageAffinityBalancer()
        cluster = self.make_cluster(balancer=balancer)
        h = cluster.submit("variant-00", 32, 40)
        cluster.step()
        assert "variant-00" in balancer._home
        h.cancel()
        cluster.run_until_drained()
        assert "variant-00" not in balancer._home


# --------------------------------------------------------------------------- #
# tenancy layer: refunds, quota lifts, deadline-vs-shed
# --------------------------------------------------------------------------- #
class TestTenancyCancellation:
    def make_tenant_gateway(self, **kwargs):
        return TenantGateway(ServingGateway(make_engine()), **kwargs)

    def test_frontier_cancel_refunds_bucket_and_billing(self):
        tenant = Tenant("t", rate_tokens_per_s=10.0, burst_tokens=40.0)
        tg = self.make_tenant_gateway(tenants=[tenant])
        controller = tg.controller
        # first request drains the bucket; the second defers behind it
        tg.submit("variant-00", 32, 8, tenant_id="t")
        h2 = tg.submit("variant-00", 32, 8, tenant_id="t")
        assert tg.decision(h2.id).value == "deferred"
        bucket = controller._buckets["t"]
        before = bucket.tokens
        charged_before = controller.stats["t"].tokens_charged
        h2.cancel()
        tg.run_until_drained()
        assert h2.record().status == "cancelled"
        assert bucket.tokens == pytest.approx(before + 40.0)
        assert controller.stats["t"].tokens_charged == \
            pytest.approx(charged_before - 40.0)
        assert controller.stats["t"].cancelled == 1
        # the quota slot freed: nothing left queued for the tenant
        assert controller.queued_for("t") == 0

    def test_dispatched_abort_refunds_unserved_and_lifts_vtc_counter(self):
        tenant = Tenant("t", rate_tokens_per_s=1000.0)
        tg = self.make_tenant_gateway(tenants=[tenant], policy="vtc")
        controller = tg.controller
        h = tg.submit("variant-00", 32, 100, tenant_id="t")
        for _ in range(6):
            tg.step()                       # dispatched and decoding
        counter_at_dispatch = controller.counters()["t"]
        assert counter_at_dispatch == pytest.approx(132.0)
        h.cancel()
        tg.run_until_drained()
        rec = h.record()
        assert rec.status == "cancelled" and 0 < rec.tokens_served < 100
        unserved = 100 - rec.tokens_served
        # counter lifted back down by the weighted un-served decode work
        assert controller.counters()["t"] == \
            pytest.approx(counter_at_dispatch - unserved)
        # billing meters only served work (prompt ran: prefill happened)
        assert controller.stats["t"].tokens_charged == \
            pytest.approx(32 + rec.tokens_served)
        assert controller.stats["t"].cancelled == 1
        # inflight slot released
        assert controller.inflight_for("t") == 0

    def test_weighted_stage_vtc_charge_and_lift(self):
        """Satellite: prefill/decode weights scale both the dispatch
        charge and the cancellation lift."""
        tenant = Tenant("t")
        tg = self.make_tenant_gateway(tenants=[tenant], policy="vtc",
                                      prefill_weight=0.5, decode_weight=2.0)
        controller = tg.controller
        h = tg.submit("variant-00", 32, 100, tenant_id="t")
        for _ in range(6):
            tg.step()
        assert controller.counters()["t"] == \
            pytest.approx(0.5 * 32 + 2.0 * 100)
        h.cancel()
        tg.run_until_drained()
        unserved = 100 - h.record().tokens_served
        assert controller.counters()["t"] == \
            pytest.approx(0.5 * 32 + 2.0 * 100 - 2.0 * unserved)
        summary = tg.result().config["admission"]
        assert summary["prefill_weight"] == 0.5
        assert summary["decode_weight"] == 2.0
        assert summary["cancelled"] == 1

    def test_deadline_expiry_at_frontier_vs_slo_shed(self):
        """A deferred request whose deadline passes at the frontier
        expires (EXPIRED, refunded); an SLO-shed request is SHED.  The
        two terminal states stay distinct in stats and handles."""
        tenant = Tenant("t", rate_tokens_per_s=10.0, burst_tokens=40.0,
                        slo_class="interactive")
        tg = self.make_tenant_gateway(tenants=[tenant])
        controller = tg.controller
        tg.submit("variant-00", 32, 8, tenant_id="t")      # drains bucket
        # deferred ~4s for refill, but the deadline hits at 2s: expires
        # at the frontier without ever reaching an engine
        h = tg.submit("variant-00", 32, 8, tenant_id="t", deadline_s=2.0)
        assert tg.decision(h.id).value == "deferred"
        bucket = controller._buckets["t"]
        res = tg.run_until_drained()
        assert h.status is HandleStatus.EXPIRED
        rec = h.record()
        assert rec.status == "expired" and rec.tokens_served == 0
        assert rec.finish_s == pytest.approx(h.deadline_s)
        assert controller.stats["t"].expired == 1
        assert controller.stats["t"].cancelled == 0
        # full refund: the bucket recovered the whole 40-token charge
        assert bucket.eligible_at(0.0, tg.clock) == tg.clock
        # the expired record is a distinct terminal state in the result
        assert res.status_counts().get("expired") == 1
        # shed stays a *different* terminal state
        assert "shed" not in res.status_counts()

    def test_shed_request_handle_is_terminal_shed(self):
        tenant = Tenant("t", max_outstanding=1)
        tg = self.make_tenant_gateway(tenants=[tenant])
        tg.submit("variant-00", 32, 8, tenant_id="t")
        h = tg.submit("variant-00", 32, 8, tenant_id="t")
        assert h.status is HandleStatus.SHED
        assert h.record().status == "shed"
        # rejected requests do not pollute the served-side result
        res = tg.run_until_drained()
        assert res.n_requests == 1 and res.records[0].finished

    def test_token_streaming_through_tenant_gateway(self):
        """Handles stream at the tenancy layer too — the disconnect
        pattern must work identically behind admission control."""
        tg = self.make_tenant_gateway()
        h = tg.submit("variant-00", 32, 8)
        events = list(h.tokens)
        assert [n for _, n in events] == list(range(1, 9))
        assert h.record().finished
        seen = []
        tg.add_token_listener(lambda rid, mid, n, t: seen.append((rid, n)))
        tg.submit("variant-01", 32, 3)
        tg.run_until_drained()
        assert seen == [(1, 1), (1, 2), (1, 3)]

    def test_explicit_deadline_cancel_survives_dispatch(self):
        """A reason="deadline" cancel() on a frontier-held request must
        still bound it after it dispatches (forwarded like any explicit
        cancel), independent of dispatch timing."""
        tenant = Tenant("t", rate_tokens_per_s=100.0, burst_tokens=100.0)
        tg = self.make_tenant_gateway(tenants=[tenant])
        # deferred briefly behind the bucket, dispatches well before 5s
        tg.submit("variant-00", 80, 8, tenant_id="t")
        h = tg.submit("variant-00", 80, 2000, tenant_id="t")
        tg.cancel(h.id, at_s=5.0, reason="deadline")
        tg.run_until_drained()
        rec = h.record()
        assert rec.status == "expired" and rec.tokens_served < 2000
        assert rec.finish_s >= 5.0
        assert tg.controller.stats["t"].expired == 1

    def test_completion_listener_sees_every_result_record(self):
        """The inherited listener registry fires once per record that
        appears in ``result()`` — frontier-retired ones included."""
        tenant = Tenant("t", rate_tokens_per_s=10.0, burst_tokens=40.0)
        tg = self.make_tenant_gateway(tenants=[tenant])
        seen = []
        tg.add_completion_listener(seen.append)
        tg.submit("variant-00", 32, 8, tenant_id="t")      # drains bucket
        # deferred behind the refill; its deadline expires it at the frontier
        tg.submit("variant-00", 32, 8, tenant_id="t", deadline_s=2.0)
        # withdrawn before it is even offered to admission
        tg.submit("variant-00", 32, 8, arrival_s=100.0).cancel(at_s=1.0)
        res = tg.run_until_drained()
        assert sorted(r.request_id for r in seen) == \
            sorted(r.request_id for r in res.records) == [0, 1, 2]
        assert {r.request_id: r.status for r in seen} == \
            {0: "finished", 1: "expired", 2: "cancelled"}

    def test_unfinished_accounting_after_cancels(self):
        tg = self.make_tenant_gateway()
        h1 = tg.submit("variant-00", 32, 8)
        h2 = tg.submit("variant-00", 32, 8, arrival_s=100.0)
        h2.cancel(at_s=1.0)
        tg.run_until_drained()
        assert tg.unfinished == 0
        assert h1.record().finished and h2.record().status == "cancelled"


# --------------------------------------------------------------------------- #
# determinism: the PR's acceptance property
# --------------------------------------------------------------------------- #
class TestCancellationDeterminism:
    """Same seed + same cancel schedule → record-identical, across
    engines × wrappers, run-to-run, and idle-skip on/off; an empty
    schedule is bit-identical to a no-schedule replay."""

    @pytest.mark.parametrize("engine_name", ["deltazip", "vllm-scb"])
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_cancel_schedule_replay_is_deterministic(self, engine_name,
                                                     wrapper):
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=30.0, seed=13)
        schedule = impatient_cancel_schedule(
            trace, PatienceModel(mean_s=6.0), seed=5)
        mgr = make_manager()
        skip = build_wrapper(wrapper, mgr, engine_name, None)
        first = [record_key(r) for r in
                 skip.replay(trace, cancels=schedule).records]
        second = [record_key(r) for r in
                  skip.replay(trace, cancels=schedule).records]
        assert first == second, "cancel replay must be deterministic"
        dense = build_wrapper(wrapper, mgr, engine_name, 0.05)
        quantized = [record_key(r) for r in
                     dense.replay(trace, cancels=schedule).records]
        assert first == quantized, \
            "idle-skip must not change cancellation history"
        statuses = {k[7] for k in first}
        assert "cancelled" in statuses, "the schedule must actually bite"
        assert len(first) == len(trace)

    @pytest.mark.parametrize("wrapper", ["gateway", "cluster:lineage",
                                         "tenant:vtc"])
    def test_empty_schedule_bit_identical_to_no_schedule(self, wrapper):
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=20.0, seed=7)
        mgr = make_manager()
        gw = build_wrapper(wrapper, mgr, "deltazip", None)
        plain = [record_key(r) for r in gw.replay(trace).records]
        empty = [record_key(r) for r in
                 gw.replay(trace, cancels=[]).records]
        assert plain == empty
        assert all(k[7] == "finished" for k in plain)

    def test_dedicated_engine_cancellation_roundtrip(self):
        mgr = ModelManager(LLAMA_7B)
        mgr.register_base("base")
        for i in range(N_MODELS):
            mgr.register_full(f"variant-{i:02d}", "base")
        engine = create_engine("dedicated", mgr,
                               GPUNode(node_from_name("a800", 1)),
                               engine_config=EngineConfig(tp_degree=1))
        gw = ServingGateway(engine)
        h = gw.submit("variant-00", 32, 50)
        other = gw.submit("variant-01", 32, 4)
        for _ in range(4):
            gw.step()
        h.cancel()
        gw.run_until_drained()
        assert h.record().status == "cancelled"
        assert other.record().finished


# --------------------------------------------------------------------------- #
# workload models: impatience and closed loops
# --------------------------------------------------------------------------- #
class TestImpatientClients:
    def test_schedule_is_deterministic_and_after_arrival(self):
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=1)
        one = impatient_cancel_schedule(trace, PatienceModel(5.0), seed=3)
        two = impatient_cancel_schedule(trace, PatienceModel(5.0), seed=3)
        assert one == two
        assert len(one) == len(trace)
        arrivals = {r.request_id: r.arrival_s for r in trace}
        assert all(at > arrivals[rid] for rid, at in one)

    def test_per_tenant_isolation(self):
        from repro.workload import TenantWorkload, multi_tenant_trace
        trace = multi_tenant_trace(
            [TenantWorkload("a", rate=1.0), TenantWorkload("b", rate=1.0)],
            duration_s=20.0, seed=0)
        both = impatient_cancel_schedule(
            trace, {"a": PatienceModel(3.0), "b": PatienceModel(3.0)}, seed=2)
        only_a = impatient_cancel_schedule(
            trace, {"a": PatienceModel(3.0)}, seed=2)
        a_ids = {r.request_id for r in trace if r.tenant_id == "a"}
        assert dict(only_a) == {rid: at for rid, at in both if rid in a_ids}

    def test_patience_model_validation(self):
        with pytest.raises(ValueError, match="mean_s"):
            PatienceModel(0.0)
        with pytest.raises(ValueError, match="distribution"):
            PatienceModel(1.0, distribution="weird")

    def test_fixed_patience_sample(self):
        import numpy as np
        model = PatienceModel(2.5, distribution="fixed")
        assert model.sample(np.random.default_rng(0)) == 2.5


class TestClosedLoopClient:
    def test_turns_scheduled_as_arrivals_on_completion(self):
        gw = ServingGateway(make_engine())
        client = ClosedLoopClient(gw, "variant-00", n_turns=3,
                                  prompt_tokens=32, output_tokens=4,
                                  think_time_s=2.0)
        client.start()
        while not client.done and gw.step():
            pass
        assert client.turns_submitted == 3 and client.done
        records = [h.record() for h in client.handles]
        assert all(r.finished for r in records)
        for prev, nxt in zip(records, records[1:]):
            # the next turn arrives exactly think-time after the finish
            assert nxt.arrival_s == pytest.approx(prev.finish_s + 2.0)

    def test_impatient_session_abandons(self):
        gw = ServingGateway(make_engine())
        client = ClosedLoopClient(gw, "variant-00", n_turns=5,
                                  prompt_tokens=32, output_tokens=400,
                                  patience_s=0.5)
        client.start()
        while not client.done and gw.step():
            pass
        assert client.abandoned
        assert client.turns_submitted == 1    # gave up, no follow-up turn
        assert client.handles[0].record().status == "cancelled"

    def test_deadline_turns_through_tenant_gateway(self):
        tg = TenantGateway(ServingGateway(make_engine()))
        client = ClosedLoopClient(tg, "variant-00", n_turns=2,
                                  prompt_tokens=32, output_tokens=4,
                                  think_time_s=1.0, deadline_s=60.0)
        client.start()
        while not client.done and tg.step():
            pass
        assert client.done and not client.abandoned
        assert all(h.record().finished for h in client.handles)


# --------------------------------------------------------------------------- #
# one live request per id, at every layer that holds requests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("wrapper", ["gateway", "cluster:least-outstanding",
                                     "tenant:fcfs"])
@pytest.mark.parametrize("engine_name", ["deltazip", "vllm-scb", "dedicated",
                                         "disagg", "sharded"])
def test_an_ingest_reusing_a_live_id_is_rejected(wrapper, engine_name):
    """Regression: a second id 0 used to come back as a second record
    with the same id, or (``disagg``) as one record with one request
    left unfinished for good.  Once the first retired, the id is free."""
    front = build_wrapper(wrapper, make_manager(), engine_name)

    def request(arrival_s):
        return TraceRequest(request_id=0, model_id="variant-00",
                            arrival_s=arrival_s, prompt_tokens=32,
                            output_tokens=8)
    front.ingest(request(0.0))
    with pytest.raises(ValueError, match="request id 0 is already live"):
        front.ingest(request(0.5))
    first = front.run_until_drained()
    assert [(r.request_id, r.status) for r in first.records] == \
        [(0, "finished")]
    front.ingest(request(first.records[0].finish_s + 1.0))
    again = front.run_until_drained()
    assert [(r.request_id, r.status) for r in again.records] == \
        [(0, "finished")] * 2
    assert front.unfinished == 0
