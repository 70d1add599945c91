"""Disaggregated prefill/decode serving: pool accounting, priced KV
transfers, prefix-aware transfer skipping, mid-transfer cancellation,
and the multi-node sharded engine.

The transfer-cost tests check the engine against the analytic ground
truth in :mod:`repro.serving.kv_transfer` — every finished request that
crossed the prefill/decode boundary must carry exactly the wire time
``plan_kv_transfer`` prices for its uncached KV suffix, and the
engine-level byte/second counters must be the sum of the per-request
plans.
"""

import pytest

from repro.hardware import GPUNode, InterconnectModel, node_from_name
from repro.serving import (EngineConfig, LLAMA_7B, ModelManager,
                           RecordPolicy, SchedulerConfig, ServingGateway,
                           StackSpec, build, create_engine)
from repro.serving.base import ServingEngine
from repro.serving.disagg import ShardedEngine
from repro.serving.kv_transfer import KvTransferPlan, plan_kv_transfer
from repro.workload.spec import Trace, TraceRequest
from repro.sim import KvTransfer, PhaseTransition
from repro.workload import session_trace, synthetic_trace

N_MODELS = 4


def make_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


def make_disagg(mgr=None, prefill=1, decode=1, idle_quantum_s=None,
                **kwargs):
    mgr = mgr or make_manager()
    return create_engine(
        "disagg", mgr, GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=1,
                                   idle_quantum_s=idle_quantum_s),
        prefill_workers=prefill, decode_workers=decode, **kwargs)


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s, rec.status,
            rec.transfer_s)


# --------------------------------------------------------------------------- #
# the priced link
# --------------------------------------------------------------------------- #
class TestInterconnectModel:
    def test_point_to_point_is_latency_plus_bandwidth(self):
        link = InterconnectModel(gbps=25.0, latency_s=10e-6)
        assert link.transfer_time(25e9) == pytest.approx(1.0 + 10e-6)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(-5) == 0.0

    def test_allreduce_is_a_ring(self):
        link = InterconnectModel(gbps=25.0, latency_s=10e-6)
        assert link.allreduce_time(1e9, 1) == 0.0
        assert link.allreduce_time(0, 4) == 0.0
        # 2(n-1) steps, each node streams 2(n-1)/n of the payload
        n, nbytes = 4, 1e9
        steps = 2 * (n - 1)
        expect = steps * 10e-6 + (steps / n * nbytes) / 25e9
        assert link.allreduce_time(nbytes, n) == pytest.approx(expect)

    def test_plan_prices_only_the_uncached_suffix(self):
        spec = make_manager().spec
        link = InterconnectModel()
        full = plan_kv_transfer(spec, link, context_tokens=100)
        half = plan_kv_transfer(spec, link, context_tokens=100,
                                cached_prefix_tokens=50)
        assert full.tokens == 100 and full.cached_tokens == 0
        assert half.tokens == 50 and half.cached_tokens == 50
        assert full.nbytes == 100 * spec.kv_bytes_per_token()
        assert half.nbytes == full.nbytes // 2
        assert half.transfer_s < full.transfer_s
        assert full.transfer_s == pytest.approx(
            link.transfer_time(full.nbytes))

    def test_plan_fully_cached_is_skipped_and_free(self):
        spec = make_manager().spec
        plan = plan_kv_transfer(spec, InterconnectModel(),
                                context_tokens=64,
                                cached_prefix_tokens=999)  # clamped
        assert plan.skipped
        assert plan == KvTransferPlan(tokens=0, cached_tokens=64,
                                      nbytes=0, transfer_s=0.0)

    def test_plan_rejects_negative_context(self):
        with pytest.raises(ValueError, match="context_tokens"):
            plan_kv_transfer(make_manager().spec, InterconnectModel(),
                             context_tokens=-1)


# --------------------------------------------------------------------------- #
# pool accounting
# --------------------------------------------------------------------------- #
class TestPoolAccounting:
    def test_constructor_validation(self):
        mgr = make_manager()
        with pytest.raises(ValueError, match="at least one worker"):
            make_disagg(mgr, prefill=0)
        with pytest.raises(ValueError, match="prefill_chunk_tokens"):
            make_disagg(mgr, prefill_chunk_tokens=0)

    def test_pools_are_fixed_across_a_replay_and_reset(self):
        engine = make_disagg(prefill=2, decode=3)

        def layout():
            return [[(w.id, w.name) for w in pool]
                    for pool in (engine._prefill_pool, engine._decode_pool)]

        def nodes():
            return {id(w.node)
                    for w in engine._prefill_pool + engine._decode_pool}

        want = [[(0, "disagg.prefill0"), (1, "disagg.prefill1")],
                [(2, "disagg.decode2"), (3, "disagg.decode3"),
                 (4, "disagg.decode4")]]
        assert layout() == want
        held = nodes()
        assert len(held) == 5                    # one node per worker
        res = ServingGateway(engine).replay(
            synthetic_trace(N_MODELS, rate=2.0, duration_s=10.0, seed=5))
        assert res.records and engine.unfinished == 0
        engine.reset()
        assert layout() == want and nodes() == held

    def test_pool_gauges_and_result_config(self):
        engine = make_disagg(prefill=2, decode=3)
        gauges = engine.pool_gauges()
        assert gauges["prefill_workers"] == 2.0
        assert gauges["decode_workers"] == 3.0
        assert gauges["prefill_backlog"] == gauges["decode_backlog"] == 0.0
        cfg = engine.result_config()
        assert cfg["prefill_workers"] == 2
        assert cfg["decode_workers"] == 3
        assert cfg["kv_link_gbps"] == InterconnectModel().gbps

    def test_every_request_completes_through_both_pools(self):
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=9)
        gw = ServingGateway(make_disagg(prefill=2, decode=2))
        res = gw.replay(trace)
        assert len(res.records) == len(trace)
        assert all(r.finished for r in res.records)
        engine = gw.engine
        assert engine.unfinished == 0
        assert not engine._in_transfer and not engine._owner_of


# --------------------------------------------------------------------------- #
# transfer cost: engine vs analytic ground truth
# --------------------------------------------------------------------------- #
class TestTransferCostGroundTruth:
    def test_records_carry_exactly_the_planned_wire_time(self):
        """Without a prefix cache the handoff moves prompt+1 KV rows
        (the prefill worker generates exactly the first token); the
        record's transfer_s must equal the plan's to the float."""
        mgr = make_manager()
        link = InterconnectModel()
        gw = ServingGateway(make_disagg(mgr))
        handles = [gw.submit("variant-00", 128, 16),
                   gw.submit("variant-01", 512, 8, arrival_s=0.5),
                   gw.submit("variant-02", 64, 1, arrival_s=1.0)]
        gw.run_until_drained()
        spec = mgr.spec
        for h, prompt, out in zip(handles, (128, 512, 64), (16, 8, 1)):
            rec = h.record()
            assert rec.status == "finished"
            if out <= 1:        # finishes on the prefill worker: no move
                assert rec.transfer_s == 0.0
                continue
            plan = plan_kv_transfer(spec, link, context_tokens=prompt + 1)
            assert rec.transfer_s == pytest.approx(plan.transfer_s)

    def test_engine_counters_sum_the_per_request_plans(self):
        mgr = make_manager()
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=15.0, seed=4)
        gw = ServingGateway(make_disagg(mgr, prefill=1, decode=1))
        res = gw.replay(trace)
        spec, link = mgr.spec, InterconnectModel()
        moved = [r for r in res.records if r.output_tokens > 1]
        plans = [plan_kv_transfer(spec, link,
                                  context_tokens=r.prompt_tokens + 1)
                 for r in moved]
        stats = gw.engine.stats
        assert stats.kv_transfers == len(moved) > 0
        assert stats.kv_transfer_bytes == sum(p.nbytes for p in plans)
        assert stats.kv_transfer_s == pytest.approx(
            sum(p.transfer_s for p in plans))
        assert all(r.transfer_s == 0.0 for r in res.records
                   if r.output_tokens <= 1)

    def test_kv_transfer_events_match_the_counters(self):
        engine = make_disagg()
        events = []
        engine.on_event = events.append
        gw = ServingGateway(engine)
        gw.replay(synthetic_trace(N_MODELS, rate=1.0, duration_s=10.0,
                                  seed=2))
        moves = [e for e in events if isinstance(e, KvTransfer)]
        phases = [e for e in events if isinstance(e, PhaseTransition)
                  and e.phase == "transfer"]
        assert len(moves) == engine.stats.kv_transfers > 0
        assert len(phases) == len(moves)
        assert sum(m.nbytes for m in moves) == engine.stats.kv_transfer_bytes
        for m in moves:
            assert m.src.startswith("disagg.prefill")
            assert m.dst.startswith("disagg.decode")
            assert m.transfer_s > 0.0


# --------------------------------------------------------------------------- #
# prefix cache x disaggregation
# --------------------------------------------------------------------------- #
class TestPrefixCacheSkipsTransferBytes:
    def test_cached_prefixes_shrink_the_wire(self):
        """Session traffic re-sends its accumulated context every turn;
        with the radix prefix cache on, only the uncached suffix crosses
        the prefill→decode link, so total transferred bytes must drop
        while every request still completes."""
        trace = session_trace(N_MODELS, rate=0.15, duration_s=60.0, seed=7)
        totals = {}
        for cached in (False, True):
            mgr = make_manager()
            engine = create_engine(
                "disagg", mgr, GPUNode(node_from_name("a800", 1)),
                scheduler_config=SchedulerConfig(max_batch_requests=8,
                                                 max_concurrent_deltas=4),
                engine_config=EngineConfig(tp_degree=1,
                                           prefix_cache=cached),
                prefill_workers=1, decode_workers=1)
            res = ServingGateway(engine).replay(trace)
            assert all(r.finished for r in res.records)
            totals[cached] = engine.stats.kv_transfer_bytes
        assert totals[True] < totals[False]

    def test_cached_records_price_only_the_suffix(self):
        trace = session_trace(N_MODELS, rate=0.15, duration_s=60.0, seed=7)
        mgr = make_manager()
        engine = create_engine(
            "disagg", mgr, GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1, prefix_cache=True),
            prefill_workers=1, decode_workers=1)
        res = ServingGateway(engine).replay(trace)
        hits = [r for r in res.records
                if r.output_tokens > 1 and r.cached_prefix_tokens > 0]
        assert hits, "session trace must produce prefix hits"
        spec, link = mgr.spec, InterconnectModel()
        for rec in hits:
            full = plan_kv_transfer(spec, link,
                                    context_tokens=rec.prompt_tokens + 1)
            assert rec.transfer_s < full.transfer_s


# --------------------------------------------------------------------------- #
# cancellation across the pool boundary
# --------------------------------------------------------------------------- #
class TestCancelAcrossPools:
    def test_cancel_mid_transfer_conserves_accounting(self):
        """A cancel landing inside the KV-transfer window (after prefill
        finished, before the decode copy arrives) must still retire the
        request exactly once and leave no transfer bookkeeping behind."""
        probe = ServingGateway(make_disagg())
        ph = probe.submit("variant-00", 256, 32)
        probe.run_until_drained()
        rec = ph.record()
        assert rec.transfer_s > 0.0
        mid_transfer = rec.first_token_s + rec.transfer_s / 2.0

        gw = ServingGateway(make_disagg())
        h = gw.submit("variant-00", 256, 32)
        h.cancel(at_s=mid_transfer)
        res = gw.run_until_drained()
        assert h.record().status == "cancelled"
        assert res.status_counts() == {"cancelled": 1}
        engine = gw.engine
        assert engine.unfinished == 0
        assert not engine._in_transfer
        assert not engine._owner_of and not engine._cancel_log
        assert engine.stats.aborts == 1

    def test_bulk_cancels_retire_every_request_exactly_once(self):
        gw = ServingGateway(make_disagg(prefill=2, decode=2))
        handles = [gw.submit(f"variant-{i % N_MODELS:02d}", 128, 400,
                             arrival_s=0.2 * i) for i in range(12)]
        cancelled = [(i, h) for i, h in enumerate(handles) if i % 3 == 0]
        for j, (i, h) in enumerate(cancelled):
            # shortly after each victim's own arrival, staggered so the
            # cancels land across queueing, prefill, and decode
            h.cancel(at_s=0.2 * i + 0.1 + 0.4 * j)
        res = gw.run_until_drained()
        assert len(res.records) == 12
        counts = res.status_counts()
        assert counts.get("cancelled", 0) == len(cancelled)
        assert counts.get("finished", 0) == 12 - len(cancelled)
        assert gw.engine.stats.aborts == len(cancelled)
        assert gw.engine.unfinished == 0
        assert not gw.engine._in_transfer


# --------------------------------------------------------------------------- #
# one retire body
# --------------------------------------------------------------------------- #
class TestOneRetireBody:
    """A finish, a mid-batch cancel, a deadline expiry and (on ``disagg``)
    a retirement that crossed the KV handoff all go through
    ``ServingEngine._retire``: same counters, same ``finished`` / ``_live``
    bookkeeping, one ``retire`` phase event each."""

    @pytest.mark.parametrize("policy", [RecordPolicy.KEEP_ALL,
                                        RecordPolicy.DROP])
    @pytest.mark.parametrize("kind", ["deltazip", "disagg"])
    def test_every_terminal_path_goes_through_it(self, kind, policy,
                                                 monkeypatch):
        workers = dict(prefill_workers=1, decode_workers=1) \
            if kind == "disagg" else {}
        engine = create_engine(
            kind, make_manager(), GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1, record_policy=policy),
            **workers)
        events = []
        engine.on_event = events.append
        calls = []                  # (ids, records) per call on `engine`
        inner = ServingEngine._retire

        def spy(self, requests):
            inner(self, requests)
            if self is engine:
                calls.append(([r.request_id for r in requests],
                              [r.record() for r in requests]))

        monkeypatch.setattr(ServingEngine, "_retire", spy)
        for rid, (model, output, deadline) in enumerate([
                ("variant-00", 6, None), ("variant-01", 400, None),
                ("variant-00", 400, 3.0), ("variant-01", 6, None)]):
            engine.submit(TraceRequest(
                request_id=rid, model_id=model, arrival_s=0.0,
                prompt_tokens=32, output_tokens=output, deadline_s=deadline))
        engine.schedule_cancel(1, 2.0)
        engine.run_until_drained()

        assert all(ids for ids, _ in calls)      # never an empty partition
        order = [rid for ids, _ in calls for rid in ids]
        assert sorted(order) == [0, 1, 2, 3]
        assert order[2:] == [1, 2]               # finishes, cancel, expiry
        by_id = {rec.request_id: rec for _, recs in calls for rec in recs}
        assert [by_id[i].status for i in range(4)] == \
            ["finished", "cancelled", "expired", "finished"]
        # cancelled and expired mid-batch: part of the output was served
        assert 0 < by_id[1].served_tokens < 400
        assert by_id[1].served_tokens < by_id[2].served_tokens < 400
        if kind == "disagg":
            assert all(rec.transfer_s > 0.0 for rec in by_id.values())
        else:
            assert [0, 3] in [ids for ids, _ in calls]   # one partition

        assert engine._n_retired == 4 and engine.unfinished == 0
        assert engine.metrics.n_observed == 4
        assert engine.metrics.status_counts() == \
            {"finished": 2, "cancelled": 1, "expired": 1}
        # (edited: the retire order is read from the records the sink
        # kept; the requests themselves are released under every policy)
        assert engine._live == {}
        if policy is RecordPolicy.KEEP_ALL:
            assert [r.request_id for r in engine.metrics.records] == order
            assert engine.metrics.records == \
                [by_id[rid] for rid in order]
        else:
            assert engine.metrics.records == []
        retires = [(e.request_id, e.status) for e in events
                   if isinstance(e, PhaseTransition) and e.phase == "retire"
                   and e.source == engine.name]
        assert retires == [(rid, by_id[rid].status) for rid in order]


# --------------------------------------------------------------------------- #
# token forwarding: wired only while someone listens
# --------------------------------------------------------------------------- #
class TestTokenForwarding:
    @staticmethod
    def engine_and_trace():
        trace = Trace(requests=[
            TraceRequest(request_id=i, model_id=f"variant-{i % N_MODELS:02d}",
                         arrival_s=0.15 * i, prompt_tokens=40 + 8 * i,
                         output_tokens=1 if i == 3 else 6 + 5 * (i % 4))
            for i in range(10)],
            model_ids=[f"variant-{i:02d}" for i in range(N_MODELS)],
            duration_s=2.0)
        return make_disagg(prefill=1, decode=2), trace

    @staticmethod
    def workers(engine):
        return engine._prefill_pool + engine._decode_pool

    def test_no_listener_means_no_worker_pays_per_token(self):
        engine, trace = self.engine_and_trace()
        for request in trace:
            engine.submit(request)
        while engine.step():
            assert all(w.on_token is None for w in self.workers(engine))
        assert engine.unfinished == 0
        # the canonical requests still end up with everything a listener
        # would have synced token by token (edited: read from their records)
        records = engine.metrics.records
        assert len(records) == len(trace)
        for rec in records:
            assert rec.served_tokens == rec.output_tokens
            assert rec.first_token_s is not None
            assert rec.first_token_s <= rec.finish_s

    def stream(self, attach_at):
        """Every forwarded token as (step, request, n_generated, clock);
        the listener goes in before step ``attach_at``."""
        engine, trace = self.engine_and_trace()
        for request in trace:
            engine.submit(request)
        seen = []
        step = 0
        while True:
            if step == attach_at:
                engine.on_token = lambda req, clock: seen.append(
                    (step, req.request_id, req.generated_tokens, clock))
            if not engine.step():
                break
            step += 1
        return seen, [record_key(r) for r in engine.build_result().records]

    @pytest.mark.parametrize("attach_at", [5, 17, 40])
    def test_a_late_listener_hears_the_always_on_stream_from_then_on(
            self, attach_at):
        always, records = self.stream(0)
        late, late_records = self.stream(attach_at)
        assert late_records == records            # listening changes nothing
        # effective at that very step: nothing from it on is missed
        assert late and late == [t for t in always if t[0] >= attach_at]
        # mid-decode for some request: its count did not restart
        assert any(n > 1 for _, _, n, _ in late[:4])

    def test_a_listener_that_leaves_unwires_the_workers(self):
        engine, trace = self.engine_and_trace()
        for request in trace:
            engine.submit(request)
        engine.on_token = lambda req, clock: None
        assert engine.step()
        assert all(w.on_token is not None for w in self.workers(engine))
        engine.on_token = None
        assert engine.step()
        assert all(w.on_token is None for w in self.workers(engine))

    def test_lookup_mid_decode_reads_the_surrogate(self):
        engine, trace = self.engine_and_trace()
        for request in trace:
            engine.submit(request)
        compared = 0
        while engine.step():
            for worker in engine._decode_pool:
                for surrogate in worker.running:
                    rid = surrogate.request_id
                    assert engine._live[rid].generated_tokens \
                        <= surrogate.generated_tokens     # nobody told it
                    canonical = engine.lookup(rid)
                    assert canonical.generated_tokens == \
                        surrogate.generated_tokens > 1
                    assert canonical.first_token_s is not None
                    assert canonical.state.value == "running"
                    compared += 1
        assert compared > 20
        # (edited: a terminal lookup is None; the record carries the tokens)
        assert engine.lookup(3) is None
        by_id = {r.request_id: r for r in engine.metrics.records}
        assert by_id[3].served_tokens == 1
        assert engine.lookup(999) is None


# --------------------------------------------------------------------------- #
# sharded multi-node tensor parallelism
# --------------------------------------------------------------------------- #
class TestShardedEngine:
    def test_uneven_shard_is_rejected(self):
        mgr = make_manager()
        with pytest.raises(ValueError, match="does not shard evenly"):
            create_engine("sharded", mgr,
                          GPUNode(node_from_name("a800", 2)),
                          scheduler_config=SchedulerConfig(),
                          tp_degree=3, n_nodes=2)

    def test_cross_node_allreduce_costs_more_than_nvlink(self):
        """Equal GPU count, equal tp degree: splitting the group across
        two nodes adds the per-layer RDMA all-reduce surcharge, so the
        same trace must finish strictly slower than the single-node
        NVLink ring."""
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=15.0, seed=3)
        lat = {}
        for name, node_gpus, extra in (
                ("deltazip", 2, {}),
                ("sharded", 1, {"tp_degree": 2})):
            mgr = make_manager()
            engine = create_engine(
                name, mgr, GPUNode(node_from_name("a800", node_gpus)),
                scheduler_config=SchedulerConfig(max_batch_requests=8,
                                                 max_concurrent_deltas=4),
                engine_config=EngineConfig(tp_degree=2), **extra)
            res = ServingGateway(engine).replay(trace)
            assert all(r.finished for r in res.records)
            lat[name] = sum(r.e2e_latency_s for r in res.records)
        assert lat["sharded"] > lat["deltazip"]

    def test_result_config_reports_the_shard_topology(self):
        engine = create_engine(
            "sharded", make_manager(), GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(), tp_degree=4)
        assert isinstance(engine, ShardedEngine)
        cfg = engine.result_config()
        assert cfg["n_nodes"] == 4 and cfg["per_node_tp"] == 1
        assert cfg["interconnect_gbps"] == InterconnectModel().gbps

    def test_single_node_shard_matches_deltazip_exactly(self):
        """n_nodes=1 must be a pure DeltaZipEngine: no surcharge, records
        bit-identical to the colocated baseline."""
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=10.0, seed=6)
        results = []
        for name in ("deltazip", "sharded"):
            engine = create_engine(
                name, make_manager(), GPUNode(node_from_name("a800", 1)),
                scheduler_config=SchedulerConfig(max_batch_requests=8,
                                                 max_concurrent_deltas=4),
                engine_config=EngineConfig(tp_degree=1),
                **({"tp_degree": 1, "n_nodes": 1}
                   if name == "sharded" else {}))
            res = ServingGateway(engine).replay(trace)
            results.append([record_key(r) for r in res.records])
        assert results[0] == results[1]


# --------------------------------------------------------------------------- #
# stack-builder entry points (the spec documented in the README)
# --------------------------------------------------------------------------- #
class TestStackBuilder:
    @staticmethod
    def _serve(engine, **engine_kwargs):
        trace = synthetic_trace(2, rate=2.0, duration_s=10.0, seed=3)
        mgr = ModelManager(LLAMA_7B)
        mgr.register_base("base")
        for model_id in trace.model_ids:
            mgr.register_delta(model_id, "base", 8.0)
        spec = StackSpec(engine, node=node_from_name("a800", 1),
                         engine_kwargs=engine_kwargs)
        return build(spec, mgr).replay(trace), trace

    def test_disaggregated_stack_serves_through_pools(self):
        res, trace = self._serve("disagg", prefill_workers=2,
                                 decode_workers=2)
        assert res.n_requests == len(trace)
        assert all(r.finished for r in res.records)
        # multi-token requests crossed the prefill/decode boundary
        assert res.stats.kv_transfers > 0
        assert any(r.transfer_s > 0 for r in res.records)

    def test_sharded_stack_sets_the_tp_degree(self):
        res, _ = self._serve("sharded", tp_degree=2)
        assert all(r.finished for r in res.records)
        assert res.config["n_nodes"] == 2 and res.config["per_node_tp"] == 1
