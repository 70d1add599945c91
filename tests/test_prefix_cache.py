"""Prefix/KV-cache reuse: radix index, engine integration, affinity routing.

Covers the PR's three determinism contracts — cache-off replays are
bit-identical to metadata-free ones, cache-on replays are run-to-run
deterministic (including under eviction pressure for every record
policy), and block refcounts conserve through cancellation — plus the
conversation-affinity balancers and patience-based shedding.
"""

from dataclasses import replace
from statistics import median
from typing import Iterable, List

import pytest

from repro.hardware import GPUNode, node_from_name
from repro.hardware.specs import A800, NodeSpec
from repro.serving import (AdmissionController, AdmissionDecision, BALANCERS,
                           ClusterGateway, ConversationAffinityBalancer,
                           EngineConfig, LLAMA_7B,
                           LineageAffinityBalancer, ModelManager, PrefixCache,
                           RecordPolicy, SchedulerConfig, ServingGateway,
                           StreamingMetrics, Tenant, create_balancer,
                           create_engine, prefix_block_keys)
from repro.serving.request import RequestRecord
from repro.workload import session_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 2
BLOCK = 16


def make_manager(n_models=N_MODELS):
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


def make_gateway(mgr=None, prefix_cache=True, node=None, **config):
    engine = create_engine(
        "deltazip", mgr or make_manager(),
        node or GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=2),
        engine_config=EngineConfig(tp_degree=1, prefix_cache=prefix_cache,
                                   prefix_block_tokens=BLOCK, **config))
    return ServingGateway(engine)


def tight_node(memory_gb=17.0):
    """One GPU with barely more memory than the weights, so the KV
    budget is small and the prefix pool is under constant pressure."""
    return GPUNode(NodeSpec(gpu=replace(A800, memory_gb=memory_gb),
                            n_gpus=1))


def conv_req(rid, arrival, prompt, output=8, conv="conv-0", shared=0,
             model="variant-00"):
    return TraceRequest(request_id=rid, model_id=model, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output,
                        conversation_id=conv,
                        shared_prefix_id=f"{model}:sys" if shared else None,
                        shared_prefix_tokens=shared)


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s, rec.status)


def full_key(rec):
    return record_key(rec) + (rec.conversation_id, rec.cached_prefix_tokens)


def strip_metadata(trace):
    requests = [TraceRequest(request_id=r.request_id, model_id=r.model_id,
                             arrival_s=r.arrival_s,
                             prompt_tokens=r.prompt_tokens,
                             output_tokens=r.output_tokens)
                for r in trace.requests]
    return Trace(requests=requests, model_ids=list(trace.model_ids),
                 duration_s=trace.duration_s)


def repeat_turn_ttfts(records: Iterable[RequestRecord]) -> List[float]:
    """TTFTs of the finished turns >= 2 of every conversation."""
    seen, out = set(), []
    for rec in sorted(records, key=lambda r: (r.arrival_s, r.request_id)):
        if rec.conversation_id is not None and rec.finished:
            if rec.conversation_id in seen:
                out.append(rec.ttft_s)
            seen.add(rec.conversation_id)
    return out


def session(duration_s=180.0, seed=3, shared=128, turns=4.0, rate=0.15):
    return session_trace(N_MODELS, rate, duration_s, seed=seed,
                         shared_prefix_tokens=shared, mean_turns=turns)


# --------------------------------------------------------------------------- #
class TestPrefixBlockKeys:
    # Edited with the span-compressed cache: ``prefix_block_keys`` returns
    # runs ``(ident, start_block, end_block)`` instead of one key a block
    # (block ``b`` of a run is the block the old key ``ident + (b,)``
    # named), so these assert run boundaries and idents.  Every property
    # pinned before is still pinned.
    def trace_req(self, prompt=100, shared=40, conv="c1"):
        return conv_req(0, 0.0, prompt, conv=conv, shared=shared)

    def test_complete_blocks_only(self):
        runs = prefix_block_keys(self.trace_req(prompt=100), 100, 16)
        assert runs[0][1] == 0 and runs[-1][2] == 6   # 96 of 100 tokens
        assert all(a[2] == b[1] for a, b in zip(runs, runs[1:]))
        assert prefix_block_keys(self.trace_req(), 15, 16) == []

    def test_shared_then_mixed_then_private(self):
        shared, mixed, private = prefix_block_keys(
            self.trace_req(prompt=100, shared=40), 100, 16)
        assert shared == (("s", "variant-00:sys"), 0, 2)     # 0..32 shared
        assert mixed == (("m", "variant-00:sys", "c1", 8), 2, 3)  # 32..48
        assert private == (("c", "c1"), 3, 6)            # rest conversation

    def test_a_prefix_on_a_block_boundary_has_no_straddling_run(self):
        runs = prefix_block_keys(self.trace_req(shared=32), 100, 16)
        assert [r[0][0] for r in runs] == ["s", "c"]
        assert runs[0][2] == runs[1][1] == 2
        inside = prefix_block_keys(self.trace_req(shared=40), 40, 16)
        assert inside == [(("s", "variant-00:sys"), 0, 2)]   # 40 // 16 blocks

    def test_shared_blocks_agree_across_conversations(self):
        a = prefix_block_keys(self.trace_req(conv="c1"), 32, 16)
        b = prefix_block_keys(self.trace_req(conv="c2"), 32, 16)
        assert a == b                  # both fully inside the shared prefix

    def test_private_tail_disagrees_across_conversations(self):
        a = prefix_block_keys(self.trace_req(conv="c1"), 100, 16)
        b = prefix_block_keys(self.trace_req(conv="c2"), 100, 16)
        assert a[0] == b[0]
        assert all(x[0] != y[0] and x[1:] == y[1:]
                   for x, y in zip(a[1:], b[1:]))

    def test_untagged_request_keys_by_request_id(self):
        r = TraceRequest(request_id=7, model_id="m", arrival_s=0.0,
                         prompt_tokens=64, output_tokens=8)
        assert prefix_block_keys(r, 64, 16) == [(("c", ("req", 7)), 0, 4)]


class TestPrefixCacheStructure:
    # Edited with the span-compressed cache: a chain is ``(deepest
    # segment, blocks)``, not a list of node ids, so these assert hit
    # blocks / ``n_blocks`` / ``n_evictable`` / ``total_refcount`` where
    # they compared lists; the split cases at the end are new.
    SCOPE = ("llama-7b", "variant-00")

    def keys(self, n, conv="c1", shared=0):
        return prefix_block_keys(
            conv_req(0, 0.0, n * BLOCK + 1, conv=conv, shared=shared),
            n * BLOCK, BLOCK)

    def hit(self, cache, n, conv="c1", shared=0):
        chain = cache.lookup(self.SCOPE, self.keys(n, conv, shared))
        return 0 if chain is None else chain[1]

    def test_insert_lookup_roundtrip(self):
        cache = PrefixCache(BLOCK)
        chain = cache.insert(self.SCOPE, self.keys(4))
        assert chain[1] == 4
        assert cache.lookup(self.SCOPE, self.keys(4)) == chain
        assert cache.n_blocks == 4

    def test_lookup_returns_longest_cached_prefix(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(3))
        assert self.hit(cache, 6) == 3
        assert cache.lookup(self.SCOPE, self.keys(6, conv="other")) is None

    def test_scope_separation(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(3))
        other = ("llama-7b", "variant-01")
        assert cache.lookup(other, self.keys(3)) is None

    def test_refcounts_and_underflow(self):
        cache = PrefixCache(BLOCK)
        chain = cache.insert(self.SCOPE, self.keys(2))
        cache.acquire(chain)
        assert cache.total_refcount == 2
        assert cache.n_evictable == 0          # referenced → unevictable
        cache.release(chain)
        assert cache.total_refcount == 0
        assert cache.n_evictable == 1          # only the leaf is evictable
        with pytest.raises(RuntimeError):
            cache.release(chain)

    def test_eviction_is_leaf_first_and_cascades(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(3))
        assert cache.evict(1) == 1             # the depth-3 leaf
        assert cache.n_blocks == 2
        assert self.hit(cache, 3) == self.hit(cache, 2) == 2
        assert cache.evict(10) == 2            # cascade drains the chain
        assert cache.n_blocks == 0

    def test_referenced_blocks_survive_eviction(self):
        cache = PrefixCache(BLOCK)
        chain = cache.insert(self.SCOPE, self.keys(2))
        cache.acquire(chain)
        assert cache.evict(10) == 0
        cache.release(chain)
        assert cache.evict_to(0) == 2

    def test_lru_order_is_touch_order(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(1, conv="a"))
        cache.insert(self.SCOPE, self.keys(1, conv="b"))
        cache.lookup(self.SCOPE, self.keys(1, conv="a"))   # touch a
        cache.evict(1)                                      # drops cold b
        assert cache.lookup(self.SCOPE, self.keys(1, conv="a"))
        assert not cache.lookup(self.SCOPE, self.keys(1, conv="b"))

    # -- the split paths (tests/test_prefix_cache_spans.py compares the
    # same shapes with the per-block cache after every call) ----------- #
    def test_a_partial_hit_pins_only_the_blocks_it_covers(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(6))              # one segment
        assert cache.n_evictable == 1
        part = cache.lookup(self.SCOPE, self.keys(2))
        assert part[1] == 2
        assert cache.n_evictable == 1       # a lookup inside splits nothing
        cache.acquire(part)                 # ... acquire does: [0,2) | [2,6)
        assert (cache.n_blocks, cache.total_refcount) == (6, 2)
        assert cache.evict(10) == 4         # the tail drains, the head stays
        assert self.hit(cache, 6) == 2
        cache.release(part)
        assert cache.total_refcount == 0 and cache.n_evictable == 1
        assert cache.evict(10) == 2 and cache.n_blocks == 0

    def test_an_insert_diverging_inside_a_segment_forks_there(self):
        cache = PrefixCache(BLOCK)
        # one shared id at two extents: 4 shared blocks, then 2
        cache.insert(self.SCOPE, self.keys(6, "a", shared=4 * BLOCK))
        cache.insert(self.SCOPE, self.keys(5, "b", shared=2 * BLOCK))
        assert cache.n_blocks == 6 + 3      # blocks 0-1 are the same blocks
        assert cache.n_evictable == 2
        assert self.hit(cache, 6, "a", shared=4 * BLOCK) == 6
        assert self.hit(cache, 5, "b", shared=2 * BLOCK) == 5
        assert self.hit(cache, 5, "c", shared=2 * BLOCK) == 2
        assert self.hit(cache, 5, "c", shared=3 * BLOCK) == 3

    def test_a_split_chain_drains_tip_first_through_both_halves(self):
        cache = PrefixCache(BLOCK)
        cache.insert(self.SCOPE, self.keys(5))
        part = cache.lookup(self.SCOPE, self.keys(3))
        cache.acquire(part)
        cache.release(part)                 # [0,3) | [3,5), all idle again
        assert cache.n_evictable == 1       # the head has a child
        for left in (4, 3, 2, 1, 0):        # 5th, 4th, then 3rd, 2nd, 1st
            assert cache.evict(1) == 1
            assert self.hit(cache, 5) == left and cache.n_blocks == left
        assert cache.evict(1) == 0


# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_cache_off_ignores_conversation_metadata(self):
        trace = session()
        mgr = make_manager()
        tagged = make_gateway(mgr, prefix_cache=False).replay(trace)
        plain = make_gateway(mgr, prefix_cache=False).replay(
            strip_metadata(trace))
        assert [record_key(r) for r in tagged.records] == \
            [record_key(r) for r in plain.records]
        assert all(r.cached_prefix_tokens == 0 for r in tagged.records)
        assert tagged.stats.prefix_lookups == 0

    def test_cache_on_is_run_to_run_deterministic(self):
        trace = session()
        mgr = make_manager()
        a = make_gateway(mgr, prefix_cache=True).replay(trace)
        b = make_gateway(mgr, prefix_cache=True).replay(trace)
        assert [full_key(r) for r in a.records] == \
            [full_key(r) for r in b.records]
        assert a.stats.prefix_hits == b.stats.prefix_hits > 0

    def test_repeat_turn_reuses_prefix_and_cuts_ttft(self):
        mgr = make_manager()
        turns = [conv_req(0, 0.0, 200, output=50),
                 conv_req(1, 30.0, 290, output=50)]
        trace = Trace(requests=turns, model_ids=["variant-00"],
                      duration_s=60.0)
        off = make_gateway(mgr, prefix_cache=False).replay(trace)
        on = make_gateway(mgr, prefix_cache=True).replay(trace)
        off_t2 = next(r for r in off.records if r.request_id == 1)
        on_t2 = next(r for r in on.records if r.request_id == 1)
        # turn 1's 250-token context = 15 complete 16-token blocks
        assert on_t2.cached_prefix_tokens == 240
        assert on_t2.ttft_s < off_t2.ttft_s
        # the floor on the high-share regime (256-token system prompts,
        # six turns a conversation): the median turn >= 2 reaches its
        # first token at least twice as fast with the cache on
        trace = session(shared=256, turns=6.0)
        off = make_gateway(mgr, prefix_cache=False).replay(trace)
        on = make_gateway(mgr, prefix_cache=True).replay(trace)
        assert on.stats.prefix_hit_rate > 0.0
        assert median(repeat_turn_ttfts(off.records)) >= \
            2.0 * median(repeat_turn_ttfts(on.records))

    def test_refcounts_conserve_at_drain(self):
        gateway = make_gateway(prefix_cache=True)
        gateway.replay(session(duration_s=120.0))
        engine = gateway.engine
        assert engine._prefix_cache.total_refcount == 0
        assert engine._prefix_refs == {}
        assert engine._prefix_cache.n_blocks > 0

    def test_mid_flight_cancel_releases_refs_and_commits_nothing(self):
        gateway = make_gateway(prefix_cache=True)
        first = gateway.submit("variant-00", 200, 50,
                               conversation_id="conv-0")
        gateway.run_until_drained()
        assert first.record().finished
        cache = gateway.engine._prefix_cache
        blocks_after_turn1 = cache.n_blocks
        second = gateway.submit("variant-00", 290, 50,
                                conversation_id="conv-0")
        for _ in range(2):              # admitted: holds prefix refs now
            gateway.step()
        assert cache.total_refcount > 0
        second.cancel()
        gateway.run_until_drained()
        assert second.record().status == "cancelled"
        assert cache.total_refcount == 0
        assert gateway.engine._prefix_refs == {}
        assert cache.n_blocks == blocks_after_turn1   # nothing committed

    def test_a_bounced_admission_counts_its_prefix_hit_once(self):
        # KV admission control sends a looked-up prefill back to the
        # queue and releases its references; the retry looks it up again.
        # The counters are for requests *kept*, so they agree with the
        # records however often an admission bounced.
        trace = session(duration_s=120.0, shared=256, turns=6.0, rate=0.2)
        result = make_gateway(node=tight_node()).replay(trace)
        stats = result.stats
        assert stats.blocked_admissions > 0
        fresh = sum(1 for r in result.records if r.first_token_s is not None)
        assert 0 < stats.prefix_hits <= stats.prefix_lookups <= fresh
        assert stats.prefix_hits == \
            sum(1 for r in result.records if r.cached_prefix_tokens)
        assert stats.prefix_hit_tokens == \
            sum(r.cached_prefix_tokens for r in result.records)

    @pytest.mark.parametrize("policy", [RecordPolicy.KEEP_ALL,
                                        RecordPolicy.SAMPLE_K,
                                        RecordPolicy.DROP])
    def test_eviction_determinism_under_every_record_policy(self, policy):
        trace = session(duration_s=120.0, shared=256, turns=6.0, rate=0.2)
        mgr = make_manager()

        def run():
            gw = make_gateway(mgr, prefix_cache=True, node=tight_node(),
                              record_policy=policy, sample_k=16)
            return gw.replay(trace)

        a, b = run(), run()
        assert a.stats.prefix_evictions == b.stats.prefix_evictions > 0
        assert a.stats.prefix_hits == b.stats.prefix_hits
        assert [full_key(r) for r in a.records] == \
            [full_key(r) for r in b.records]
        assert a.stream.tokens_served == b.stream.tokens_served
        assert a.stream.prefix_saved_tokens == b.stream.prefix_saved_tokens


# --------------------------------------------------------------------------- #
class TestConversationAffinity:
    def replicas(self, n=3):
        mgr = make_manager()

        def factory(node):
            return create_engine(
                "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
                scheduler_config=SchedulerConfig(max_batch_requests=8,
                                                 max_concurrent_deltas=2),
                engine_config=EngineConfig(tp_degree=1))
        from repro.hardware import Cluster
        return ClusterGateway(engine_factory=factory,
                              cluster=Cluster.from_name("a800", n, 1),
                              n_replicas=n,
                              balancer="conversation").replicas

    def test_registered(self):
        assert "conversation" in BALANCERS
        assert isinstance(create_balancer("conversation"),
                          ConversationAffinityBalancer)

    def test_pins_conversation_and_falls_back_untagged(self):
        replicas = self.replicas()
        bal = ConversationAffinityBalancer()
        home = bal.choose("m", replicas, conversation_id="conv-1")
        assert all(bal.choose("m", replicas, conversation_id="conv-1")
                   is home for _ in range(5))
        # untagged requests use the fallback, never disturb the pin
        bal.choose("m", replicas)
        assert bal.choose("m", replicas, conversation_id="conv-1") is home

    def test_draining_home_rehomes(self):
        replicas = self.replicas()
        bal = ConversationAffinityBalancer()
        home = bal.choose("m", replicas, conversation_id="conv-1")
        home.draining = True
        rehomed = bal.choose("m", [r for r in replicas if not r.draining],
                             conversation_id="conv-1")
        assert rehomed is not home
        home.draining = False
        # the pin moved: later turns stay on the new home
        assert bal.choose("m", replicas, conversation_id="conv-1") is rehomed

    def test_on_abandoned_and_on_removed_unpin(self):
        replicas = self.replicas()
        bal = ConversationAffinityBalancer()
        home = bal.choose("m", replicas, conversation_id="conv-1")
        bal.on_abandoned("m", conversation_id="conv-1")
        assert "conv-1" not in bal._home
        again = bal.choose("m", replicas, conversation_id="conv-2")
        bal.on_removed(again)
        assert bal._home == {} or home not in bal._home.values()

    def test_lineage_conversation_pin_outranks_variant_home(self):
        replicas = self.replicas()
        bal = LineageAffinityBalancer()
        variant_home = bal.choose("variant-00", replicas)
        conv_home = bal.choose("variant-00", replicas,
                               conversation_id="conv-9")
        # force the conversation onto a different replica than the
        # variant home, then check the session pin wins
        other = next(r for r in replicas if r is not variant_home)
        bal._conv_home["conv-9"] = other
        assert bal.choose("variant-00", replicas,
                          conversation_id="conv-9") is other
        assert conv_home is not None

    def test_lineage_on_abandoned_unpins_conversation(self):
        replicas = self.replicas()
        bal = LineageAffinityBalancer()
        bal.choose("variant-00", replicas, conversation_id="conv-9")
        assert "conv-9" in bal._conv_home
        bal.on_abandoned("variant-00", conversation_id="conv-9")
        assert "conv-9" not in bal._conv_home

    def test_cluster_replay_with_conversation_balancer_deterministic(self):
        trace = session(duration_s=120.0)
        mgr = make_manager()
        from repro.hardware import Cluster

        def run():
            def factory(node):
                return create_engine(
                    "deltazip", mgr,
                    node or GPUNode(node_from_name("a800", 1)),
                    scheduler_config=SchedulerConfig(
                        max_batch_requests=8, max_concurrent_deltas=2),
                    engine_config=EngineConfig(tp_degree=1,
                                               prefix_cache=True,
                                               prefix_block_tokens=BLOCK))
            gw = ClusterGateway(engine_factory=factory,
                                cluster=Cluster.from_name("a800", 2, 1),
                                n_replicas=2, balancer="conversation")
            return gw.replay(trace)

        a, b = run(), run()
        assert [full_key(r) for r in a.records] == \
            [full_key(r) for r in b.records]


# --------------------------------------------------------------------------- #
class TestPatienceShedding:
    def test_patience_validation_and_threshold(self):
        with pytest.raises(ValueError):
            Tenant("t", patience_s=0.0)
        t = Tenant("t", slo_class="interactive", patience_s=2.0)
        assert t.shed_threshold_s == min(t.slo_s, 2.0)
        assert Tenant("u").shed_threshold_s == Tenant("u").slo_s

    def test_shed_trips_on_patience_before_slo(self):
        controller = AdmissionController(shed=True)
        t = Tenant("p", slo_class="batch", patience_s=3.0)
        controller.register(t)
        assert t.slo_s > 3.0
        r = TraceRequest(request_id=0, model_id="m", arrival_s=0.0,
                         prompt_tokens=32, output_tokens=16, tenant_id="p")
        # within patience → admitted even though it is far from the SLO
        assert controller.offer(r, predicted_ttft_s=2.0) is \
            AdmissionDecision.ADMITTED
        r2 = TraceRequest(request_id=1, model_id="m", arrival_s=0.0,
                          prompt_tokens=32, output_tokens=16, tenant_id="p")
        # would meet the SLO but outlasts the clients' patience → shed
        assert controller.offer(r2, predicted_ttft_s=4.0) is \
            AdmissionDecision.SHED


# --------------------------------------------------------------------------- #
class TestMetricsSurface:
    def rec(self, rid, cached):
        return RequestRecord(
            request_id=rid, model_id="m", arrival_s=0.0, first_token_s=1.0,
            finish_s=2.0, prompt_tokens=64, output_tokens=8,
            queue_wait_s=0.0, loading_s=0.0, inference_s=2.0,
            skipped_line=False, preemptions=0,
            cached_prefix_tokens=cached)

    def test_streaming_metrics_count_prefix_reuse(self):
        m = StreamingMetrics()
        m.observe(self.rec(0, 48))
        m.observe(self.rec(1, 0))
        assert m.prefix_hits == 1
        assert m.prefix_saved_tokens == 48
        view = m.finished_view()
        assert view.prefix_saved_tokens == 48
        other = StreamingMetrics()
        other.observe(self.rec(2, 16))
        m.merge_from(other)
        assert m.prefix_hits == 2 and m.prefix_saved_tokens == 64

    def test_gauge_snapshot_carries_prefix_fields(self):
        from repro.telemetry import GaugeSnapshot
        snap = GaugeSnapshot(time_s=1.0, prefix_hit_rate=0.5,
                             prefix_saved_tokens=320)
        d = snap.as_dict()
        assert d["prefix_hit_rate"] == 0.5
        assert d["prefix_saved_tokens"] == 320
