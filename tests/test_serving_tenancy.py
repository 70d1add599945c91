"""Multi-tenant admission control: buckets, VTC fair queueing, shedding."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (AdmissionController, AdmissionDecision,
                           ClusterGateway, DEFAULT_TENANT, EngineConfig,
                           LLAMA_7B, ModelManager, SchedulerConfig,
                           ServingGateway, SLO_CLASSES, StackSpec, Tenant,
                           TenantGateway, TokenBucket, build, create_engine)
from repro.workload import TenantWorkload, multi_tenant_trace, synthetic_trace
from repro.workload.spec import TraceRequest

N_MODELS = 6


def make_manager(model_ids=None, ratio=8.0):
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for m in model_ids or [f"variant-{i:02d}" for i in range(N_MODELS)]:
        mgr.register_delta(m, "base", ratio)
    return mgr


def make_gateway(mgr=None, k=8, n_deltas=4):
    mgr = mgr or make_manager()
    engine = create_engine(
        "deltazip", mgr, GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=k,
                                         max_concurrent_deltas=n_deltas),
        engine_config=EngineConfig(tp_degree=1))
    return ServingGateway(engine)


def make_cluster_gateway(mgr=None, n_replicas=2, **kwargs):
    mgr = mgr or make_manager()

    def factory(node):
        engine_mgr = mgr
        return create_engine(
            "deltazip", engine_mgr,
            node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1))

    return ClusterGateway(engine_factory=factory,
                          cluster=Cluster.from_name("a800", n_replicas, 1),
                          n_replicas=n_replicas, **kwargs)


def overload_trace(duration_s=60.0, seed=11):
    """One aggressive tenant drowning two light ones."""
    return multi_tenant_trace(
        [TenantWorkload("agg", rate=5.0, n_models=2),
         TenantWorkload("gold", rate=0.3, n_models=2),
         TenantWorkload("silver", rate=0.3, n_models=2)],
        duration_s=duration_s, seed=seed)


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s)


# --------------------------------------------------------------------------- #
class TestTenant:
    def test_defaults_are_unthrottled(self):
        t = Tenant("t")
        assert t.unthrottled
        assert t.weight == 1.0
        assert t.slo_s == SLO_CLASSES["standard"]

    def test_slo_resolution(self):
        assert Tenant("t", slo_class="interactive").slo_s == \
            SLO_CLASSES["interactive"]
        assert Tenant("t", slo_class="batch", ttft_slo_s=7.5).slo_s == 7.5

    def test_burst_defaults_to_four_seconds_of_rate(self):
        assert Tenant("t", rate_tokens_per_s=50.0).resolved_burst() == 200.0
        assert Tenant("t").resolved_burst() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Tenant("")
        with pytest.raises(ValueError):
            Tenant("t", weight=0.0)
        with pytest.raises(ValueError):
            Tenant("t", slo_class="platinum")
        with pytest.raises(ValueError):
            Tenant("t", rate_tokens_per_s=0.0)
        with pytest.raises(ValueError):
            Tenant("t", burst_tokens=10.0)   # burst without rate
        with pytest.raises(ValueError):
            Tenant("t", max_outstanding=0)


class TestTokenBucket:
    def test_starts_full_and_charges(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        assert bucket.charge(60.0, now=0.0) == 0.0
        assert bucket.tokens == pytest.approx(40.0)

    def test_refills_with_time_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        bucket.charge(100.0, now=0.0)
        assert bucket.eligible_at(50.0, now=2.0) == pytest.approx(5.0)
        bucket.charge(50.0, now=1000.0)   # long idle: capped at burst
        assert bucket.tokens == pytest.approx(50.0)

    def test_borrow_ahead_serializes_deferrals(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        first = bucket.charge(30.0, now=0.0)    # needs 20 more tokens
        second = bucket.charge(30.0, now=0.0)   # queues behind the first
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(5.0)

    def test_clock_never_rewinds(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket.charge(10.0, now=5.0)
        assert bucket.charge(5.0, now=1.0) == pytest.approx(5.5)

    def test_refund_restores_up_to_burst(self):
        bucket = TokenBucket(rate=1.0, burst=10.0)
        bucket.charge(6.0, now=0.0)
        bucket.refund(100.0)
        assert bucket.tokens == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


def req(rid, tenant=None, arrival=0.0, prompt=32, output=16, model="m"):
    return TraceRequest(request_id=rid, model_id=model, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output,
                        tenant_id=tenant)


class TestAdmissionController:
    def test_passthrough_detection(self):
        assert AdmissionController().passthrough
        assert not AdmissionController(policy="vtc").passthrough
        assert not AdmissionController(shed=True).passthrough
        assert not AdmissionController(engine_queue_depth=4).passthrough
        assert not AdmissionController(
            tenants=[Tenant("t", max_outstanding=1)]).passthrough

    def test_unknown_tenants_autoregister_unthrottled(self):
        controller = AdmissionController()
        tenant = controller.tenant("newcomer")
        assert tenant.tenant_id == "newcomer" and tenant.unthrottled
        assert controller.tenant(None).tenant_id == DEFAULT_TENANT
        assert controller.passthrough

    def test_duplicate_registration_rejected(self):
        controller = AdmissionController(tenants=[Tenant("a")])
        with pytest.raises(ValueError, match="duplicate"):
            controller.register(Tenant("a"))

    def test_quota_rejects_when_loaded(self):
        controller = AdmissionController(
            tenants=[Tenant("q", max_outstanding=1)])
        assert controller.offer(req(0, "q")) is AdmissionDecision.ADMITTED
        assert controller.offer(req(1, "q")) is AdmissionDecision.REJECTED
        assert controller.stats["q"].rejected == 1

    def test_bucket_defers(self):
        tenants = [Tenant("m", rate_tokens_per_s=10.0, burst_tokens=50.0)]
        controller = AdmissionController(tenants=tenants)
        # 48 tokens fits the burst; the next 48 must wait on refill
        assert controller.offer(req(0, "m")) is AdmissionDecision.ADMITTED
        assert controller.offer(req(1, "m")) is AdmissionDecision.DEFERRED

    def test_shed_compares_prediction_to_tenant_slo(self):
        controller = AdmissionController(shed=True)
        t = Tenant("s", slo_class="interactive")
        controller.register(t)
        ok = controller.offer(req(0, "s"), predicted_ttft_s=5.0)
        dropped = controller.offer(req(1, "s"),
                                   predicted_ttft_s=t.slo_s + 1.0)
        assert ok is AdmissionDecision.ADMITTED
        assert dropped is AdmissionDecision.SHED
        # without a prediction (cold start) nothing is shed
        assert controller.offer(req(2, "s")) is AdmissionDecision.ADMITTED

    def test_fcfs_releases_in_arrival_order(self):
        controller = AdmissionController()
        controller.offer(req(1, arrival=2.0))
        controller.offer(req(0, arrival=1.0))
        assert controller.pop(10.0).request_id == 0
        assert controller.pop(10.0).request_id == 1
        assert controller.pop(10.0) is None

    def test_fcfs_respects_eligibility(self):
        controller = AdmissionController(
            tenants=[Tenant("m", rate_tokens_per_s=10.0, burst_tokens=48.0)])
        controller.offer(req(0, "m", arrival=0.0))   # eligible at 0
        controller.offer(req(1, "m", arrival=0.0))   # deferred to 4.8
        assert controller.pop(0.0).request_id == 0
        assert controller.pop(0.0) is None
        assert controller.next_eligible_s() == pytest.approx(4.8)
        assert controller.pop(5.0).request_id == 1

    def test_vtc_picks_min_counter_and_charges_by_weight(self):
        controller = AdmissionController(policy="vtc",
                                         tenants=[Tenant("a"),
                                                  Tenant("b", weight=2.0)])
        for i in range(4):
            controller.offer(req(2 * i, "a", arrival=0.0))
            controller.offer(req(2 * i + 1, "b", arrival=0.0))
        order = [controller.pop(0.0) for _ in range(8)]
        tenants = [r.tenant_id for r in order]
        # b is double-weighted: after both serve once (counters 48 vs 24),
        # b runs ahead — strictly more b than a in the first half
        assert tenants[0] == "a"                  # ties break by id
        assert tenants[1] == "b"
        first_half = tenants[:4]
        assert first_half.count("b") >= first_half.count("a")
        counters = controller.counters()
        assert counters["a"] == pytest.approx(4 * 48.0)
        assert counters["b"] == pytest.approx(4 * 48.0 / 2.0)

    def test_vtc_counter_lift_prevents_banked_idle_credit(self):
        """Regression: the lift must use the *active* tenants' counter
        floor (the returning tenant's own zero counter excluded) — a
        long-idle tenant re-enters at parity, alternating with the busy
        tenant, instead of cashing its banked credit to monopolize."""
        controller = AdmissionController(policy="vtc",
                                         tenants=[Tenant("busy"),
                                                  Tenant("idle")])
        for i in range(10):
            controller.offer(req(i, "busy"))
            controller.pop(0.0)
        assert controller.counters()["busy"] == pytest.approx(480.0)
        for i in range(4):
            controller.offer(req(100 + i, "idle"))
            controller.offer(req(200 + i, "busy"))
        assert controller.counters()["idle"] == pytest.approx(480.0)
        order = [controller.pop(0.0).tenant_id for _ in range(8)]
        assert order == ["busy", "idle"] * 4   # parity, not capture

    def test_vtc_counter_lift_noop_without_active_tenants(self):
        controller = AdmissionController(policy="vtc",
                                         tenants=[Tenant("only")])
        controller.offer(req(0, "only"))
        assert controller.counters()["only"] == 0.0

    def test_on_complete_frees_inflight(self):
        controller = AdmissionController(
            tenants=[Tenant("q", max_outstanding=1)])
        controller.offer(req(0, "q"))
        request = controller.pop(0.0)
        assert controller.load_of("q") == 1
        record = type("R", (), {"tenant_id": "q"})()
        controller.on_complete(record)
        assert controller.load_of("q") == 0
        assert controller.offer(req(1, "q")) is AdmissionDecision.ADMITTED
        assert request.request_id == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(policy="lifo")
        with pytest.raises(ValueError):
            AdmissionController(engine_queue_depth=0)


# --------------------------------------------------------------------------- #
class TestTenantGatewayPassthrough:
    def test_untenanted_replay_identical_to_plain_gateway(self):
        """Acceptance: default tenant + FCFS admission replays any
        existing trace bit-identically to ServingGateway.replay."""
        trace = synthetic_trace(N_MODELS, rate=1.5, duration_s=40.0, seed=3)
        mgr = make_manager()
        plain = make_gateway(mgr).replay(trace)
        admitted = TenantGateway(make_gateway(mgr)).replay(trace)
        assert [record_key(r) for r in plain.records] == \
            [record_key(r) for r in admitted.records]
        assert plain.makespan_s == admitted.makespan_s

    def test_untenanted_replay_identical_through_cluster(self):
        trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=40.0, seed=9)
        mgr = make_manager()
        plain = make_cluster_gateway(mgr).replay(trace)
        admitted = TenantGateway(make_cluster_gateway(mgr)).replay(trace)
        assert [record_key(r) for r in plain.records] == \
            [record_key(r) for r in admitted.records]

    def test_repeated_replay_is_deterministic(self):
        trace = overload_trace(duration_s=20.0)
        gateway = TenantGateway(make_gateway(make_manager(trace.model_ids)),
                                policy="vtc", shed=True)
        first = gateway.replay(trace)
        second = gateway.replay(trace)
        assert [record_key(r) for r in first.records] == \
            [record_key(r) for r in second.records]


class TestTenantGatewayPolicies:
    def test_records_carry_tenant_ids(self):
        trace = overload_trace(duration_s=15.0)
        gateway = TenantGateway(make_gateway(make_manager(trace.model_ids)))
        result = gateway.replay(trace)
        assert result.n_requests == len(trace)
        assert {r.tenant_id for r in result.records} == \
            {"agg", "gold", "silver"}

    def test_vtc_protects_light_tenants_under_overload(self):
        """Acceptance: light-tenant latency improves under VTC vs FCFS
        while the same number of requests completes."""
        trace = overload_trace()
        results = {}
        for policy in ("fcfs", "vtc"):
            gateway = TenantGateway(
                make_gateway(make_manager(trace.model_ids)), policy=policy)
            results[policy] = gateway.replay(trace)
            assert results[policy].n_requests == len(trace)
        for light in ("gold", "silver"):
            fcfs_p90 = results["fcfs"].for_tenant(light).percentile_ttft_s(90)
            vtc_p90 = results["vtc"].for_tenant(light).percentile_ttft_s(90)
            assert vtc_p90 < fcfs_p90

    def test_shed_drops_aggressor_not_light_tenants(self):
        trace = overload_trace()
        gateway = TenantGateway(
            make_gateway(make_manager(trace.model_ids)),
            tenants=[Tenant("agg", slo_class="batch", ttft_slo_s=40.0),
                     Tenant("gold", slo_class="interactive"),
                     Tenant("silver", slo_class="standard")],
            policy="vtc", shed=True)
        result = gateway.replay(trace)
        stats = gateway.controller.stats
        assert stats["agg"].shed > 0
        assert stats["gold"].shed == 0
        assert stats["silver"].shed == 0
        assert result.n_requests == len(trace) - stats["agg"].shed
        assert result.config["admission"]["shed_requests"] == \
            stats["agg"].shed

    def test_token_bucket_defers_excess_arrival_rate(self):
        """A metered tenant's admissions are paced at the bucket rate, so
        its e2e latency inflates by admission wait."""
        trace = synthetic_trace(2, rate=2.0, duration_s=20.0, seed=1)
        for r in trace.requests:
            r.tenant_id = "metered"
        model_ids = trace.model_ids
        free = TenantGateway(make_gateway(make_manager(model_ids)))
        free_result = free.replay(trace)
        metered = TenantGateway(
            make_gateway(make_manager(model_ids)),
            tenants=[Tenant("metered", rate_tokens_per_s=40.0,
                            burst_tokens=300.0)])
        metered_result = metered.replay(trace)
        stats = metered.controller.stats["metered"]
        assert stats.deferred > 0
        assert metered_result.n_requests == len(trace)
        assert metered_result.mean_e2e_latency_s() > \
            free_result.mean_e2e_latency_s()

    def test_online_quota_and_decisions(self):
        gateway = TenantGateway(make_gateway(),
                                tenants=[Tenant("q", max_outstanding=2)])
        ids = [gateway.submit("variant-00", 32, 8, tenant_id="q").id
               for _ in range(4)]
        decisions = [gateway.decision(i) for i in ids]
        assert decisions[:2] == [AdmissionDecision.ADMITTED] * 2
        assert decisions[2:] == [AdmissionDecision.REJECTED] * 2
        result = gateway.run_until_drained()
        assert result.n_requests == 2
        assert gateway.unfinished == 0

    def test_deferred_online_requests_complete_after_refill(self):
        gateway = TenantGateway(
            make_gateway(),
            tenants=[Tenant("m", rate_tokens_per_s=20.0,
                            burst_tokens=50.0)])
        for _ in range(3):
            gateway.submit("variant-00", 32, 16, tenant_id="m")
        stats = gateway.controller.stats["m"]
        assert stats.deferred >= 1
        result = gateway.run_until_drained()
        assert result.n_requests == 3     # deferral delays, never drops

    def test_submit_validates_lengths(self):
        gateway = TenantGateway(make_gateway())
        with pytest.raises(ValueError):
            gateway.submit("variant-00", 0, 8)

    def test_cluster_inner_with_vtc_serves_everything(self):
        trace = overload_trace(duration_s=30.0)
        gateway = TenantGateway(
            make_cluster_gateway(make_manager(trace.model_ids)),
            policy="vtc")
        result = gateway.replay(trace)
        assert result.n_requests == len(trace)
        assert sorted(r.request_id for r in result.records) == \
            list(range(len(trace)))


class TestAdmissionAwareAutoscaling:
    def make_autoscaled_cluster(self, autoscaler):
        from repro.serving import create_engine as mk

        mgr = make_manager()

        def factory(node):
            return mk("deltazip", mgr,
                      node or GPUNode(node_from_name("a800", 1)),
                      scheduler_config=SchedulerConfig(
                          max_batch_requests=8, max_concurrent_deltas=4),
                      engine_config=EngineConfig(tp_degree=1))

        return ClusterGateway(engine_factory=factory,
                              cluster=Cluster.from_name("a800", 2, 1),
                              n_replicas=1, autoscaler=autoscaler)

    def test_frontier_held_load_drives_scale_up(self):
        """ROADMAP follow-on: requests held at the admission frontier
        count as offered load, so the cluster scales *before* shedding
        kicks in — previously the autoscaler saw only engine backlog and
        a tight engine_queue_depth made overload invisible to it."""
        from repro.serving import Autoscaler

        autoscaler = Autoscaler(min_replicas=1, max_replicas=2,
                                high_queue_per_replica=4.0,
                                low_queue_per_replica=1.0)
        inner = self.make_autoscaled_cluster(autoscaler)
        gateway = TenantGateway(inner, engine_queue_depth=1)
        for _ in range(32):
            gateway.submit("variant-00", 32, 8, tenant_id="t",
                           arrival_s=0.0)
        # the frontier holds everything beyond the shallow engine queue
        assert inner.admission_queued == gateway.controller.total_queued
        assert inner.admission_queued >= 30
        assert inner.backlog <= 1                 # engines can't see it
        assert autoscaler.control(inner) == "scale_up"
        result = gateway.run_until_drained()
        assert result.n_requests == 32

    def test_engine_only_backlog_does_not_scale(self):
        """Control case: same offered load with no admission layer held
        at the engines is already visible — but with the shallow frontier
        queue and *no* probe, the old signal would have seen backlog 1."""
        from repro.serving import Autoscaler

        autoscaler = Autoscaler(min_replicas=1, max_replicas=2,
                                high_queue_per_replica=4.0,
                                low_queue_per_replica=1.0)
        inner = self.make_autoscaled_cluster(autoscaler)
        assert inner.admission_queued == 0        # no probe attached
        for _ in range(2):
            inner.submit("variant-00", 32, 8, arrival_s=0.0)
        assert autoscaler.control(inner) is None  # under the watermark


class TestPerTenantBilling:
    def test_tokens_charged_meters_every_accepted_request(self):
        controller = AdmissionController()
        controller.offer(req(0, "a", prompt=100, output=50))
        controller.offer(req(1, "b", prompt=10, output=5))
        assert controller.stats["a"].tokens_charged == 150.0
        assert controller.stats["b"].tokens_charged == 15.0

    def test_billing_splits_deployment_cost_by_tokens(self):
        from repro.hardware import A800
        from repro.serving import cost_per_tenant, deployment_cost

        trace = overload_trace(duration_s=20.0)
        gateway = TenantGateway(make_gateway(make_manager(trace.model_ids)))
        result = gateway.replay(trace)
        bill = gateway.billing(A800, n_gpus=1)
        stats = gateway.controller.stats
        assert set(bill) == {"agg", "gold", "silver"}
        total = deployment_cost(result, A800, 1).total_usd
        assert sum(bill.values()) == pytest.approx(total)
        # proportionality: agg pushed the most tokens, pays the most
        tokens = {t: s.tokens_charged for t, s in stats.items()}
        assert bill["agg"] > bill["gold"] and bill["agg"] > bill["silver"]
        for t in bill:
            assert bill[t] == pytest.approx(
                total * tokens[t] / sum(tokens.values()))


class TestStackIntegration:
    #: the facade's registry served on one GPU
    ONE_GPU = StackSpec(node=node_from_name("a800", 1),
                        config=EngineConfig(tp_degree=1))

    @pytest.fixture(scope="class")
    def system(self, base_model, finetuned):
        from repro.core import DeltaZip
        dz = DeltaZip(base_model)
        dz.register_finetuned("review-ft", finetuned.model,
                              finetuned.calibration_tokens)
        return dz

    def test_admission_puts_a_tenant_gateway_on_top(self, system):
        gateway = build(replace(self.ONE_GPU, admission="vtc",
                                tenants=(Tenant("gold", weight=2.0),
                                         Tenant("free", max_outstanding=2))),
                        system.manager(LLAMA_7B))
        assert isinstance(gateway, TenantGateway)
        assert isinstance(gateway.inner, ServingGateway)
        assert set(gateway.controller.tenants) == {"gold", "free"}
        handle = gateway.submit("review-ft", 32, 8, tenant_id="gold")
        result = gateway.run_until_drained()
        assert result.n_requests == 1
        assert result.records[0].tenant_id == "gold"
        assert gateway.decision(handle.id) is AdmissionDecision.ADMITTED

    @pytest.mark.parametrize("fields", [{"tenants": (Tenant("only"),)},
                                        {"shed": True},
                                        {"engine_queue_depth": 4}])
    def test_tenant_fields_need_a_policy(self, fields):
        with pytest.raises(ValueError, match="admission policy"):
            replace(self.ONE_GPU, **fields)

    def test_admission_over_replicas(self, system):
        trace = synthetic_trace(3, rate=1.0, duration_s=15.0, seed=5)
        mgr = system.manager(LLAMA_7B)
        for model_id in trace.model_ids:
            mgr.register_delta(model_id, "base", 8.0)
        gateway = build(replace(self.ONE_GPU, replicas=2, admission="vtc"),
                        mgr)
        assert isinstance(gateway, TenantGateway)
        assert len(gateway.inner.replicas) == 2
        result = gateway.replay(trace)
        assert result.n_requests == len(trace)


class TestTenancyCLI:
    def test_tenancy_mode_runs_and_reports(self, capsys):
        assert main(["tenancy", "--duration", "20",
                     "--tenants", "agg:3.0:1.0:batch,vip:0.3:2.0:interactive",
                     "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                     "--batch", "8", "--deltas", "4",
                     "--policy", "both", "--shed"]) == 0
        out = capsys.readouterr().out
        assert "policy: fcfs + shed" in out
        assert "policy: vtc + shed" in out
        assert "Jain fairness" in out
        assert "vip" in out

    def test_tenancy_mode_serves_the_dedicated_engine(
            self, capsys: pytest.CaptureFixture) -> None:
        """Dispatch lifts idle engines to the release time; a dedicated
        engine's clock used to refuse any value but zero."""
        assert main(["tenancy", "--engine", "dedicated", "--policy", "vtc",
                     "--duration", "20"]) == 0
        assert "policy: vtc" in capsys.readouterr().out

    def test_bad_tenant_spec_raises(self):
        with pytest.raises(ValueError, match="bad tenant spec"):
            main(["tenancy", "--tenants", "justaname"])
        with pytest.raises(ValueError, match="slo class"):
            main(["tenancy", "--tenants", "a:1.0:1.0:diamond"])
