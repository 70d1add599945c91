"""Live ops plane: spans, gauges, scenario drills, and the
pure-observation guarantee (telemetry cannot change replay records)."""

import hashlib
import json
import numbers
import tracemalloc
from dataclasses import replace

import pytest

import repro.serving.base as base_mod
import repro.serving.disagg as disagg_mod
import repro.serving.tenancy as tenancy_mod
from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (Autoscaler, ClusterGateway, EngineConfig,
                           ENGINES, LLAMA_7B, ModelManager, RecordPolicy,
                           SchedulerConfig, ServingGateway, Tenant,
                           TenantGateway, create_engine)
from repro.sim import (AdmissionDecision, BucketRefill, IterationDone,
                       KvTransfer, PhaseTransition, SimKernel, TelemetryTick)
from repro.sim.events import Arrival, Cancel
from repro.sim.sanitizer import sanitized
from repro.telemetry import (GaugeBoard, GaugeSnapshot, SpanRecorder,
                             Telemetry, chrome_trace_events)
from repro.telemetry.scenarios import SCENARIO_NAMES, run_scenario
from repro.workload import TenantWorkload, multi_tenant_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 4


def make_engine(name="deltazip", policy=RecordPolicy.KEEP_ALL, k=8,
                **config):
    from repro.serving import ArtifactKind
    cls = ENGINES[name]
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        m = f"variant-{i:02d}"
        if cls.variant_artifact == ArtifactKind.DELTA:
            mgr.register_delta(m, "base", 8.0)
        else:
            mgr.register_full(m, "base")
    return create_engine(
        name, mgr, GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=k,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=1, record_policy=policy,
                                   **config))


def make_cluster(telemetry=None, policy=RecordPolicy.KEEP_ALL,
                 n_replicas=2, autoscaler=None, journal=False):
    ceiling = autoscaler.config.max_replicas if autoscaler else n_replicas

    def factory(node):
        return create_engine(
            "deltazip", _shared_manager(), node,
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1,
                                       record_policy=policy))

    return ClusterGateway(engine_factory=factory,
                          cluster=Cluster.from_name("a800", ceiling, 1),
                          n_replicas=n_replicas, autoscaler=autoscaler,
                          journal=journal, telemetry=telemetry)


def _shared_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s,
            rec.preemptions, rec.skipped_line)


@pytest.fixture(scope="module")
def short_trace():
    return synthetic_trace(N_MODELS, rate=1.5, duration_s=30.0, seed=11)


@pytest.fixture(scope="module")
def tenant_trace():
    return multi_tenant_trace(
        (TenantWorkload("gold", rate=0.5,
                        model_ids=("variant-00", "variant-01")),
         TenantWorkload("silver", rate=1.0,
                        model_ids=("variant-02", "variant-03"))),
        duration_s=30.0, seed=5)


def build_stack(wrapper, telemetry, policy=RecordPolicy.KEEP_ALL):
    """One serving stack per wrapper kind, telemetry optionally wired."""
    if wrapper == "serving":
        return ServingGateway(make_engine(policy=policy),
                              telemetry=telemetry)
    if wrapper == "cluster":
        return make_cluster(telemetry=telemetry, policy=policy)
    if wrapper == "tenancy":
        tenants = (Tenant("gold", weight=2.0, slo_class="interactive"),
                   Tenant("silver", weight=1.0, slo_class="standard"))
        return TenantGateway(ServingGateway(make_engine(policy=policy)),
                             tenants=tenants, policy="vtc",
                             telemetry=telemetry)
    raise AssertionError(wrapper)


def trace_for(wrapper, short_trace, tenant_trace):
    return tenant_trace if wrapper == "tenancy" else short_trace


# --------------------------------------------------------------------------- #
# kernel plumbing
# --------------------------------------------------------------------------- #
class TestKernelWants:
    def test_no_subscribers_no_journal_wants_nothing(self):
        kernel = SimKernel()
        assert not kernel.wants(PhaseTransition)

    def test_journal_wants_everything(self):
        kernel = SimKernel(journal=True)
        assert kernel.wants(PhaseTransition)
        assert kernel.wants(TelemetryTick)

    def test_subscription_is_per_type_and_respects_subclassing(self):
        kernel = SimKernel()
        kernel.subscribe(PhaseTransition, lambda e: None)
        assert kernel.wants(PhaseTransition)
        assert not kernel.wants(AdmissionDecision)

    def test_base_class_subscription_covers_new_events(self):
        from repro.sim.events import Event
        kernel = SimKernel()
        kernel.subscribe(Event, lambda e: None)
        assert kernel.wants(PhaseTransition)
        assert kernel.wants(AdmissionDecision)
        assert kernel.wants(TelemetryTick)


class TestSpanRecorder:
    def k(self, policy=RecordPolicy.KEEP_ALL):
        kernel = SimKernel()
        rec = SpanRecorder(policy=policy)
        rec.subscribe(kernel)
        return kernel, rec

    def emit_lifecycle(self, kernel, rid, t0=0.0, tenant=None):
        kernel.emit(PhaseTransition(time=t0, request_id=rid,
                                    phase="queue", model_id="m",
                                    tenant_id=tenant))
        kernel.emit(PhaseTransition(time=t0 + 1, request_id=rid,
                                    phase="prefill", model_id="m"))
        kernel.emit(PhaseTransition(time=t0 + 2, request_id=rid,
                                    phase="decode", model_id="m"))
        kernel.emit(PhaseTransition(time=t0 + 5, request_id=rid,
                                    phase="retire", model_id="m",
                                    status="finished"))

    def test_span_assembles_phases_and_closes(self):
        kernel, rec = self.k()
        self.emit_lifecycle(kernel, 7, tenant="gold")
        assert rec.active_count == 0 and rec.n_closed == 1
        (span,) = rec.completed()
        assert span.tenant_id == "gold" and span.status == "finished"
        assert span.phase_bounds() == [("queue", 0.0, 1.0),
                                       ("prefill", 1.0, 2.0),
                                       ("decode", 2.0, 5.0)]
        assert span.duration_s() == pytest.approx(5.0)

    def test_shed_decision_is_immediately_terminal(self):
        kernel, rec = self.k()
        kernel.emit(AdmissionDecision(time=3.0, request_id=1,
                                      tenant_id="agg", decision="shed",
                                      model_id="m"))
        assert rec.n_closed == 1 and rec.active_count == 0
        (span,) = rec.completed()
        assert span.status == "shed" and span.duration_s() == 0.0

    def test_cancel_reason_annotated_on_open_span(self):
        kernel, rec = self.k()
        kernel.emit(PhaseTransition(time=0.0, request_id=2, phase="queue",
                                    model_id="m"))
        kernel.emit(Cancel(time=1.0, request_id=2, reason="deadline"))
        kernel.emit(PhaseTransition(time=1.0, request_id=2, phase="retire",
                                    model_id="m", status="expired"))
        (span,) = rec.completed()
        assert span.cancel_reason == "deadline"
        assert span.status == "expired"

    def test_drop_policy_keeps_no_closed_spans_but_sketches_fill(self):
        kernel, rec = self.k(policy=RecordPolicy.DROP)
        for rid in range(20):
            self.emit_lifecycle(kernel, rid, t0=float(rid))
        assert rec.completed() == []
        assert rec.n_closed == 20
        assert rec.sketches["e2e"].count == 20

    def test_clear_resets_for_identical_resample(self):
        kernel, rec = self.k()
        for rid in range(50):
            self.emit_lifecycle(kernel, rid, t0=float(rid))
        first = [s.request_id for s in rec.completed()]
        assert first == list(range(50))
        rec.clear()             # still subscribed; fresh timeline
        for rid in range(50):
            self.emit_lifecycle(kernel, rid, t0=float(rid))
        assert [s.request_id for s in rec.completed()] == first


class TestGaugeBoard:
    def test_ring_is_bounded(self):
        board = GaugeBoard(capacity=4)
        for i in range(10):
            board.record(GaugeSnapshot(time_s=float(i), backlog=i))
        assert len(board) == 4 and board.n_recorded == 10
        assert board.series("time_s") == [6.0, 7.0, 8.0, 9.0]
        assert board.latest().backlog == 9

    def test_empty_board(self):
        board = GaugeBoard()
        assert board.latest() is None and board.series() == []


# --------------------------------------------------------------------------- #
# pure observation: telemetry cannot change what the stack computes
# --------------------------------------------------------------------------- #
WRAPPERS = ("serving", "cluster", "tenancy")


class TestPureObservation:
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_records_identical_with_and_without_telemetry(
            self, wrapper, short_trace, tenant_trace):
        trace = trace_for(wrapper, short_trace, tenant_trace)
        bare = build_stack(wrapper, telemetry=None).replay(trace)
        wired = build_stack(
            wrapper, telemetry=Telemetry(interval_s=1.0)).replay(trace)
        assert [record_key(r) for r in bare.records] == \
            [record_key(r) for r in wired.records]

    def test_telemetry_off_leaves_engine_hooks_untouched(self):
        gw = ServingGateway(make_engine())
        assert gw.engine.on_event is None

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_all_engines_unaffected_by_telemetry(self, name, short_trace):
        bare = ServingGateway(make_engine(name)).replay(short_trace)
        wired = ServingGateway(make_engine(name),
                               telemetry=Telemetry(interval_s=2.0)) \
            .replay(short_trace)
        assert [record_key(r) for r in bare.records] == \
            [record_key(r) for r in wired.records]


    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_observing_does_not_outrun_the_sim_time_cap(self, name):
        """``max_sim_seconds`` lands mid-decode: the drain stops there with
        telemetry polling, with spans only, and with none attached."""
        trace = Trace(requests=[
            TraceRequest(request_id=i, model_id=f"variant-{i % N_MODELS:02d}",
                         arrival_s=0.1 * i, prompt_tokens=64,
                         output_tokens=400) for i in range(12)],
            model_ids=[f"variant-{i:02d}" for i in range(N_MODELS)],
            duration_s=2.0)

        def drained(telemetry):
            engine = make_engine(name, max_sim_seconds=3.0)
            result = ServingGateway(engine, telemetry=telemetry).replay(trace)
            return ([record_key(r) for r in result.records], engine.clock,
                    engine.unfinished)

        absent = drained(None)
        assert absent[2] > 0 and absent[1] >= 3.0       # it was cut short
        assert drained(Telemetry(interval_s=0.5)) == absent
        assert drained(Telemetry(interval_s=None)) == absent

# --------------------------------------------------------------------------- #
# the event plane: only what someone wants is built
# --------------------------------------------------------------------------- #
#: sha256 of the gauges, span summary and closed spans of
#: :func:`deciding_tenancy`'s replay, re-recorded once engines published a
#: cancel before the retire it causes, and again once the admission
#: frontier did (every cancelled span carries its reason)
EVENT_PLANE_DIGEST = \
    "80cf9ecc192f0e8fde2d7decff92a3529ced2ca70cfed49efca292b9a1e91c9f"
#: the same with every span's ``cancel_reason`` masked: the digest recorded
#: before events were built on demand, so nothing else moved
UNREASONED_DIGEST = \
    "12a949a4d93ef0c9fdc8e6da317629047a34f0e1f4d6a6756194dd12fcda4048"


def _canon(value):
    """A numpy- and dict-order-independent rendering for digests."""
    if isinstance(value, dict):
        return sorted((str(k), _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return repr(float(value))


def deciding_tenancy(telemetry):
    """Two tenants over an autoscaled cluster: VTC order, a bucket that
    defers every silver request past its burst, a cancel a few seconds
    after every fifth arrival."""
    autoscaler = Autoscaler(min_replicas=1, max_replicas=3,
                            high_queue_per_replica=2.0,
                            low_queue_per_replica=0.5, check_interval_s=1.0,
                            scale_up_cooldown_s=2.0,
                            scale_down_cooldown_s=6.0)
    tenants = (Tenant("gold", weight=2.0, slo_class="interactive"),
               Tenant("silver", weight=1.0, rate_tokens_per_s=150.0,
                      burst_tokens=600.0))
    return TenantGateway(make_cluster(n_replicas=1, autoscaler=autoscaler),
                         tenants=tenants, policy="vtc", telemetry=telemetry)


def deciding_cancels(trace):
    return [(r.request_id, r.arrival_s + 3.0) for r in trace
            if r.request_id % 5 == 0]


def iterations(gateway):
    """Executed iterations of every replica, retired ones included."""
    cluster = gateway.inner
    return sum(r.engine.stats.iterations
               for r in cluster.replicas + cluster.retired)


def event_plane_digest(telemetry, masked=()):
    """sha256 of gauges, span summary and closed spans (the span fields
    named in ``masked`` read as None)."""
    spans = [{**s.as_dict(), **dict.fromkeys(masked)}
             for s in telemetry.spans.completed()]
    payload = (_canon([g.as_dict() for g in telemetry.series()]),
               _canon(telemetry.spans.summary()), _canon(spans))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class CountingEvents:
    """Counts the IterationDone / BucketRefill / KvTransfer instances the
    serving layers construct (the names they build through, swapped)."""

    def __init__(self, monkeypatch):
        self.built = {"IterationDone": 0, "BucketRefill": 0, "KvTransfer": 0}
        for module, base in ((base_mod, IterationDone),
                             (tenancy_mod, BucketRefill),
                             (disagg_mod, KvTransfer)):
            monkeypatch.setattr(module, base.__name__, self._counted(base))

    def _counted(self, base):
        built = self.built

        class Counted(base):
            def __init__(self, *args, **kwargs):
                built[base.__name__] += 1
                super().__init__(*args, **kwargs)
        return Counted


class TestEventPlane:
    def test_gauges_and_spans_match_the_recorded_digest(self, tenant_trace):
        telemetry = Telemetry(interval_s=1.0)
        gateway = deciding_tenancy(telemetry)
        result = gateway.replay(tenant_trace,
                                cancels=deciding_cancels(tenant_trace))
        stats = gateway.controller.stats
        assert stats["silver"].deferred > 0          # the bucket decides
        assert {"cancelled", "finished"} <= {r.status for r in result.records}
        assert "scale_up" in {s.action
                              for s in gateway.inner.autoscaler.history}
        assert event_plane_digest(telemetry) == EVENT_PLANE_DIGEST

    def test_reasons_masked_the_digest_is_the_unreasoned_one(
            self, tenant_trace):
        """Whoever names a withdrawal's reason, nothing else moves."""
        telemetry = Telemetry(interval_s=1.0)
        deciding_tenancy(telemetry).replay(
            tenant_trace, cancels=deciding_cancels(tenant_trace))
        assert event_plane_digest(telemetry, masked=("cancel_reason",)) \
            == UNREASONED_DIGEST

    def test_nothing_nobody_wants_is_built(self, monkeypatch, tenant_trace):
        counts = CountingEvents(monkeypatch)
        cancels = deciding_cancels(tenant_trace)
        telemetry = Telemetry(interval_s=1.0)
        gateway = deciding_tenancy(telemetry)
        quiet = [tuple(r) for r in gateway.replay(tenant_trace,
                                                  cancels=cancels).records]
        assert iterations(gateway) > 0
        assert gateway.controller.stats["silver"].deferred > 0
        assert counts.built == {"IterationDone": 0, "BucketRefill": 0,
                                "KvTransfer": 0}
        # subscribing is the only switch: after wiring, no re-wiring, every
        # one is built
        telemetry = Telemetry(interval_s=1.0)
        gateway = deciding_tenancy(telemetry)
        done, refills = [], []
        telemetry.kernel.subscribe(IterationDone, done.append)
        telemetry.kernel.subscribe(BucketRefill, refills.append)
        watched = [tuple(r) for r in gateway.replay(tenant_trace,
                                                    cancels=cancels).records]
        assert watched == quiet
        assert len(done) == counts.built["IterationDone"] == \
            iterations(gateway)
        assert len(refills) == counts.built["BucketRefill"] == \
            gateway.controller.stats["silver"].deferred

    def test_disagg_workers_build_only_what_is_wanted(self, monkeypatch,
                                                      short_trace):
        """Pool workers publish into their owner's hook, so they ask the
        kernel behind it too: telemetry wants phases and cancels, not
        iterations or KV transfers, until someone subscribes."""
        trace, cancels = impatient(short_trace)
        counts = CountingEvents(monkeypatch)
        telemetry = Telemetry(interval_s=1.0)
        engine = make_engine("disagg")
        ServingGateway(engine, telemetry=telemetry).replay(trace,
                                                           cancels=cancels)
        assert engine.stats.iterations > 0 and engine.stats.kv_transfers > 0
        assert counts.built == {"IterationDone": 0, "BucketRefill": 0,
                                "KvTransfer": 0}
        assert telemetry.spans.n_closed == len(trace)
        telemetry = Telemetry(interval_s=1.0)
        engine = make_engine("disagg")
        done, moves = [], []
        telemetry.kernel.subscribe(IterationDone, done.append)
        telemetry.kernel.subscribe(KvTransfer, moves.append)
        ServingGateway(engine, telemetry=telemetry).replay(trace,
                                                           cancels=cancels)
        assert len(done) == counts.built["IterationDone"] == \
            engine.stats.iterations
        assert len(moves) == counts.built["KvTransfer"] == \
            engine.stats.kv_transfers

    def test_sanitized_kernels_publish_exactly_what_is_wanted(
            self, monkeypatch, tenant_trace):
        """Under the sanitizer ``kernel.emit`` is an instance closure, not
        a bound method; engines still ask the kernel behind it."""
        cancels = deciding_cancels(tenant_trace)
        with sanitized(False):
            plain = deciding_tenancy(Telemetry(interval_s=1.0))
            want = [tuple(r) for r in plain.replay(tenant_trace,
                                                   cancels=cancels).records]
        counts = CountingEvents(monkeypatch)
        with sanitized(True):
            telemetry = Telemetry(interval_s=1.0)
            gateway = deciding_tenancy(telemetry)
            assert not hasattr(gateway.inner.kernel.emit, "__func__")
            got = [tuple(r) for r in gateway.replay(tenant_trace,
                                                    cancels=cancels).records]
            assert got == want
            assert counts.built["IterationDone"] == 0
            telemetry = Telemetry(interval_s=1.0)
            gateway = deciding_tenancy(telemetry)
            done = []
            telemetry.kernel.subscribe(IterationDone, done.append)
            got = [tuple(r) for r in gateway.replay(tenant_trace,
                                                    cancels=cancels).records]
        assert got == want
        assert len(done) == counts.built["IterationDone"] == \
            iterations(gateway)


# --------------------------------------------------------------------------- #
# determinism: same run twice -> identical spans and gauges
# --------------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    @pytest.mark.parametrize("policy", list(RecordPolicy))
    def test_spans_and_gauges_reproduce(self, wrapper, policy,
                                        short_trace, tenant_trace):
        trace = trace_for(wrapper, short_trace, tenant_trace)

        def run():
            telemetry = Telemetry(interval_s=1.0)
            build_stack(wrapper, telemetry, policy=policy).replay(trace)
            spans = [s.as_dict() for s in telemetry.spans.completed()]
            gauges = [g.as_dict() for g in telemetry.gauges.series()]
            return telemetry.spans.summary(), spans, gauges

        first, second = run(), run()
        assert first == second
        summary, spans, gauges = first
        assert summary["n_closed"] == len(trace)
        assert gauges, "gauge board never ticked"
        if policy is RecordPolicy.DROP:
            assert spans == []
        else:
            assert len(spans) == len(trace)

    def test_reset_replay_reproduces(self, short_trace):
        telemetry = Telemetry(interval_s=1.0)
        gw = ServingGateway(make_engine(), telemetry=telemetry)
        gw.replay(short_trace)
        first = (telemetry.spans.summary(),
                 [g.as_dict() for g in telemetry.gauges.series()])
        gw.replay(short_trace)        # replay() resets the stack
        second = (telemetry.spans.summary(),
                  [g.as_dict() for g in telemetry.gauges.series()])
        assert first == second


# --------------------------------------------------------------------------- #
# gauge semantics
# --------------------------------------------------------------------------- #
class TestGauges:
    def test_consumable_mid_run(self, short_trace):
        telemetry = Telemetry(interval_s=1.0)
        gw = ServingGateway(make_engine(), telemetry=telemetry)
        gw.reset()
        for req in short_trace:
            gw.ingest(req)
        seen = []
        while gw.step():
            latest = telemetry.latest()
            if latest is not None and (not seen or
                                       latest.time_s > seen[-1]):
                seen.append(latest.time_s)
        assert len(seen) >= 10, "gauges must be readable mid-run"
        assert seen == sorted(seen)

    def test_tick_cadence_and_monotone_time(self, short_trace):
        telemetry = Telemetry(interval_s=2.0)
        ServingGateway(make_engine(),
                       telemetry=telemetry).replay(short_trace)
        times = telemetry.series("time_s")
        assert times == [2.0 * (i + 1) for i in range(len(times))]

    def test_cluster_gauges_see_replicas_and_occupancy(self, short_trace):
        telemetry = Telemetry(interval_s=1.0)
        make_cluster(telemetry=telemetry).replay(short_trace)
        latest = telemetry.latest()
        assert latest is not None
        assert latest.n_replicas == 2
        assert any(g.batch_occupancy > 0
                   for g in telemetry.gauges.series())
        assert any(g.kv_occupancy > 0
                   for g in telemetry.gauges.series())

    def test_tenancy_gauges_track_attainment_and_spans(self, tenant_trace):
        telemetry = Telemetry(interval_s=1.0)
        tenants = (Tenant("gold", weight=2.0, slo_class="interactive"),
                   Tenant("silver", weight=1.0, slo_class="standard"))
        gw = TenantGateway(ServingGateway(make_engine()), tenants=tenants,
                           policy="vtc", telemetry=telemetry)
        gw.replay(tenant_trace)
        latest = telemetry.latest()
        assert set(latest.attainment) == {"gold", "silver"}
        assert all(0.0 <= v <= 1.0 for v in latest.attainment.values())
        # every request span was assembled with its tenant attribution
        assert telemetry.spans.n_closed == len(tenant_trace)
        tenants_seen = {s.tenant_id for s in telemetry.spans.completed()}
        assert tenants_seen == {"gold", "silver"}

    def test_interval_none_disables_gauges_but_spans_record(
            self, short_trace):
        telemetry = Telemetry(interval_s=None)
        ServingGateway(make_engine(), telemetry=telemetry) \
            .replay(short_trace)
        assert telemetry.latest() is None
        assert telemetry.spans.n_closed == len(short_trace)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(interval_s=0.0)


# --------------------------------------------------------------------------- #
# memory: open spans are O(active) under DROP
# --------------------------------------------------------------------------- #
class TestSpanMemory:
    def test_drop_policy_span_memory_stays_flat(self):
        """10x more requests must not grow span-recorder memory under
        DROP — retained state is open spans + fixed-size sketches."""
        def peak_span_bytes(n_requests):
            kernel = SimKernel()
            rec = SpanRecorder(policy=RecordPolicy.DROP)
            rec.subscribe(kernel)
            tracemalloc.start()
            for rid in range(n_requests):
                t = float(rid)
                kernel.emit(PhaseTransition(time=t, request_id=rid,
                                            phase="queue", model_id="m"))
                kernel.emit(PhaseTransition(time=t + 0.5, request_id=rid,
                                            phase="retire", model_id="m",
                                            status="finished"))
            current, _peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert rec.active_count == 0
            return current

        small, large = peak_span_bytes(500), peak_span_bytes(5000)
        assert large < max(small * 3, small + 64 * 1024), \
            f"span memory grew with request count: {small} -> {large}"


# --------------------------------------------------------------------------- #
# scenario drills
# --------------------------------------------------------------------------- #
class TestScenarios:
    def test_registry_names(self):
        assert SCENARIO_NAMES == ("noisy-neighbor",
                                  "replica-failure-mid-burst",
                                  "scale-from-zero", "thundering-herd")

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("nope")

    def test_thundering_herd_invariants_hold(self):
        report = run_scenario("thundering-herd", quick=True)
        assert report.ok, [i.detail for i in report.invariants
                           if not i.passed]
        assert len(report.invariants) >= 1
        assert report.gauges, "drill must produce a gauge series"

    def test_scenario_reports_are_deterministic(self):
        a = run_scenario("thundering-herd", quick=True).as_dict()
        b = run_scenario("thundering-herd", quick=True).as_dict()
        assert a == b

    def test_report_round_trips_through_json(self):
        report = run_scenario("thundering-herd", quick=True)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["gauge_series"]

    def test_cli_scenarios_smoke(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "gauges.json"
        rc = main(["scenarios", "thundering-herd", "--quick",
                   "--gauges-out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert "thundering-herd" in payload


# --------------------------------------------------------------------------- #
# trace export integration
# --------------------------------------------------------------------------- #
#: sha256 of the Chrome trace (6 514 events) of :func:`deciding_tenancy`'s
#: journaled replay with cancels, re-recorded once the admission frontier
#: published a ``Cancel`` for each request it withdrew
CHROME_TRACE_DIGEST = \
    "681f546fa6a15b18ac8c5470aa3fd60abd1af8f6b64de66a5b178a573915479b"
#: the same trace (6 511 events) without those frontier cancel instants
#: (:func:`without_frontier_cancels`): recorded before they were published
UNWITHDRAWN_TRACE_DIGEST = \
    "55ee25b0df3d3cba39de24e62ebe73a09742b7082a2ffc1497f5a736626d5d3c"


def without_frontier_cancels(events, request_ids):
    """Chrome ``events`` without the cancel instants of ``request_ids``
    (requests withdrawn at the frontier: they entered no phase, so no
    request slice of theirs carries a reason)."""
    return [e for e in events if not (e["name"].startswith("cancel:") and
                                      e["args"]["request_id"] in request_ids)]


def impatient(trace):
    """``trace`` with a deadline 2 s after every third arrival, and client
    cancels 1 s after every fifth."""
    requests = [replace(r, deadline_s=r.arrival_s + 2.0)
                if r.request_id % 3 == 0 else r for r in trace]
    cancels = [(r.request_id, r.arrival_s + 1.0) for r in trace
               if r.request_id % 5 == 0]
    return (Trace(requests=requests, model_ids=trace.model_ids,
                  duration_s=trace.duration_s), cancels)


def shedding_tenancy(telemetry):
    """One engine behind an admission layer that sheds silver requests
    whose predicted TTFT breaches a tight SLO."""
    tenants = (Tenant("gold", weight=2.0, slo_class="interactive"),
               Tenant("silver", weight=1.0, ttft_slo_s=0.05))
    return TenantGateway(ServingGateway(make_engine(k=2)), tenants=tenants,
                         policy="vtc", shed=True, telemetry=telemetry)


class TestTraceExportSpans:
    def test_deciding_tenancy_trace_matches_the_recorded_digest(
            self, tenant_trace):
        telemetry = Telemetry(interval_s=1.0, journal=True)
        deciding_tenancy(telemetry).replay(
            tenant_trace, cancels=deciding_cancels(tenant_trace))
        events = chrome_trace_events(telemetry.kernel.journal)
        assert len(events) == 6514
        assert hashlib.sha256(json.dumps(events).encode()).hexdigest() \
            == CHROME_TRACE_DIGEST

    def test_frontier_withdrawals_masked_the_trace_is_the_recorded_one(
            self, tenant_trace):
        """A cancel instant per request the admission frontier withdrew is
        all that its ``Cancel`` adds to the trace."""
        telemetry = Telemetry(interval_s=1.0, journal=True)
        deciding_tenancy(telemetry).replay(
            tenant_trace, cancels=deciding_cancels(tenant_trace))
        frontier = {s.request_id for s in telemetry.spans.completed()
                    if s.source == "frontier"}
        assert frontier
        events = without_frontier_cancels(
            chrome_trace_events(telemetry.kernel.journal), frontier)
        assert len(events) == 6511
        assert hashlib.sha256(json.dumps(events).encode()).hexdigest() \
            == UNWITHDRAWN_TRACE_DIGEST

    def test_a_journal_alone_sees_every_request_lifecycle(self, short_trace):
        """A journal wants every event type, so the engines under a
        journaling cluster publish their phases with no telemetry."""
        gateway = make_cluster(journal=True)
        gateway.replay(short_trace)
        spans = SpanRecorder().fold(gateway.kernel.journal)
        assert spans.active_count == 0
        assert sorted(s.request_id for s in spans.completed()) == \
            sorted(r.request_id for r in short_trace)
        assert all(s.status == "finished" and s.phase_bounds()
                   for s in spans.completed())

    def test_nested_request_slices_with_tenant_args(self, tenant_trace):
        telemetry = Telemetry(interval_s=5.0, journal=True)
        tenants = (Tenant("gold", weight=2.0, slo_class="interactive"),
                   Tenant("silver", weight=1.0, slo_class="standard"))
        TenantGateway(ServingGateway(make_engine()), tenants=tenants,
                      policy="vtc", telemetry=telemetry) \
            .replay(tenant_trace)
        events = chrome_trace_events(telemetry.kernel.journal)
        req_slices = [e for e in events if e["tid"].startswith("req:")]
        outers = [e for e in req_slices if "tenant" in e["args"]]
        assert len(outers) == len(tenant_trace)
        assert {e["args"]["tenant"] for e in outers} == {"gold", "silver"}
        # each outer slice nests its phase sub-slices inside its bounds
        by_tid = {}
        for e in req_slices:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid, slices in by_tid.items():
            outer = next(e for e in slices if "tenant" in e["args"])
            for phase in (e for e in slices if e is not outer):
                assert phase["ts"] >= outer["ts"] - 1e-6
                assert phase["ts"] + phase["dur"] <= \
                    outer["ts"] + outer["dur"] + 1e-6
        ticks = [e for e in events if e["name"] == "telemetry-tick"]
        assert ticks and all(e["tid"] == "telemetry" for e in ticks)
        verdicts = [e for e in events if e["name"].startswith("admission:")]
        assert len(verdicts) == len(tenant_trace)

    @pytest.mark.parametrize("stack", ["deciding-tenancy", "disagg",
                                       "shedding-tenancy"])
    def test_every_closed_span_is_its_outer_trace_slice(
            self, stack, short_trace, tenant_trace):
        """The Chrome request slices are the spans the live recorder
        closed: one outer slice per span with a phase, carrying its
        status and attributes, its phase slices the span's bounds (a
        shed request's: one zero-length queue phase)."""
        telemetry = Telemetry(interval_s=1.0, journal=True)
        if stack == "disagg":
            trace, cancels = impatient(short_trace)
            ServingGateway(make_engine("disagg"), telemetry=telemetry) \
                .replay(trace, cancels=cancels)
        elif stack == "deciding-tenancy":
            deciding_tenancy(telemetry).replay(
                tenant_trace, cancels=deciding_cancels(tenant_trace))
        else:
            shedding_tenancy(telemetry).replay(tenant_trace)
        slices = {}
        for e in chrome_trace_events(telemetry.kernel.journal):
            if e["tid"].startswith("req:"):
                slices.setdefault(e["args"]["request_id"], []).append(e)
        spans = [s for s in telemetry.spans.completed() if s.phase_bounds()]
        assert sorted(slices) == sorted(s.request_id for s in spans)
        if stack == "disagg":
            assert any(s.transfer_s is not None for s in spans)   # handoffs
        if stack == "shedding-tenancy":
            assert any(s.status == "shed" for s in spans)
        for span in spans:
            outer, *phases = slices[span.request_id]
            args = outer["args"]
            assert (args["status"], args.get("tenant"), args.get("variant"),
                    args.get("replica"), args.get("cancel_reason")) == \
                (span.status, span.tenant_id, span.model_id or None,
                 span.source, span.cancel_reason)
            assert [(p["name"], p["ts"], p["ts"] + p["dur"])
                    for p in phases] == [
                (name, pytest.approx(start * 1e6), pytest.approx(end * 1e6))
                for name, start, end in span.phase_bounds()]


class TestCancelReason:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_every_engine_cancelled_span_carries_its_reason(
            self, name, short_trace):
        trace, cancels = impatient(short_trace)
        telemetry = Telemetry(interval_s=None)
        result = ServingGateway(make_engine(name), telemetry=telemetry) \
            .replay(trace, cancels=cancels)
        assert {"cancelled", "expired"} <= {r.status for r in result.records}
        reason = {"cancelled": "cancel", "expired": "deadline"}
        ended = [s for s in telemetry.spans.completed()
                 if s.status in reason]
        assert len(ended) == sum(r.status in reason for r in result.records)
        assert [s.cancel_reason for s in ended] == \
            [reason[s.status] for s in ended]

    @pytest.mark.parametrize("stack", ["deciding-tenancy", "cluster"])
    def test_requests_withdrawn_above_the_engine_carry_their_reason(
            self, stack, short_trace, tenant_trace):
        """A request the admission frontier withdraws, or one a cluster
        cancel reaches before it was routed, publishes its ``Cancel`` and
        retire like an engine abort: one span each, with its reason (the
        cluster's, zero-length at the arrival)."""
        telemetry = Telemetry(interval_s=1.0)
        if stack == "deciding-tenancy":
            result = deciding_tenancy(telemetry).replay(
                tenant_trace, cancels=deciding_cancels(tenant_trace))
        else:
            trace, cancels = impatient(short_trace)
            cancels += [(r.request_id, r.arrival_s - 0.5) for r in trace
                        if r.request_id % 7 == 3]
            result = make_cluster(telemetry=telemetry).replay(
                trace, cancels=cancels)
        reason = {"cancelled": "cancel", "expired": "deadline"}
        ended = [s for s in telemetry.spans.completed()
                 if s.status in reason]
        assert len(ended) == sum(r.status in reason for r in result.records)
        above = [s for s in ended if s.source == "frontier"]
        assert above and len(above) < len(ended)       # engine aborts too
        assert [s.cancel_reason for s in ended] == \
            [reason[s.status] for s in ended]
        if stack == "cluster":
            assert all(s.duration_s() == 0.0 for s in above)
