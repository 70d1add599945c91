"""The runtime sim-sanitizer: every dynamic check fires on a seeded
violation and stays silent on clean runs (REPRO_SIM_SANITIZE=1)."""

import re
from math import inf

import pytest

from repro.hardware.specs import A100
from repro.serving import (LLAMA_7B, IterationCostModel, ModelManager,
                           QuantileSketch, RecordPolicy, ServingGateway,
                           StreamingMetrics)
from repro.serving.base import RunningBatch
from repro.serving.metrics import ServingResult
from repro.serving.request import RequestRecord, ServingRequest
from repro.serving.tenancy import TokenBucket
from repro.sim import (Arrival, AutoscalerTick, Cancel, SimClock, SimKernel,
                       SimSanitizerError, new_clock)
from repro.sim import sanitizer
from repro.sim.sanitizer import SanitizedClock, install, sanitized
from repro.workload import synthetic_trace
from repro.workload.spec import TraceRequest
from test_serving_gateway import make_engine
from test_serving_metrics import record


# --------------------------------------------------------------------- #
# enable/installation plumbing
# --------------------------------------------------------------------- #
class TestActivation:
    def test_context_manager_toggles(self):
        base = sanitizer.enabled()
        with sanitized(True):
            assert sanitizer.enabled()
            with sanitized(False):
                assert not sanitizer.enabled()
            assert sanitizer.enabled()
        assert sanitizer.enabled() == base

    def test_new_clock_is_sanitized_only_when_active(self):
        with sanitized(True):
            assert isinstance(new_clock(), SanitizedClock)
        with sanitized(False):
            clock = new_clock(3.0)
            assert isinstance(clock, SimClock)
            assert not isinstance(clock, SanitizedClock)
            assert clock.now == 3.0

    def test_kernel_self_installs_when_active(self):
        with sanitized(True):
            kernel = SimKernel()
            assert kernel._sanitizer_installed
            assert isinstance(kernel.clock, SanitizedClock)
        with sanitized(False):
            assert not SimKernel()._sanitizer_installed

    def test_install_is_idempotent(self):
        kernel = SimKernel(journal=True)
        install(kernel)
        emit = kernel.emit
        install(kernel)
        assert kernel.emit is emit

    def test_env_var_spelling(self):
        assert sanitizer.ENV_VAR == "REPRO_SIM_SANITIZE"


# --------------------------------------------------------------------- #
# clock checks
# --------------------------------------------------------------------- #
class TestSanitizedClock:
    def test_negative_tick_raises(self):
        clock = SanitizedClock(5.0)
        with pytest.raises(SimSanitizerError, match="backward"):
            clock.tick(-0.1)

    def test_nan_tick_raises(self):
        with pytest.raises(SimSanitizerError):
            SanitizedClock().tick(float("nan"))

    def test_forward_tick_and_reseat_pass(self):
        clock = SanitizedClock(1.0)
        assert clock.tick(0.5) == pytest.approx(1.5)
        assert clock.reseat(0.0) == 0.0


# --------------------------------------------------------------------- #
# kernel event checks
# --------------------------------------------------------------------- #
class TestKernelChecks:
    def _kernel(self):
        kernel = SimKernel(journal=True)
        return install(kernel)

    def test_past_kernel_timeline_event_raises(self):
        kernel = self._kernel()
        kernel.advance(10.0)
        with pytest.raises(SimSanitizerError, match="in the past"):
            kernel.emit(AutoscalerTick(time=9.0))

    def test_future_kernel_timeline_event_passes(self):
        kernel = self._kernel()
        kernel.advance(10.0)
        kernel.emit(AutoscalerTick(time=10.0))
        assert len(kernel.journal) == 1

    def test_replica_timeline_event_may_lag(self):
        # a late-routed arrival lands on an idle replica whose own clock
        # trails the ratcheted kernel frontier — legal by design
        from repro.sim import IterationDone
        kernel = self._kernel()
        kernel.advance(10.0)
        kernel.emit(IterationDone(time=9.0))
        assert len(kernel.journal) == 1

    def test_non_finite_event_time_raises(self):
        kernel = self._kernel()
        with pytest.raises(SimSanitizerError, match="non-finite"):
            kernel.emit(Cancel(time=float("nan"), request_id=1))
        with pytest.raises(SimSanitizerError, match="non-finite"):
            kernel.emit(AutoscalerTick(time=float("inf")))

    def test_double_terminal_transition_raises(self):
        kernel = self._kernel()
        kernel.emit(Cancel(time=1.0, request_id=7))
        with pytest.raises(SimSanitizerError, match="second terminal"):
            kernel.emit(Cancel(time=2.0, request_id=7, reason="deadline"))

    def test_reset_clears_terminal_memory(self):
        kernel = self._kernel()
        kernel.emit(Cancel(time=1.0, request_id=7))
        kernel.reset()
        kernel.emit(Cancel(time=1.0, request_id=7))
        assert len(kernel.journal) == 1

    def test_violation_names_the_call_site(self):
        kernel = self._kernel()
        kernel.advance(5.0)
        with pytest.raises(SimSanitizerError,
                           match="test_sim_sanitizer"):
            kernel.emit(AutoscalerTick(time=1.0))

    def test_arrival_passthrough(self):
        kernel = self._kernel()
        kernel.emit(Arrival(time=0.5))
        assert len(kernel.journal) == 1


# --------------------------------------------------------------------- #
# token-bucket checks
# --------------------------------------------------------------------- #
class TestBucketChecks:
    def test_negative_charge_raises(self):
        bucket = TokenBucket(rate=10.0, burst=20.0)
        with sanitized(True):
            with pytest.raises(SimSanitizerError, match="charge"):
                bucket.charge(-1.0, now=0.0)

    def test_negative_refund_raises(self):
        bucket = TokenBucket(rate=10.0, burst=20.0)
        with sanitized(True):
            bucket.charge(5.0, now=0.0)
            with pytest.raises(SimSanitizerError, match="refund"):
                bucket.refund(-1.0)

    def test_refund_asymmetry_check_raises(self):
        # via the bucket API the burst cap absorbs over-refunds (only
        # effectively-restored tokens are metered), so seed the meter
        # directly: restoring more than was ever charged must raise
        with sanitized(True):
            with pytest.raises(SimSanitizerError, match="asymmetry"):
                sanitizer.check_bucket_refund(
                    cost=10.0, tokens=15.0, burst=20.0,
                    charged_total=5.0, refunded_total=10.0)

    def test_overfull_bucket_check_raises(self):
        with sanitized(True):
            with pytest.raises(SimSanitizerError, match="exceeds burst"):
                sanitizer.check_bucket_refund(
                    cost=1.0, tokens=25.0, burst=20.0,
                    charged_total=5.0, refunded_total=1.0)

    def test_burst_cap_absorption_is_legal(self):
        # refunding more than the bucket can hold is absorbed by the
        # burst cap (documented contract) — only *effectively restored*
        # tokens count toward the symmetry meter
        bucket = TokenBucket(rate=10.0, burst=20.0)
        with sanitized(True):
            bucket.charge(6.0, now=0.0)
            bucket.refund(6.0)
            assert bucket.tokens <= bucket.burst + 1e-9

    def test_borrow_ahead_stays_legal(self):
        # the bucket lends below zero by design; that must not trip
        bucket = TokenBucket(rate=1.0, burst=4.0)
        with sanitized(True):
            eligible = bucket.charge(10.0, now=0.0)
            assert bucket.tokens < 0.0
            assert eligible > 0.0

    def test_meter_check_raises_when_negative(self):
        with sanitized(True):
            with pytest.raises(SimSanitizerError, match="meter"):
                sanitizer.check_meter(-1.0, "acme")
            sanitizer.check_meter(0.0, "acme")

    def test_handle_finish_check(self):
        with sanitized(True):
            sanitizer.check_handle_finish(3, already_terminal=False)
            with pytest.raises(SimSanitizerError, match="finished twice"):
                sanitizer.check_handle_finish(3, already_terminal=True)


# --------------------------------------------------------------------- #
# end-to-end: a clean run under the sanitizer is silent and identical
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_gateway_run_identical_under_sanitizer(self):
        trace = synthetic_trace(3, rate=2.0, duration_s=10.0, seed=5)

        def run():
            gateway = ServingGateway(
                make_engine("deltazip", sorted({r.model_id for r in trace})))
            handles = [gateway.submit(r.model_id, r.prompt_tokens,
                                      r.output_tokens, arrival_s=r.arrival_s)
                       for r in trace]
            result = gateway.run_until_drained()
            assert all(h.done for h in handles)
            return [(r.request_id, r.finish_s, r.served_tokens)
                    for r in result.records]

        plain = run()
        with sanitized(True):
            checked = run()
        assert plain == checked

    def test_handle_double_finish_raises_under_sanitizer(self):
        from repro.serving.handle import RequestHandle
        from repro.serving.request import RequestRecord
        from repro.workload.spec import TraceRequest

        class _Gateway:
            def step(self):
                return False

            def cancel(self, request_id, at_s=None):
                pass

            def _status_of(self, request_id):
                raise AssertionError("unused")

        record = RequestRecord(
            request_id=1, model_id="m", arrival_s=0.0, first_token_s=0.1,
            finish_s=0.2, prompt_tokens=1, output_tokens=1,
            queue_wait_s=0.0, loading_s=0.0, inference_s=0.2,
            skipped_line=False, preemptions=0)
        handle = RequestHandle(
            TraceRequest(request_id=1, model_id="m", arrival_s=0.0,
                         prompt_tokens=1, output_tokens=1), _Gateway())
        handle._finish(record)
        with sanitized(True):
            with pytest.raises(SimSanitizerError, match="finished twice"):
                handle._finish(record)


# --------------------------------------------------------------------- #
# cluster frontier ledger: every kind of drift is named
# --------------------------------------------------------------------- #
class TestClusterFrontierCheck:
    def gateway(self):
        from test_serving_cluster import make_gateway
        gateway = make_gateway(n_replicas=3, max_nodes=4)
        for i in range(6):
            gateway.submit(f"variant-{i:02d}", 32, 8, arrival_s=0.0)
        gateway.step()
        return gateway

    def test_clean_gateway_passes(self):
        gateway = self.gateway()
        sanitizer.check_cluster_frontier(gateway)
        gateway.replicas[2].engine.clock = 40.0    # forward: stays legal
        sanitizer.check_cluster_frontier(gateway)
        gateway.drain_replica()
        gateway.spawn_replica()
        sanitizer.check_cluster_frontier(gateway)

    def test_busy_replica_missing_from_the_ledger(self):
        gateway = self.gateway()
        gateway.replicas[1].frontier_key = None
        with pytest.raises(SimSanitizerError,
                           match="frontier_key of replica-1"):
            sanitizer.check_cluster_frontier(gateway)

    def test_key_over_estimating_the_clock(self):
        gateway = self.gateway()
        busy = gateway.replicas[2]
        busy.frontier_key = busy.engine.clock + 1.0
        with pytest.raises(SimSanitizerError,
                           match="frontier_key of replica-2"):
            sanitizer.check_cluster_frontier(gateway)

    def test_entry_lost_from_the_heap(self):
        gateway = self.gateway()
        gateway._busy.clear()                     # keys still claim entries
        with pytest.raises(SimSanitizerError, match="least_busy"):
            sanitizer.check_cluster_frontier(gateway)

    def test_replica_count_drift(self):
        gateway = self.gateway()
        gateway.replicas[0].draining = True       # behind the gateway's back
        with pytest.raises(SimSanitizerError, match="n_replicas"):
            sanitizer.check_cluster_frontier(gateway)

    def test_step_and_ingest_run_the_check_when_enabled(self):
        with sanitized(True):
            gateway = self.gateway()
            gateway.replicas[0].draining = True
            with pytest.raises(SimSanitizerError, match="n_replicas"):
                gateway.step()
            gateway.replicas[0].draining = False
            gateway.replicas[1].frontier_key = None
            with pytest.raises(SimSanitizerError, match="frontier_key"):
                gateway.submit("variant-00", 16, 2)


# --------------------------------------------------------------------- #
# replica-set node census: one seeded fault per clause
# --------------------------------------------------------------------- #
@pytest.fixture
def fleet():
    from test_serving_cluster import Fleet
    return Fleet()


class TestReplicaSetCheck:
    def test_clean_lifecycle_passes(self, fleet):
        check = sanitizer.check_replica_set
        check(fleet.set, fleet.cluster)
        fleet.load(fleet.set.members[1], 1)
        fleet.drain(fleet.set.members[1])
        fleet.drain()
        check(fleet.set, fleet.cluster)
        fleet.reap()
        check(fleet.set, fleet.cluster)
        fleet.spawn()                       # un-drains
        fleet.spawn()                       # re-issues the reaped node
        check(fleet.set, fleet.cluster)
        assert fleet.set.retired[0].node is fleet.set.members[-1].node

    def test_draining_counter_drift(self, fleet):
        fleet.set.members[0].draining = True      # behind the set's back
        with pytest.raises(SimSanitizerError, match="n_draining"):
            sanitizer.check_replica_set(fleet.set, fleet.cluster)

    def test_live_member_on_a_released_node(self, fleet):
        victim = fleet.set.members[1]
        fleet.cluster.release(victim.node)
        with pytest.raises(SimSanitizerError,
                           match=f"{victim.name} holds a node the cluster "
                                 "does not list"):
            sanitizer.check_replica_set(fleet.set, fleet.cluster)

    def test_retired_member_whose_node_was_never_released(self, fleet):
        fleet.drain()
        fleet.reap()
        retired, = fleet.set.retired
        # the free list re-issues that very node, to nobody in the set
        assert fleet.cluster.acquire() is retired.node
        with pytest.raises(SimSanitizerError,
                           match=f"retired member {retired.name}"):
            sanitizer.check_replica_set(fleet.set, fleet.cluster)

    def test_node_taken_behind_the_sets_back(self, fleet):
        fleet.cluster.acquire()
        with pytest.raises(SimSanitizerError, match="node census"):
            sanitizer.check_replica_set(fleet.set, fleet.cluster)

    def test_grow_shrink_and_reap_run_the_check_when_enabled(self):
        from test_serving_cluster import Fleet
        with sanitized(True):
            fleet = Fleet()
            fleet.cluster.acquire()
            for op in (fleet.drain, fleet.set.reap, fleet.spawn):
                with pytest.raises(SimSanitizerError, match="node census"):
                    op()


# --------------------------------------------------------------------- #
# metrics plane: the fused sink write and the sink-answered reads
# --------------------------------------------------------------------- #
def sink_record(rid=0, finish=2.0, **over):
    return record(rid=rid, first=0.5, finish=finish,
                  output=4)._replace(**over)


class TestSinkRowCheck:
    def test_clean_stream_passes(self):
        with sanitized(True):
            sink = StreamingMetrics(policy=RecordPolicy.DROP)
            sink.observe(sink_record(0))
            sink.observe(sink_record(1, finish=0.0, first_token_s=None))
            sink.observe(sink_record(2, finish=1e-12, status="cancelled",
                                     served_tokens=1, output_tokens=0))
            assert sink.n_observed == 3

    def test_value_drift(self):
        class Skewed(RequestRecord):
            @property
            def ttft_s(self):           # the property and the sink disagree
                return super().ttft_s + 1e-12

        with sanitized(True):
            sink = StreamingMetrics(policy=RecordPolicy.DROP)
            with pytest.raises(SimSanitizerError,
                               match="request 3 drifted in the values"):
                sink.observe(Skewed(*sink_record(3)))

    def test_key_drift(self, monkeypatch):
        real = QuantileSketch.bin_key
        monkeypatch.setattr(
            QuantileSketch, "bin_key",
            lambda self, value: real(self, value) + (value == 2.0))
        with sanitized(True):
            sink = StreamingMetrics(policy=RecordPolicy.DROP)
            with pytest.raises(SimSanitizerError,
                               match="request 0 drifted in the bin keys"):
                sink.observe(sink_record(0))

    def test_zero_bin_drift(self):
        rec = sink_record(0, finish=1e-12, first_token_s=None)
        values = (1e-12, 1e-12, 2.5e-13, 1e-12)
        sanitizer.check_sink_row(rec, values, (None, None, None), 0.02, 1e-9)
        with pytest.raises(SimSanitizerError, match="bin keys"):
            sanitizer.check_sink_row(rec, values, (None, -1382, None),
                                     0.02, 1e-9)

    def test_off_means_no_check(self):
        class Skewed(RequestRecord):
            @property
            def ttft_s(self):
                return -1.0

        with sanitized(False):
            sink = StreamingMetrics(policy=RecordPolicy.DROP)
            sink.observe(Skewed(*sink_record(0)))
            assert sink.mean_ttft_s() == 0.5


class TestExactAggregatesCheck:
    def result(self):
        sink = StreamingMetrics(policy=RecordPolicy.KEEP_ALL)
        sink.observe(sink_record(0))
        sink.observe(sink_record(1, status="cancelled", served_tokens=3))
        sink.observe(sink_record(2, status="expired", served_tokens=1))
        return ServingResult(engine="t", records=sink.records,
                             makespan_s=2.0, stream=sink)

    def test_clean_result_passes(self):
        with sanitized(True):
            res = self.result()
            assert res.n_finished == 1
            assert res.token_throughput() == (4 + 3 + 1) / 2.0
            assert res.wasted_token_fraction() == 4 / 8

    @pytest.mark.parametrize("counter, bump", [
        ("n_finished", dict(finished=1, cancelled=-1)),
        ("tokens_served", dict(tokens_served=1)),
        ("tokens_wasted", dict(tokens_wasted=-1)),
    ])
    def test_counter_drift(self, counter, bump):
        res = self.result()
        # the one tenant's stored counters: every whole-sink read sums them
        stored = res.stream.tenant_counters(None)
        for name, delta in bump.items():
            setattr(stored, name, getattr(stored, name) + delta)
        with pytest.raises(SimSanitizerError,
                           match=f"sink counter {counter} drifted"):
            sanitizer.check_exact_aggregates(res.stream, res.records)
        for read in (lambda: res.n_finished, res.token_throughput,
                     res.wasted_token_fraction, res.goodput_rps):
            with sanitized(True):
                with pytest.raises(SimSanitizerError, match=counter):
                    read()
            with sanitized(False):
                read()                   # off: the sink is simply trusted

    def test_a_mismatched_record_list_is_re_summed_not_trusted(self):
        res = self.result()
        trimmed = ServingResult(engine="t", records=res.records[:2],
                                makespan_s=2.0, stream=res.stream)
        with sanitized(True):
            assert trimmed.n_finished == 1
            assert trimmed.token_throughput() == (4 + 3) / 2.0
            assert trimmed.wasted_token_fraction() == 3 / 7


# --------------------------------------------------------------------- #
# epoch ledger: what leave() materialises == the per-iteration loop
# --------------------------------------------------------------------- #
def trace_request(rid, output=50, arrival=0.0, model="variant-00"):
    return TraceRequest(request_id=rid, model_id=model, arrival_s=arrival,
                        prompt_tokens=16, output_tokens=output)


class TestEpochMemberCheck:
    @staticmethod
    def aged_batch():
        old, young = (ServingRequest(trace=trace_request(rid))
                      for rid in (0, 1))
        batch = RunningBatch([old])
        for i in range(5):
            batch.advance(0.01 + 0.001 * i)
        batch.join(young)
        for i in range(3):
            batch.advance(0.02 + 0.003 * i)
        return batch, old, young

    def test_clean_members_leave_silently(self):
        with sanitized(True):
            batch, old, young = self.aged_batch()
            batch.leave(young)
            batch.leave(old)
            assert (old.generated_tokens, young.generated_tokens) == (8, 3)
            assert old.inference_s > young.inference_s > 0.0

    def test_an_epoch_that_skipped_the_log(self):
        with sanitized(True):
            batch, old, _ = self.aged_batch()
            batch.epoch += 1                   # a token nobody logged
            with pytest.raises(SimSanitizerError, match=(
                    r"epoch ledger drifted in generated_tokens of request "
                    r"0: leave\(\) materialised 9, the per-iteration loop "
                    r"gives 8")):
                batch.leave(old)

    def test_a_log_entry_that_moved(self):
        with sanitized(True):
            batch, old, young = self.aged_batch()
            batch._log[2] *= 1.0 + 1e-12       # before young joined
            batch.leave(young)                 # its slice starts later
            with pytest.raises(SimSanitizerError, match=(
                    "epoch ledger drifted in inference_s of request 0")):
                batch.leave(old)

    def test_the_shadow_is_absent_when_the_sanitizer_is_off(self):
        with sanitized(False):
            batch, old, _ = self.aged_batch()
            assert batch._shadow is None
            batch.epoch += 1
            batch.leave(old)
            assert old.generated_tokens == 9


# --------------------------------------------------------------------- #
# coasted runs: every question a step would have asked
# --------------------------------------------------------------------- #
class TestCoastRunCheck:
    MODELS = ["variant-00", "variant-01"]

    def steady_engine(self):
        engine = make_engine("deltazip", self.MODELS)
        engine.submit(trace_request(0, output=60))
        engine.step()                          # prefill
        engine.step()                          # first pure decode: keys set
        assert engine._admits_nothing() and engine._rows_unchanged()
        return engine

    def test_clean_run_coasts_through_the_finish(self):
        with sanitized(True):
            engine = self.steady_engine()
            assert engine._coast(inf)
            # the 60th token too: the finish admits nobody
            assert engine.batch.epoch == 60 and not engine.running
            assert engine.unfinished == 0 and engine.stats.iterations == 60
            record, = engine.metrics.records
            assert record.finished and record.finish_s == engine.clock

    def test_a_hooked_finish_ends_the_run(self):
        """Two decodes of 30 and 60 tokens: unheard, one run retires
        both; heard on completion, the run ends after the first finish
        (its listener may act before the next iteration)."""
        with sanitized(True):
            ends = []
            for hooked in (False, True):
                engine = make_engine("deltazip", self.MODELS)
                engine.submit(trace_request(0, output=30))
                engine.submit(trace_request(1, output=60,
                                            model="variant-01"))
                engine.step()
                if hooked:
                    engine.on_finish = lambda req, clock: None
                assert engine._coast(inf)
                ends.append((engine.batch.epoch, engine.unfinished))
            assert ends == [(60, 0), (30, 1)]
            with pytest.raises(SimSanitizerError, match=(
                    r"'deltazip' coasted on past a finish a hook hears")):
                sanitizer.check_coast_run(engine, engine.clock, [], [],
                                          True)

    def test_a_stale_verdict(self):
        with sanitized(True):
            engine = self.steady_engine()
            engine._resident.clear()           # behind admit's back
            with pytest.raises(SimSanitizerError,
                               match=r"admission verdict.*loads "
                                     r"\['variant-00'\]"):
                engine._coast(inf)

    def test_a_stale_plan(self):
        with sanitized(True):
            engine = self.steady_engine()
            plan = engine._steady_plan
            engine._steady_plan = plan._replace(
                linear_s=plan.linear_s * (1.0 + 2 ** -50))
            with pytest.raises(SimSanitizerError,
                               match=r"'deltazip'.*linear-pass plan"):
                engine._coast(inf)

    @pytest.mark.parametrize("shift, fault", [
        (5, r"coasted past the finish of requests \[0\]"),
        (-5, r"finished requests \[0\] inside a coast before their last "
             r"token")])
    def test_a_member_done_off_its_finish_bucket(self, shift, fault):
        """The run ends on the finish bucket; a bucket moved out lets it
        run past the request's last token, one moved in retires the
        request short of it."""
        with sanitized(True):
            engine = self.steady_engine()
            finish = engine.batch._finish
            (due, bucket), = finish.items()
            finish.clear()
            finish[due + shift] = bucket
            with pytest.raises(SimSanitizerError, match=fault):
                engine._coast(inf)

    @pytest.mark.parametrize("kind", ["arrival", "cancel"])
    def test_an_event_due_inside_the_run(self, kind):
        with sanitized(True):
            engine = self.steady_engine()
            at_s = engine.clock + 0.2
            if kind == "arrival":
                engine.submit(trace_request(1, arrival=at_s,
                                            model="variant-01"))
            else:
                engine.schedule_cancel(0, at_s)
            engine._next_wake = lambda: None   # the bound went missing
            with pytest.raises(SimSanitizerError, match=(
                    rf"coasted through an iteration starting at .* with 1 "
                    rf"events due, the first a {kind.capitalize()} at "
                    rf"{re.escape(repr(at_s))}")):
                engine._coast(inf)

    @staticmethod
    def freed_slot_engine():
        """K=2, N=1: two decodes of variant-00 run, a third waits for a
        slot; the short one's finish frees it for the waiting one."""
        engine = make_engine("deltazip", ["variant-00"], n_deltas=1, k=2)
        for rid, output in ((0, 60), (1, 5), (2, 40)):
            engine.submit(trace_request(rid, output=output))
        return engine

    def test_a_freed_slot_drains_the_same_either_way(self):
        """The coast's verdict is the decision itself: the finish that
        frees a slot admits the waiting request of the running variant
        at the same step whether the drain coasts or steps."""
        with sanitized(True):
            views = []
            for coasting in (True, False):
                engine = self.freed_slot_engine()
                if coasting:
                    engine.run_until_drained()
                else:
                    while engine.unfinished > 0 and engine.step():
                        pass
                views.append(([tuple(r) for r in engine.metrics.records],
                              vars(engine.stats), engine.clock))
        assert views[0] == views[1]
        by_id = {r[0]: r for r in views[0][0]}
        assert set(by_id) == {0, 1, 2}

    def test_a_stale_cancel_is_not_an_event(self):
        with sanitized(True):
            engine = self.steady_engine()
            engine.schedule_cancel(999, engine.clock + 0.2)
            engine._next_wake = lambda: None
            engine._coast(inf)
            assert engine.batch.epoch == 60 and engine.unfinished == 0

    def test_the_real_bounds_stop_the_run_at_the_event(self):
        with sanitized(True):
            engine = self.steady_engine()
            at_s = engine.clock + 0.2
            engine.schedule_cancel(0, at_s)
            engine._coast(inf)
            # the last coasted iteration started before the cancel was due
            assert engine.clock >= at_s > engine.clock - \
                engine.batch.times_since(engine.batch.epoch - 1)[0]
            engine.run_until_drained()
            # (edited: the request is released; its record says the same)
            assert engine.metrics.records[0].status == "cancelled"

    def test_checks_are_absent_when_the_sanitizer_is_off(self):
        with sanitized(False):
            engine = self.steady_engine()
            engine._resident.clear()
            engine._coast(inf)
            assert engine.batch.epoch == 60


class TestScbCoastRunCheck:
    """The same questions of vLLM-SCB, whose decision is the queue-head
    swap and the FCFS fill, and whose plan is the full-model loop."""

    MODELS = ["variant-00", "variant-01"]

    def steady_engine(self):
        """K=1: request 0 decodes, request 1 of its model waits behind
        it; the swap is done and the fill has no slot."""
        engine = make_engine("vllm-scb", self.MODELS, k=1)
        engine.submit(trace_request(0, output=60))
        engine.submit(trace_request(1, output=5))
        engine.step()                          # swap + prefill
        engine.step()                          # first pure decode
        assert not engine._decide()
        return engine

    def test_clean_run_coasts_to_the_admission_it_frees(self):
        with sanitized(True):
            engine = self.steady_engine()
            engine._coast(inf)
            # through request 0's finish, up to request 1's admission
            assert engine.batch.epoch == 60 and not engine.running
            assert engine.unfinished == 1 and engine._decide()
            engine.run_until_drained()
            assert engine.unfinished == 0
            assert engine.stats.iterations == 65
            assert engine.stats.swap_ins == 1

    def test_a_stale_plan(self):
        with sanitized(True):
            engine = self.steady_engine()
            plan = engine._linear_plan(engine._compose([]))
            engine._decode_plan = lambda: plan._replace(
                linear_s=plan.linear_s * (1.0 + 2 ** -50))
            with pytest.raises(SimSanitizerError,
                               match=r"'vllm-scb'.*linear-pass plan"):
                engine._coast(inf)

    def test_a_head_model_made_non_resident(self):
        with sanitized(True):
            engine = self.steady_engine()
            plan_run = engine.cost.plan_run

            def evicting(*args):
                engine._resident.clear()       # behind the engine's back
                return plan_run(*args)
            engine.cost.plan_run = evicting
            with pytest.raises(SimSanitizerError,
                               match=r"'vllm-scb'.*admission verdict.*"
                                     r"loads \['variant-00'\]"):
                engine._coast(inf)


# --------------------------------------------------------------------- #
# release at retirement: a terminal request is reachable from nowhere
# --------------------------------------------------------------------- #
class TestReleaseCheck:
    MODELS = ["variant-00", "variant-01"]

    def test_every_retirement_runs_the_check_when_enabled(self, monkeypatch):
        from test_retention import build, serve, workload
        seen = []
        check = sanitizer.check_released
        monkeypatch.setattr(sanitizer, "check_released", lambda engine, req:
                            seen.append((check(engine, req), req.request_id)))
        trace, cancels = workload()
        with sanitized(True):
            serve(build("deltazip", "gateway", RecordPolicy.KEEP_ALL),
                  trace, cancels)
        assert sorted({rid for _, rid in seen}) == list(range(len(trace)))
        with sanitized(False):
            serve(build("deltazip", "gateway", RecordPolicy.KEEP_ALL),
                  trace, cancels)
        assert len({rid for _, rid in seen}) == len(seen) == len(trace)

    @pytest.mark.parametrize("how", ["finish", "cancel"])
    def test_a_retire_that_forgets_live(self, monkeypatch, how):
        from repro.serving.base import ServingEngine
        retire = ServingEngine._retire

        def keeping(self, requests):
            retire(self, requests)
            self._live.update((r.request_id, r) for r in requests)

        monkeypatch.setattr(ServingEngine, "_retire", keeping)
        with sanitized(True):
            engine = make_engine("deltazip", self.MODELS)
            engine.submit(trace_request(0, output=3))
            if how == "cancel":
                engine.schedule_cancel(0, 0.0)
            with pytest.raises(SimSanitizerError, match=(
                    r"request 0 retired on engine 'deltazip' \((finished|"
                    r"cancelled)\) but is still held by _live \[")):
                engine.run_until_drained()

    def test_a_prefix_chain_left_held_by_a_cancelled_request(
            self, monkeypatch):
        from repro.serving import DeltaZipEngine
        from repro.serving.base import ServingEngine
        from test_retention import build

        def turn(rid, prompt, output):
            return TraceRequest(request_id=rid, model_id="variant-00",
                                arrival_s=0.0, prompt_tokens=prompt,
                                output_tokens=output, conversation_id="c")

        with sanitized(True):
            engine = build("deltazip", "bare", RecordPolicy.KEEP_ALL)
            engine.submit(turn(0, 64, 4))
            engine.run_until_drained()
            engine.submit(turn(1, 132, 400))         # hits turn 0's blocks
            engine.step()
            assert list(engine._prefix_refs) == [1]
            # the override that gives the references back went missing
            monkeypatch.setattr(DeltaZipEngine, "_apply_cancel",
                                ServingEngine._apply_cancel)
            with pytest.raises(SimSanitizerError, match=(
                    r"request 1 retired .* \(cancelled\) but is still held "
                    r"by _prefix_refs \(a held chain\)")):
                engine.abort(1)

    def test_an_owner_entry_surviving_an_abort(self):
        from test_serving_cluster import make_gateway

        class Sticky(dict):
            def pop(self, *args):              # the release went missing
                return None

        with sanitized(True):
            gateway = make_gateway()
            gateway._owner = Sticky()
            gateway.ingest(trace_request(0, output=400))
            gateway.cancel(0, at_s=0.5)
            with pytest.raises(SimSanitizerError, match=(
                    r"cluster still routes request 0 to replica-\d after "
                    r"its cancelled record was delivered")):
                gateway.run_until_drained()

    def test_an_unrouted_entry_surviving_the_routing(self) -> None:
        from test_serving_cluster import make_gateway

        class Sticky(dict):
            def pop(self, *args: object) -> object:
                return self.get(*args)         # the release went missing

        with sanitized(True):
            gateway = make_gateway()
            gateway._pending_cancels = Sticky()
            gateway.ingest(trace_request(0, output=4))
            with pytest.raises(SimSanitizerError, match=(
                    r"cluster still holds request 0 as unrouted after "
                    r"its finished record was delivered")):
                gateway.run_until_drained()

    def test_each_place_a_request_can_linger_is_named(self):
        engine = make_engine("deltazip", self.MODELS, k=1)
        running = engine.submit(trace_request(0, output=60))
        queued = engine.submit(trace_request(1, output=5))
        future = engine.submit(trace_request(2, output=5, arrival=9.0))
        engine.step()
        for req, places in (
                (running, "_live, the running batch, a finish bucket"),
                (queued, "_live, the admission queue"),
                (future, "_live, the pending arrivals")):
            with pytest.raises(SimSanitizerError, match=(
                    rf"request {req.request_id} retired on engine "
                    rf"'deltazip' \(\w+\) but is still held by {places} \[")):
                sanitizer.check_released(engine, req)
        engine.run_until_drained()
        for req in (running, queued, future):
            sanitizer.check_released(engine, req)        # all gone: silent

    def test_a_queued_cancel_that_would_hit_the_ids_next_holder(self):
        engine = make_engine("deltazip", self.MODELS)
        old = engine.submit(trace_request(0, output=3))
        engine.schedule_cancel(0, 50.0)
        while engine.unfinished:
            engine.step()
        sanitizer.check_released(engine, old)   # stale cancel, nobody home
        engine.submit(trace_request(0, output=3, arrival=40.0))
        with pytest.raises(SimSanitizerError, match=(
                r"still held by a queued cancel that is still live \[")):
            sanitizer.check_released(engine, old)


# --------------------------------------------------------------------- #
# horizon coasting: the bounds an outer drain loop passes down
# --------------------------------------------------------------------- #
def coast_member(parent, member):
    """What the drain loop does with a member it lets coast."""
    return parent._coast_member(member, min(parent._horizon(member),
                                            parent._turn()))


class TestClusterCoastCheck:
    @staticmethod
    def steady(arrival=None, tick_every=None):
        """Replica 0 two steps into a 100-token decode, about to coast."""
        from repro.serving import Autoscaler
        from test_serving_cluster import make_gateway
        scaler = tick_every and Autoscaler(
            min_replicas=2, max_replicas=2, check_interval_s=tick_every)
        gateway = make_gateway(n_replicas=2, autoscaler=scaler)
        gateway.ingest(trace_request(0, output=100))
        if arrival is not None:
            gateway.ingest(trace_request(1, arrival=arrival,
                                         model="variant-01"))
        for _ in range(2):
            stepped = gateway._step_from(gateway._route_due())
        replica = gateway.replicas[0]
        assert replica is stepped and replica.clock < 0.5
        return gateway, replica

    def test_clean_drains_coast_up_to_each_bound(self):
        with sanitized(True):
            gateway, replica = self.steady(arrival=0.6)
            coast_member(gateway, replica)
            last = replica.engine.batch.times_since(
                replica.engine.batch.epoch - 1)[0]
            assert replica.clock >= 0.6 > replica.clock - last
            assert replica.engine.batch.epoch > 5
            gateway.run_until_drained()
            assert gateway.unfinished == 0
            gateway, replica = self.steady(tick_every=0.5)
            tick = gateway._ticks.peek_time()
            coast_member(gateway, replica)
            assert gateway.kernel.now == replica.clock >= tick
            assert gateway._ticks.peek_time() == replica.clock + 0.5

    def test_an_arrival_under_the_run(self):
        with sanitized(True):
            gateway, replica = self.steady(arrival=0.6)
            gateway._horizon = lambda engine: inf      # the bound is gone
            with pytest.raises(SimSanitizerError, match=(
                    r"replica-0 coasted through an iteration "
                    r"starting at .* with an unrouted arrival due at 0\.6")):
                coast_member(gateway, replica)

    def test_a_tick_under_the_run(self):
        with sanitized(True):
            gateway, replica = self.steady(tick_every=0.5)
            tick = gateway._ticks.peek_time()
            gateway._turn = lambda: inf
            with pytest.raises(SimSanitizerError, match=(
                    rf"with an autoscaler tick due at "
                    rf"{re.escape(repr(tick))}")):
                coast_member(gateway, replica)

    def test_a_skipped_made_progress(self):
        with sanitized(True):
            gateway, replica = self.steady(tick_every=0.5)
            gateway._made_progress = lambda: True
            with pytest.raises(SimSanitizerError, match=(
                    r"the cluster's bookkeeping .* moved while replica-0 "
                    r"coasted")):
                coast_member(gateway, replica)

    def test_a_skipped_made_progress_already_behind_before_the_run(self):
        """The bookkeeping must read right after the coast, whatever it
        read before the run."""
        with sanitized(True):
            gateway, replica = self.steady(tick_every=0.5)
            replica.engine.step()         # not through the gateway:
            gateway._rekey(replica)       # the kernel stays behind
            assert gateway.kernel.now < gateway.frontier
            gateway._made_progress = lambda: True
            with pytest.raises(SimSanitizerError, match=(
                    r"the cluster's bookkeeping .* moved while replica-0 "
                    r"coasted: False, not True")):
                coast_member(gateway, replica)

    def test_a_retirement_outside_the_finishing_tail(self):
        """A coast may retire only through the tail ``step()`` shares:
        one counted retired that the sink never saw and that is still
        live is a fault."""
        with sanitized(True):
            gateway, replica = self.steady(arrival=0.6)
            engine, coast = replica.engine, replica.engine._coast

            def retiring(*bounds):
                coast(*bounds)
                engine._n_retired += 1
            engine._coast = retiring
            with pytest.raises(SimSanitizerError, match=(
                    r"replica-0 retired 1 requests while it coasted, but "
                    r"released 0 and its sink observed 0: a retirement "
                    r"outside the finishing tail")):
                coast_member(gateway, replica)

    def test_a_submission_under_the_run(self):
        with sanitized(True):
            gateway, replica = self.steady(arrival=0.6)
            engine, coast = replica.engine, replica.engine._coast

            def submitting(*bounds):
                coast(*bounds)
                engine._n_submitted += 1
            engine._coast = submitting
            with pytest.raises(SimSanitizerError, match=(
                    r"replica-0 took 1 submissions while it coasted, none "
                    r"from a completion callback")):
                coast_member(gateway, replica)

    def test_a_member_somebody_hears_per_iteration(self):
        with sanitized(True):
            gateway, replica = self.steady()
            # a listener the gateway's ``observed`` does not know of
            replica.engine.on_event = lambda event: None
            with pytest.raises(SimSanitizerError, match=(
                    r"replica-0 coasted while somebody hears it per "
                    r"iteration")):
                coast_member(gateway, replica)

    def test_checks_are_absent_when_the_sanitizer_is_off(self):
        with sanitized(False):
            gateway, replica = self.steady(arrival=0.6)
            gateway._horizon = lambda engine: inf
            coast_member(gateway, replica)
            assert replica.clock > 1.0


class TestHeardCoastCheck:
    """The bounds a coast keeps where somebody hears the stack between
    iterations: another busy replica's next iteration that is not quiet
    (a completion listener may inject work there), the next gauge tick,
    admission's next event."""

    @staticmethod
    def heard():
        """Replica 0 two steps into a 100-token decode, replica 1 into a
        12-token one, a completion listener on the gateway."""
        from test_serving_cluster import make_gateway
        gateway = make_gateway(n_replicas=2)
        gateway.add_completion_listener(lambda record: None)
        gateway.ingest(trace_request(0, output=100))
        gateway.ingest(trace_request(1, output=12, model="variant-01"))
        for _ in range(4):
            gateway._step_from(gateway._route_due())
        return gateway, gateway.replicas[0], gateway.replicas[1]

    def test_a_clean_coast_stops_before_another_replicas_finish(self):
        with sanitized(True):
            gateway, replica, other = self.heard()
            finish = other.engine._quiet_until()
            assert finish > other.clock
            assert coast_member(gateway, replica)
            last = replica.engine.batch.times_since(
                replica.engine.batch.epoch - 1)[0]
            assert replica.clock - last < finish <= replica.clock
            gateway.run_until_drained()
            assert gateway.unfinished == 0

    def test_one_iteration_past_another_replicas_finish(self):
        with sanitized(True):
            gateway, replica, other = self.heard()
            finish = other.engine._quiet_until()
            engine = replica.engine
            iter_s = engine.cost.plan_time(engine._decode_plan(),
                                           engine.batch.context_tokens)
            # the bound moved one iteration later
            gateway._horizon = lambda member: finish + 1.5 * iter_s
            with pytest.raises(SimSanitizerError, match=(
                    rf"replica-0 coasted through an iteration starting at "
                    rf".* with a completion on busy replica-1 due at "
                    rf"{re.escape(repr(finish))}")):
                coast_member(gateway, replica)

    @pytest.mark.parametrize("layer", ["cluster", "gateway"])
    def test_a_coast_across_a_telemetry_tick(self, layer):
        from repro.serving import ServingGateway
        from repro.telemetry import Telemetry
        from test_serving_cluster import make_gateway
        with sanitized(True):
            telemetry = Telemetry(interval_s=0.4)
            gateway = make_gateway(n_replicas=2) if layer == "cluster" \
                else ServingGateway(make_engine("deltazip", ["variant-00"]))
            # the tick is gone from the bounds
            gateway._horizon = gateway._turn = lambda *member: inf
            telemetry.attach(gateway)
            gateway.ingest(trace_request(0, output=100))
            with pytest.raises(SimSanitizerError, match=(
                    r"coasted through an iteration starting at .* with a "
                    r"telemetry tick due at 0\.4")):
                gateway.run_until_drained()

    def test_a_coast_across_an_admission_arrival(self):
        from repro.serving import Tenant, TenantGateway
        from test_serving_cluster import make_gateway
        with sanitized(True):
            gateway = TenantGateway(make_gateway(n_replicas=2),
                                    tenants=(Tenant("default"),))
            gateway.ingest(trace_request(0, output=100))
            gateway.ingest(trace_request(1, arrival=0.6))
            for _ in range(2):             # request 0 released and running
                assert gateway.step()
            # admission's bound is gone; the cluster's own are kept
            gateway._turn = lambda: inf
            with pytest.raises(SimSanitizerError, match=(
                    r"replica-0 coasted through an iteration starting at "
                    r".* with an admission arrival due at 0\.6")):
                gateway.run_until_drained()


class TestWorkerCoastCheck:
    @staticmethod
    def steady():
        """A 100-token decode in flight on the first decode worker of
        1 + 3, the prefill pool dry, the worker about to coast."""
        from test_disagg import make_disagg
        engine = make_disagg(prefill=1, decode=3)
        engine.submit(trace_request(0, output=100))
        worker = engine._decode_pool[0]
        for _ in range(40):
            assert engine.step()
            if engine._stepped is worker and worker._admits_nothing() \
                    and worker._rows_unchanged():
                return engine, worker
        raise AssertionError("the decode worker never reached steady state")

    def test_clean_run_coasts_to_the_finish_bucket(self):
        with sanitized(True):
            engine, worker = self.steady()
            epoch = worker.batch.epoch
            coast_member(engine, worker)
            assert worker.batch.epoch - epoch > 50
            engine.run_until_drained()
            assert engine.unfinished == 0

    @pytest.mark.parametrize("fault, named", [
        ("prefill", "a handoff from busy disagg.prefill0"),
        ("waiting", "waiting disagg.decode3")])
    def test_a_bound_under_the_run(self, fault, named):
        with sanitized(True):
            engine, worker = self.steady()
            at_s = worker.clock + 0.05
            other = engine._prefill_pool[0] if fault == "prefill" \
                else engine._decode_pool[2]
            other.submit(trace_request(9, arrival=at_s + 5.0))
            other.clock = at_s
            engine._horizon = lambda worker: inf       # the bounds are gone
            with pytest.raises(SimSanitizerError, match=(
                    rf"disagg.decode1 coasted through an iteration "
                    rf"starting at .* with {named} due at "
                    rf"{re.escape(repr(at_s))}")):
                coast_member(engine, worker)

    def test_the_real_horizon_stops_at_a_waiting_decode_worker(self):
        with sanitized(True):
            engine, worker = self.steady()
            other, at_s = engine._decode_pool[2], worker.clock + 0.05
            other.submit(trace_request(9, arrival=at_s + 5.0))
            other.clock = at_s
            coast_member(engine, worker)
            last = worker.batch.times_since(worker.batch.epoch - 1)[0]
            assert worker.clock >= at_s > worker.clock - last

    def test_a_handoff_during_the_run(self):
        with sanitized(True):
            engine, worker = self.steady()
            coast = worker._coast

            def handing_off(*bounds):
                coast(*bounds)
                engine._in_transfer.add(9)
            worker._coast = handing_off
            with pytest.raises(SimSanitizerError, match=(
                    r"a KV handoff \(begun, in flight\) moved while "
                    r"disagg.decode1 coasted")):
                coast_member(engine, worker)


# --------------------------------------------------------------------- #
# prefix cache: the span structure behind the per-block answers
# --------------------------------------------------------------------- #
class TestPrefixCacheCheck:
    SCOPE = ("llama-7b", "variant-00")

    @staticmethod
    def runs(n_blocks, conv="conv-0"):
        from repro.serving import prefix_block_keys
        return prefix_block_keys(
            TraceRequest(request_id=0, model_id="variant-00", arrival_s=0.0,
                         prompt_tokens=n_blocks * 16, output_tokens=1,
                         conversation_id=conv), n_blocks * 16, 16)

    def split_cache(self):
        """[0,2) held | [2,6) idle, and an idle 3-block chain beside it:
        the held head, its tail and the other leaf are three segments."""
        from repro.serving import PrefixCache
        cache = PrefixCache(16)
        cache.insert(self.SCOPE, self.runs(6))
        cache.insert(self.SCOPE, self.runs(3, "conv-1"))
        held = cache.lookup(self.SCOPE, self.runs(2))
        cache.acquire(held)
        head = held[0].parent
        assert (head.start, head.end, held[0].start) == (0, 2, 2)
        return cache, head, held[0]

    def test_every_mutating_call_runs_the_check_when_enabled(self, monkeypatch):
        calls = []
        check = sanitizer.check_prefix_cache
        monkeypatch.setattr(sanitizer, "check_prefix_cache",
                            lambda cache: calls.append(check(cache)))
        with sanitized(True):
            cache, _, tail = self.split_cache()     # 2 inserts + 1 acquire
            assert len(calls) == 3
            cache.lookup(self.SCOPE, self.runs(6))  # reorders the LRU only
            assert len(calls) == 3
            cache.release((tail, 2))
            assert cache.evict(20) == 9 and cache.evict(1) == 0
            assert len(calls) == 5
        with sanitized(False):
            self.split_cache()
            assert len(calls) == 5

    def test_a_stale_child_key_after_a_split(self):
        cache, head, tail = self.split_cache()
        head.children[(tail.ident, 0)] = head.children.pop((tail.ident, 2))
        with pytest.raises(SimSanitizerError, match=(
                r"prefix segment \('c', 'conv-0'\) \[2, 6\) is filed under "
                r"\(\('c', 'conv-0'\), 0\) of a parent ending at block 2")):
            sanitizer.check_prefix_cache(cache)

    def test_a_child_under_a_mid_segment_position(self):
        cache, head, tail = self.split_cache()
        head.end = 3                # the tail now hangs inside its parent
        with pytest.raises(SimSanitizerError, match=(
                r"\[2, 6\) is filed under .* of a parent ending at block 3")):
            sanitizer.check_prefix_cache(cache)

    def test_a_referenced_segment_left_in_the_lru(self):
        cache, head, tail = self.split_cache()
        cache._evictable[head] = None
        with pytest.raises(SimSanitizerError, match=(
                r"prefix LRU holds 3 segments but the tree has 2 "
                r"unreferenced leaves")):
            sanitizer.check_prefix_cache(cache)

    def test_an_idle_leaf_missing_from_the_lru(self):
        cache, head, tail = self.split_cache()
        del cache._evictable[tail]
        cache._evictable[head] = None           # same size, wrong member
        with pytest.raises(SimSanitizerError, match="prefix LRU holds 2"):
            sanitizer.check_prefix_cache(cache)

    def test_a_tip_dropped_without_the_counter(self):
        cache, head, tail = self.split_cache()
        tail.end -= 1
        with pytest.raises(SimSanitizerError, match=(
                r"prefix cache drifted: counts 9 blocks / 2 references, "
                r"segments give 8 / 2")):
            sanitizer.check_prefix_cache(cache)

    def test_an_emptied_segment_still_linked(self):
        cache, head, tail = self.split_cache()
        tail.end = tail.start
        with pytest.raises(SimSanitizerError, match=(
                r"\[2, 2\) is empty but still linked")):
            sanitizer.check_prefix_cache(cache)

    def test_a_child_holding_more_references_than_its_parent(self):
        cache, head, tail = self.split_cache()
        tail.refcount = 2
        with pytest.raises(SimSanitizerError, match=(
                r"\[2, 6\) holds 2 references under a parent holding 1")):
            sanitizer.check_prefix_cache(cache)

    def test_a_reference_the_counter_never_saw(self):
        cache, head, tail = self.split_cache()
        head.refcount = 2
        with pytest.raises(SimSanitizerError, match=(
                r"counts 9 blocks / 2 references, segments give 9 / 4")):
            sanitizer.check_prefix_cache(cache)


# --------------------------------------------------------------------- #
# cost-model memos: served columns and totals == the public kernels
# --------------------------------------------------------------------- #
class TestCostMemoChecks:
    ROWS = [3, 5, 9]

    def model(self, **kw):
        model = IterationCostModel(LLAMA_7B, A100, tp_degree=4, lora_rank=16,
                                   **kw)
        model._base_pass(17)
        model._delta_pass(self.ROWS)
        model._lora_pass(self.ROWS)
        return model

    @pytest.mark.parametrize("impl", ["sbmm", "fp16_forloop", "fp16_bmm"])
    def test_clean_memo_hits_pass(self, impl):
        with sanitized(True):
            model = self.model(sbmm_impl=impl)
            # totals from the tuple memos, then columns under new tuples
            for rows in (self.ROWS, [9, 3], [5, 5, 0, 3]):
                assert model._delta_pass(rows) > 0.0
                assert model._lora_pass(rows) > 0.0
            assert model._base_pass(17) > 0.0

    @pytest.mark.parametrize("family, price", [
        ("delta", IterationCostModel._delta_pass),
        ("lora_down", IterationCostModel._lora_pass),
        ("lora_up", IterationCostModel._lora_pass)])
    def test_poisoned_column_entry(self, family, price):
        with sanitized(True):
            model = self.model()
            shapes, _, columns = model._families[family]
            columns[5][1] *= 1.0 + 2e-16       # one ulp, one entry
            k, n = shapes[1]
            with pytest.raises(SimSanitizerError, match=re.escape(
                    f"column drifted in the {family} pass at shape "
                    f"({k}, {n}), count 5")):
                price(model, [9, 5])            # new tuple, seen counts
        with sanitized(False):
            model = self.model()
            model._families[family][-1][5][1] *= 2.0
            price(model, [9, 5])               # off: the memo is trusted

    @pytest.mark.parametrize("name, memo, key, rows", [
        ("base", "base", 17, 17),
        ("allreduce", "allreduce", 17, 17),
        # three overlapping deltas: keyed by (largest count, n), and the
        # hit is re-priced from its own counts, not from the key
        ("delta", "top", (9, 3), (3, 5, 9)),
        ("delta", "top", (9, 3), (1, 2, 9)),
        # nine deltas do not all overlap: keyed by the count tuple
        ("delta", "delta", tuple(range(1, 10)), tuple(range(1, 10))),
        ("lora", "lora", (3, 5, 9), (3, 5, 9))])
    def test_poisoned_pass_total(self, name, memo, key, rows):
        with sanitized(True):
            model = self.model()
            price = getattr(model, f"_{name}_pass")
            price(rows)
            getattr(model, f"_{memo}_memo")[key] *= 1.0 + 2e-16
            with pytest.raises(SimSanitizerError, match=re.escape(
                    f"memo drifted in the {name} pass for rows {rows!r}")):
                price(rows)
