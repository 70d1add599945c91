"""ServingResult metrics, per-tenant slicing, and SLO attainment math."""

import numpy as np
import pytest

from repro.serving.metrics import (ServingResult, UNTENANTED,
                                   jain_fairness_index, slo_attainment,
                                   slo_attainment_by_tenant, summarize,
                                   summarize_by_tenant)
from repro.serving.request import (RequestRecord, RequestState,
                                   ServingRequest, synthesized_abort_record)
from repro.serving.streaming_metrics import RecordPolicy, StreamingMetrics
from repro.workload.spec import TraceRequest


def record(rid=0, arrival=0.0, first=1.0, finish=5.0, prompt=10, output=20,
           tenant=None, **kw):
    return RequestRecord(request_id=rid, model_id="m", arrival_s=arrival,
                         first_token_s=first, finish_s=finish,
                         prompt_tokens=prompt, output_tokens=output,
                         queue_wait_s=kw.get("queue_wait_s", 0.5),
                         loading_s=kw.get("loading_s", 0.2),
                         inference_s=kw.get("inference_s", 4.0),
                         skipped_line=False, preemptions=0,
                         tenant_id=tenant)


class TestRequestRecord:
    def test_latency_math(self):
        r = record(arrival=1.0, first=3.0, finish=11.0)
        assert r.e2e_latency_s == 10.0
        assert r.ttft_s == 2.0
        assert r.time_per_token_s == 0.5

    def test_ttft_falls_back_to_e2e(self):
        r = RequestRecord(request_id=0, model_id="m", arrival_s=0.0,
                          first_token_s=None, finish_s=4.0, prompt_tokens=1,
                          output_tokens=1, queue_wait_s=0, loading_s=0,
                          inference_s=4, skipped_line=False, preemptions=0)
        assert r.ttft_s == 4.0

    def test_is_immutable_and_hashable(self):
        r = record()
        with pytest.raises(AttributeError):
            r.status = "cancelled"
        with pytest.raises(AttributeError):
            r.note = "no instance dict either"
        assert r == record() and hash(r) == hash(record())
        assert r != record(finish=6.0)

    def test_field_order_and_defaults(self):
        # ServingRequest.record() fills the fields positionally, and
        # tuple(record) is what digests hash: the order is the contract
        assert RequestRecord._fields == (
            "request_id", "model_id", "arrival_s", "first_token_s",
            "finish_s", "prompt_tokens", "output_tokens", "queue_wait_s",
            "loading_s", "inference_s", "skipped_line", "preemptions",
            "tenant_id", "status", "served_tokens", "conversation_id",
            "cached_prefix_tokens", "transfer_s")
        # benchmarks/perf/workloads.py RecordDigest.FIELDS, by name
        assert set(RequestRecord._fields) >= {
            "request_id", "model_id", "arrival_s", "first_token_s",
            "finish_s", "queue_wait_s", "loading_s", "inference_s",
            "status", "served_tokens", "cached_prefix_tokens", "transfer_s"}
        assert RequestRecord._field_defaults == {
            "tenant_id": None, "status": "finished", "served_tokens": None,
            "conversation_id": None, "cached_prefix_tokens": 0,
            "transfer_s": 0.0}

    def test_properties(self):
        r = record(arrival=1.0, first=3.0, finish=11.0, output=20)
        assert r.finished and r.tokens_served == 20
        aborted = r._replace(status="expired", served_tokens=7,
                             first_token_s=None, output_tokens=0)
        assert not aborted.finished and aborted.tokens_served == 7
        assert aborted.ttft_s == aborted.e2e_latency_s == 10.0
        assert aborted.time_per_token_s == 10.0     # max(output, 1)

    def test_request_and_frontier_build_the_same_row(self):
        trace = TraceRequest(request_id=7, model_id="m", arrival_s=1.5,
                             prompt_tokens=12, output_tokens=9,
                             tenant_id="acme", conversation_id="c-3")
        req = ServingRequest(trace=trace)
        req.state = RequestState.CANCELLED
        req.finish_s = 4.0
        req.queue_wait_s = 2.5
        rec = req.record()
        assert rec == synthesized_abort_record(trace, 4.0, "cancelled")
        assert rec == RequestRecord(
            request_id=7, model_id="m", arrival_s=1.5, first_token_s=None,
            finish_s=4.0, prompt_tokens=12, output_tokens=9,
            queue_wait_s=2.5, loading_s=0.0, inference_s=0.0,
            skipped_line=False, preemptions=0, tenant_id="acme",
            status="cancelled", served_tokens=0, conversation_id="c-3",
            cached_prefix_tokens=0, transfer_s=0.0)
        assert req.record() is rec                   # terminal: memoized

    def test_running_snapshot_reads_finished_and_is_not_kept(self):
        req = ServingRequest(trace=TraceRequest(
            request_id=1, model_id="m", arrival_s=0.0, prompt_tokens=4,
            output_tokens=8))
        with pytest.raises(ValueError, match="request 1 not finished"):
            req.record()
        req.state = RequestState.RUNNING
        req.finish_s, req.generated_tokens = 2.0, 3
        snap = req.record()
        assert snap.status == "finished" and snap.served_tokens == 3
        assert req.record() is not snap


class TestServingResult:
    def make(self):
        records = [record(rid=i, arrival=float(i), first=i + 1.0,
                          finish=i + 3.0) for i in range(10)]
        return ServingResult(engine="t", records=records, makespan_s=12.0)

    def test_throughput(self):
        res = self.make()
        assert res.throughput_rps() == pytest.approx(10 / 12.0)

    def test_throughput_within_horizon(self):
        res = self.make()
        # finishes at 3..12; horizon 5 catches finishes at 3,4,5
        assert res.throughput_within(5.0) == pytest.approx(3 / 5.0)
        assert res.throughput_within(0.0) == 0.0

    def test_token_throughput(self):
        res = self.make()
        assert res.token_throughput() == pytest.approx(200 / 12.0)

    def test_means_and_percentiles(self):
        res = self.make()
        assert res.mean_e2e_latency_s() == pytest.approx(3.0)
        assert res.mean_ttft_s() == pytest.approx(1.0)
        assert res.percentile_e2e_s(90) == pytest.approx(3.0)
        assert res.mean_time_per_token_s() == pytest.approx(3.0 / 20)

    def test_empty_records(self):
        res = ServingResult(engine="t", records=[], makespan_s=1.0)
        assert res.mean_e2e_latency_s() == 0.0
        assert res.throughput_rps() == 0.0

    def test_summary_consistent(self):
        res = self.make()
        s = summarize(res)
        assert s["n_requests"] == 10
        assert s["mean_e2e_s"] == res.mean_e2e_latency_s()

    @pytest.mark.parametrize("records", [
        [],
        [record(rid=0, arrival=0.1, first=None, finish=2.3)],
        [record(rid=i, arrival=i * 0.37, finish=i * 0.37 + 1.0 / (i + 3),
                first=None if i % 4 == 0 else i * 0.37 + 0.01 * i,
                output=0 if i % 5 == 0 else i)
         for i in range(40)],
    ], ids=["empty", "none-first-token", "mixed"])
    def test_latency_columns_are_the_per_record_properties(self, records):
        """The vectorised columns hold, byte for byte, what one pass over
        the record properties builds (a first token of None reads as
        the finish; zero output tokens divide by one)."""
        res = ServingResult(engine="t", records=records, makespan_s=1.0)
        n = len(records)
        want = (np.sort(np.fromiter((r.e2e_latency_s for r in records),
                                    np.float64, n)),
                np.sort(np.fromiter((r.ttft_s for r in records),
                                    np.float64, n)),
                np.fromiter((r.time_per_token_s for r in records),
                            np.float64, n))
        got = res._lat_arrays()
        assert [a.dtype for a in got] == [np.float64] * 3
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestSLO:
    def test_attainment_fractions(self):
        records = [record(rid=i, arrival=0.0, first=0.5,
                          finish=float(i + 1)) for i in range(4)]
        # e2e latencies: 1, 2, 3, 4
        assert slo_attainment(records, 2.0, "e2e") == 0.5
        assert slo_attainment(records, 4.0, "e2e") == 1.0
        assert slo_attainment(records, 0.5, "ttft") == 1.0

    def test_empty_zero(self):
        assert slo_attainment([], 1.0) == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            slo_attainment([record()], 1.0, "p99")
        with pytest.raises(ValueError, match="unknown metric 'p99'"):
            slo_attainment([], 1.0, "p99")

    @pytest.mark.parametrize("policy", [RecordPolicy.KEEP_ALL,
                                        RecordPolicy.DROP])
    @pytest.mark.parametrize("ask", [
        lambda res, metric: res.slo_attainment(1.0, metric=metric),
        lambda res, metric: res.stream.slo_attainment(1.0, metric=metric),
        lambda res, metric: res.stream.slo_met_count(1.0, metric=metric),
    ], ids=["result", "sink-attainment", "sink-met-count"])
    def test_a_metric_typo_raises_under_every_policy(self, ask, policy):
        """A typo must not answer for the other metric — and must not
        answer differently once records are dropped."""
        sink = StreamingMetrics(policy=policy)
        sink.observe_all(record(rid=i, first=0.5, finish=float(i + 1))
                         for i in range(4))
        res = ServingResult(engine="t", records=sink.records,
                            makespan_s=4.0, stream=sink)
        assert ask(res, "ttft") in (1.0, 4)
        for typo in ("tpot", "e2e_s", "TTFT", ""):
            with pytest.raises(ValueError, match=f"unknown metric {typo!r}"):
                ask(res, typo)
        empty = ServingResult(engine="t", records=[], makespan_s=1.0,
                              stream=StreamingMetrics(policy=policy))
        with pytest.raises(ValueError, match="unknown metric 'tpot'"):
            ask(empty, "tpot")

    def test_result_attainment_counts_on_the_sorted_columns(self):
        records = [record(rid=i, first=0.25 * i, finish=float(i + 1))
                   for i in range(7)]
        res = ServingResult(engine="t", records=records, makespan_s=7.0)
        for metric in ("e2e", "ttft"):
            for slo in (-1.0, 0.0, 0.5, 1.0, 3.0, 3.5, 7.0, 99.0):
                assert res.slo_attainment(slo, metric) == \
                    slo_attainment(records, slo, metric)


class TestEmptyAndDegenerateGuards:
    """Regression: every latency/throughput helper must be total on
    empty or degenerate record lists, so per-tenant slices of idle
    tenants can never raise."""

    @pytest.mark.parametrize("makespan", [0.0, -1.0, 1.0])
    def test_all_helpers_zero_on_empty(self, makespan):
        empty = ServingResult(engine="t", records=[], makespan_s=makespan)
        assert empty.throughput_rps() == 0.0
        assert empty.token_throughput() == 0.0
        assert empty.throughput_within(10.0) == 0.0
        assert empty.mean_e2e_latency_s() == 0.0
        assert empty.mean_ttft_s() == 0.0
        assert empty.mean_time_per_token_s() == 0.0
        for q in (0, 50, 90, 99, 100):
            assert empty.percentile_e2e_s(q) == 0.0
            assert empty.percentile_ttft_s(q) == 0.0
        assert all(np.isfinite(v) for v in summarize(empty).values())

    def test_merge_of_nothing_is_safe(self):
        merged = ServingResult.merge([])
        assert merged.n_requests == 0
        assert summarize(merged)["p99_e2e_s"] == 0.0

    def test_idle_tenant_slice_is_empty_and_safe(self):
        res = ServingResult(engine="t", records=[record(tenant="busy")],
                            makespan_s=5.0)
        idle = res.for_tenant("sleeper")
        assert idle.n_requests == 0
        assert idle.percentile_ttft_s(99) == 0.0
        assert idle.mean_e2e_latency_s() == 0.0
        assert idle.config["tenant_id"] == "sleeper"

    def test_zero_output_tokens_record(self):
        degenerate = ServingResult(
            engine="t", records=[record(output=0)], makespan_s=1.0)
        assert np.isfinite(degenerate.mean_time_per_token_s())


class TestPerTenantMetrics:
    def make(self):
        records = [record(rid=i, arrival=float(i), first=i + 1.0,
                          finish=i + 3.0, tenant="a") for i in range(4)]
        records += [record(rid=10 + i, arrival=float(i), first=i + 2.0,
                           finish=i + 6.0, tenant="b") for i in range(2)]
        records += [record(rid=20, arrival=0.0, first=1.0, finish=2.0)]
        return ServingResult(engine="t", records=records, makespan_s=9.0)

    def test_tenant_ids_include_untenanted_bucket(self):
        assert self.make().tenant_ids == ["a", "b", UNTENANTED]

    def test_for_tenant_slices_and_recomputes_makespan(self):
        res = self.make()
        a = res.for_tenant("a")
        assert a.n_requests == 4
        assert all(r.tenant_id == "a" for r in a.records)
        # slice makespan spans the slice's own arrivals/finishes
        assert a.makespan_s == pytest.approx(6.0)
        assert res.for_tenant(None).n_requests == 1

    def test_by_tenant_partitions_all_records(self):
        res = self.make()
        parts = res.by_tenant()
        assert sum(p.n_requests for p in parts.values()) == res.n_requests

    def test_summarize_by_tenant(self):
        rows = summarize_by_tenant(self.make())
        assert rows["a"]["n_requests"] == 4
        assert rows["b"]["mean_ttft_s"] == pytest.approx(2.0)

    def test_slo_attainment_by_tenant(self):
        per = slo_attainment_by_tenant(self.make().records, 1.5,
                                       metric="ttft")
        assert per["a"] == 1.0     # a's ttft is 1.0 everywhere
        assert per["b"] == 0.0     # b's ttft is 2.0 everywhere
        assert per[UNTENANTED] == 1.0


class TestJainFairness:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_total_capture_is_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == \
            pytest.approx(0.25)

    def test_empty_and_all_zero_default_fair(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([1.0, -0.5])
