"""Streaming metrics: sketches, reservoirs, record policies, hot paths.

Covers the million-request-scale machinery:

* ``QuantileSketch`` keeps every quantile within the documented
  ``SKETCH_RELATIVE_ERROR`` of the exact order statistics, and merges
  losslessly (bin addition);
* ``ReservoirSampler`` is spawn-key seeded — run-to-run deterministic;
* KEEP_ALL runs carry both exact records and sketches, so the sketch
  answers are checkable against ground truth across every engine and
  every gateway wrapper (the acceptance property);
* releasing policies (SAMPLE_K / DROP) keep engine and wrapper memory
  O(active) while ``summarize()`` stays total and within error bounds;
* the ``ServingResult`` sorted-latency cache and one-pass percentile
  batches agree with the scalar accessors.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, QuantileSketch, RecordPolicy,
                           ReservoirSampler, SchedulerConfig, ServingGateway,
                           SKETCH_RELATIVE_ERROR, StreamingMetrics, Tenant,
                           TenantCounters, TenantGateway, create_engine,
                           summarize)
from repro.serving.metrics import ServingResult
from repro.serving.request import RequestRecord
from repro.workload import azure_like_trace
from repro.workload.spec import Trace, TraceRequest

ALPHA = SKETCH_RELATIVE_ERROR
N_MODELS = 4


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def bracket(sorted_vals: np.ndarray, q: float):
    """Exact order-statistic bracket [lo, hi] for percentile ``q``."""
    rank = q / 100.0 * (len(sorted_vals) - 1)
    return (float(sorted_vals[int(np.floor(rank))]),
            float(sorted_vals[int(np.ceil(rank))]))


def assert_within_bound(estimate: float, sorted_vals: np.ndarray, q: float):
    lo, hi = bracket(sorted_vals, q)
    assert lo * (1 - ALPHA) - 1e-12 <= estimate <= hi * (1 + ALPHA) + 1e-12, \
        f"q={q}: {estimate} outside [{lo * (1 - ALPHA)}, {hi * (1 + ALPHA)}]"


def make_manager() -> ModelManager:
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"v{i}", "base", 8.0)
    return mgr


def make_trace(n: int = 160, seed: int = 11) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(0.05, size=n))
    requests = [
        TraceRequest(request_id=i, model_id=f"v{i % N_MODELS}",
                     arrival_s=float(times[i]), prompt_tokens=32,
                     output_tokens=int(4 + (i * 5) % 12),
                     tenant_id=f"t{i % 2}")
        for i in range(n)
    ]
    return Trace(requests=requests,
                 model_ids=[f"v{i}" for i in range(N_MODELS)],
                 duration_s=float(times[-1]) + 1.0)


def build_gateway(engine_name: str, wrapper: str, policy: RecordPolicy,
                  sample_k: int = 64):
    mgr = make_manager()
    config = EngineConfig(tp_degree=1, record_policy=policy,
                          sample_k=sample_k)

    def factory(node=None):
        return create_engine(
            engine_name, mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=config)

    if wrapper == "plain":
        return ServingGateway(factory())
    if wrapper == "cluster":
        return ClusterGateway(engine_factory=factory,
                              cluster=Cluster.from_name("a800", 2, 1),
                              n_replicas=2)
    if wrapper == "tenant":
        return TenantGateway(ServingGateway(factory()),
                             tenants=[Tenant("t0"), Tenant("t1")])
    raise AssertionError(wrapper)


ENGINE_NAMES = ("deltazip", "vllm-scb", "dedicated")
WRAPPERS = ("plain", "cluster", "tenant")


# --------------------------------------------------------------------- #
# sketch unit properties
# --------------------------------------------------------------------- #
class TestQuantileSketch:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "heavy",
                                      "duplicates"])
    def test_quantiles_within_relative_error(self, dist):
        rng = np.random.default_rng(3)
        if dist == "uniform":
            vals = rng.uniform(0.01, 10.0, size=4000)
        elif dist == "lognormal":
            vals = rng.lognormal(mean=-1.0, sigma=1.5, size=4000)
        elif dist == "heavy":
            vals = rng.pareto(1.5, size=4000) + 1e-3
        else:
            vals = np.repeat(rng.uniform(0.1, 5.0, size=40), 100)
        sketch = QuantileSketch()
        for v in vals:
            sketch.add(float(v))
        ordered = np.sort(vals)
        for q in (0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            assert_within_bound(sketch.quantile(q), ordered, q)

    def test_exact_moments(self):
        vals = [0.5, 1.25, 3.0, 0.125, 9.0]
        sketch = QuantileSketch()
        for v in vals:
            sketch.add(v)
        assert sketch.count == len(vals)
        assert sketch.total == pytest.approx(sum(vals), rel=1e-12)
        assert sketch.min_value == min(vals)
        assert sketch.max_value == max(vals)
        assert sketch.mean == pytest.approx(np.mean(vals), rel=1e-12)

    def test_merge_equals_union(self):
        rng = np.random.default_rng(7)
        a_vals = rng.lognormal(size=800)
        b_vals = rng.uniform(0.001, 50.0, size=1200)
        a, b = QuantileSketch(), QuantileSketch()
        for v in a_vals:
            a.add(float(v))
        for v in b_vals:
            b.add(float(v))
        merged = a.copy()
        merged.merge(b)
        ordered = np.sort(np.concatenate([a_vals, b_vals]))
        assert merged.count == 2000
        assert merged.total == pytest.approx(a.total + b.total, rel=1e-12)
        for q in (1.0, 50.0, 95.0, 99.0):
            assert_within_bound(merged.quantile(q), ordered, q)

    def test_count_leq(self):
        sketch = QuantileSketch()
        vals = [0.1, 0.2, 0.5, 1.0, 2.0, 4.0]
        for v in vals:
            sketch.add(v)
        # thresholds far from bin edges: the count must be exact
        assert sketch.count_leq(0.05) == 0
        assert sketch.count_leq(0.3) == 2
        assert sketch.count_leq(100.0) == 6

    def test_zero_and_tiny_values(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(1e-12)
        sketch.add(1.0)
        assert sketch.count == 3
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(100.0) == pytest.approx(1.0, rel=ALPHA)

    def test_copy_is_independent(self):
        a = QuantileSketch()
        a.add(1.0)
        b = a.copy()
        b.add(100.0)
        assert a.count == 1 and b.count == 2
        assert a.max_value == 1.0

    def test_empty_sketch_is_total(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(50.0) == 0.0
        assert sketch.mean == 0.0

    @staticmethod
    def ref_quantile(sketch, q):
        """One percentile by its own walk over the sorted bins (the
        pre-batching ``quantile`` body, kept here as the reference)."""
        if sketch.count == 0:
            return 0.0
        rank = int(math.floor(q / 100.0 * (sketch.count - 1)))
        if rank < sketch._n_small:
            return max(sketch.min_value, 0.0)
        cum = sketch._n_small
        estimate = sketch.max_value
        for key in sorted(sketch._bins):
            cum += sketch._bins[key]
            if cum > rank:
                estimate = 2.0 * sketch._gamma ** key / (sketch._gamma + 1.0)
                break
        return min(max(estimate, sketch.min_value), sketch.max_value)

    @pytest.mark.parametrize("values", [
        [], [0.0], [2.5], [0.0, 1e-12, 1e-9, 3.0, 3.0, 800.0],
        list(np.random.default_rng(9).lognormal(0.0, 2.0, size=500))],
        ids=["empty", "zero", "single", "zero-bin-mix", "lognormal"])
    def test_quantiles_is_one_pass_with_per_q_answers(self, values):
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        qs = [99, 0, 50, 50, 100, 12.5, 90, 0, 99.9, 50]   # unsorted, dups
        expected = [self.ref_quantile(sketch, q) for q in qs]
        assert sketch.quantiles(qs) == expected
        assert [sketch.quantile(q) for q in qs] == expected
        assert sketch.quantiles(()) == []
        if values:
            assert all(min(values) <= v <= max(values) for v in expected)
            with pytest.raises(ValueError, match=r"q must be in \[0, 100\]"):
                sketch.quantiles([50, 100.5])
            with pytest.raises(ValueError):
                sketch.quantile(-1)

    def test_quantiles_sorts_the_bins_once(self, monkeypatch):
        import builtins
        sketch = QuantileSketch()
        for v in (0.5, 1.5, 9.0, 40.0):
            sketch.add(v)
        dict_sorts = []
        real_sorted = builtins.sorted

        def counting_sorted(iterable, **kw):
            if iterable is sketch._bins:
                dict_sorts.append(1)
            return real_sorted(iterable, **kw)

        monkeypatch.setattr("repro.serving.streaming_metrics.sorted",
                            counting_sorted, raising=False)
        sketch.quantiles((50, 90, 99))
        assert len(dict_sorts) == 1

    def test_add_is_bin_key_plus_add_binned(self):
        a, b = QuantileSketch(), QuantileSketch()
        for v in (0.0, 1e-12, 1e-9, 1.0000001e-9, 0.3, 0.3, 77.0):
            a.add(v)
            b.add_binned(v, b.bin_key(v))
        assert a.bin_key(1e-9) is None and a.bin_key(0.3) == b.bin_key(0.3)
        assert sketch_state(a) == sketch_state(b)
        assert a._n_small == 3


class TestReservoirSampler:
    def test_run_to_run_deterministic(self):
        def fill(seed):
            sampler = ReservoirSampler(16, sample_seed=seed)
            for i in range(500):
                sampler.offer(i)
            return sampler.samples

        assert fill(0) == fill(0)
        assert fill(1) == fill(1)
        assert fill(0) != fill(1)

    def test_keeps_everything_below_k(self):
        sampler = ReservoirSampler(32, sample_seed=0)
        for i in range(20):
            sampler.offer(i)
        assert sampler.samples == list(range(20))
        assert sampler.n_offered == 20

    def test_sample_is_subset(self):
        sampler = ReservoirSampler(8, sample_seed=2)
        for i in range(300):
            sampler.offer(i)
        samples = sampler.samples
        assert len(samples) == 8
        assert all(0 <= s < 300 for s in samples)


# --------------------------------------------------------------------- #
# the acceptance property: sketches vs exact, engines x wrappers
# --------------------------------------------------------------------- #
class TestSketchMatchesExact:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_keepall_sketch_within_error(self, engine_name, wrapper):
        """On KEEP_ALL runs both the exact records and the sketches
        exist; every sketch percentile must sit inside the documented
        bracket of the exact order statistics."""
        gateway = build_gateway(engine_name, wrapper, RecordPolicy.KEEP_ALL)
        result = gateway.replay(make_trace())
        stream = result.stream
        assert stream is not None and stream.complete
        finished = [r for r in result.records if r.finished]
        assert len(finished) == 160
        e2e = np.sort(np.array([r.e2e_latency_s for r in finished]))
        ttft = np.sort(np.array([r.ttft_s for r in finished]))
        for q in (50.0, 90.0, 99.0):
            assert_within_bound(stream.percentile_e2e_s(q), e2e, q)
            assert_within_bound(stream.percentile_ttft_s(q), ttft, q)
        # exact moments agree exactly (sum/count are not sketched)
        assert stream.n_finished == len(finished)
        assert stream.mean_e2e_s() == pytest.approx(float(np.mean(e2e)),
                                                    rel=1e-9)

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_summarize_equivalent_across_policies(self, engine_name):
        """DROP answers ``summarize()`` from sketches alone; counts and
        means must match KEEP_ALL exactly, percentiles within bound."""
        trace = make_trace()
        keep = build_gateway(engine_name, "plain",
                             RecordPolicy.KEEP_ALL).replay(trace)
        drop = build_gateway(engine_name, "plain",
                             RecordPolicy.DROP).replay(trace)
        s_keep, s_drop = summarize(keep), summarize(drop)
        assert s_drop["n_requests"] == s_keep["n_requests"] == 160
        assert s_drop["n_finished"] == s_keep["n_finished"]
        assert s_drop["makespan_s"] == pytest.approx(s_keep["makespan_s"])
        assert s_drop["mean_e2e_s"] == pytest.approx(s_keep["mean_e2e_s"],
                                                     rel=1e-9)
        e2e = np.sort(np.array([r.e2e_latency_s for r in keep.records
                                if r.finished]))
        ttft = np.sort(np.array([r.ttft_s for r in keep.records
                                 if r.finished]))
        for q in (50, 90, 99):
            assert_within_bound(s_drop[f"p{q}_e2e_s"], e2e, float(q))
            assert_within_bound(s_drop[f"p{q}_ttft_s"], ttft, float(q))

    def test_per_tenant_slices_from_sketches(self):
        trace = make_trace()
        keep = build_gateway("deltazip", "plain",
                             RecordPolicy.KEEP_ALL).replay(trace)
        drop = build_gateway("deltazip", "plain",
                             RecordPolicy.DROP).replay(trace)
        assert set(drop.tenant_ids) == set(keep.tenant_ids) == {"t0", "t1"}
        for tenant in keep.tenant_ids:
            sliced_keep = keep.for_tenant(tenant)
            sliced_drop = drop.for_tenant(tenant)
            assert sliced_drop.n_finished == sliced_keep.n_finished
            e2e = np.sort(np.array([r.e2e_latency_s
                                    for r in sliced_keep.records
                                    if r.finished]))
            assert_within_bound(sliced_drop.percentile_e2e_s(99), e2e, 99.0)

    def test_slo_attainment_from_sketches(self):
        trace = make_trace()
        keep = build_gateway("deltazip", "plain",
                             RecordPolicy.KEEP_ALL).replay(trace)
        drop = build_gateway("deltazip", "plain",
                             RecordPolicy.DROP).replay(trace)
        finished = [r for r in keep.records if r.finished]
        for slo_s in (0.05, 0.2, 1.0, 5.0):
            exact = keep.slo_attainment(slo_s, metric="e2e")
            est = drop.slo_attainment(slo_s, metric="e2e")
            # a sketched threshold count can only misplace samples whose
            # latency lies within +-alpha of the threshold itself
            near = sum(1 for r in finished
                       if slo_s * (1 - 2 * ALPHA) <= r.e2e_latency_s
                       <= slo_s * (1 + 2 * ALPHA))
            assert abs(est - exact) <= (near + 1e-9) / len(finished)

    @pytest.mark.parametrize("policy", [RecordPolicy.DROP,
                                        RecordPolicy.SAMPLE_K])
    def test_views_count_finishes_like_kept_records(self, policy):
        """A finished-only or per-tenant view of a released run counts
        finishes by a horizon from its own finish bins, as the kept
        records do (within the sketch error around the horizon)."""
        trace = azure_like_trace(N_MODELS, rate=2.0, duration_s=30.0,
                                 seed=1)
        mgr = ModelManager(LLAMA_7B)
        mgr.register_base("base")
        for model_id in trace.model_ids:
            mgr.register_delta(model_id, "base", 8.0)

        def run(policy):
            return create_engine(
                "deltazip", mgr, GPUNode(node_from_name("a800", 1)),
                engine_config=EngineConfig(tp_degree=1, record_policy=policy,
                                           sample_k=8)).run(trace)

        keep, released = run(RecordPolicy.KEEP_ALL), run(policy)
        horizon = 20.0
        near = sum(1 for r in keep.records
                   if abs(r.finish_s - horizon) <= 2 * ALPHA * horizon)
        for view in (ServingResult.finished_only,
                     lambda res: res.for_tenant(None)):
            exact = view(keep).throughput_within(horizon)
            assert exact > 0.0
            assert abs(view(released).throughput_within(horizon) - exact) \
                <= near / horizon


# --------------------------------------------------------------------- #
# releasing policies: determinism and O(active) memory
# --------------------------------------------------------------------- #
class TestRecordPolicies:
    def test_sample_k_runs_are_identical(self):
        trace = make_trace()

        def run():
            gateway = build_gateway("deltazip", "plain",
                                    RecordPolicy.SAMPLE_K, sample_k=32)
            result = gateway.replay(trace)
            return [(r.request_id, r.finish_s, r.first_token_s)
                    for r in result.records]

        first, second = run(), run()
        assert first == second
        assert len(first) == 32

    def test_sampled_records_are_real_completions(self):
        trace = make_trace()
        keep = build_gateway("deltazip", "plain",
                             RecordPolicy.KEEP_ALL).replay(trace)
        sampled = build_gateway("deltazip", "plain", RecordPolicy.SAMPLE_K,
                                sample_k=32).replay(trace)
        exact = {(r.request_id, r.finish_s, r.first_token_s)
                 for r in keep.records}
        assert all((r.request_id, r.finish_s, r.first_token_s) in exact
                   for r in sampled.records)

    def test_drop_keeps_engine_memory_o_active(self):
        gateway = build_gateway("deltazip", "plain", RecordPolicy.DROP)
        gateway.replay(make_trace())
        engine = gateway.engine
        # (edited: ``engine.finished`` is gone; ``_live`` is the whole of it)
        assert engine._live == {}
        assert engine.lookup(0) is None  # _live released at retire
        assert gateway.result().n_requests == 160

    def test_keepall_retains_records_and_releases_requests(self):
        # (edited, was test_keepall_retains_requests: KEEP_ALL keeps the
        # 160 *records*; the requests go as under the other policies)
        gateway = build_gateway("deltazip", "plain", RecordPolicy.KEEP_ALL)
        result = gateway.replay(make_trace())
        assert len(result.records) == len(gateway.engine.metrics.records) \
            == 160
        assert any(r.request_id == 0 for r in result.records)
        assert gateway.engine._live == {}
        assert gateway.engine.lookup(0) is None

    def test_drop_releases_gateway_handles(self):
        gateway = build_gateway("deltazip", "plain", RecordPolicy.DROP)
        handle = gateway.submit("v0", 16, 4)
        gateway.run_until_drained()
        assert gateway._handles == {}
        # the handle itself still answers from its terminal record
        assert handle.record() is not None
        assert handle.record().finished

    def test_drop_releases_cluster_maps(self):
        gateway = build_gateway("deltazip", "cluster", RecordPolicy.DROP)
        result = gateway.replay(make_trace())
        assert result.n_requests == 160
        assert gateway._handles == {}
        assert gateway._owner == {}

    def test_drop_releases_tenant_handles(self):
        gateway = build_gateway("deltazip", "tenant", RecordPolicy.DROP)
        result = gateway.replay(make_trace())
        assert result.n_requests == 160
        assert gateway._handles == {}

    def test_merge_composes_streams(self):
        trace = make_trace()
        half_a = Trace(requests=trace.requests[:80],
                       model_ids=trace.model_ids, duration_s=trace.duration_s)
        half_b = Trace(requests=[
            TraceRequest(request_id=r.request_id - 80, model_id=r.model_id,
                         arrival_s=r.arrival_s, prompt_tokens=r.prompt_tokens,
                         output_tokens=r.output_tokens, tenant_id=r.tenant_id)
            for r in trace.requests[80:]], model_ids=trace.model_ids,
            duration_s=trace.duration_s)
        res_a = build_gateway("deltazip", "plain",
                              RecordPolicy.DROP).replay(half_a)
        res_b = build_gateway("deltazip", "plain",
                              RecordPolicy.DROP).replay(half_b)
        merged = ServingResult.merge([res_a, res_b])
        assert merged.n_requests == 160
        assert merged.stream is not None
        assert merged.stream.n_finished == \
            res_a.stream.n_finished + res_b.stream.n_finished
        assert merged.mean_e2e_latency_s() > 0.0


# --------------------------------------------------------------------- #
# ServingResult hot paths: latency cache and one-pass percentiles
# --------------------------------------------------------------------- #
def synthetic_result(n=200, seed=5) -> ServingResult:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        arrival = float(i) * 0.01
        first = arrival + float(rng.uniform(0.01, 0.5))
        finish = first + float(rng.uniform(0.05, 3.0))
        records.append(RequestRecord(
            request_id=i, model_id="m", arrival_s=arrival,
            first_token_s=first, finish_s=finish, prompt_tokens=8,
            output_tokens=4, queue_wait_s=0.0, loading_s=0.0,
            inference_s=finish - first, skipped_line=False, preemptions=0))
    return ServingResult(engine="t", records=records, makespan_s=10.0)


class TestLatencyCache:
    def test_cached_percentiles_match_numpy(self):
        res = synthetic_result()
        e2e = np.array([r.e2e_latency_s for r in res.records])
        for q in (0, 25, 50, 90, 99, 100):
            expected = float(np.percentile(e2e, q))
            assert res.percentile_e2e_s(q) == pytest.approx(expected,
                                                            rel=1e-12)
            # second call answers from the cache — identical
            assert res.percentile_e2e_s(q) == res.percentile_e2e_s(q)

    def test_one_pass_batch_equals_scalar_calls(self):
        res = synthetic_result()
        qs = (50.0, 90.0, 99.0)
        batch_e2e = res.percentiles_e2e_s(qs)
        batch_ttft = res.percentiles_ttft_s(qs)
        for q, be, bt in zip(qs, batch_e2e, batch_ttft):
            assert be == res.percentile_e2e_s(q)
            assert bt == res.percentile_ttft_s(q)

    def test_merge_does_not_reuse_stale_cache(self):
        res_a, res_b = synthetic_result(seed=5), synthetic_result(seed=6)
        # warm both caches first
        res_a.percentile_e2e_s(50)
        res_b.percentile_e2e_s(50)
        merged = ServingResult.merge([res_a, res_b])
        combined = np.array([r.e2e_latency_s for r in res_a.records]
                            + [r.e2e_latency_s for r in res_b.records])
        assert merged.percentile_e2e_s(90) == pytest.approx(
            float(np.percentile(combined, 90)), rel=1e-12)

    def test_summary_uses_batch_percentiles(self):
        res = synthetic_result()
        s = summarize(res)
        assert s["p50_e2e_s"] == res.percentile_e2e_s(50)
        assert s["p99_ttft_s"] == res.percentile_ttft_s(99)


# --------------------------------------------------------------------- #
# StreamingMetrics sink unit behavior
# --------------------------------------------------------------------- #
class TestStreamingMetricsSink:
    def record(self, rid, finish, tenant=None):
        return RequestRecord(request_id=rid, model_id="m", arrival_s=0.0,
                             first_token_s=finish / 2.0, finish_s=finish,
                             prompt_tokens=4, output_tokens=4,
                             queue_wait_s=0.0, loading_s=0.0,
                             inference_s=finish, skipped_line=False,
                             preemptions=0, tenant_id=tenant)

    def test_drop_retains_no_records(self):
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        for i in range(100):
            sink.observe(self.record(i, float(i + 1)))
        assert sink.records == []
        assert sink.n_observed == 100
        assert not sink.complete

    def test_keepall_is_complete(self):
        sink = StreamingMetrics(policy=RecordPolicy.KEEP_ALL)
        sink.observe(self.record(0, 1.0))
        assert sink.complete
        assert len(sink.records) == 1

    def test_tenant_counters(self):
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        for i in range(10):
            sink.observe(self.record(i, float(i + 1),
                                     tenant="a" if i % 2 else "b"))
        assert sink.tenant_counters("a").finished == 5
        assert sink.tenant_counters("b").finished == 5
        assert sink.for_tenant("a").n_finished == 5

    def test_merge_keeps_exact_counts(self):
        a = StreamingMetrics(policy=RecordPolicy.DROP)
        b = StreamingMetrics(policy=RecordPolicy.DROP)
        for i in range(30):
            (a if i % 2 else b).observe(self.record(i, float(i + 1)))
        a.merge_from(b)
        assert a.n_finished == 30
        assert a.max_finish_s == 30.0

    def test_every_sketch_of_a_sink_bins_alike(self):
        """observe computes each bin key once and hands it to every
        sketch, so a stream built at another accuracy must be refused."""
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        sink.observe(self.record(0, 1.0, tenant="a"))
        sink.relative_error = 0.05
        sink.observe(self.record(1, 2.0, tenant="a"))   # existing stream
        with pytest.raises(ValueError, match="tenant 'b' would bin at 0.05"):
            sink.observe(self.record(2, 3.0, tenant="b"))
        assert sink.tenant_ids == ["a"] and sink.n_observed == 2


# --------------------------------------------------------------------- #
# differential: the sink's whole state == a reference made of public
# QuantileSketch.add calls and plain counters, float for float
# --------------------------------------------------------------------- #
SKETCH_NAMES = ("e2e", "ttft", "fin_e2e", "fin_ttft")
COUNTED_STATUSES = ("finished", "cancelled", "expired")


class RefStream:
    """One tenant's (or the overall) aggregates the slow way: every value
    through the record's own properties, every sketch through ``add``."""

    def __init__(self):
        self.counters = dict.fromkeys(asdict(TenantCounters()), 0)
        self.e2e = QuantileSketch()
        self.ttft = QuantileSketch()
        self.fin_e2e = QuantileSketch()
        self.fin_ttft = QuantileSketch()
        self.tpt_sum = 0.0
        self.fin_tpt_sum = 0.0
        self.min_arrival_s = math.inf
        self.max_finish_s = -math.inf

    def observe(self, rec):
        c = self.counters
        c[rec.status if rec.status in COUNTED_STATUSES else "shed"] += 1
        c["tokens_served"] += rec.tokens_served
        if rec.cached_prefix_tokens > 0:
            c["prefix_hits"] += 1
            c["prefix_saved_tokens"] += rec.cached_prefix_tokens
        self.e2e.add(rec.e2e_latency_s)
        self.ttft.add(rec.ttft_s)
        self.tpt_sum += rec.time_per_token_s
        if rec.finished:
            self.fin_e2e.add(rec.e2e_latency_s)
            self.fin_ttft.add(rec.ttft_s)
            self.fin_tpt_sum += rec.time_per_token_s
        else:
            c["tokens_wasted"] += rec.tokens_served
        self.min_arrival_s = min(self.min_arrival_s, rec.arrival_s)
        self.max_finish_s = max(self.max_finish_s, rec.finish_s)

    def merge(self, other):
        for name, n in other.counters.items():
            self.counters[name] += n
        for name in SKETCH_NAMES:
            getattr(self, name).merge(getattr(other, name))
        self.tpt_sum += other.tpt_sum
        self.fin_tpt_sum += other.fin_tpt_sum
        self.min_arrival_s = min(self.min_arrival_s, other.min_arrival_s)
        self.max_finish_s = max(self.max_finish_s, other.max_finish_s)


class RefSink:
    def __init__(self, records=()):
        self.overall = RefStream()
        self.tenants = {}
        self.finish = QuantileSketch()
        for rec in records:
            self.observe(rec)

    def observe(self, rec):
        self.overall.observe(rec)
        self.tenants.setdefault(rec.tenant_id or "default",
                                RefStream()).observe(rec)
        self.finish.add(rec.finish_s)

    def merge(self, other):
        self.overall.merge(other.overall)
        for tenant, stream in other.tenants.items():
            self.tenants.setdefault(tenant, RefStream()).merge(stream)
        self.finish.merge(other.finish)

    def state(self):
        return {"overall": stream_state(self.overall),
                "tenants": {t: stream_state(s)
                            for t, s in self.tenants.items()},
                "finish": sketch_state(self.finish)}


def sketch_state(sketch):
    return (sketch.count, sketch.total, sketch.min_value, sketch.max_value,
            sketch._n_small, sorted(sketch._bins.items()))


def stream_state(stream):
    """Every field of a ``_TenantStream`` / ``RefStream``; compared with
    ``==``, so a float that moved by one ulp is a failure."""
    counters = stream.counters
    state = {"counters": counters if isinstance(counters, dict)
             else asdict(counters),
             "tpt_sum": stream.tpt_sum, "fin_tpt_sum": stream.fin_tpt_sum,
             "span": (stream.min_arrival_s, stream.max_finish_s)}
    for name in SKETCH_NAMES:
        state[name] = sketch_state(getattr(stream, name))
    return state


def sink_state(sink):
    return {"overall": stream_state(sink._overall),
            "tenants": {t: stream_state(s)
                        for t, s in sink._tenants.items()},
            "finish": sketch_state(sink._overall.finish)}


@st.composite
def record_fields(draw):
    # arrival 0.0 keeps `finish - arrival` equal to the drawn latency, so
    # the zero bin (0.0, 1e-12) and its edge (1e-9) are reachable exactly
    arrival = draw(st.sampled_from((0.0, 0.25)) | st.floats(0.0, 1e3))
    latency = draw(st.sampled_from((0.0, 1e-12, 1e-9))
                   | st.floats(0.0, 1e4))
    finish = arrival + latency
    first = draw(st.none() | st.floats(0.0, 1.0).map(
        lambda share: min(arrival + share * latency, finish)))
    output = draw(st.integers(0, 48))
    return dict(
        arrival_s=arrival, first_token_s=first, finish_s=finish,
        output_tokens=output,
        served_tokens=draw(st.none() | st.integers(0, output)),
        status=draw(st.sampled_from(COUNTED_STATUSES + ("rejected",))),
        cached_prefix_tokens=draw(st.sampled_from((0, 0, 16, 48))),
        tenant_id=draw(st.sampled_from((None, "a", "b", "c"))))


def build_records(rows):
    return [RequestRecord(request_id=i, model_id="m", prompt_tokens=64,
                          queue_wait_s=0.0, loading_s=0.0, inference_s=0.0,
                          skipped_line=False, preemptions=0, **row)
            for i, row in enumerate(rows)]


def corner_row(latency, status, tenant, **over):
    row = dict(arrival_s=0.0, first_token_s=None, finish_s=latency,
               output_tokens=4, served_tokens=None, status=status,
               cached_prefix_tokens=0, tenant_id=tenant)
    row.update(over)
    return row


#: one hand-built stream that hits every corner the strategy can reach,
#: so coverage does not depend on what Hypothesis happens to draw
CORNER_ROWS = [
    corner_row(0.0, "finished", None),
    corner_row(1e-12, "finished", "a", first_token_s=5e-13),
    corner_row(1e-12, "cancelled", "b", served_tokens=2),
    corner_row(0.75, "rejected", "c", served_tokens=0),
    corner_row(2.5, "expired", "a", first_token_s=0.5, served_tokens=3,
               cached_prefix_tokens=32),
    corner_row(2.5, "finished", "b", first_token_s=0.5, output_tokens=0),
    corner_row(40.0, "finished", "c", arrival_s=7.0, first_token_s=9.0,
               finish_s=47.0, cached_prefix_tokens=16),
    corner_row(0.3, "finished", None, first_token_s=0.1),
    corner_row(1e-9, "finished", "a"),
]

ROWS = st.lists(record_fields(), max_size=40)


class TestSinkDifferential:
    @pytest.mark.parametrize("policy", list(RecordPolicy))
    @given(rows=ROWS)
    @example(rows=CORNER_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_observe_matches_the_reference(self, policy, rows):
        records = build_records(rows)
        sink = StreamingMetrics(policy=policy, sample_k=4, sample_seed=7)
        for rec in records:
            sink.observe(rec)
        assert sink_state(sink) == RefSink(records).state()
        assert sink.n_observed == len(records)
        if policy is RecordPolicy.KEEP_ALL:
            assert sink.records == records
        elif policy is RecordPolicy.SAMPLE_K:
            reservoir = ReservoirSampler(4, sample_seed=7)
            for rec in records:
                reservoir.offer(rec)
            assert sink.records == reservoir.samples
        else:
            assert sink.records == []

    @given(rows=ROWS, cut=st.integers(0, 40))
    @example(rows=CORNER_ROWS, cut=4)
    @settings(max_examples=60, deadline=None)
    def test_merge_and_copy_match_the_reference(self, rows, cut):
        records = build_records(rows)
        left = StreamingMetrics(policy=RecordPolicy.KEEP_ALL)
        right = StreamingMetrics(policy=RecordPolicy.DROP)
        left.observe_all(records[:cut])
        right.observe_all(records[cut:])
        expected = RefSink(records[:cut])
        expected.merge(RefSink(records[cut:]))
        left.merge_from(right)
        assert sink_state(left) == expected.state()
        assert not left.complete

        snapshot = left.copy()
        assert sink_state(snapshot) == expected.state()
        snapshot.observe_all(records)          # the copy owns its state
        assert sink_state(left) == expected.state()

    @given(rows=ROWS)
    @example(rows=CORNER_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_views_match_the_reference(self, rows):
        records = build_records(rows)
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        sink.observe_all(records)
        full = RefSink(records)

        # finished_view: finished records only, except that the span and
        # the prefix counters stay all-statuses (documented on the view)
        expected = RefSink([r for r in records if r.finished])
        for tenant, stream in full.tenants.items():
            expected.tenants.setdefault(tenant, RefStream())
        for view, whole in [(expected.overall, full.overall)] + [
                (expected.tenants[t], full.tenants[t])
                for t in full.tenants]:
            view.min_arrival_s = whole.min_arrival_s
            view.max_finish_s = whole.max_finish_s
            for name in ("prefix_hits", "prefix_saved_tokens"):
                view.counters[name] = whole.counters[name]
        assert sink_state(sink.finished_view()) == expected.state()

        for tenant in (None, "a", "b", "c", "idle"):
            key = tenant or "default"
            mine = [r for r in records if (r.tenant_id or "default") == key]
            expected = RefSink(mine)
            assert sink_state(sink.for_tenant(tenant)) == expected.state()

    @given(rows=ROWS, cut=st.integers(0, 40))
    @example(rows=CORNER_ROWS, cut=4)
    @settings(max_examples=30, deadline=None)
    def test_reads_between_writes_see_every_write(self, rows, cut):
        """The merged views are kept between writes: a read, then more
        observes and a merge_from, must still match the reference."""
        records = build_records(rows)
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        sink.observe_all(records[:cut])
        assert sink_state(sink) == RefSink(records[:cut]).state()
        sink.observe_all(records[cut:])
        assert sink_state(sink) == RefSink(records).state()
        other = StreamingMetrics(policy=RecordPolicy.DROP)
        other.observe_all(records)
        sink.merge_from(other)
        expected = RefSink(records)
        expected.merge(RefSink(records))
        assert sink_state(sink) == expected.state()


def count_calls(monkeypatch, *names):
    """Wrap ``QuantileSketch`` methods on the class; returns the log."""
    calls = []
    for name in names:
        def wrapped(self, *args, _name=name,
                    _original=getattr(QuantileSketch, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(QuantileSketch, name, wrapped)
    return calls


class TestSinkWriteShape:
    @pytest.mark.parametrize("status", COUNTED_STATUSES + ("rejected",))
    def test_a_record_is_binned_once(self, monkeypatch, status):
        """Three sketch writes per record, into its tenant's cell for its
        status: e2e, TTFT and finish time."""
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        sink.observe_all(build_records(CORNER_ROWS))
        writes = count_calls(monkeypatch, "add_binned")
        sink.observe(build_records([corner_row(
            2.5, status, "a", first_token_s=0.5, served_tokens=2)])[0])
        assert writes == ["add_binned"] * 3

    def test_integer_reads_merge_no_sketch(self, monkeypatch):
        """Telemetry reads ``n_observed`` at every gauge tick: the integer
        reads sum the tenants' counters and never build a merged view."""
        sink = StreamingMetrics(policy=RecordPolicy.DROP)
        records = build_records(CORNER_ROWS)
        built = count_calls(monkeypatch, "merge", "copy")
        for n, rec in enumerate(records, 1):
            sink.observe(rec)
            assert sink.n_observed == n
            sink.status_counts()
            assert sink.tokens_served == sum(
                r.tokens_served for r in records[:n])
            sink.tenant_counters("a")
            sink.tenant_ttft_met_count("a", 1.0)
        assert built == []
        assert sink.tenant_ttft_met_count("a", 1.0) == \
            sink.for_tenant("a").slo_met_count(1.0)
