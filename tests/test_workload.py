"""Workload generators: arrival statistics, popularity skew, trace shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (ARENA_MODEL_NAMES, LengthSampler, TenantWorkload,
                            Trace, TraceRequest, arena_trace,
                            as_rng, azure_like_trace, gamma_burst_arrivals,
                            make_model_ids, multi_tenant_trace,
                            piecewise_rate_arrivals, poisson_arrivals,
                            ramp_arrivals, ramp_trace, sample_models,
                            synthetic_trace, trace_from_distribution,
                            uniform_popularity, zipf_popularity)


class TestArrivals:
    def test_poisson_rate(self, rng):
        times = poisson_arrivals(5.0, 2000.0, rng)
        assert len(times) / 2000.0 == pytest.approx(5.0, rel=0.1)

    def test_poisson_sorted_within_duration(self, rng):
        times = poisson_arrivals(1.0, 100.0, rng)
        assert times == sorted(times)
        assert all(0 <= t < 100.0 for t in times)

    def test_zero_rate_empty(self, rng):
        assert poisson_arrivals(0.0, 10.0, rng) == []

    def test_burst_cv_increases_clumping(self, rng):
        """Gamma arrivals with high CV have much higher inter-arrival
        variance than Poisson at the same rate."""
        poisson = np.diff(poisson_arrivals(2.0, 4000.0,
                                           np.random.default_rng(1)))
        bursty = np.diff(gamma_burst_arrivals(2.0, 4000.0,
                                              np.random.default_rng(1),
                                              cv=6.0))
        assert np.std(bursty) > 2 * np.std(poisson)


class TestRampArrivals:
    def test_piecewise_rates_match_segments(self, rng):
        times = piecewise_rate_arrivals([(10.0, 500.0), (0.0, 100.0),
                                         (1.0, 500.0)], rng)
        first = [t for t in times if t < 500.0]
        quiet = [t for t in times if 500.0 <= t < 600.0]
        last = [t for t in times if t >= 600.0]
        assert len(first) / 500.0 == pytest.approx(10.0, rel=0.15)
        assert quiet == []
        assert len(last) / 500.0 == pytest.approx(1.0, rel=0.3)
        assert times == sorted(times)

    def test_negative_duration_rejected(self, rng):
        with pytest.raises(ValueError):
            piecewise_rate_arrivals([(1.0, -5.0)], rng)

    def test_ramp_peaks_in_the_middle(self, rng):
        times = ramp_arrivals(20.0, 900.0, rng, base_rate=1.0, n_steps=9)
        thirds = np.histogram(times, bins=[0, 300, 600, 900])[0]
        assert thirds[1] > thirds[0]
        assert thirds[1] > thirds[2]

    def test_ramp_offers_the_full_peak_rate(self, rng):
        # the middle step must run at peak_rate itself, not just near it
        times = ramp_arrivals(30.0, 900.0, rng, base_rate=0.0, n_steps=9)
        middle = [t for t in times if 400.0 <= t < 500.0]
        assert len(middle) / 100.0 == pytest.approx(30.0, rel=0.15)

    def test_ramp_needs_steps(self, rng):
        for n_steps in (1, 2):
            with pytest.raises(ValueError):
                ramp_arrivals(5.0, 100.0, rng, n_steps=n_steps)

    def test_ramp_trace_shape(self):
        trace = ramp_trace(4, peak_rate=6.0, duration_s=120.0,
                           base_rate=0.5, seed=2)
        assert len(trace) > 0
        assert trace.duration_s == 120.0
        assert set(r.model_id for r in trace) <= set(trace.model_ids)
        ids = [r.request_id for r in trace]
        assert ids == sorted(ids)


class TestPopularity:
    def test_uniform_sums_to_one(self):
        p = uniform_popularity(7)
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(p, 1 / 7)

    def test_zipf_skew(self):
        p = zipf_popularity(10, alpha=1.5)
        assert p[0] > 5 * p[9]
        assert p.sum() == pytest.approx(1.0)

    def test_zipf_alpha_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_popularity(5, 0.0),
                                   uniform_popularity(5))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uniform_popularity(0)
        with pytest.raises(ValueError):
            zipf_popularity(3, -1.0)

    def test_sample_models_distribution(self, rng):
        p = zipf_popularity(5, 2.0)
        picks = sample_models(p, 20000, rng)
        counts = np.bincount(picks, minlength=5) / 20000
        np.testing.assert_allclose(counts, p, atol=0.02)

    def test_sample_requires_normalized(self, rng):
        with pytest.raises(ValueError):
            sample_models([0.5, 0.2], 10, rng)

    def test_model_ids_stable_width(self):
        ids = make_model_ids(3)
        assert ids == ["variant-00", "variant-01", "variant-02"]


class TestTraces:
    def test_synthetic_trace_fields(self):
        trace = synthetic_trace(8, rate=2.0, duration_s=100.0, seed=0)
        assert len(trace.model_ids) == 8
        assert trace.arrival_rate() == pytest.approx(2.0, rel=0.2)
        for req in trace:
            assert req.model_id in trace.model_ids
            assert req.prompt_tokens >= 4
            assert req.output_tokens >= 4

    def test_requests_sorted_by_arrival(self):
        trace = azure_like_trace(8, rate=2.0, duration_s=60.0, seed=0)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        ids = [r.request_id for r in trace]
        assert ids == sorted(ids)

    def test_zipf_trace_skewed_counts(self):
        trace = synthetic_trace(10, rate=5.0, duration_s=400.0,
                                distribution="zipf", zipf_alpha=2.0, seed=1)
        counts = trace.per_model_counts()
        assert counts["variant-00"] > 5 * max(counts["variant-09"], 1)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            synthetic_trace(4, 1.0, 10.0, distribution="pareto")
        with pytest.raises(ValueError):
            trace_from_distribution("weird", 4, 1.0, 10.0)

    def test_dispatch_helper(self):
        for dist in ("uniform", "zipf:2.0", "azure"):
            trace = trace_from_distribution(dist, 4, 1.0, 30.0, seed=0)
            assert isinstance(trace, Trace)

    def test_windowed_counts_shape(self):
        trace = synthetic_trace(4, rate=2.0, duration_s=100.0, seed=0)
        windows = trace.windowed_counts(10.0)
        assert set(windows) == set(trace.model_ids)
        assert all(len(v) == 10 for v in windows.values())
        total = sum(int(v.sum()) for v in windows.values())
        assert total == len(trace)

    def test_length_sampler_bounds(self, rng):
        sampler = LengthSampler(max_prompt=64, max_output=32)
        for _ in range(200):
            prompt, output = sampler.sample(rng)
            assert 4 <= prompt <= 64
            assert 4 <= output <= 32

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           log_mean=st.floats(0.0, 8.0), log_sigma=st.floats(0.0, 2.0),
           output_mean=st.floats(1.0, 2000.0),
           max_prompt=st.integers(1, 2048), max_output=st.integers(1, 1024),
           min_tokens=st.integers(1, 64),
           pin=st.sampled_from([None, "prompt", "output", "above"]))
    def test_length_sampler_draws_equal_np_clip(self, seed, log_mean,
                                                log_sigma, output_mean,
                                                max_prompt, max_output,
                                                min_tokens, pin):
        """The sampler's builtin clip gives, draw for draw, the ints of
        ``int(np.clip(draw, min_tokens, max))``, also where
        ``min_tokens`` equals a maximum or lies above both."""
        min_tokens = {None: min_tokens, "prompt": max_prompt,
                      "output": max_output,
                      "above": max(max_prompt, max_output) + min_tokens}[pin]
        sampler = LengthSampler(prompt_log_mean=log_mean,
                                prompt_log_sigma=log_sigma,
                                output_mean=output_mean,
                                min_tokens=min_tokens,
                                max_prompt=max_prompt, max_output=max_output)
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(50):
            prompt = int(np.clip(theirs.lognormal(log_mean, log_sigma),
                                 min_tokens, max_prompt))
            output = int(np.clip(theirs.geometric(1.0 / output_mean),
                                 min_tokens, max_output))
            assert sampler.sample(ours) == (prompt, output)


class TestArenaTrace:
    def test_week_long_structure(self):
        trace = arena_trace(n_models=10, duration_s=86400.0, mean_rate=0.05,
                            seed=0)
        assert len(trace.model_ids) == 10
        assert trace.model_ids[0] in ARENA_MODEL_NAMES
        assert len(trace) > 100

    def test_sporadic_and_dense_variants_coexist(self):
        """Fig 1's qualitative property: some variants fire continuously,
        others have long quiet stretches."""
        trace = arena_trace(n_models=16, duration_s=3 * 86400.0,
                            mean_rate=0.05, seed=2)
        windows = trace.windowed_counts(6 * 3600.0)
        zero_fracs = {m: float(np.mean(v == 0))
                      for m, v in windows.items() if v.sum() > 0}
        assert max(zero_fracs.values()) > 0.5   # someone is sporadic
        assert min(zero_fracs.values()) < 0.2   # someone is dense

    def test_names_fall_back_past_20(self):
        trace = arena_trace(n_models=25, duration_s=3600.0, mean_rate=0.5,
                            seed=0)
        assert len(trace.model_ids) == 25


class TestSeedPlumbing:
    """Every arrival generator accepts a Generator, an int seed, or None
    (fixed default) — benchmark runs must be reproducible run-to-run."""

    def test_as_rng_coercions(self):
        gen = np.random.default_rng(7)
        assert as_rng(gen) is gen
        a, b = as_rng(5), as_rng(5)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_none_defaults_deterministic(self):
        assert poisson_arrivals(2.0, 30.0, None) == \
            poisson_arrivals(2.0, 30.0, None)

    @pytest.mark.parametrize("fn,args", [
        (poisson_arrivals, (2.0, 30.0)),
        (gamma_burst_arrivals, (2.0, 30.0)),
        (ramp_arrivals, (4.0, 60.0)),
    ])
    def test_int_seed_matches_generator(self, fn, args):
        assert fn(*args, 123) == fn(*args, np.random.default_rng(123))

    def test_piecewise_accepts_int_seed(self):
        segments = [(1.0, 10.0), (3.0, 10.0)]
        assert piecewise_rate_arrivals(segments, 9) == \
            piecewise_rate_arrivals(segments, np.random.default_rng(9))


class TestTenantTraces:
    def workloads(self):
        return [TenantWorkload("agg", rate=2.0, n_models=2,
                               distribution="zipf", cv=2.0),
                TenantWorkload("calm", rate=0.3, n_models=1)]

    def test_requests_are_tagged_and_renumbered(self):
        trace = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=1)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        assert trace.tenant_ids == ["agg", "calm"]
        counts = trace.per_tenant_counts()
        assert counts["agg"] > counts["calm"] > 0
        assert set(trace.model_ids) == {"agg-variant-00", "agg-variant-01",
                                        "calm-variant-00"}

    def test_same_seed_reproduces_and_seeds_differ(self):
        a = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=4)
        b = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=4)
        c = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=5)
        key = lambda t: [(r.tenant_id, r.model_id, r.arrival_s,
                          r.prompt_tokens, r.output_tokens) for r in t]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_tenant_streams_independent_of_ordering(self):
        """Per-tenant spawn keys: re-ordering tenants never perturbs
        another tenant's stream beyond renumbering."""
        fwd = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=2)
        # same tenants, same per-tenant index: identical streams
        again = multi_tenant_trace(self.workloads(), duration_s=60.0, seed=2)
        arrivals = lambda t, tid: [r.arrival_s for r in t
                                   if r.tenant_id == tid]
        assert arrivals(fwd, "agg") == arrivals(again, "agg")

    def test_shared_model_pool(self):
        shared = ["m-0", "m-1"]
        trace = multi_tenant_trace(
            [TenantWorkload("a", rate=1.0, model_ids=shared),
             TenantWorkload("b", rate=1.0, model_ids=shared)],
            duration_s=30.0, seed=0)
        assert trace.model_ids == shared

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_tenant_trace([], duration_s=10.0)
        with pytest.raises(ValueError, match="duplicate"):
            multi_tenant_trace([TenantWorkload("x", rate=1.0),
                                TenantWorkload("x", rate=2.0)],
                               duration_s=10.0)
        with pytest.raises(ValueError):
            TenantWorkload("", rate=1.0)
        with pytest.raises(ValueError):
            TenantWorkload("t", rate=-1.0)
        with pytest.raises(ValueError):
            TenantWorkload("t", rate=1.0, distribution="pareto")

    def test_untenanted_traces_stay_untenanted(self):
        trace = synthetic_trace(4, rate=1.0, duration_s=20.0, seed=0)
        assert trace.tenant_ids == []
        assert all(r.tenant_id is None for r in trace)
