"""Unified engine protocol, registry, online gateway, and stack builder."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GPUNode, node_from_name
from repro.serving import (ENGINES, ArtifactKind, EngineConfig, LLAMA_7B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           ServingResult, StackSpec, build, create_engine)
from repro.workload import synthetic_trace
from repro.workload.spec import Trace, TraceRequest


def make_manager(engine_cls, model_ids, spec=LLAMA_7B, ratio=8.0):
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for m in model_ids:
        if engine_cls.variant_artifact == ArtifactKind.DELTA:
            mgr.register_delta(m, "base", ratio)
        else:
            mgr.register_full(m, "base")
    return mgr


def make_engine(name, model_ids, n_deltas=4, k=8):
    cls = ENGINES[name]
    node = GPUNode(node_from_name("a800", 1))
    mgr = make_manager(cls, model_ids)
    return create_engine(
        name, mgr, node,
        scheduler_config=SchedulerConfig(max_batch_requests=k,
                                         max_concurrent_deltas=n_deltas),
        engine_config=EngineConfig(tp_degree=1))


def record_key(rec):
    return (rec.request_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s,
            rec.preemptions, rec.skipped_line)


@pytest.fixture(scope="module")
def short_trace():
    return synthetic_trace(4, rate=1.0, duration_s=30.0, seed=11)


class TestRegistry:
    def test_all_three_engines_registered(self):
        assert {"deltazip", "vllm-scb", "dedicated"} <= set(ENGINES)

    def test_unknown_engine_raises(self):
        node = GPUNode(node_from_name("a800", 1))
        with pytest.raises(KeyError, match="unknown engine"):
            create_engine("nope", ModelManager(LLAMA_7B), node)

    def test_cli_choices_track_registry(self):
        from repro.cli import build_parser
        parser = build_parser()
        sim = next(a for a in parser._subparsers._group_actions[0]
                   .choices["simulate"]._actions
                   if "--systems" in a.option_strings)
        assert set(ENGINES) <= set(sim.choices)

    def test_scheduler_config_maps_to_baseline_kwargs(self, short_trace):
        engine = make_engine("vllm-scb", short_trace.model_ids, k=5)
        assert engine.max_batch_requests == 5


class TestProtocolParity:
    """Acceptance: gateway replay == legacy run for every engine."""

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_gateway_replay_matches_run(self, name, short_trace):
        legacy = make_engine(name, short_trace.model_ids).run(short_trace)
        online = ServingGateway(
            make_engine(name, short_trace.model_ids)).replay(short_trace)
        assert [record_key(r) for r in legacy.records] == \
            [record_key(r) for r in online.records]
        assert legacy.makespan_s == online.makespan_s

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_online_submit_matches_replay(self, name, short_trace):
        replayed = ServingGateway(
            make_engine(name, short_trace.model_ids)).replay(short_trace)
        gw = ServingGateway(make_engine(name, short_trace.model_ids))
        for req in short_trace:  # trace ids are 0..n-1 in arrival order
            handle = gw.submit(req.model_id, req.prompt_tokens,
                               req.output_tokens, arrival_s=req.arrival_s)
            assert handle.id == req.request_id
        submitted = gw.run_until_drained()
        assert [record_key(r) for r in replayed.records] == \
            [record_key(r) for r in submitted.records]


class TestEngineProperties:
    """Every registered engine conserves requests with sane timestamps."""

    @given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_conservation_and_monotonicity(self, n, n_models, seed):
        rng = np.random.default_rng(seed)
        requests = [
            TraceRequest(request_id=i, model_id=f"m{rng.integers(n_models)}",
                         arrival_s=float(rng.uniform(0, 20)),
                         prompt_tokens=int(rng.integers(4, 64)),
                         output_tokens=int(rng.integers(1, 12)))
            for i in range(n)
        ]
        trace = Trace(requests=requests,
                      model_ids=[f"m{i}" for i in range(n_models)],
                      duration_s=21.0)
        for name in sorted(ENGINES):
            result = make_engine(name, trace.model_ids).run(trace)
            assert sorted(r.request_id for r in result.records) == \
                sorted(t.request_id for t in trace), name
            for rec in result.records:
                ttft_abs = rec.arrival_s + rec.ttft_s
                assert rec.arrival_s <= ttft_abs <= rec.finish_s + 1e-9, name


class TestGatewayOnline:
    def test_submit_defaults_to_current_clock(self):
        gw = ServingGateway(make_engine("deltazip", ["m0"]))
        gw.submit("m0", 8, 2)
        gw.run_until_drained()
        assert gw.clock > 0.0
        gw.submit("m0", 8, 2)  # arrives "now", mid-timeline
        result = gw.run_until_drained()
        assert result.n_requests == 2
        assert result.records[1].arrival_s >= result.records[0].finish_s

    def test_closed_loop_submission(self):
        """A client that reacts to completions — impossible with Trace."""
        gw = ServingGateway(make_engine("deltazip", ["m0", "m1"]))
        gw.submit("m0", 16, 4)
        served = []
        while gw.unfinished or len(served) < 4:
            if not gw.step():
                break
            done = gw.result().records
            if len(done) > len(served) and len(done) < 4:
                served = done
                gw.submit(f"m{len(done) % 2}", 16, 4)  # follow-up request
        result = gw.result()
        assert result.n_requests == 4
        arrivals = [r.arrival_s for r in result.records]
        assert arrivals == sorted(arrivals)

    def test_callbacks_fire(self):
        tokens, completions = [], []
        gw = ServingGateway(make_engine("deltazip", ["m0"]))
        gw.add_token_listener(
            lambda rid, mid, n, t: tokens.append((rid, n, t)))
        gw.add_completion_listener(completions.append)
        gw.submit("m0", 8, 3)
        gw.submit("m0", 8, 2)
        gw.run_until_drained()
        assert len(completions) == 2
        assert {c.request_id for c in completions} == {0, 1}
        assert len(tokens) == 3 + 2   # one callback per generated token
        clocks = [t for _, _, t in tokens]
        assert clocks == sorted(clocks)

    def test_out_of_order_submissions_served_fcfs(self):
        """Explicit arrival times that invert id order must still be
        admitted in arrival order (online FCFS, not id order)."""
        from repro.serving import ContinuousBatchScheduler, ServingRequest
        from repro.serving.base import RunningBatch

        sched = ContinuousBatchScheduler(SchedulerConfig(4, 4))
        late = ServingRequest(trace=TraceRequest(
            request_id=0, model_id="m0", arrival_s=50.0,
            prompt_tokens=8, output_tokens=2))   # lower id, arrives last
        early = ServingRequest(trace=TraceRequest(
            request_id=1, model_id="m1", arrival_s=5.0,
            prompt_tokens=8, output_tokens=2))
        sched.add(late)
        sched.add(early)
        decision = sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in decision.admitted] == [1, 0]

    def test_invalid_submit_rejected(self):
        gw = ServingGateway(make_engine("deltazip", ["m0"]))
        with pytest.raises(ValueError):
            gw.submit("m0", 0, 4)

    def test_result_mid_flight(self):
        gw = ServingGateway(make_engine("deltazip", ["m0"]))
        for _ in range(3):
            gw.submit("m0", 8, 6)
        gw.step()
        partial = gw.result()
        assert partial.n_requests <= 3
        total = gw.run_until_drained()
        assert total.n_requests == 3


class TestServingResultMerge:
    def test_merge_spans_all_records(self):
        def rec(rid, arrival, finish):
            from repro.serving import RequestRecord
            return RequestRecord(request_id=rid, model_id="m",
                                 arrival_s=arrival, first_token_s=arrival,
                                 finish_s=finish, prompt_tokens=8,
                                 output_tokens=4, queue_wait_s=0.0,
                                 loading_s=0.0, inference_s=1.0,
                                 skipped_line=False, preemptions=0)
        a = ServingResult("e", [rec(0, 1.0, 5.0)], 4.0)
        b = ServingResult("e", [rec(1, 3.0, 11.0)], 8.0)
        merged = ServingResult.merge([a, b], engine="cluster",
                                     config={"groups": ["a", "b"]})
        assert merged.n_requests == 2
        assert merged.makespan_s == pytest.approx(10.0)
        assert merged.engine == "cluster"
        assert merged.config["groups"] == ["a", "b"]

    def test_merge_empty(self):
        # regression: empty merges must be well-defined all the way down
        # the percentile/throughput/summary math, not just constructible
        from repro.serving import summarize
        for results in ([], [ServingResult.merge([])],
                        [ServingResult("e", [], 1.0)]):
            merged = ServingResult.merge(results)
            assert merged.n_requests == 0
            assert merged.makespan_s == 0.0
            assert merged.throughput_rps() == 0.0
            assert merged.percentile_e2e_s(99) == 0.0
            assert merged.percentile_ttft_s(50) == 0.0
            summary = summarize(merged)
            assert summary["p99_e2e_s"] == 0.0
            assert summary["p50_ttft_s"] == 0.0


class TestStackBuilder:
    #: the facade's registry served on one GPU
    ONE_GPU = StackSpec(node=node_from_name("a800", 1),
                        scheduler=SchedulerConfig(max_batch_requests=8,
                                                  max_concurrent_deltas=2),
                        config=EngineConfig(tp_degree=1))

    @pytest.fixture(scope="class")
    def system(self, base_model, finetuned):
        from repro.core import DeltaZip
        dz = DeltaZip(base_model)
        dz.register_finetuned("review-ft", finetuned.model,
                              finetuned.calibration_tokens)
        return dz

    def test_online_submit(self, system):
        gateway = build(self.ONE_GPU, system.manager(LLAMA_7B))
        assert isinstance(gateway, ServingGateway)
        gateway.submit("review-ft", 32, 4)
        result = gateway.run_until_drained()
        assert result.n_requests == 1
        assert result.records[0].model_id == "review-ft"

    def test_any_registered_engine(self, system):
        trace = synthetic_trace(2, rate=0.5, duration_s=20.0, seed=4)
        for name in sorted(ENGINES):
            mgr = system.manager(LLAMA_7B, engine=name)
            assert "review-ft" in mgr
            for model_id in trace.model_ids:
                ENGINES[name].register_variant(mgr, model_id, "base", 8.0)
            spec = replace(self.ONE_GPU, engine=name,
                           scheduler=SchedulerConfig())
            result = build(spec, mgr).replay(trace)
            assert result.n_requests == len(trace), name

    def test_unknown_engine_name_rejected_early(self):
        with pytest.raises(ValueError, match="registered: .*deltazip"):
            StackSpec("warp-drive")
