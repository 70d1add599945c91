"""vLLM-SCB baseline specifics: swapping, preload, KV admission."""

import numpy as np
import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.hardware.memory import Tier
from repro.serving import (ClusterGateway, DedicatedEngine, EngineConfig,
                           LLAMA_13B, LLAMA_7B, ModelManager, VLLMSCBEngine)
from repro.serving.base import FULL_MODEL_LOADER_FACTOR
from repro.workload.spec import Trace, TraceRequest


def full_manager(spec, models):
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for m in models:
        mgr.register_full(m, "base")
    return mgr


def make_trace(assignments, gap=5.0):
    requests = [TraceRequest(request_id=i, model_id=m,
                             arrival_s=i * gap, prompt_tokens=8,
                             output_tokens=4)
                for i, m in enumerate(assignments)]
    return Trace(requests=requests, model_ids=sorted(set(assignments)),
                 duration_s=len(assignments) * gap + 1.0)


class TestSwapBehaviour:
    def test_model_switch_pays_load(self):
        """Alternating between two models on a one-slot GPU forces a swap
        per switch; a single-model trace does not."""
        node = GPUNode(node_from_name("rtx3090", 1))
        models = ["m0", "m1"]
        mgr = full_manager(LLAMA_7B, models)
        engine = VLLMSCBEngine(mgr, node, EngineConfig(tp_degree=1))
        alternating = engine.run(make_trace(["m0", "m1"] * 3))
        mgr2 = full_manager(LLAMA_7B, models)
        engine2 = VLLMSCBEngine(mgr2, node, EngineConfig(tp_degree=1))
        single = engine2.run(make_trace(["m0"] * 6))
        assert alternating.mean_e2e_latency_s() > \
            2 * single.mean_e2e_latency_s()

    def test_preload_removes_first_load(self):
        node = GPUNode(node_from_name("a800", 1))
        trace = make_trace(["m0"] * 4)
        cold = VLLMSCBEngine(full_manager(LLAMA_7B, ["m0"]), node,
                             EngineConfig(tp_degree=1)).run(trace)
        warm = VLLMSCBEngine(full_manager(LLAMA_7B, ["m0"]), node,
                             EngineConfig(tp_degree=1),
                             preload=True).run(trace)
        assert warm.records[0].ttft_s < cold.records[0].ttft_s

    def test_loader_factor_scales_load_time(self):
        # the factor is the constant it always was outside this test: a
        # cold load costs that many raw disk -> GPU copies of the model
        node = GPUNode(node_from_name("a800", 1))
        cold = VLLMSCBEngine(full_manager(LLAMA_7B, ["m0"]), node,
                             EngineConfig(tp_degree=1)).run(make_trace(["m0"]))
        raw_copy_s = node.load_time(LLAMA_7B.fp16_nbytes, Tier.DISK, Tier.GPU)
        assert FULL_MODEL_LOADER_FACTOR > 1.0
        assert cold.records[0].loading_s == \
            FULL_MODEL_LOADER_FACTOR * raw_copy_s

    def test_second_visit_loads_from_cpu_cache(self):
        """m0 evicted then revisited: the revisit load is cheaper (CPU
        cache) than the initial disk load."""
        node = GPUNode(node_from_name("rtx3090", 1))
        mgr = full_manager(LLAMA_7B, ["m0", "m1"])
        engine = VLLMSCBEngine(mgr, node, EngineConfig(tp_degree=1))
        result = engine.run(make_trace(["m0", "m1", "m0"], gap=30.0))
        by_id = {r.request_id: r for r in result.records}
        assert by_id[2].loading_s < by_id[0].loading_s


class TestDedicated:
    def test_dedicated_faster_than_shared_scb(self):
        """Per-variant dedicated groups avoid cross-model interference."""
        node = GPUNode(node_from_name("a800", 1))
        models = [f"m{i}" for i in range(4)]
        trace = make_trace(models * 2, gap=2.0)
        scb = VLLMSCBEngine(full_manager(LLAMA_7B, models), node,
                            EngineConfig(tp_degree=1)).run(trace)
        ded = DedicatedEngine(full_manager(LLAMA_7B, models), node,
                              EngineConfig(tp_degree=1)).run(trace)
        assert ded.mean_e2e_latency_s() < scb.mean_e2e_latency_s()

    def test_a_reseated_clock_lifts_lagging_groups_and_later_ones(
            self) -> None:
        """Outer layers re-seat idle engines (an admission-floor bump, a
        replica spawn): every group that lags is lifted, none is rewound,
        and a group created afterwards starts no earlier."""
        engine = DedicatedEngine(full_manager(LLAMA_7B, ["m0", "m1", "m2"]),
                                 GPUNode(node_from_name("a800", 1)),
                                 EngineConfig(tp_degree=1))
        engine.run(make_trace(["m0", "m1"], gap=5.0))
        lead = engine.clock                       # m1's group, past 5 s
        lagging = engine._groups["m0"].clock
        assert lagging < 5.0 < lead
        engine.clock = 5.0
        assert engine._groups["m0"].clock == 5.0
        assert engine._groups["m1"].clock == lead == engine.clock
        engine.clock = lead + 10.0
        late = engine.submit(TraceRequest(
            request_id=9, model_id="m2", arrival_s=0.0, prompt_tokens=8,
            output_tokens=4))
        engine.run_until_drained()
        assert late.first_scheduled_s >= lead + 10.0
        engine.reset()
        assert engine.clock == 0.0

    def test_a_replica_spawned_mid_run_serves_from_the_spawn_on(self) -> None:
        mgr = full_manager(LLAMA_7B, ["m0", "m1"])
        gateway = ClusterGateway(
            engine_factory=lambda node: DedicatedEngine(
                mgr, node, EngineConfig(tp_degree=1)),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=1,
            balancer="round-robin")
        gateway.submit("m0", 8, 40)
        gateway.run_until_drained()
        spawned_at = gateway.clock
        assert spawned_at > 0.0
        replica = gateway.spawn_replica()         # raised at the parent
        assert replica.engine.clock == spawned_at
        late = gateway.submit("m1", 8, 4, arrival_s=0.0)   # the new one's turn
        gateway.run_until_drained()
        assert gateway.results_by_replica()[replica.name].n_requests == 1
        assert late.record().first_token_s > spawned_at
