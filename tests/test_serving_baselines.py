"""vLLM-SCB baseline specifics: swapping, preload, KV admission."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.hardware.memory import Tier
from repro.serving import (ENGINES, ClusterGateway, DedicatedEngine,
                           EngineConfig, EngineStats, LLAMA_13B, LLAMA_7B,
                           ModelManager, SchedulerConfig, VLLMSCBEngine,
                           create_engine)
from repro.serving.base import FULL_MODEL_LOADER_FACTOR
from repro.sim import IterationDone
from repro.workload import trace_from_distribution
from repro.workload.spec import Trace, TraceRequest

from test_coasting import CountingSteps, mid_run_aborts


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


# --------------------------------------------------------------------- #
# counters: the full-model engines count what they do
# --------------------------------------------------------------------- #
def swapping_trace(n=18):
    """Three variants on a one-slot GPU, outputs long enough to decode
    between arrivals: every model switch is a swap and an eviction."""
    requests = [TraceRequest(request_id=i, model_id=f"m{i % 3}",
                             arrival_s=0.7 * i, prompt_tokens=16 + i,
                             output_tokens=20 + (13 * i) % 50)
                for i in range(n)]
    return Trace(requests=requests, model_ids=["m0", "m1", "m2"],
                 duration_s=0.7 * n)


def scb_engine():
    return VLLMSCBEngine(full_manager(LLAMA_7B, ["m0", "m1", "m2"]),
                         GPUNode(node_from_name("rtx3090", 1)),
                         EngineConfig(tp_degree=1))


def stats_fields(stats):
    return {f: getattr(stats, f) for f in vars(stats)}


class TestFullModelStats:
    def test_scb_stats_equal_a_recount(self):
        """Heard per iteration (stepped), every counter is a recount of
        the events and the swaps; drained quietly (coasted), the
        counters are the same, field for field."""
        heard = scb_engine()
        done = []
        loads = []
        load_time = heard.node.load_time

        def counted_load(*args):
            loads.append(args)
            return load_time(*args)
        heard.node.load_time = counted_load
        heard.on_event = lambda e: done.append(e) \
            if isinstance(e, IterationDone) else None
        heard.run(swapping_trace())
        stats = heard.stats
        assert stats.iterations == len(done) > 0
        assert stats.batched_requests == \
            sum(e.n_running + e.n_finished for e in done)
        assert stats.total_load_s == sum(e.load_time_s for e in done) > 0.0
        assert stats.swap_ins == len(loads) > 3
        assert stats.evictions == stats.swap_ins - len(heard._resident)
        assert stats.batched_deltas >= stats.iterations
        quiet = scb_engine()
        result = quiet.run(swapping_trace())
        assert stats_fields(quiet.stats) == stats_fields(stats)
        assert result.stats is None           # results carry no stats

    def test_dedicated_stats_sum_its_groups(self):
        engine = DedicatedEngine(full_manager(LLAMA_7B, ["m0", "m1", "m2"]),
                                 GPUNode(node_from_name("a800", 1)),
                                 EngineConfig(tp_degree=1))
        result = engine.run(swapping_trace())
        groups = [engine._groups[m].stats for m in sorted(engine._groups)]
        assert len(groups) == 3
        for field, total in stats_fields(engine.stats).items():
            assert total == sum(getattr(g, field) for g in groups), field
        assert engine.stats.iterations > 0
        assert engine.stats.swap_ins == 0     # every group starts warm
        assert result.stats is None


@pytest.mark.parametrize("name", ["vllm-scb", "dedicated", "deltazip"])
def test_backlog_counts_only_arrived_requests(name):
    """Six requests arriving at t = 100 s are not backlog at t = 0."""
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for m in ("m0", "m1"):
        ENGINES[name].register_variant(mgr, m, "base", 8.0)
    engine = create_engine(name, mgr, GPUNode(node_from_name("a800", 1)),
                           scheduler_config=SchedulerConfig(),
                           engine_config=EngineConfig(tp_degree=1))
    for i in range(6):
        engine.submit(TraceRequest(request_id=i, model_id=f"m{i % 2}",
                                   arrival_s=100.0, prompt_tokens=8,
                                   output_tokens=4))
    assert engine.unfinished == 6
    assert engine.backlog == 0
    engine.clock = 100.0
    assert engine.backlog == 6


# --------------------------------------------------------------------- #
# heard on completion: a listener may submit work "now"
# --------------------------------------------------------------------- #
def ping_pong(drain, n_first=2, n_total=14):
    """Two full-model variants behind a gateway whose completion listener
    submits the other variant's next request, arriving at each finish;
    drained by ``drain``.  Returns the record tuples and the clock."""
    from repro.serving import ServingGateway
    from repro.serving.gateway import Gateway
    engine = DedicatedEngine(full_manager(LLAMA_7B, ["m0", "m1"]),
                             GPUNode(node_from_name("a800", 1)),
                             EngineConfig(tp_degree=1))
    gateway = ServingGateway(engine)
    state = {"next": n_first}

    def follow_up(record):
        i = state["next"]
        if i < n_total:
            state["next"] += 1
            other = "m1" if record.model_id == "m0" else "m0"
            gateway.ingest(TraceRequest(
                request_id=i, model_id=other, arrival_s=record.finish_s,
                prompt_tokens=16 + i, output_tokens=10 + (7 * i) % 30))
    gateway.add_completion_listener(follow_up)
    for i in range(n_first):
        gateway.ingest(TraceRequest(
            request_id=i, model_id=f"m{i}", arrival_s=0.0,
            prompt_tokens=16, output_tokens=12 + 9 * i))
    result = Gateway.run_until_drained(gateway) if drain == "stepped" \
        else gateway.run_until_drained()
    return [tuple(r) for r in result.records], engine.clock, \
        engine.unfinished


class TestDedicatedHeardOnCompletion:
    def test_a_listener_that_submits_is_served_by_the_drain(self):
        """The drain used to drain each group once, in name order, and
        return with the follow-ups submitted to an already-drained group
        still unfinished; a drain heard on completion steps the groups
        exactly as ``while gateway.step()`` does."""
        drained = ping_pong("drain")
        stepped = ping_pong("stepped")
        assert len(stepped[0]) == 14 and stepped[2] == 0
        assert drained == stepped

    @pytest.mark.parametrize("observer", ["listener", "telemetry"])
    def test_the_cap_stops_an_observed_drain_where_it_stops_a_quiet_one(
            self, observer):
        """Both groups have work past ``max_sim_seconds``: each stops at
        its own cap whoever observes the drain (telemetry used to stop
        every group once the furthest one passed its cap)."""
        from repro.serving import ServingGateway
        from repro.telemetry import Telemetry

        def drain(observed):
            engine = DedicatedEngine(
                full_manager(LLAMA_7B, ["m0", "m1"]),
                GPUNode(node_from_name("a800", 1)),
                EngineConfig(tp_degree=1, max_sim_seconds=2.0))
            telemetry = Telemetry(interval_s=0.5) \
                if observed and observer == "telemetry" else None
            gateway = ServingGateway(engine, telemetry=telemetry)
            if observed and observer == "listener":
                gateway.add_completion_listener(lambda record: None)
            for i in range(10):
                gateway.ingest(TraceRequest(
                    request_id=100 + i, model_id="m0",
                    arrival_s=0.3 * i + 0.01, prompt_tokens=16,
                    output_tokens=40))
            for i in range(1, 60):
                gateway.ingest(TraceRequest(
                    request_id=i, model_id="m1", arrival_s=0.05 * i,
                    prompt_tokens=16, output_tokens=8))
            result = gateway.run_until_drained()
            return ([tuple(r) for r in result.records], engine.unfinished,
                    {m: g.clock for m, g in engine._groups.items()})

        quiet = drain(False)
        assert quiet[1] > 0 and min(quiet[2].values()) >= 2.0
        assert drain(True) == quiet


    def test_an_abort_honours_a_hook_set_since_the_last_step(self):
        """Groups are wired when made and before each step or drain, so
        submits rewire nothing; an abort rewires its group first, and an
        event hook set after the submits still hears the cancel."""
        from repro.sim import Cancel

        engine = DedicatedEngine(full_manager(LLAMA_7B, ["m0", "m1"]),
                                 GPUNode(node_from_name("a800", 1)),
                                 EngineConfig(tp_degree=1))
        for i in range(4):
            engine.submit(TraceRequest(request_id=i, model_id=f"m{i % 2}",
                                       arrival_s=0.0, prompt_tokens=16,
                                       output_tokens=20))
        assert engine.step()
        events = []
        engine.on_event = events.append
        assert engine.abort(3) is not None
        assert [(e.request_id, e.reason) for e in events
                if isinstance(e, Cancel)] == [(3, "cancel")]


# --------------------------------------------------------------------- #
# unheard: a dedicated drain is each group drained alone
# --------------------------------------------------------------------- #
def submit_all(engine, trace, cancels):
    """Submit ``trace`` and the cancels of its requests to ``engine``."""
    ids = set()
    for request in trace:
        engine.submit(request)
        ids.add(request.request_id)
    for request_id, at_s in cancels:
        if request_id in ids:
            engine.schedule_cancel(request_id, at_s)


@pytest.mark.parametrize("quantum", [None, 0.05], ids=["skip", "dense"])
@pytest.mark.parametrize("aborts", [False, True], ids=["clean", "aborts"])
def test_a_dedicated_drain_is_each_group_drained_alone(quantum, aborts):
    """Nobody hears the engine, so its groups are independent timelines:
    every group leaves the records, ``EngineStats`` and ``step()`` count
    of a preloaded ``vllm-scb`` engine that drains its variant's share of
    the trace (and of the cancels) on its own."""
    trace = trace_from_distribution("zipf:1.5", 8, rate=1.0, duration_s=60,
                                    seed=1)
    cancels = []
    if aborts:
        trace, cancels = mid_run_aborts(trace)
    mgr = full_manager(LLAMA_7B, trace.model_ids)
    node = GPUNode(node_from_name("a800", 1))
    config = EngineConfig(tp_degree=1, idle_quantum_s=quantum)
    engine = DedicatedEngine(mgr, node, config)
    submit_all(engine, trace, cancels)
    steps = {m: CountingSteps(g) for m, g in engine._groups.items()}
    engine.run_until_drained()
    assert len(steps) > 1 and engine.unfinished == 0
    alone_stats = []
    for model_id in sorted(steps):
        group = engine._groups[model_id]
        alone = VLLMSCBEngine(mgr, node, config, preload=True)
        submit_all(alone, [r for r in trace if r.model_id == model_id],
                   cancels)
        alone_steps = CountingSteps(alone)
        alone.run_until_drained()
        assert [tuple(r) for r in group.build_result().records] == \
            [tuple(r) for r in alone.build_result().records], model_id
        assert asdict(group.stats) == asdict(alone.stats), model_id
        assert steps[model_id].calls == alone_steps.calls > 0, model_id
        alone_stats.append(alone.stats)
    assert asdict(engine.stats) == asdict(EngineStats.total(alone_stats))
