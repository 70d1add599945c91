"""Coasting: ``run_until_drained()`` == one ``step()`` per iteration.

A draining :class:`~repro.serving.engine.DeltaZipEngine` runs every
iteration that provably contains no arrival, live cancel, admission or
finish in one loop, without calling ``step()``.  The differential tests
drain one trace both ways — ``engine.run_until_drained()`` and ``while
engine.step(): pass``, which never coasts — and require ``==`` record
tuples, ``EngineStats``, final clock and sink state (floats included)
over every engine flavour, with cancels and deadlines that land inside
what would otherwise be a coasted run.  The counting tests pin the
mechanism: long decodes really coast (fewer ``step()`` calls than executed
iterations), and an engine somebody observes per iteration does not.
"""

from dataclasses import asdict

import pytest

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_7B, ModelManager,
                           SchedulerConfig, ServingGateway, create_engine)
from repro.serving.base import ENGINES
from repro.sim import IterationDone
from repro.telemetry import Telemetry
from repro.workload import session_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest
from test_streaming_metrics import sink_state

N_MODELS = 6
MODELS = [f"variant-{i:02d}" for i in range(N_MODELS)]


def build(name="deltazip", tp=1, **kwargs):
    engine_kwargs = {key: kwargs.pop(key) for key in list(kwargs)
                     if key not in EngineConfig.__dataclass_fields__}
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in MODELS:
        if kwargs.get("variant_kind") == "lora":
            mgr.register_lora(model_id, "base", 50_000_000)
        else:
            ENGINES[name].register_variant(mgr, model_id, "base", 8.0)
    return create_engine(
        name, mgr, GPUNode(node_from_name("a800", max(1, tp))),
        scheduler_config=SchedulerConfig(max_batch_requests=6,
                                         max_concurrent_deltas=3),
        engine_config=EngineConfig(tp_degree=tp, **kwargs), **engine_kwargs)


def long_decodes(n=40, seed=2):
    """Outputs of 30-150 tokens arriving over a few seconds: most
    iterations sit between two membership changes."""
    trace = synthetic_trace(N_MODELS, rate=4.0, duration_s=n / 4.0, seed=seed)
    requests = [TraceRequest(request_id=i, model_id=MODELS[i % N_MODELS],
                             arrival_s=r.arrival_s, prompt_tokens=48 + 7 * i,
                             output_tokens=30 + (37 * i) % 120)
                for i, r in enumerate(trace.requests[:n])]
    assert len(requests) == n
    return Trace(requests=requests, model_ids=list(MODELS),
                 duration_s=trace.duration_s)


def drained(make, trace, cancels=(), coasting=True):
    """Everything a drain leaves behind, floats as they are."""
    engine = make()
    steps = CountingSteps(engine)
    for request in trace:
        engine.submit(request)
    for request_id, at_s in cancels:
        engine.schedule_cancel(request_id, at_s)
    if coasting:
        engine.run_until_drained()
    else:
        while engine.unfinished > 0 and engine.step():
            pass
    result = engine.build_result()
    return {"records": [tuple(r) for r in result.records],
            "stats": asdict(engine.stats),
            "clock": engine.clock, "unfinished": engine.unfinished,
            "sink": sink_state(engine.metrics)
            if engine.name != "dedicated" else None}, steps.calls, engine


class CountingSteps:
    """Counts ``step()`` on one engine instance (the class stays as the
    perf tracer finds it)."""

    def __init__(self, engine):
        self.calls = 0
        inner = engine.step

        def step():
            self.calls += 1
            return inner()
        engine.step = step


def assert_same_drain(make, trace, cancels=()):
    coasted, coasted_steps, engine = drained(make, trace, cancels)
    stepped, stepped_steps, _ = drained(make, trace, cancels, coasting=False)
    assert coasted == stepped
    assert coasted["unfinished"] == 0 and coasted["records"]
    return coasted, coasted_steps, stepped_steps, engine


# --------------------------------------------------------------------- #
# differential: every engine flavour coasts the same as it steps
# --------------------------------------------------------------------- #
def mid_run_aborts(trace):
    """Client cancels in the middle of long decodes (inside what would be
    a coasted run), one on a queued request, one stale; every fifth
    request also carries a deadline that expires mid-decode."""
    requests = []
    for r in trace:
        deadline = r.arrival_s + 0.9 if r.request_id % 5 == 0 else None
        requests.append(TraceRequest(
            request_id=r.request_id, model_id=r.model_id,
            arrival_s=r.arrival_s, prompt_tokens=r.prompt_tokens,
            output_tokens=r.output_tokens, deadline_s=deadline))
    cancels = [(3, requests[3].arrival_s + 0.61803),
               (7, requests[7].arrival_s + 1.41421),
               (11, requests[11].arrival_s + 0.001),
               (3, requests[3].arrival_s + 5.0)]        # stale by then
    return Trace(requests=requests, model_ids=trace.model_ids,
                 duration_s=trace.duration_s), cancels


@pytest.mark.parametrize("quantum", [None, 0.05], ids=["skip", "dense"])
@pytest.mark.parametrize("aborts", [False, True], ids=["clean", "aborts"])
@pytest.mark.parametrize("prefix", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("mode", ["swap", "recompute"])
def test_deltazip_drains_the_same_either_way(mode, prefix, aborts, quantum):
    trace, cancels = long_decodes(), ()
    if aborts:
        trace, cancels = mid_run_aborts(trace)

    def make():
        return build(preempt_mode=mode, prefix_cache=prefix,
                     idle_quantum_s=quantum)
    coasted, coasted_steps, stepped_steps, engine = \
        assert_same_drain(make, trace, cancels)
    assert coasted_steps < stepped_steps          # it did coast
    statuses = {r[13] for r in coasted["records"]}
    assert statuses == ({"finished", "cancelled", "expired"} if aborts
                        else {"finished"})
    if not aborts:
        assert engine.stats.preemptions > 0       # leave + rejoin mid-run


def test_prefix_cache_sessions_drain_the_same_either_way():
    trace = session_trace(4, rate=2.0, duration_s=15.0, seed=1,
                          mean_turns=3.0, think_time_s=1.0,
                          shared_prefix_tokens=64)
    assert set(trace.model_ids) <= set(MODELS)
    _, coasted_steps, stepped_steps, engine = assert_same_drain(
        lambda: build(prefix_cache=True), trace)
    assert engine.stats.prefix_hits > 0 and coasted_steps < stepped_steps


@pytest.mark.parametrize("kind", ["lora", "none"])
def test_other_variant_kinds(kind):
    _, coasted_steps, stepped_steps, _ = assert_same_drain(
        lambda: build(variant_kind=kind), long_decodes(n=24))
    assert coasted_steps < stepped_steps


@pytest.mark.parametrize("n_nodes", [1, 2])
def test_sharded_coasts_with_its_surcharge_in_the_plan(n_nodes):
    """``ShardedEngine``'s inter-node all-reduce is the last term of its
    plan, so a coasted iteration prices it as a step does."""
    _, coasted_steps, stepped_steps, _ = assert_same_drain(
        lambda: build("sharded", tp=2, n_nodes=n_nodes), long_decodes(n=24))
    assert coasted_steps < stepped_steps


@pytest.mark.parametrize("quantum", [None, 0.05], ids=["skip", "dense"])
@pytest.mark.parametrize("aborts", [False, True], ids=["clean", "aborts"])
@pytest.mark.parametrize("name", ["vllm-scb", "dedicated"])
def test_full_model_engines_coast(name, aborts, quantum, monkeypatch):
    """vLLM-SCB (and each dedicated group, one per variant) coasts
    through the iterations whose admission decides nothing: no head
    swap, no FCFS admission."""
    trace, cancels = long_decodes(n=24), ()
    if aborts:
        trace, cancels = mid_run_aborts(trace)
    group_steps = []
    step = ENGINES["vllm-scb"].step

    def counted(engine):
        group_steps.append(engine)
        return step(engine)
    monkeypatch.setattr(ENGINES["vllm-scb"], "step", counted)
    coasted, _, _, engine = assert_same_drain(
        lambda: build(name, idle_quantum_s=quantum), trace, cancels)
    group_steps.clear()
    coasted_again, _, _ = drained(
        lambda: build(name, idle_quantum_s=quantum), trace, cancels)
    assert coasted_again == coasted
    assert 0 < len(group_steps) < engine.stats.iterations


def test_disagg_coasts_its_decode_workers_and_never_a_prefill_worker():
    """The engine's drain loop passes its horizon down to every worker;
    a prefill worker's members ask for one token each, so its next
    iteration always finishes somebody and it never coasts."""
    made = []

    def make():
        engine = build("disagg", prefill_workers=2, decode_workers=2)
        made.append([(w, CountingSteps(w)) for w in engine._workers])
        return engine
    _, coasted_steps, stepped_steps, _ = assert_same_drain(
        make, long_decodes(n=24))
    assert coasted_steps < stepped_steps
    for (worker, coasted), (twin, stepped) in zip(*made):
        iterations = worker.stats.iterations
        assert iterations == twin.stats.iterations <= stepped.calls
        if worker.role == "prefill":
            assert coasted.calls == stepped.calls
        elif iterations:
            assert coasted.calls < iterations


def test_replay_through_the_gateway_is_the_coasting_drain():
    trace = long_decodes()
    stepped, _, _ = drained(build, trace, coasting=False)
    gateway = ServingGateway(build())
    result = gateway.replay(trace)
    assert [tuple(r) for r in result.records] == stepped["records"]
    assert gateway.engine.clock == stepped["clock"]
    assert asdict(gateway.engine.stats) == stepped["stats"]


def test_the_sim_horizon_stops_a_coasted_run_where_it_stops_a_step():
    trace = long_decodes(n=12)
    for horizon in (0.5, 1.0, 2.5):
        views = []
        for coasting in (True, False):
            engine = build(max_sim_seconds=horizon)
            for request in trace:
                engine.submit(request)
            if coasting:
                engine.run_until_drained()
            else:
                while engine.unfinished > 0 and engine.clock < horizon \
                        and engine.step():
                    pass
            views.append((engine.clock, asdict(engine.stats),
                          engine.unfinished,
                          [(r.request_id, r.generated_tokens, r.inference_s)
                           for r in engine.running]))
        assert views[0] == views[1]
        assert views[0][2] > 0                    # stopped mid-flight


# --------------------------------------------------------------------- #
# counting: who coasts, and what it saves
# --------------------------------------------------------------------- #
def test_long_decodes_take_fewer_steps_than_iterations():
    """decode_long's shape: the steps left are the membership changes
    (an arrival's admission, the pure-decode pricing after it, a finish),
    the iterations between them coast."""
    trace = long_decodes(n=60, seed=5)
    coasted, steps, _, engine = assert_same_drain(build, trace)
    iterations = engine.stats.iterations
    assert iterations > 1000
    assert steps < iterations // 3
    assert steps <= 4 * len(trace) + 8            # O(membership changes)


def test_one_long_decode_is_one_step_and_a_coast_per_membership_change():
    engine = build()
    steps = CountingSteps(engine)
    engine.submit(TraceRequest(request_id=0, model_id=MODELS[0],
                               arrival_s=0.0, prompt_tokens=64,
                               output_tokens=500))
    engine.run_until_drained()
    assert engine.unfinished == 0 and engine.stats.iterations == 500
    # the prefill only: the coast after it settles the pure-decode
    # verdict and pricing itself, and runs the finishing iteration too
    assert steps.calls == 1
    # (edited: read from the record — the request is released at retirement)
    assert engine.build_result().records[0].served_tokens == 500


@pytest.mark.parametrize("hook", ["on_token", "on_event"])
def test_a_per_iteration_listener_gets_one_step_per_iteration(hook):
    trace = long_decodes(n=16)
    quiet, quiet_steps, _ = drained(build, trace)
    heard_calls = []

    def make():
        engine = build()
        setattr(engine, hook, lambda *args: heard_calls.append(args))
        return engine
    heard, heard_steps, engine = drained(make, trace)
    assert heard == quiet                         # listening changes nothing
    assert quiet_steps < engine.stats.iterations <= heard_steps
    if hook == "on_event":
        done = [e for e, in heard_calls if isinstance(e, IterationDone)]
        assert len(done) == engine.stats.iterations
    else:
        assert len(heard_calls) == engine.stats.batched_requests


def test_a_telemetry_attached_gateway_steps_every_iteration():
    trace = long_decodes(n=16)
    quiet, quiet_steps, _ = drained(build, trace)
    telemetry = Telemetry(interval_s=0.5)
    gateway = ServingGateway(build(), telemetry=telemetry)
    steps = CountingSteps(gateway.engine)
    done = []
    telemetry.kernel.subscribe(IterationDone, done.append)
    result = gateway.replay(trace)
    assert [tuple(r) for r in result.records] == quiet["records"]
    iterations = gateway.engine.stats.iterations
    assert quiet_steps < iterations <= steps.calls
    assert len(done) == iterations


def test_the_quiet_bound_never_falls_below_the_clock():
    """``_quiet_until()`` is the earliest start of an iteration that is
    not quiet, so never before the clock: not with an arrival already due,
    nor after a coast that crossed its wake or ran every quiet iteration
    (a cluster bounds the other replicas' coasts by it), nor after a
    coast whose finish bound refused the finishing iteration."""
    def decoding(output_tokens):
        engine = build()
        engine.submit(TraceRequest(request_id=0, model_id=MODELS[0],
                                   arrival_s=0.0, prompt_tokens=48,
                                   output_tokens=output_tokens))
        assert engine.step() and len(engine.running) == 1
        return engine

    engine = decoding(200)                 # an arrival due, not ingested
    engine.submit(TraceRequest(request_id=1, model_id=MODELS[1],
                               arrival_s=engine.clock / 2, prompt_tokens=48,
                               output_tokens=20))
    assert engine._quiet_until() == engine.clock

    engine = decoding(200)                 # the coast crosses the arrival
    wake = engine.clock + 0.1
    engine.submit(TraceRequest(request_id=1, model_id=MODELS[1],
                               arrival_s=wake, prompt_tokens=48,
                               output_tokens=20))
    assert engine._coast(float("inf")) and engine.clock > wake
    assert engine._quiet_until() == engine.clock

    engine = decoding(10)                  # the coast runs every quiet one
    assert engine._coast(float("inf"), engine.clock)
    assert engine.batch.next_finish_epoch() == engine.batch.epoch + 1
    assert engine._quiet_until() == engine.clock
