"""Horizon coasting: an outer drain loop == one ``step()`` per iteration.

``ClusterGateway.run_until_drained()`` and ``DisaggregatedEngine.
run_until_drained()`` let what ``step()`` just advanced coast up to the
loop's own next-event time.  The differential tests drain one trace both
ways — ``gateway.replay()``, and reset + ``ingest`` + ``cancel`` +
``while gateway.step(): pass``, which is one iteration per step at every
layer — and require ``==`` record tuples, ``kernel.now``, retired
counts, per-replica / per-worker ``EngineStats`` and clocks, and
autoscaler histories (floats included), over trace kinds, cancel and
deadline schedules, balancers, fleet sizes, autoscalers, both idle-skip
modes and the prefix cache.  The counting tests pin who coasts and who
never does: a layer that publishes or is stepped from outside makes
exactly one engine ``step()`` per iteration.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (Autoscaler, ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           Tenant, TenantGateway, create_engine)
from repro.serving.base import ServingEngine
from repro.sim import IterationDone
from repro.telemetry import Telemetry
from repro.workload import LengthSampler, session_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 4
MODELS = [f"variant-{i:02d}" for i in range(N_MODELS)]
#: decodes of tens of tokens: most iterations sit between two events
LENGTHS = LengthSampler(output_mean=60.0, max_prompt=256, max_output=160)
BALANCERS = ("round-robin", "least-outstanding", "lineage", "conversation")


def make_manager():
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in MODELS:
        mgr.register_delta(model_id, "base", 8.0)
    return mgr


def engine_factory(name="deltazip", quantum=None, prefix=False, **kwargs):
    mgr = make_manager()

    def factory(node=None):
        return create_engine(
            name, mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=6,
                                             max_concurrent_deltas=3),
            engine_config=EngineConfig(tp_degree=1, idle_quantum_s=quantum,
                                       prefix_cache=prefix), **kwargs)
    return factory


def eager_scaler(ceiling):
    return Autoscaler(min_replicas=1, max_replicas=ceiling,
                      high_queue_per_replica=2.0, low_queue_per_replica=0.5,
                      check_interval_s=1.0, scale_up_cooldown_s=1.0,
                      scale_down_cooldown_s=2.0)


def make_cluster(name="deltazip", n_replicas=2, balancer="lineage",
                 autoscale=False, quantum=None, prefix=False, **kwargs):
    ceiling = n_replicas + 1 if autoscale else n_replicas
    return ClusterGateway(
        engine_factory=engine_factory(name, quantum, prefix),
        cluster=Cluster.from_name("a800", ceiling, 1), n_replicas=n_replicas,
        balancer=balancer,
        autoscaler=eager_scaler(ceiling) if autoscale else None, **kwargs)


def make_trace(kind, rate, seed, deadline_every=0, duration_s=6.0):
    if kind == "sessions":
        trace = session_trace(N_MODELS, rate=rate / 2.5, duration_s=duration_s,
                              seed=seed, mean_turns=2.5, think_time_s=1.0,
                              shared_prefix_tokens=64, length_sampler=LENGTHS)
    else:
        trace = synthetic_trace(N_MODELS, rate=rate, duration_s=duration_s,
                                seed=seed, length_sampler=LENGTHS)
    if deadline_every:
        trace = Trace(
            requests=[replace(r, deadline_s=r.arrival_s + 0.4 + 0.3 * (i % 5))
                      if i % deadline_every == 0 else r
                      for i, r in enumerate(trace.requests)],
            model_ids=trace.model_ids, duration_s=trace.duration_s)
    return trace


def cancel_schedule(trace, picks):
    """``(pick, delay)`` pairs as ``(request_id, at_s)``: a negative
    delay cancels before the arrival (an orphan at the cluster layer)."""
    requests = trace.requests
    return [(requests[pick % len(requests)].request_id,
             requests[pick % len(requests)].arrival_s + delay)
            for pick, delay in picks]


def stepped(gateway, trace, cancels):
    """``Gateway._replay`` with the drain written as one step per turn."""
    gateway.reset()
    for request in trace:
        gateway.ingest(request)
    for request_id, at_s in cancels:
        gateway.cancel(request_id, at_s=at_s)
    while gateway.step():
        pass
    return gateway.result()


def scaler_history(scaler):
    return None if scaler is None else \
        [(s.clock_s, s.n_replicas, s.queue_per_replica, s.action)
         for s in scaler.history]


def cluster_view(gateway, result):
    fleet = gateway.retired + gateway.replicas
    return {"records": [tuple(r) for r in result.records],
            "now": gateway.kernel.now, "retired": len(gateway.retired),
            "stats": [asdict(r.engine.stats) for r in fleet],
            "clocks": [(r.id, r.engine.clock) for r in fleet],
            "unfinished": gateway.unfinished,
            "scaler": scaler_history(gateway.autoscaler)}


def disagg_view(gateway, result):
    engine = gateway.engine
    workers = [w for pool in engine._pools.values()
               for w in pool.retired + pool.members]
    return {"records": [tuple(r) for r in result.records],
            "stats": asdict(engine.stats), "clock": engine.clock,
            "workers": [(w.id, w.role, w.clock, asdict(w.stats))
                        for w in workers],
            "unfinished": engine.unfinished,
            "scalers": [scaler_history(pool.scaler)
                        for pool in engine._pools.values()]}


CANCELS = st.lists(st.tuples(st.integers(0, 10 ** 4),
                             st.sampled_from([-0.05, 0.0, 0.013, 0.2, 0.61803,
                                              1.41421, 3.0])), max_size=5)
TRACES = st.tuples(st.sampled_from(["synthetic", "sessions"]),
                   st.sampled_from([1.0, 3.0, 8.0]), st.integers(0, 10 ** 6),
                   st.sampled_from([0, 3, 7]))


# --------------------------------------------------------------------- #
# differential: replay() == reset + ingest + cancel + while step()
# --------------------------------------------------------------------- #
class TestClusterDrain:
    @given(TRACES, CANCELS, st.sampled_from(["deltazip", "disagg"]),
           st.sampled_from(BALANCERS), st.integers(1, 3), st.booleans(),
           st.sampled_from([None, 0.05]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_replay_equals_one_step_per_iteration(
            self, shape, picks, name, balancer, n_replicas, autoscale,
            quantum, prefix):
        trace = make_trace(*shape)
        assume(len(trace) > 0)
        cancels = cancel_schedule(trace, picks)
        views = []
        for drain in (ClusterGateway.replay, stepped):
            gateway = make_cluster(name, n_replicas, balancer, autoscale,
                                   quantum, prefix)
            views.append(cluster_view(gateway,
                                      drain(gateway, trace, cancels)))
        assert views[0] == views[1]

    def test_a_second_replay_on_the_same_gateway_is_the_first(self):
        trace = make_trace("synthetic", 8.0, 3, deadline_every=3)
        gateway = make_cluster(n_replicas=3)
        first = cluster_view(gateway, gateway.replay(trace))
        assert cluster_view(gateway, stepped(gateway, trace, ())) == first
        assert cluster_view(gateway, gateway.replay(trace)) == first


class TestDisaggDrain:
    @given(TRACES, CANCELS, st.integers(1, 3), st.integers(1, 3),
           st.booleans(), st.sampled_from([None, 0.05]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_replay_equals_one_step_per_iteration(
            self, shape, picks, n_prefill, n_decode, autoscale, quantum,
            prefix):
        trace = make_trace(*shape)
        assume(len(trace) > 0)
        cancels = cancel_schedule(trace, picks)
        views = []
        for drain in (ServingGateway.replay, stepped):
            scalers = {"prefill_autoscaler": eager_scaler(n_prefill + 1),
                       "decode_autoscaler": eager_scaler(n_decode + 1)} \
                if autoscale else {}
            gateway = ServingGateway(engine_factory(
                "disagg", quantum, prefix, prefill_workers=n_prefill,
                decode_workers=n_decode, **scalers)())
            views.append(disagg_view(gateway,
                                     drain(gateway, trace, cancels)))
        assert views[0] == views[1]


# --------------------------------------------------------------------- #
# counting: one engine step() per iteration wherever somebody watches
# --------------------------------------------------------------------- #
class CountingSteps:
    """Counts ``step()`` over some engine instances (the classes stay as
    the perf tracer finds them)."""

    def __init__(self, engines):
        self.calls = 0
        for engine in engines:
            self._wrap(engine)

    def _wrap(self, engine):
        inner = engine.step

        def step():
            self.calls += 1
            return inner()
        engine.step = step


def iterations(gateway):
    return sum(engine.stats.iterations for engine in gateway.engines())


def decode_heavy(n=48, rate=16.0, seed=2):
    """``cluster_bursty``'s shape at test size: outputs of 30-150 tokens
    over a lightly loaded fleet."""
    arrivals = synthetic_trace(N_MODELS, rate=rate, duration_s=n / rate * 1.5,
                               seed=seed).requests[:n]
    assert len(arrivals) == n
    requests = [TraceRequest(request_id=i, model_id=MODELS[i % N_MODELS],
                             arrival_s=r.arrival_s, prompt_tokens=48 + 5 * i,
                             output_tokens=30 + (37 * i) % 120)
                for i, r in enumerate(arrivals)]
    return Trace(requests=requests, model_ids=list(MODELS),
                 duration_s=arrivals[-1].arrival_s)


@pytest.mark.parametrize("watcher", ["telemetry", "journal", "on_token"])
def test_a_watched_cluster_publishes_every_iteration(watcher):
    trace = decode_heavy()
    quiet = make_cluster(n_replicas=3)
    want = cluster_view(quiet, quiet.replay(trace))
    tokens, done = [], []
    telemetry = Telemetry(interval_s=0.5) if watcher == "telemetry" else None
    gateway = make_cluster(
        n_replicas=3, telemetry=telemetry, journal=watcher == "journal",
        on_token=(lambda *args: tokens.append(args))
        if watcher == "on_token" else None)
    steps = CountingSteps(gateway.engines())
    if telemetry is not None:
        telemetry.kernel.subscribe(IterationDone, done.append)
    got = cluster_view(gateway, gateway.replay(trace))
    assert got == want                        # watching changes nothing
    assert 1000 < iterations(gateway) <= steps.calls
    if watcher == "journal":
        done = [e for e in gateway.kernel.journal
                if isinstance(e, IterationDone)]
    if watcher == "on_token":
        assert len(tokens) == sum(e.stats.batched_requests
                                  for e in gateway.engines())
    else:
        assert len(done) == iterations(gateway)


def test_a_tenant_gateway_over_a_cluster_steps_every_iteration():
    trace = decode_heavy()
    counts = []
    for drain in (TenantGateway.replay, stepped):
        cluster = make_cluster(n_replicas=3)
        gateway = TenantGateway(cluster, tenants=(Tenant("default"),))
        steps = CountingSteps(cluster.engines())
        result = drain(gateway, trace, ())
        assert len(result.records) == len(trace)
        assert iterations(cluster) <= steps.calls
        counts.append((steps.calls, iterations(cluster),
                       [tuple(r) for r in result.records]))
    assert counts[0] == counts[1]


def test_a_cluster_of_disagg_engines_steps_every_iteration(monkeypatch):
    """Pool workers are rebuilt by ``reset()``, so their steps are counted
    on the class (``DisaggregatedEngine`` has a ``step`` of its own)."""
    worker_steps = []
    inner = ServingEngine.step

    def step(self):
        worker_steps.append(self.name)
        return inner(self)
    monkeypatch.setattr(ServingEngine, "step", step)
    trace = decode_heavy(n=24)
    counts = []
    for drain in (ClusterGateway.replay, stepped):
        del worker_steps[:]
        gateway = make_cluster("disagg", n_replicas=2)
        owners = CountingSteps(gateway.engines())
        view = cluster_view(gateway, drain(gateway, trace, ()))
        assert 400 < iterations(gateway) <= len(worker_steps)
        counts.append((owners.calls, len(worker_steps), view))
    assert counts[0] == counts[1]


def test_a_handle_result_loop_steps_every_iteration():
    gateway = make_cluster(n_replicas=2)
    steps = CountingSteps(gateway.engines())
    handles = [gateway.submit(MODELS[i % N_MODELS], 64, 80 + 10 * i,
                              arrival_s=0.1 * i) for i in range(8)]
    records = [handle.result() for handle in handles]
    assert all(r.finished for r in records)
    assert 200 < iterations(gateway) <= steps.calls
