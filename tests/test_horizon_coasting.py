"""Horizon coasting: an outer drain loop == one ``step()`` per iteration.

The one drain loop (``DrainLoop._drain``) lets a cluster's replicas and a
disagg engine's workers coast up to their parent's next-event time
before stepping them.  The differential tests drain one trace both
ways — ``gateway.replay()``, and reset + ``ingest`` + ``cancel`` +
``while gateway.step(): pass``, which is one iteration per step at every
layer — and require ``==`` record tuples, ``kernel.now``, retired
counts, per-replica / per-worker ``EngineStats`` and clocks, and
autoscaler histories (floats included), over trace kinds, cancel and
deadline schedules, balancers, fleet sizes, autoscalers, both idle-skip
modes and the prefix cache.  The counting tests pin who coasts and who
never does: a layer that publishes or is stepped from outside, and a
disagg or dedicated engine that hears completions (a callback may
inject work "now"), makes exactly one engine ``step()`` per iteration;
a cluster heard on completion coasts each replica only up to the other
replicas' next iteration that is not quiet.  Two fall-throughs the
differentials found are pinned on their own: a step that retired a
fleet member's last request by a due cancel returns False and used to
count as "nothing happened".
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
from repro.serving.gateway import Gateway
from repro.sim import IterationDone
from repro.telemetry import Telemetry
from repro.workload import LengthSampler, session_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest
from test_coasting import CountingSteps as CountingEngineSteps

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
    workers = engine._prefill_pool + engine._decode_pool
    return {"records": [tuple(r) for r in result.records],
            "stats": asdict(engine.stats), "clock": engine.clock,
            "workers": [(w.id, w.role, w.clock, asdict(w.stats))
                        for w in workers],
            "unfinished": engine.unfinished}


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
        assert views[0]["unfinished"] == 0
        assert len(views[0]["records"]) == len(trace)

    def test_a_second_replay_on_the_same_gateway_is_the_first(self):
        trace = make_trace("synthetic", 8.0, 3, deadline_every=3)
        gateway = make_cluster(n_replicas=3)
        first = cluster_view(gateway, gateway.replay(trace))
        assert cluster_view(gateway, stepped(gateway, trace, ())) == first
        assert cluster_view(gateway, gateway.replay(trace)) == first


class TestDisaggDrain:
    @given(TRACES, CANCELS, st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([None, 0.05]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_replay_equals_one_step_per_iteration(
            self, shape, picks, n_prefill, n_decode, quantum, prefix):
        trace = make_trace(*shape)
        assume(len(trace) > 0)
        cancels = cancel_schedule(trace, picks)
        views = []
        for drain in (ServingGateway.replay, stepped):
            gateway = ServingGateway(engine_factory(
                "disagg", quantum, prefix, prefill_workers=n_prefill,
                decode_workers=n_decode)())
            views.append(disagg_view(gateway,
                                     drain(gateway, trace, cancels)))
        assert views[0] == views[1]
        assert views[0]["unfinished"] == 0
        assert len(views[0]["records"]) == len(trace)


# --------------------------------------------------------------------- #
# counting: one engine step() per iteration wherever somebody watches
# --------------------------------------------------------------------- #
class CountingSteps:
    """``step()`` calls summed over some engine instances."""

    def __init__(self, engines):
        self._each = [CountingEngineSteps(engine) for engine in engines]

    @property
    def calls(self):
        return sum(counter.calls for counter in self._each)


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


def test_a_tenant_gateway_over_a_cluster_coasts():
    """Admission hears the cluster on completion: that bounds a replica's
    coast by the other replicas' next finishes, and no longer makes the
    cluster step every iteration.  Same records, far fewer steps."""
    trace = decode_heavy()
    counts = []
    for drain in (TenantGateway.replay, stepped):
        cluster = make_cluster(n_replicas=3)
        gateway = TenantGateway(cluster, tenants=(Tenant("default"),))
        steps = CountingSteps(cluster.engines())
        result = drain(gateway, trace, ())
        assert len(result.records) == len(trace)
        counts.append((steps.calls, iterations(cluster),
                       [tuple(r) for r in result.records]))
    (coasted_steps, total, coasted), (stepped_steps, _, one_by_one) = counts
    assert coasted == one_by_one
    assert total > 1000 and stepped_steps >= total
    assert coasted_steps < total // 3


def test_no_replica_is_stepped_quiet_behind_a_bound_below_its_clock(
        monkeypatch):
    """Under a completion listener each replica coasts up to the other
    replicas' ``_quiet_until()``, which never falls below that replica's
    own clock.  A bound there (an arrival already due, a coast that
    crossed its wake) let the others move one quiet iteration per step:
    98 of 191 steps on this trace admitted and retired nothing.  Since
    finishes coast too, 17 of 65 steps do, and each of them ingests an
    arrival it cannot admit yet: no step is quiet otherwise."""
    counts = {"steps": 0, "quiet": 0, "ingesting": 0}
    inner = ServingEngine.step

    def step(engine):
        batch = engine.batch
        before = (batch.version, engine._n_retired, bool(batch.requests))
        ingests = engine._pending.due(engine.clock)
        moved = inner(engine)
        quiet = before == (batch.version, engine._n_retired, True)
        counts["steps"] += 1
        counts["quiet"] += quiet
        counts["ingesting"] += quiet and ingests
        return moved
    monkeypatch.setattr(ServingEngine, "step", step)
    cluster = make_cluster(n_replicas=3)
    trace = decode_heavy()
    result = TenantGateway(cluster, tenants=(Tenant("default"),)).replay(
        trace)
    assert len(result.records) == len(trace)
    assert (counts["steps"], counts["quiet"]) == (65, 17)
    assert counts["quiet"] == counts["ingesting"]


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


# --------------------------------------------------------------------- #
# counting: the two drain loops do coast
# --------------------------------------------------------------------- #
def test_a_lightly_loaded_cluster_takes_fewer_steps_than_iterations():
    trace = decode_heavy(n=64, seed=5)
    counts = []
    for drain in (ClusterGateway.replay, stepped):
        gateway = make_cluster(n_replicas=4)
        steps = CountingSteps(gateway.engines())
        view = cluster_view(gateway, drain(gateway, trace, ()))
        counts.append((steps.calls, iterations(gateway), view))
    (coasted_steps, total, coasted), (stepped_steps, _, one_by_one) = counts
    assert coasted == one_by_one
    assert total > 1000 and stepped_steps >= total
    assert coasted_steps < total // 3


def test_a_gateway_with_its_own_step_drains_without_coasting():
    """``ScanGateway.step`` never goes through ``_step_replica``, so the
    inherited drain loop has nobody to coast: same records, every
    iteration a step."""
    from test_cluster_frontier import ScanGateway
    trace = decode_heavy()
    want = make_cluster(n_replicas=3)
    want = cluster_view(want, want.replay(trace))
    gateway = ScanGateway(engine_factory=engine_factory(), n_replicas=3,
                          balancer="lineage")
    steps = CountingSteps(gateway.engines())
    assert cluster_view(gateway, gateway.replay(trace)) == want
    assert iterations(gateway) <= steps.calls


def test_a_disagg_drain_coasts_decode_workers_only(monkeypatch):
    steps = {"prefill": 0, "decode": 0}
    inner = ServingEngine.step

    def step(self):
        steps[self.role] += 1
        return inner(self)
    monkeypatch.setattr(ServingEngine, "step", step)
    gateway = ServingGateway(engine_factory(
        "disagg", prefill_workers=2, decode_workers=2)())
    gateway.replay(decode_heavy())
    engine = gateway.engine
    done = {role: sum(w.stats.iterations for w in pool)
            for role, pool in (("prefill", engine._prefill_pool),
                               ("decode", engine._decode_pool))}
    assert done["prefill"] <= steps["prefill"]
    assert done["decode"] > 500 and steps["decode"] < done["decode"] // 2


# --------------------------------------------------------------------- #
# who hears completions: a callback may inject work "now", so a
# cluster coasts a replica only up to the others' next finishes, and a
# disagg or dedicated engine never coasts
# --------------------------------------------------------------------- #
def closed_loop(gateway, drain, n_first=6, n_more=40):
    """Every completion ingests a follow-up arriving at that finish.  A
    replica that had run ahead of it would take the follow-up late."""
    state = {"next": n_first}

    def follow_up(record):
        i = state["next"]
        if i < n_first + n_more:
            state["next"] += 1
            gateway.ingest(TraceRequest(
                request_id=i, model_id=MODELS[i % N_MODELS],
                arrival_s=record.finish_s, prompt_tokens=32 + i % 17,
                output_tokens=20 + (37 * i) % 90))
    gateway.add_completion_listener(follow_up)
    for i in range(n_first):
        gateway.ingest(TraceRequest(
            request_id=i, model_id=MODELS[i % N_MODELS], arrival_s=0.0,
            prompt_tokens=32, output_tokens=30 + 25 * i))
    drain(gateway)
    result = gateway.result()
    assert len(result.records) == n_first + n_more
    return [tuple(r) for r in result.records]


@pytest.mark.parametrize("fleet", ["cluster", "disagg", "dedicated"])
def test_a_closed_loop_drains_as_it_steps_and_does_not_coast(fleet):
    views = []
    for drain in (lambda g: g.run_until_drained(),
                  lambda g: Gateway.run_until_drained(g)):
        if fleet == "cluster":      # round-robin: follow-ups land anywhere
            gateway = make_cluster(n_replicas=3, balancer="round-robin")
            steps = CountingSteps(gateway.engines())
            records = closed_loop(gateway, drain)
            if views:               # one step per turn
                assert iterations(gateway) <= steps.calls
            else:                   # each coast bounded by the other
                #                     replicas' next finishes
                assert steps.calls < iterations(gateway) // 3
            clock = gateway.kernel.now
        elif fleet == "disagg":
            gateway = ServingGateway(engine_factory(
                "disagg", prefill_workers=1, decode_workers=3)())
            steps = CountingSteps(gateway.engine._workers)
            records = closed_loop(gateway, drain)
            assert gateway.engine.stats.iterations <= steps.calls
            clock = gateway.engine.clock
        else:                       # one group per variant, made lazily
            gateway = ServingGateway(engine_factory("dedicated")())
            steps = CountingGroupSteps(gateway.engine)
            records = closed_loop(gateway, drain)
            assert gateway.engine.stats.iterations <= steps.calls
            clock = gateway.engine.clock
        views.append((records, clock))
    assert views[0] == views[1]


class CountingGroupSteps(CountingSteps):
    """``step()`` calls over every group dedicated ``engine`` makes
    (lazily, one per variant)."""

    def __init__(self, engine):
        super().__init__(())
        make = engine._group_for

        def group_for(model_id):
            new = model_id not in engine._groups
            group = make(model_id)
            if new:
                self._each.append(CountingEngineSteps(group))
            return group
        engine._group_for = group_for


@pytest.mark.parametrize("starts", ["submit", "add_token_listener"])
def test_a_listener_a_completion_wires_hears_every_later_token(starts):
    """A leaf engine heard only on completion coasts.  A completion
    callback that starts listening per token (``submit`` wires a handle,
    or a token listener) ends the coasting at once: the drain hears the
    same tokens and makes the same records as ``while gateway.step()``."""
    views = []
    for drain in (lambda g: g.run_until_drained(),
                  lambda g: Gateway.run_until_drained(g)):
        gateway = ServingGateway(engine_factory()())
        heard, handles = [], []

        def on_complete(record):
            if record.request_id != 0:
                return
            if starts == "submit":
                handles.append(gateway.submit(MODELS[1], 32, 60))
            else:
                gateway.add_token_listener(
                    lambda *event: heard.append(event))
        gateway.add_completion_listener(on_complete)
        for i in range(N_MODELS):
            gateway.ingest(TraceRequest(
                request_id=i, model_id=MODELS[i], arrival_s=0.0,
                prompt_tokens=32, output_tokens=20 + 40 * i))
        drain(gateway)
        views.append(([tuple(r) for r in gateway.result().records], heard,
                      [h.token_events for h in handles],
                      asdict(gateway.engine.stats)))
    assert views[0][1] or views[0][2][0]      # the listener heard tokens
    assert views[0] == views[1]


# --------------------------------------------------------------------- #
# the fall-through: a step that only retired something is progress
# --------------------------------------------------------------------- #
def test_a_replica_emptied_by_a_cancel_does_not_let_the_next_one_pass_an_arrival():
    """B's only request is cancelled at 0.3 s while A sits at the end of
    a long prefill (0.57 s); request 2 arrives at 0.5 s.  B's step at
    0.36 s applies the cancel and returns False: the cluster must go back
    through routing, not step A — at a clock past the arrival — first."""
    due = 0.5
    gateway = make_cluster(n_replicas=2, balancer="round-robin")
    for request_id, prompt, arrival_s in ((0, 4000, 0.0), (1, 16, 0.0),
                                          (2, 16, due)):
        gateway.ingest(TraceRequest(
            request_id=request_id, model_id=MODELS[request_id],
            arrival_s=arrival_s, prompt_tokens=prompt, output_tokens=40))
    gateway.cancel(1, at_s=0.3)
    started = []                  # (replica, clock, is request 2 routed?)
    for replica in gateway.replicas:
        def step(replica=replica, inner=replica.engine.step):
            started.append((replica.id, replica.clock, 2 in gateway._owner))
            return inner()
        replica.engine.step = step
    while gateway.step():
        pass
    a, b = gateway.replicas
    assert started[:3] == [(0, 0.0, False), (1, 0.0, False),
                           (1, started[2][1], False)]
    assert 0.3 <= started[2][1] < due <= started[3][1]   # B, then A
    assert [routed for _, clock, routed in started if clock >= due] \
        and all(routed for _, clock, routed in started if clock >= due)
    assert sorted(r.status for r in gateway.result().records) == \
        ["cancelled", "finished", "finished"]


def test_an_expiry_of_the_only_request_in_flight_does_not_end_the_drain():
    """One replica, every third request with a deadline: at the parent
    the step that expired the replica's last request returned False and
    the drain stopped with seven arrivals unrouted."""
    trace = make_trace("synthetic", 1.0, 0, deadline_every=3)
    gateway = make_cluster(n_replicas=1, balancer="round-robin")
    result = gateway.replay(trace)
    assert gateway.unfinished == 0 and len(result.records) == len(trace) == 8
    assert "expired" in {r.status for r in result.records}


# --------------------------------------------------------------------- #
# the disagg drain's exit at max_sim_seconds
# --------------------------------------------------------------------- #
def disagg_with_limit(limit_s, n_decode):
    return create_engine(
        "disagg", make_manager(), GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=6,
                                         max_concurrent_deltas=3),
        engine_config=EngineConfig(tp_degree=1, max_sim_seconds=limit_s),
        prefill_workers=1, decode_workers=n_decode)


def test_the_sim_horizon_stops_a_disagg_drain_where_clock_says():
    """``run_until_drained()`` asks the ``clock`` property only when the
    worker it just advanced cannot vouch for it.  The exit it must not
    miss: with nobody busy, ``clock`` is a pending-only decode worker's
    next arrival — a KV handoff in flight — which passes the limit while
    every raw worker clock is still below it.  Reference: the loop as it
    was, ``clock`` read before every ``step()``, nothing coasting."""
    def requests(n):
        return [TraceRequest(request_id=i, model_id=MODELS[i % 2],
                             arrival_s=0.3 * i, prompt_tokens=512,
                             output_tokens=40) for i in range(n)]

    # where the handoffs are in flight, from an unlimited run
    free = disagg_with_limit(1e9, 1)
    for request in requests(4):
        free.submit(request)
    free.run_until_drained()
    in_flight = [(r.first_token_s, r.first_token_s + r.transfer_s)
                 for r in free.build_result().records]
    assert all(0.0 < a < b for a, b in in_flight)
    mid_handoff = [(a + b) / 2 for a, b in in_flight]

    pending_only_exits = 0
    for n_requests, n_decode in ((1, 1), (4, 1), (4, 2)):
        for limit_s in mid_handoff[:n_requests] + [0.2, 0.7, 1.0, 1.43, 5.0]:
            views = []
            for reference in (False, True):
                engine = disagg_with_limit(limit_s, n_decode)
                for request in requests(n_requests):
                    engine.submit(request)
                if reference:
                    while engine.unfinished > 0 and engine.clock < limit_s \
                            and engine.step():
                        pass
                else:
                    engine.run_until_drained()
                workers = engine._workers
                views.append({
                    "clock": engine.clock, "unfinished": engine.unfinished,
                    "in_transfer": sorted(engine._in_transfer),
                    "workers": [(w.id, w.clock, w.unfinished, asdict(w.stats),
                                 [(r.request_id, r.generated_tokens,
                                   r.inference_s) for r in w.running])
                                for w in workers]})
            assert views[0] == views[1], (n_requests, n_decode, limit_s)
            if engine.unfinished and all(w.clock < limit_s for w in workers
                                         if w.unfinished):
                assert engine.clock >= limit_s and engine._in_transfer
                pending_only_exits += 1
    assert pending_only_exits >= 2
