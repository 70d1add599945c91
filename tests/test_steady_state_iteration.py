"""The steady-state iteration: reuse == re-deciding, bit for bit.

An engine iteration whose running batch and queue did not change since
the last one reuses that iteration's "admit nothing" verdict (keyed by
``(batch.version, scheduler.version)``) and the composition part of its
price (keyed by ``batch.version``), re-pricing only attention.  The
differential tests replay one trace through an engine as shipped and
through one whose memos are dropped before every ``step()`` and require
identical records, ``EngineStats`` and final clocks — over every engine
flavour and every writer that must invalidate a memo.  The structural
tests pin the complexity (calls counted through wrapping subclasses, not
timings), and the sanitizer tests show that a memo that did go stale is
caught the step it is used.
"""

import hashlib
from dataclasses import asdict, replace

import pytest

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_7B, ModelManager,
                           SchedulerConfig, create_engine)
from repro.serving.costs import IterationCostModel
from repro.serving.disagg import DisaggregatedEngine
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.sim.sanitizer import SimSanitizerError, sanitized
from repro.workload import session_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 8
MODELS = [f"variant-{i:02d}" for i in range(N_MODELS)]


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
def manager(kind="delta"):
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in MODELS:
        if kind == "lora":
            mgr.register_lora(model_id, "base", 50_000_000)
        else:
            mgr.register_delta(model_id, "base", 8.0)
    return mgr


def build(name="deltazip", kind="delta", tp=1, gpu="a800", k=8, n=4,
          scheduler=None, **kwargs):
    engine_kwargs = {key: kwargs.pop(key) for key in list(kwargs)
                     if key not in EngineConfig.__dataclass_fields__}
    return create_engine(
        name, manager(kind), GPUNode(node_from_name(gpu, max(1, tp))),
        scheduler_config=scheduler or SchedulerConfig(
            max_batch_requests=k, max_concurrent_deltas=n),
        engine_config=EngineConfig(tp_degree=tp, variant_kind=kind,
                                   **kwargs),
        **engine_kwargs)


def hand_trace(rows):
    """``rows`` of (model index, arrival, prompt, output)."""
    return Trace(requests=[
        TraceRequest(request_id=i, model_id=MODELS[m], arrival_s=arrival,
                     prompt_tokens=prompt, output_tokens=output)
        for i, (m, arrival, prompt, output) in enumerate(rows)],
        model_ids=list(MODELS), duration_s=max(r[1] for r in rows) + 1.0)


def memo_holders(engine):
    if isinstance(engine, DisaggregatedEngine):
        return engine._prefill_pool + engine._decode_pool
    return [engine]


def drop_memos(engine):
    for holder in memo_holders(engine):
        holder._idle_admit_key = None
        holder._steady_version = -1


class Calls:
    """Class-level call counters for the two layers a reuse skips.  A
    composition is counted at ``rows_plan``, the step every plan passes
    through (``linear_plan`` and a chunked prefill's slabs alike)."""

    def __init__(self, monkeypatch):
        self.schedule = self.rows_plan = self.plan_time = 0
        for cls, attr in ((ContinuousBatchScheduler, "schedule"),
                          (IterationCostModel, "rows_plan"),
                          (IterationCostModel, "plan_time")):
            monkeypatch.setattr(cls, attr,
                                self._counting(attr, getattr(cls, attr)))

    def _counting(self, attr, inner):
        def counted(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return inner(*args, **kwargs)
        return counted

    def snapshot(self):
        return self.schedule, self.rows_plan, self.plan_time


def replay(scenario, forget):
    """Submit the scenario's trace and step to the end, poking the
    engine where the scenario asks to.  Returns what must not depend on
    the memos."""
    engine, trace, poke = scenario()
    for request in trace:
        engine.submit(request)
    steps = 0
    seen = {}
    while True:
        if forget:
            drop_memos(engine)
        if poke is not None:
            poke(engine, steps, seen)
        if not engine.step():
            break
        steps += 1
        assert steps < 100_000
    records = engine.build_result().records
    digest = hashlib.sha256(repr([tuple(r) for r in records]).encode())
    return {"digest": digest.hexdigest(), "stats": asdict(engine.stats),
            "clock": engine.clock, "steps": steps,
            "n_records": len(records), "unfinished": engine.unfinished,
            "statuses": sorted({r.status for r in records})}, seen


def assert_reuse_changes_nothing(scenario, monkeypatch, sanitize):
    calls = Calls(monkeypatch)
    with sanitized(sanitize):
        shipped, seen = replay(scenario, forget=False)
        reused = calls.snapshot()
        forgetful, _ = replay(scenario, forget=True)
    assert shipped == forgetful
    assert shipped["unfinished"] == 0 and shipped["n_records"] > 0
    schedule, compositions, plan_time = reused
    redone = tuple(b - a for a, b in zip(reused, calls.snapshot()))
    # every priced iteration runs plan_time once; the forgetful run
    # composed (rows_plan) each afresh, the shipped run reused the
    # plan of an unchanged batch (sanitized or not) ...
    assert plan_time > compositions
    assert redone[2] == redone[1]
    if not sanitize:
        # ... and decided fewer admissions than it ran iterations
        assert schedule < redone[0] and compositions < redone[1]
    return shipped, seen, schedule


SANITIZE = pytest.mark.parametrize("sanitize", [False, True],
                                   ids=["plain", "sanitized"])


# --------------------------------------------------------------------- #
# differential: every engine flavour
# --------------------------------------------------------------------- #
@SANITIZE
@pytest.mark.parametrize("tp", [1, 4])
@pytest.mark.parametrize("kind", ["delta", "lora", "none"])
def test_variant_kinds_and_tp(kind, tp, monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=1.5, duration_s=25.0, seed=3)
        return build(kind=kind, tp=tp), trace, None
    assert_reuse_changes_nothing(scenario, monkeypatch, sanitize)


@SANITIZE
def test_prefix_cache(monkeypatch, sanitize):
    def scenario():
        trace = session_trace(4, rate=2.0, duration_s=20.0, seed=1,
                              mean_turns=3.0, think_time_s=2.0,
                              shared_prefix_tokens=64)
        assert set(trace.model_ids) <= set(MODELS)
        return build(k=4, n=2, prefix_cache=True), trace, None
    shipped, _, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                 sanitize)
    assert shipped["stats"]["prefix_hits"] > 0


@SANITIZE
def test_sharded_two_nodes(monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=1.5, duration_s=20.0, seed=5)
        engine = build("sharded", tp=2, gpu="a800", n_nodes=2)
        assert engine._n_nodes == 2            # the surcharge path runs
        return engine, trace, None
    assert_reuse_changes_nothing(scenario, monkeypatch, sanitize)


@SANITIZE
def test_disagg_chunked_prefill_and_decode_pool(monkeypatch, sanitize):
    def scenario():
        rows = [(i % 4, 0.4 * i, 90 + 37 * (i % 5), 20 + 11 * (i % 7))
                for i in range(40)]
        engine = build("disagg", prefill_workers=1, decode_workers=2,
                       prefill_chunk_tokens=64)
        return engine, hand_trace(rows), None
    shipped, _, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                 sanitize)
    assert shipped["stats"]["kv_transfers"] == 40


# --------------------------------------------------------------------- #
# differential: every writer that must move a version or drop a memo
# --------------------------------------------------------------------- #
@SANITIZE
@pytest.mark.parametrize("mode", ["swap", "recompute"])
def test_preemption_reinserts(mode, monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=20.0, seed=2)
        return build(k=4, n=2, preempt_mode=mode), trace, None
    shipped, _, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                 sanitize)
    assert shipped["stats"]["preemptions"] > 0


@SANITIZE
def test_model_priorities(monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=20.0, seed=4)
        scheduler = SchedulerConfig(
            max_batch_requests=4, max_concurrent_deltas=2,
            model_priorities={MODELS[5]: 3, MODELS[6]: 1})
        return build(scheduler=scheduler), trace, None
    assert_reuse_changes_nothing(scenario, monkeypatch, sanitize)


@SANITIZE
def test_cancel_mid_batch_and_in_queue(monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=20.0, seed=6)

        def poke(engine, step, seen):
            # one cancel of each kind, each landing on an engine whose
            # batch and queue did not change over the previous step
            pair = (engine.batch.version, engine.scheduler.version)
            steady = seen.get("pair") == pair
            seen["pair"] = pair
            if not steady or step < 30:
                return
            if "running" not in seen and len(engine.running) > 1:
                seen["running"] = engine.running[1].request_id
            elif "queued" not in seen and len(engine.scheduler) > 1:
                seen["queued"] = engine.scheduler.queued[1].request_id
            else:
                return
            seen.setdefault("standing", []).append(
                engine._idle_admit_key == pair)
            victim = seen.get("queued", seen["running"])
            assert engine.abort(victim) is not None
        return build(k=4, n=2), trace, poke
    shipped, seen, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                    sanitize)
    assert {"running", "queued"} <= set(seen)
    assert seen["standing"] == [True, True]      # both hit a live memo
    assert shipped["stats"]["aborts"] == 2


@SANITIZE
def test_deadline_expiry(monkeypatch, sanitize):
    def scenario():
        trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=20.0, seed=7)
        trace = Trace(
            requests=[replace(r, deadline_s=r.arrival_s + 1.5 + i % 4)
                      if i % 3 == 0 else r for i, r in enumerate(trace)],
            model_ids=trace.model_ids, duration_s=trace.duration_s)
        return build(k=4, n=2), trace, None
    shipped, _, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                 sanitize)
    assert "expired" in shipped["statuses"]


@SANITIZE
def test_receive_delta(monkeypatch, sanitize):
    def scenario():
        # the migrated variant's first request arrives after the
        # migration landed, while other variants are mid-decode
        rows = [(i % 3, 0.2 * i, 40, 60) for i in range(9)]
        rows += [(7, 4.0 + 0.5 * i, 40, 30) for i in range(4)]

        def poke(engine, step, seen):
            if step == 5:
                seen["wire_s"] = engine.receive_delta(MODELS[7],
                                                      engine.clock)
        return build(), hand_trace(rows), poke
    shipped, seen, _ = assert_reuse_changes_nothing(scenario, monkeypatch,
                                                    sanitize)
    assert seen["wire_s"] > 0.0 and shipped["stats"]["swap_ins"] == 4


@SANITIZE
def test_deep_queue_blocked_by_the_delta_limit(monkeypatch, sanitize):
    def scenario():
        # one variant decodes for a long time while 40 requests of other
        # variants wait behind N=1: schedule() would walk all of them,
        # admit none, every step
        rows = [(0, 0.0, 32, 300)]
        rows += [(1 + i % 7, 0.01 + 0.001 * i, 32, 12) for i in range(40)]

        def poke(engine, step, seen):
            seen["depth"] = max(seen.get("depth", 0), len(engine.scheduler))
        return build(k=32, n=1), hand_trace(rows), poke

    shipped, seen, schedule_calls = assert_reuse_changes_nothing(
        scenario, monkeypatch, sanitize)
    assert seen["depth"] == 40
    assert shipped["stats"]["blocked_admissions"] == 0
    assert shipped["steps"] > 300
    if not sanitize:
        # 300 iterations behind the long decode; the queue is walked only
        # when an arrival or a retirement changed what it could decide
        assert schedule_calls < 120


def kv_starved(output_tokens=40):
    """Two requests of one variant on a 24 GB card, of which only one
    request's context fits the KV budget at a time."""
    engine = build(gpu="rtx3090", k=8, n=4)
    budget = int((engine._usable - engine._base_bytes
                  - engine.manager.get(MODELS[0]).nbytes)
                 // engine._kv_per_token)
    prompt = budget * 2 // 3
    rows = [(0, 0.0, prompt, output_tokens), (0, 0.0, prompt, output_tokens)]
    return engine, hand_trace(rows), None


@SANITIZE
def test_queue_blocked_by_the_kv_budget(monkeypatch, sanitize):
    shipped, _, _ = assert_reuse_changes_nothing(kv_starved, monkeypatch,
                                                 sanitize)
    # rejected again on every iteration the first request was decoding
    assert shipped["stats"]["blocked_admissions"] >= 39


def test_kv_blocked_admission_is_never_memoized():
    with sanitized(False):
        engine, trace, _ = kv_starved()
        for request in trace:
            engine.submit(request)
        assert engine.step() and len(engine.running) == 1
        for expected in range(2, 30):
            assert engine.step()
            assert len(engine.scheduler) == 1
            assert engine.stats.blocked_admissions == expected
            # the verdict "admitted one, then had to drop it" moved the
            # queue version twice, and is not an empty verdict anyway
            assert engine._idle_admit_key != (engine.batch.version,
                                              engine.scheduler.version)


# --------------------------------------------------------------------- #
# structure: a steady decode is O(1) above the token loop
# --------------------------------------------------------------------- #
class CountingScheduler(ContinuousBatchScheduler):
    def __init__(self, config):
        super().__init__(config)
        self.schedule_calls = 0

    def schedule(self, running, resident_deltas):
        self.schedule_calls += 1
        return super().schedule(running, resident_deltas)


class CountingCostModel(IterationCostModel):
    plan_calls = 0
    attention_calls = 0

    def linear_plan(self, batch, variant_kind="delta"):
        self.plan_calls += 1
        return super().linear_plan(batch, variant_kind)

    def plan_time(self, plan, context_tokens):
        self.attention_calls += 1
        return super().plan_time(plan, context_tokens)


@pytest.mark.parametrize("name,extra", [("deltazip", {}),
                                        ("sharded", {"n_nodes": 2})])
def test_one_long_decode_decides_and_composes_a_constant_number_of_times(
        name, extra):
    with sanitized(False):
        tp = 2 if name == "sharded" else 1
        engine = build(name, tp=tp, **extra)
        engine.scheduler = CountingScheduler(engine.scheduler_config)
        engine.cost = CountingCostModel(
            spec=engine.manager.spec, gpu=engine.node.gpu_spec,
            tp_degree=engine.config.tp_degree)
        engine.submit(TraceRequest(request_id=0, model_id=MODELS[0],
                                   arrival_s=0.0, prompt_tokens=64,
                                   output_tokens=200))
        steps = 0
        while engine.step():
            steps += 1
    assert engine.unfinished == 0 and engine.stats.iterations == 200
    assert steps == 200
    # prefill iteration, first pure-decode iteration, then the memos
    assert engine.scheduler.schedule_calls <= 3
    assert engine.cost.plan_calls <= 3
    # what is left per iteration is the attention re-pricing
    assert engine.cost.attention_calls == 200


def test_scheduler_version_moves_on_every_queue_mutation_and_only_then():
    from repro.serving.base import RunningBatch
    from repro.serving.request import ServingRequest

    def request(rid, model):
        return ServingRequest(trace=TraceRequest(
            request_id=rid, model_id=model, arrival_s=float(rid),
            prompt_tokens=8, output_tokens=4))

    sched = ContinuousBatchScheduler(SchedulerConfig(2, 1))
    a, b, c = request(0, "a"), request(1, "b"), request(2, "a")
    versions = [sched.version]

    def moved():
        versions.append(sched.version)
        return versions[-1] != versions[-2]

    sched.add(a)
    assert moved()
    sched.add(b)
    assert moved()
    sched.add(c)
    assert moved()
    assert sched.remove(99) is None and not moved()      # a miss
    assert sched.remove(1) is b and moved()              # a hit
    sched.reinsert(b)
    assert moved()
    batch = RunningBatch()
    decision = sched.schedule(batch, [])
    assert [r.request_id for r in decision.admitted] == [0, 2] and moved()
    for req in decision.admitted:
        batch.join(req)
    # N=1 blocks "b" behind the running "a"s: nothing admitted, queue
    # untouched, version stands
    assert not sched.schedule(batch, []).admitted and not moved()
    full = RunningBatch([request(7, "b"), request(8, "b")])
    assert not sched.schedule(full, []).admitted and not moved()


# --------------------------------------------------------------------- #
# sanitizer: a stale memo is caught the step it is used
# --------------------------------------------------------------------- #
class TestSanitizer:
    @staticmethod
    def steady_engine():
        engine = build(k=8, n=4)
        engine.submit(TraceRequest(request_id=0, model_id=MODELS[0],
                                   arrival_s=0.0, prompt_tokens=32,
                                   output_tokens=100))
        for _ in range(5):
            assert engine.step()
        assert engine._idle_admit_key == (engine.batch.version,
                                          engine.scheduler.version)
        assert engine._steady_version == engine.batch.version
        assert engine._steady_plan is not None
        return engine

    def test_stale_verdict_names_engine_and_part(self):
        with sanitized():
            engine = self.steady_engine()
            engine.submit(TraceRequest(request_id=1, model_id=MODELS[1],
                                       arrival_s=0.0, prompt_tokens=32,
                                       output_tokens=8))
            # a queue writer that forgot to move the version
            real_insert = engine.scheduler._insert

            def silent_insert(request):
                real_insert(request)
                engine.scheduler.version -= 1
            engine.scheduler._insert = silent_insert
            with pytest.raises(SimSanitizerError,
                               match=r"'deltazip'.*admission verdict.*"
                                     r"admits \[1\]"):
                engine.step()

    def test_stale_residency_is_a_stale_verdict(self):
        with sanitized():
            engine = self.steady_engine()
            engine._resident.clear()       # behind admit's back
            with pytest.raises(SimSanitizerError,
                               match=r"admission verdict.*loads "
                                     r"\['variant-00'\]"):
                engine.step()

    def test_stale_plan_names_engine_and_part(self):
        with sanitized():
            engine = self.steady_engine()
            engine._steady_plan = engine._steady_plan._replace(
                linear_s=engine._steady_plan.linear_s * (1.0 + 2 ** -50))
            with pytest.raises(SimSanitizerError,
                               match=r"'deltazip'.*linear-pass plan"):
                engine.step()

    def test_membership_change_behind_the_ledger_is_a_stale_plan(self):
        with sanitized():
            engine = self.steady_engine()
            engine.batch.per_model[MODELS[0]] += 1
            with pytest.raises(SimSanitizerError, match="linear-pass plan"):
                engine.step()

    def test_checks_are_absent_when_the_sanitizer_is_off(self):
        with sanitized(False):
            engine = self.steady_engine()
            engine._resident.clear()
            engine._steady_plan = engine._steady_plan._replace(linear_s=1.0)
            assert engine.step()


# --------------------------------------------------------------------- #
# disagg satellites: hooks are wired on change, clock scans in place
# --------------------------------------------------------------------- #
class TestDisaggHookWiring:
    @staticmethod
    def engine_and_trace():
        rows = [(i % 4, 0.3 * i, 48, 12) for i in range(12)]
        engine = build("disagg", prefill_workers=1, decode_workers=1)
        return engine, hand_trace(rows)

    def test_workers_are_rewired_only_when_the_owner_hooks_change(
            self, monkeypatch):
        engine, trace = self.engine_and_trace()
        wired = []
        inner = DisaggregatedEngine._wire_hooks
        monkeypatch.setattr(
            DisaggregatedEngine, "_wire_hooks",
            lambda self, worker: (wired.append(worker.name),
                                  inner(self, worker))[1])
        for request in trace:
            engine.submit(request)
        for _ in range(10):
            assert engine.step()
        assert wired == []                       # nothing changed
        events = []
        engine.on_event = events.append
        assert engine.step()
        assert sorted(wired) == ["disagg.decode1", "disagg.prefill0"]
        for _ in range(10):
            engine.step()
        assert len(wired) == 2 and events
        assert all(w.on_event == events.append for w in memo_holders(engine))
        engine.on_token = lambda req, clock_s: None
        engine.step()
        assert len(wired) == 4
        assert all(w.on_token is not None for w in memo_holders(engine))
        engine.on_event = None
        engine.step()
        assert len(wired) == 6
        assert not any(w.on_event for w in memo_holders(engine))

    def test_clock_matches_the_list_building_definition(self):
        def reference(engine):
            workers = engine._prefill_pool + engine._decode_pool
            active = [w.clock for w in workers
                      if w.running or w.backlog > 0]
            if active:
                return min(active)
            waiting = []
            for w in workers:
                if w.unfinished > 0:
                    nxt = w._pending.peek_time()
                    waiting.append(w.clock if nxt is None
                                   else max(w.clock, nxt))
            if waiting:
                return min(waiting)
            return max(w.clock for w in workers)

        rows = [(i % 4, 1.5 * i, 48, 6 + i % 5) for i in range(20)]
        engine = build("disagg", prefill_workers=2, decode_workers=2,
                       idle_quantum_s=0.05)
        assert engine.clock == reference(engine) == 0.0
        for request in hand_trace(rows):
            engine.submit(request)
        branches = set()
        while True:
            workers = engine._prefill_pool + engine._decode_pool
            busy = any(w.running or w.backlog > 0 for w in workers)
            branches.add("busy" if busy else "waiting"
                         if any(w.unfinished for w in workers) else "idle")
            assert engine.clock == reference(engine)
            if not engine.step():
                break
        assert branches == {"busy", "waiting", "idle"}
