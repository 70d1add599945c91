"""The running-batch ledger: incremental totals == brute-force recomputation.

Every engine iteration reads its KV footprint, per-variant decode rows and
active-variant set from :class:`~repro.serving.base.RunningBatch` instead
of rescanning the batch, so the ledger must agree with the request objects
after every join / lockstep advance / leave — through preemption and
reinsert, cancel-while-running and recompute resume, on every engine kind.
The batch is also the epoch ledger its members' ``generated_tokens`` and
``inference_s`` are derived from: a differential test holds it against the
eager loop it replaced (``+= 1`` and ``+= iter_time`` per member per
iteration), floats compared with ``==``.
The scheduler half checks that the lazily built parent links, the
empty-queue early exit and the head-pop queue update decide exactly what
the eager, rebuild-everything scheduler decided.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_7B, ModelManager,
                           SchedulerConfig, create_engine)
from repro.serving import base
from repro.serving.base import ENGINES, RunningBatch
from repro.serving.request import RequestState, ServingRequest
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.sim.sanitizer import SimSanitizerError, sanitized
from repro.workload import session_trace
from repro.workload.spec import TraceRequest

REPO = Path(__file__).resolve().parent.parent


def make_request(rid, model, arrival=0.0, prompt=8, output=4):
    return ServingRequest(trace=TraceRequest(
        request_id=rid, model_id=model, arrival_s=arrival,
        prompt_tokens=prompt, output_tokens=output))


def recomputed(requests):
    per_model = {}
    for r in requests:
        per_model[r.model_id] = per_model.get(r.model_id, 0) + 1
    return {"context_tokens": sum(r.context_length for r in requests),
            "cached_prefix_tokens": sum(r.cached_prefix_tokens
                                        for r in requests),
            "per_model": per_model}


def assert_ledger_exact(batch):
    want = recomputed(batch.requests)
    assert batch.context_tokens == want["context_tokens"]
    assert batch.cached_prefix_tokens == want["cached_prefix_tokens"]
    assert batch.per_model == want["per_model"]
    assert all(batch.per_model.values())           # zero entries deleted
    assert len({id(r) for r in batch.requests}) == len(batch.requests)


# --------------------------------------------------------------------- #
# the ledger on its own
# --------------------------------------------------------------------- #
class TestLedgerOps:
    @given(st.lists(st.tuples(st.sampled_from(["join", "advance", "leave"]),
                              st.integers(0, 10 ** 6)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_ops_match_recomputation(self, ops):
        batch = RunningBatch()
        next_id = 0
        for op, pick in ops:
            version = batch.version
            if op == "join":
                req = make_request(next_id, f"m{pick % 4}",
                                   prompt=1 + pick % 97, output=10 ** 9)
                # preempted/handed-off requests join mid-generation, and
                # prefix hits carry cached tokens
                req.generated_tokens = pick % 5
                req.cached_prefix_tokens = (pick % 3) * 16
                next_id += 1
                batch.join(req)
                assert batch.version == version + 1
                assert batch.requests[-1] is req
            elif op == "advance":
                batch.advance()
                assert batch.version == version
            elif batch.requests:
                batch.leave(batch.requests[pick % len(batch.requests)])
                assert batch.version == version + 1
            assert_ledger_exact(batch)

    @given(st.lists(st.tuples(
        st.sampled_from(["join", "rejoin", "advance", "advance", "advance",
                         "leave"]),
        st.integers(0, 10 ** 6), st.floats(1e-4, 0.25)),
        min_size=1, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_epoch_ledger_matches_the_eager_loop(self, ops):
        """Random join / advance(iter_time) / leave / re-join sequences
        against the loop the ledger replaced.  ``eager`` maps every
        request ever made to ``[generated_tokens, inference_s]``, updated
        per member per iteration; after every op each request — member or
        not — must read the same, the finishers must come out in batch
        order, and the log (trimmed every 4 entries here) must cover every
        member's join epoch without outliving the oldest by more than 4."""
        with mock.patch.object(base, "_LOG", 4):
            batch = RunningBatch()
            eager, outside, oldest_seen = {}, [], 0
            for op, pick, iter_time in ops:
                if op == "join":
                    req = make_request(len(eager), f"m{pick % 3}",
                                       prompt=1 + pick % 50,
                                       output=1 + pick % 9)
                    req.generated_tokens = pick % 3
                    req.inference_s = (pick % 7) * 0.125
                    eager[req] = [req.generated_tokens, req.inference_s]
                    batch.join(req)
                elif op == "rejoin" and outside:
                    # a preempted request comes back with what it had
                    batch.join(outside.pop(pick % len(outside)))
                elif op == "advance":
                    expected = []
                    for req in batch.requests:
                        eager[req][0] += 1
                        eager[req][1] += iter_time
                        if eager[req][0] >= req.output_tokens:
                            expected.append(req)
                    finished = batch.advance(iter_time)
                    assert finished == expected          # identity, in order
                    for req in finished:
                        assert req.done and req in batch.requests
                        batch.leave(req)
                elif op == "leave" and batch.requests:
                    req = batch.requests[pick % len(batch.requests)]
                    batch.leave(req)
                    outside.append(req)
                for req, (tokens, inference_s) in eager.items():
                    assert req.generated_tokens == tokens
                    assert req.inference_s == inference_s    # bit for bit
                    assert req.context_length == req.prompt_tokens + tokens
                    assert req.remaining_tokens == req.output_tokens - tokens
                    assert req.done == (tokens >= req.output_tokens)
                assert_ledger_exact(batch)
                joins = [r._join_epoch for r in batch.requests]
                assert len(batch._log) == batch.epoch - batch._log_base
                assert batch._log_base <= min(joins, default=batch.epoch)
                oldest_seen = max(oldest_seen,
                                  batch.epoch - min(joins,
                                                    default=batch.epoch))
                assert len(batch._log) <= oldest_seen + 4
                # the finish buckets hold the members, each once, ahead
                waiting = [r for due in batch._finish.values() for r in due]
                assert sorted(map(id, waiting)) == \
                    sorted(map(id, batch.requests))
                assert all(due > batch.epoch for due in batch._finish)

    def test_values_are_writable_outside_a_batch_only(self):
        req = make_request(0, "m", output=8)
        req.generated_tokens, req.inference_s = 2, 0.5
        batch = RunningBatch([req])
        batch.advance(0.25)
        assert (req.generated_tokens, req.inference_s) == (3, 0.75)
        with pytest.raises(AttributeError, match="inference_s of request 0"):
            req.inference_s = 0.0
        batch.leave(req)
        req.inference_s += 0.25                      # plain again
        req.generated_tokens += 1
        assert (req.generated_tokens, req.inference_s) == (4, 1.0)

    def test_constructible_from_a_list_in_order(self):
        reqs = [make_request(0, "b"), make_request(1, "a"),
                make_request(2, "b")]
        batch = RunningBatch(reqs)
        assert batch.requests == reqs and len(batch) == 3
        assert list(batch.per_model.items()) == [("b", 2), ("a", 1)]
        assert batch.context_tokens == 24

    def test_per_model_order_is_order_of_reentry(self):
        a, b, a2 = (make_request(0, "a"), make_request(1, "b"),
                    make_request(2, "a"))
        batch = RunningBatch([a, b])
        batch.leave(a)                 # "a" hits zero: entry deleted
        batch.join(a2)                 # ...and re-enters behind "b"
        assert list(batch.per_model) == ["b", "a"]

    def test_leave_is_by_identity(self):
        twin_a, twin_b = make_request(7, "m"), make_request(7, "m")
        batch = RunningBatch([twin_a, twin_b])
        batch.leave(twin_b)
        assert batch.requests == [twin_a] and batch.requests[0] is twin_a
        with pytest.raises(ValueError):
            batch.leave(twin_b)


# --------------------------------------------------------------------- #
# the ledger inside every engine kind
# --------------------------------------------------------------------- #
def build_engine(kind, seed):
    """(engine, trace) for one of the four ledger users."""
    node = GPUNode(node_from_name("a800", 1))
    trace = session_trace(4, rate=3.0, duration_s=20.0, seed=seed,
                          mean_turns=3.0, think_time_s=2.0,
                          shared_prefix_tokens=64)
    name = {"scb": "vllm-scb", "disagg": "disagg"}.get(kind, "deltazip")
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in trace.model_ids:
        ENGINES[name].register_variant(mgr, model_id, "base", 8.0)
    kwargs = {"prefill_workers": 1, "decode_workers": 2} \
        if kind == "disagg" else {}
    engine = create_engine(
        name, mgr, node,
        scheduler_config=SchedulerConfig(max_batch_requests=4,
                                         max_concurrent_deltas=2),
        engine_config=EngineConfig(
            tp_degree=1,
            preempt_mode="recompute" if kind == "recompute" else "swap",
            prefix_cache=kind in ("prefix", "disagg")),
        **kwargs)
    return engine, trace


def ledgers_of(engine):
    if engine.name == "disagg":
        return [w.batch for w in engine._prefill_pool + engine._decode_pool]
    return [engine.batch]


@pytest.mark.parametrize("kind", ["deltazip", "recompute", "scb", "prefix",
                                  "disagg"])
def test_engine_ledger_matches_recomputation_every_step(kind):
    seen = {"preemptions": 0, "cancelled_running": 0, "cached": 0,
            "handed_off": 0, "steps": 0}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        with sanitized():                  # the engine re-checks itself too
            engine, trace = build_engine(kind, seed)
            for request in trace:
                engine.submit(request)
            while engine.step():
                seen["steps"] += 1
                for batch in ledgers_of(engine):
                    assert_ledger_exact(batch)
                    assert all(r.state is RequestState.RUNNING
                               for r in batch.requests)
                    seen["cached"] += batch.cached_prefix_tokens
                if kind == "disagg":
                    # decode workers admit requests the owner seeded at
                    # generated_tokens = 1 (the prefill pool's token)
                    seen["handed_off"] += sum(
                        len(w.batch) for w in engine._decode_pool)
                running = [r for b in ledgers_of(engine)
                           for r in b.requests]
                if running and rng.random() < 0.05:
                    victim = running[int(rng.integers(len(running)))]
                    assert engine.abort(victim.request_id) is not None
                    seen["cancelled_running"] += 1
                    for batch in ledgers_of(engine):
                        assert victim not in batch.requests
                        assert_ledger_exact(batch)
            assert engine.unfinished == 0
            for batch in ledgers_of(engine):
                assert not batch.requests and not batch.per_model
                assert batch.context_tokens == 0
                assert batch.cached_prefix_tokens == 0
        seen["preemptions"] += engine.stats.preemptions \
            if engine.include_stats else 0
    # the sequences above were not vacuous
    assert seen["steps"] > 100 and seen["cancelled_running"] > 0
    if kind in ("deltazip", "recompute", "prefix"):
        assert seen["preemptions"] > 0     # leave + reinsert + rejoin
    if kind in ("prefix", "disagg"):
        assert seen["cached"] > 0
    if kind == "disagg":
        assert seen["handed_off"] > 0


class TestSanitizerCheck:
    def running_engine(self):
        engine, trace = build_engine("deltazip", seed=0)
        for request in trace:
            engine.submit(request)
        while not engine.running:
            assert engine.step()
        return engine

    def test_token_drift_names_field_and_engine(self):
        with sanitized():
            engine = self.running_engine()
            engine.running[0].generated_tokens += 3   # behind the ledger
            with pytest.raises(SimSanitizerError,
                               match=r"'deltazip'.*context_tokens"):
                engine.step()

    def test_per_model_drift(self):
        with sanitized():
            engine = self.running_engine()
            engine.batch.per_model[engine.running[0].model_id] += 1
            with pytest.raises(SimSanitizerError, match="per_model"):
                engine.step()

    def test_membership_drift(self):
        with sanitized():
            engine = self.running_engine()
            engine.batch.requests.append(engine.batch.requests[0])
            with pytest.raises(SimSanitizerError, match="membership"):
                engine.step()

    def test_check_is_absent_when_sanitizer_is_off(self):
        with sanitized(False):
            engine = self.running_engine()
            engine.batch.per_model[engine.running[0].model_id] += 1
            assert engine.step()

    def test_running_is_not_assignable(self):
        engine = self.running_engine()
        with pytest.raises(AttributeError):
            engine.running = []


# --------------------------------------------------------------------- #
# scheduler: same decisions as the eager, rebuild-everything version
# --------------------------------------------------------------------- #
def eager_schedule(config, queue, running, resident):
    """The scheduler as it was before the ledger (FCFS path), verbatim:
    parent links built up front from a scan of ``running``, the queue
    rebuilt on every call.  Returns (admitted, still_queued, selected,
    new_deltas) and marks skipped_line / parent_id on the requests."""
    key = ContinuousBatchScheduler._fcfs_key
    selected = {r.model_id for r in running}
    capacity = config.max_batch_requests - len(running)
    if capacity <= 0:
        return [], list(queue), selected, []
    parent_of = {}
    for req in running:
        cur = parent_of.get(req.model_id)
        if cur is None or key(req) < key(cur):
            parent_of[req.model_id] = req
    admitted, still_queued, blocked_seen = [], [], False
    for i, req in enumerate(queue):
        if capacity <= 0:
            still_queued.extend(queue[i:])
            break
        delta = req.model_id
        if not (delta in selected
                or len(selected) < config.max_concurrent_deltas):
            blocked_seen = True
            still_queued.append(req)
            continue
        selected.add(delta)
        admitted.append(req)
        capacity -= 1
        if blocked_seen:
            req.skipped_line = True
            parent = parent_of.get(delta)
            if parent is not None and config.preemption:
                req.parent_id = parent.request_id
        if delta not in parent_of:
            parent_of[delta] = req
    return (admitted, still_queued, selected,
            sorted(d for d in selected if d not in set(resident)))


def decision_view(admitted, queued, selected, new_deltas):
    return ([(r.request_id, r.skipped_line, r.parent_id) for r in admitted],
            [r.request_id for r in queued], sorted(selected), new_deltas)


class TestSchedulerEquivalence:
    @given(st.lists(st.integers(0, 5), max_size=24),
           st.lists(st.integers(0, 5), max_size=6),
           st.integers(1, 8), st.integers(1, 4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_decision_as_the_eager_scheduler(self, queued, running,
                                                  k, n, preemption):
        config = SchedulerConfig(k, n, preemption=preemption)
        views = []
        for use_new in (False, True):
            # running requests arrived earlier *and* later than queued
            # ones, so the earliest-per-variant parent is not the first
            batch = [make_request(100 + i, f"m{pick}",
                                  arrival=float((7 * i) % 5))
                     for i, pick in enumerate(running)]
            queue = [make_request(i, f"m{pick}", arrival=1.0 + i)
                     for i, pick in enumerate(queued)]
            resident = ["m0", "m3"]
            if use_new:
                sched = ContinuousBatchScheduler(config)
                for req in queue:
                    sched.add(req)
                decision = sched.schedule(RunningBatch(batch), resident)
                views.append(decision_view(
                    decision.admitted, sched.queued,
                    decision.selected_deltas, decision.new_deltas))
            else:
                views.append(decision_view(
                    *eager_schedule(config, queue, batch, resident)))
        assert views[0] == views[1]

    def test_empty_queue_exits_early_with_the_running_variants(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 4))
        batch = RunningBatch([make_request(0, "a"), make_request(1, "b")])
        decision = sched.schedule(batch, ["a"])
        assert decision.admitted == []
        assert decision.selected_deltas == {"a", "b"}
        assert decision.new_deltas == ["b"]      # still reported

    def test_parent_is_the_earliest_running_request_of_the_variant(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        late = make_request(0, "m0", arrival=9.0)
        early = make_request(1, "m0", arrival=2.0)
        batch = RunningBatch([late, early, make_request(2, "m1")])
        sched.add(make_request(3, "m2", arrival=10.0))   # blocked: N=2
        sched.add(make_request(4, "m0", arrival=11.0))   # skips the line
        decision = sched.schedule(batch, ["m0", "m1"])
        assert [r.request_id for r in decision.admitted] == [4]
        assert decision.admitted[0].parent_id == early.request_id

    def test_head_pop_and_blocked_rebuild_leave_the_same_queue(self):
        """Admitting the head pops it in place; admitting past a blocked
        request rebuilds the queue.  Either way the queue is what a
        filter of the old queue by 'not admitted' gives."""
        for blocked_first in (False, True):
            sched = ContinuousBatchScheduler(SchedulerConfig(3, 1))
            models = (["x"] if blocked_first else []) + ["a"] * 5 + ["x"]
            for rid, model in enumerate(models):
                sched.add(make_request(rid, model, arrival=float(rid)))
            before = sched.queued
            batch = RunningBatch([make_request(99, "a", arrival=-1.0)])
            decision = sched.schedule(batch, ["a"])
            assert len(decision.admitted) == 2       # K=3, one running
            assert all(r.skipped_line == blocked_first
                       for r in decision.admitted)
            assert sched.queued == [r for r in before
                                    if r not in decision.admitted]

    def test_nothing_admitted_leaves_the_queue_object_alone(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 1))
        sched.add(make_request(0, "x"))
        queue = sched._queue
        sched.schedule(RunningBatch([make_request(9, "a")]), ["a"])
        assert sched._queue is queue and len(sched) == 1


# --------------------------------------------------------------------- #
# LRU order no longer depends on the hash seed
# --------------------------------------------------------------------- #
HASHSEED_SCRIPT = r"""
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_13B, ModelManager,
                           SchedulerConfig, create_engine)
from repro.workload import azure_like_trace

trace = azure_like_trace(12, rate=4.0, duration_s=40.0, seed=5)
mgr = ModelManager(LLAMA_13B)
mgr.register_base("base")
for model_id in trace.model_ids:
    mgr.register_delta(model_id, "base", 2.0)    # 13 GB deltas: 3 fit
engine = create_engine(
    "deltazip", mgr, GPUNode(node_from_name("a800", 1)),
    scheduler_config=SchedulerConfig(max_batch_requests=16,
                                     max_concurrent_deltas=3),
    engine_config=EngineConfig(tp_degree=1))
result = engine.run(trace)
digest = hashlib.sha256()
for rec in result.records:
    digest.update(repr((rec.request_id, rec.first_token_s, rec.finish_s,
                        rec.loading_s, rec.inference_s,
                        rec.preemptions)).encode())
print(len(result.records), engine.stats.evictions, digest.hexdigest())
"""


def test_memory_tight_replay_is_identical_across_hash_seeds():
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT, str(REPO / "src")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    n_records, evictions, _ = outputs[0]
    assert int(n_records) > 0 and int(evictions) > 0   # LRU order mattered
    assert outputs[0] == outputs[1]
