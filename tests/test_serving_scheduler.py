"""Scheduler: FCFS, (K, N) limits, skip-the-line semantics, preemption."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.base import RunningBatch
from repro.serving.request import RequestState, ServingRequest
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig
from repro.workload.spec import TraceRequest


def make_request(rid, model, arrival=0.0, prompt=8, output=4):
    return ServingRequest(trace=TraceRequest(
        request_id=rid, model_id=model, arrival_s=arrival,
        prompt_tokens=prompt, output_tokens=output))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_requests=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_concurrent_deltas=0)


class TestAdmission:
    def test_fcfs_order(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(4, 4))
        for rid in (2, 0, 1):
            sched.add(make_request(rid, f"m{rid}"))
        decision = sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in decision.admitted] == [0, 1, 2]

    def test_k_limit(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(2, 8))
        for rid in range(5):
            sched.add(make_request(rid, "m0"))
        decision = sched.schedule(RunningBatch(), [])
        assert len(decision.admitted) == 2
        assert len(sched) == 3

    def test_n_limit_bounds_distinct_deltas(self):
        sched = ContinuousBatchScheduler(
            SchedulerConfig(max_batch_requests=8, max_concurrent_deltas=2))
        for rid in range(6):
            sched.add(make_request(rid, f"m{rid % 3}"))
        decision = sched.schedule(RunningBatch(), [])
        assert len(decision.selected_deltas) <= 2
        # m2's requests stay queued
        assert all(r.model_id != "m2" for r in decision.admitted)
        assert any(r.model_id == "m2" for r in sched.queued)

    def test_running_deltas_count_toward_n(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        running = [make_request(100, "a"), make_request(101, "b")]
        sched.add(make_request(0, "c"))
        decision = sched.schedule(RunningBatch(running), ["a", "b"])
        assert decision.admitted == []

    def test_running_capacity_counts_toward_k(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(2, 8))
        running = [make_request(100, "a"), make_request(101, "a")]
        sched.add(make_request(0, "a"))
        decision = sched.schedule(RunningBatch(running), ["a"])
        assert decision.admitted == []

    def test_new_deltas_reported(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 8))
        sched.add(make_request(0, "x"))
        sched.add(make_request(1, "y"))
        decision = sched.schedule(RunningBatch(), ["x"])  # x already resident
        assert decision.new_deltas == ["y"]


class TestSkipTheLine:
    def test_skip_marks_and_parents(self):
        """Queue: m0, m1, m2, m0 with N=2 -> the last m0 request skips over
        m2 and records the first m0 request as parent."""
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        for rid, model in [(0, "m0"), (1, "m1"), (2, "m2"), (3, "m0")]:
            sched.add(make_request(rid, model))
        decision = sched.schedule(RunningBatch(), [])
        admitted = {r.request_id: r for r in decision.admitted}
        assert set(admitted) == {0, 1, 3}
        assert admitted[3].skipped_line
        assert admitted[3].parent_id == 0
        assert not admitted[0].skipped_line

    def test_no_skip_flag_without_blocked_predecessor(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 4))
        for rid in range(3):
            sched.add(make_request(rid, "m0"))
        decision = sched.schedule(RunningBatch(), [])
        assert not any(r.skipped_line for r in decision.admitted)

    def test_parent_can_be_running_request(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        parent = make_request(0, "m0")
        running = [parent, make_request(1, "m1")]
        sched.add(make_request(2, "m2"))  # blocked (N=2 used)
        sched.add(make_request(3, "m0"))  # skips, drafts behind running m0
        decision = sched.schedule(RunningBatch(running), ["m0", "m1"])
        admitted = {r.request_id: r for r in decision.admitted}
        assert set(admitted) == {3}
        assert admitted[3].parent_id == 0

    def test_preemption_disabled_no_parent(self):
        sched = ContinuousBatchScheduler(
            SchedulerConfig(8, 2, preemption=False))
        for rid, model in [(0, "m0"), (1, "m1"), (2, "m2"), (3, "m0")]:
            sched.add(make_request(rid, model))
        decision = sched.schedule(RunningBatch(), [])
        admitted = {r.request_id: r for r in decision.admitted}
        assert admitted[3].skipped_line
        assert admitted[3].parent_id is None


class Unscannable(list):
    def __iter__(self):
        raise AssertionError("the running batch was scanned")


class TestPreemption:
    def test_children_identified(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        parent = make_request(0, "m0")
        parent.finish_s = 1.0
        child = make_request(3, "m0")
        child.parent_id = 0
        running = RunningBatch([child, make_request(4, "m1")])
        children = sched.children_to_preempt(parent, running)
        assert children == [child]

    def test_done_children_not_preempted(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        parent = make_request(0, "m0")
        child = make_request(3, "m0", output=2)
        child.parent_id = 0
        child.generated_tokens = 2  # done
        assert sched.children_to_preempt(parent, RunningBatch([child])) == []

    def test_only_the_undone_children_of_a_parent_are_preempted(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 2))
        parent = make_request(0, "m0")
        done = make_request(3, "m0", output=2)
        done.parent_id = 0
        done.generated_tokens = 2
        child = make_request(5, "m0")
        child.parent_id = 0
        cousin = make_request(6, "m1")
        cousin.parent_id = 9             # another parent's child
        batch = RunningBatch([done, cousin, child])
        assert sched.children_to_preempt(parent, batch) == [child]
        batch.leave(done)
        batch.leave(child)
        # nobody running names this parent any more: no scan at all
        batch.requests = Unscannable(batch.requests)
        assert sched.children_to_preempt(parent, batch) == []

    def test_reinsert_restores_fcfs_position(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(8, 8))
        late = make_request(5, "m0")
        sched.add(make_request(7, "m1"))
        sched.reinsert(late)
        assert [r.request_id for r in sched.queued] == [5, 7]
        assert late.state == RequestState.PREEMPTED
        assert late.parent_id is None


class TestConservation:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30),
           st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_no_request_lost_or_duplicated(self, model_picks, k, n):
        """Property: admitted + still-queued == everything added."""
        sched = ContinuousBatchScheduler(SchedulerConfig(k, n))
        for rid, pick in enumerate(model_picks):
            sched.add(make_request(rid, f"m{pick}"))
        decision = sched.schedule(RunningBatch(), [])
        admitted_ids = {r.request_id for r in decision.admitted}
        queued_ids = {r.request_id for r in sched.queued}
        assert admitted_ids | queued_ids == set(range(len(model_picks)))
        assert admitted_ids & queued_ids == set()
        assert len(decision.admitted) <= k
        assert len({r.model_id for r in decision.admitted}) <= n
