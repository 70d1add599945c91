"""Priority-aware admission (§8's model-constraint prioritization)."""

import pytest

from repro.serving.base import RunningBatch
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig
from tests.test_serving_scheduler import make_request


class TestPriorityAdmission:
    def test_high_priority_served_first(self):
        config = SchedulerConfig(max_batch_requests=2,
                                 max_concurrent_deltas=8,
                                 model_priorities={"gold": 10, "bronze": 0})
        sched = ContinuousBatchScheduler(config)
        sched.add(make_request(0, "bronze"))
        sched.add(make_request(1, "bronze"))
        sched.add(make_request(2, "gold"))
        decision = sched.schedule(RunningBatch(), [])
        admitted = [r.request_id for r in decision.admitted]
        assert 2 in admitted  # gold jumped the two earlier bronze requests
        assert len(admitted) == 2

    def test_equal_priority_falls_back_to_fcfs(self):
        config = SchedulerConfig(max_batch_requests=2,
                                 max_concurrent_deltas=8,
                                 model_priorities={"a": 1, "b": 1})
        sched = ContinuousBatchScheduler(config)
        for rid, model in [(0, "a"), (1, "b"), (2, "a")]:
            sched.add(make_request(rid, model))
        decision = sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in decision.admitted] == [0, 1]

    def test_unlisted_models_default_zero(self):
        config = SchedulerConfig(max_batch_requests=1,
                                 max_concurrent_deltas=8,
                                 model_priorities={"vip": 5})
        sched = ContinuousBatchScheduler(config)
        sched.add(make_request(0, "unknown"))
        sched.add(make_request(1, "vip"))
        decision = sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in decision.admitted] == [1]

    def test_priority_respects_n_limit(self):
        config = SchedulerConfig(max_batch_requests=8,
                                 max_concurrent_deltas=1,
                                 model_priorities={"gold": 10})
        sched = ContinuousBatchScheduler(config)
        sched.add(make_request(0, "bronze"))
        sched.add(make_request(1, "gold"))
        sched.add(make_request(2, "gold"))
        decision = sched.schedule(RunningBatch(), [])
        # only the gold variant is selected under N=1
        assert {r.model_id for r in decision.admitted} == {"gold"}
        assert len(sched.queued) == 1

    def test_queue_remains_fcfs_after_priority_pass(self):
        config = SchedulerConfig(max_batch_requests=1,
                                 max_concurrent_deltas=8,
                                 model_priorities={"vip": 5})
        sched = ContinuousBatchScheduler(config)
        for rid, model in [(0, "x"), (1, "vip"), (2, "y")]:
            sched.add(make_request(rid, model))
        sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in sched.queued] == [0, 2]

    def test_no_priorities_is_pure_fcfs(self):
        sched = ContinuousBatchScheduler(SchedulerConfig(2, 8))
        for rid in (0, 1, 2):
            sched.add(make_request(rid, f"m{rid}"))
        decision = sched.schedule(RunningBatch(), [])
        assert [r.request_id for r in decision.admitted] == [0, 1]

    def test_engine_runs_with_priorities(self):
        from repro.hardware import GPUNode, node_from_name
        from repro.serving import (DeltaZipEngine, EngineConfig, LLAMA_7B,
                                   ModelManager)
        from repro.workload import synthetic_trace
        trace = synthetic_trace(4, rate=2.0, duration_s=30.0, seed=2)
        mgr = ModelManager(LLAMA_7B)
        mgr.register_base("base")
        for m in trace.model_ids:
            mgr.register_delta(m, "base", 8.0)
        config = SchedulerConfig(
            max_batch_requests=8, max_concurrent_deltas=2,
            model_priorities={trace.model_ids[0]: 10})
        result = DeltaZipEngine(mgr, GPUNode(node_from_name("a800", 1)),
                                config, EngineConfig(tp_degree=1)).run(trace)
        assert result.n_requests == len(trace)