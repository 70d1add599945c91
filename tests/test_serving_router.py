"""Multi-base routing (§5.1's M-GPU-set deployment)."""

import pytest

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_13B, LLAMA_7B, ModelManager,
                           SchedulerConfig)
from repro.serving.router import BaseModelGroup, MultiBaseRouter
from repro.workload.spec import Trace, TraceRequest


def make_group(base_id, spec, variants):
    mgr = ModelManager(spec)
    mgr.register_base(base_id)
    for v in variants:
        mgr.register_delta(v, base_id, 8.0)
    return BaseModelGroup(
        base_id=base_id, manager=mgr,
        node=GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(8, 2),
        engine_config=EngineConfig(tp_degree=1))


def make_trace(assignments):
    requests = [TraceRequest(request_id=i, model_id=m, arrival_s=float(i),
                             prompt_tokens=8, output_tokens=4)
                for i, m in enumerate(assignments)]
    return Trace(requests=requests,
                 model_ids=sorted(set(assignments)),
                 duration_s=len(assignments) + 1.0)


@pytest.fixture()
def router():
    return MultiBaseRouter([
        make_group("llama", LLAMA_7B, ["llama-ft-a", "llama-ft-b"]),
        make_group("pythia", LLAMA_7B, ["pythia-ft-a"]),
    ])


class TestRouting:
    def test_owner_lookup(self, router):
        assert router.owner_of("llama-ft-a") == "llama"
        assert router.owner_of("pythia-ft-a") == "pythia"
        assert router.owner_of("llama") == "llama"
        with pytest.raises(KeyError):
            router.owner_of("mystery")

    def test_partition_by_lineage(self, router):
        trace = make_trace(["llama-ft-a", "pythia-ft-a", "llama-ft-b",
                            "llama-ft-a"])
        parts = router.partition(trace)
        assert len(parts["llama"]) == 3
        assert len(parts["pythia"]) == 1

    def test_run_conserves_requests(self, router):
        trace = make_trace(["llama-ft-a", "pythia-ft-a", "llama-ft-b",
                            "pythia-ft-a", "llama-ft-a"])
        results = router.run(trace)
        cluster = results["__cluster__"]
        assert cluster.n_requests == len(trace)
        assert results["llama"].n_requests == 3
        assert results["pythia"].n_requests == 2
        ids = sorted(r.request_id for r in cluster.records)
        assert ids == list(range(5))

    def test_pinned_lineage_never_spills_under_load(self, router):
        """Regression (examples/multi_base_cluster.py crashed): a burst
        deep enough to outweigh the lineage balancer's residency bias
        must still stay on the group that owns the base — the other
        group's engine cannot serve the variant at all."""
        burst = [TraceRequest(request_id=i, model_id="llama-ft-a",
                              arrival_s=0.0, prompt_tokens=64,
                              output_tokens=64) for i in range(40)]
        trace = Trace(requests=burst, model_ids=["llama-ft-a"],
                      duration_s=1.0)
        results = router.run(trace)
        assert results["llama"].n_requests == 40
        assert "pythia" not in results

    def test_empty_partition_skipped(self, router):
        trace = make_trace(["llama-ft-a", "llama-ft-b"])
        results = router.run(trace)
        assert "pythia" not in results
        assert results["__cluster__"].n_requests == 2


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s,
            rec.preemptions, rec.skipped_line)


class TestClusterRefactor:
    """Acceptance: run(trace) over the ClusterGateway is record-identical
    to the pre-refactor one-engine-per-partition loop."""

    def test_run_matches_per_partition_engines(self, router):
        trace = make_trace(["llama-ft-a", "pythia-ft-a", "llama-ft-b",
                            "pythia-ft-a", "llama-ft-a", "llama-ft-b"])
        via_cluster = router.run(trace)
        for base_id, sub in router.partition(trace).items():
            if len(sub) == 0:
                continue
            legacy = router.groups[base_id].engine().run(sub)
            assert [record_key(r) for r in legacy.records] == \
                [record_key(r) for r in via_cluster[base_id].records]
            assert legacy.makespan_s == via_cluster[base_id].makespan_s


class TestOnlinePath:
    """The router is an online system too: submissions may arrive in any
    order across base groups."""

    def test_out_of_order_submit_across_groups(self, router):
        gateway = router.gateway()
        # interleaved across groups, with non-monotonic arrival times
        submissions = [("pythia-ft-a", 5.0), ("llama-ft-b", 1.0),
                       ("pythia-ft-a", 0.5), ("llama-ft-a", 3.0)]
        for model_id, arrival in submissions:
            gateway.submit(model_id, 16, 4, arrival_s=arrival)
        merged = gateway.run_until_drained()
        assert merged.n_requests == len(submissions)
        by_group = gateway.results_by_replica()
        assert by_group["llama"].n_requests == 2
        assert by_group["pythia"].n_requests == 2
        # lineage routing held for every record
        for base_id in ("llama", "pythia"):
            assert all(router.owner_of(r.model_id) == base_id
                       for r in by_group[base_id].records)

    def test_per_group_callback_delivery(self, router):
        completions = []
        gateway = router.gateway()
        gateway.add_completion_listener(completions.append)
        rid_p = gateway.submit("pythia-ft-a", 16, 4).id
        rid_l = gateway.submit("llama-ft-a", 16, 4).id
        gateway.run_until_drained()
        assert sorted(r.request_id for r in completions) == \
            sorted([rid_p, rid_l])
        owners = {r.request_id: router.owner_of(r.model_id)
                  for r in completions}
        assert owners[rid_p] == "pythia"
        assert owners[rid_l] == "llama"

    def test_unknown_model_rejected_online(self, router):
        gateway = router.gateway()
        with pytest.raises(KeyError):
            gateway.submit("mystery", 8, 4)


class TestValidation:
    def test_requires_groups(self):
        with pytest.raises(ValueError):
            MultiBaseRouter([])

    def test_duplicate_base_rejected(self):
        g1 = make_group("same", LLAMA_7B, ["v1"])
        g2 = make_group("same", LLAMA_7B, ["v2"])
        with pytest.raises(ValueError):
            MultiBaseRouter([g1, g2])

    def test_duplicate_variant_rejected(self):
        g1 = make_group("a", LLAMA_7B, ["shared"])
        g2 = make_group("b", LLAMA_7B, ["shared"])
        with pytest.raises(ValueError):
            MultiBaseRouter([g1, g2])
