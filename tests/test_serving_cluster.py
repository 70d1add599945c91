"""Cluster serving layer: balancers, replica sets, autoscaling, stacks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (Cluster, ClusterCapacityError, GPUNode,
                            node_from_name)
from repro.serving import (Autoscaler, AutoscalerConfig, BALANCERS,
                           ClusterGateway, EngineConfig,
                           LeastOutstandingBalancer, LineageAffinityBalancer,
                           LLAMA_7B, ModelManager, RoundRobinBalancer,
                           SchedulerConfig, ServingGateway, StackSpec, build,
                           create_balancer, create_engine)
from repro.workload import ramp_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 8


def make_manager(n_models=N_MODELS, ratio=8.0):
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_delta(f"variant-{i:02d}", "base", ratio)
    return mgr


def make_factory(mgr=None, n_deltas=4, k=8):
    mgr = mgr or make_manager()

    def factory(node):
        return create_engine(
            "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=k,
                                             max_concurrent_deltas=n_deltas),
            engine_config=EngineConfig(tp_degree=1))
    return factory


def make_gateway(n_replicas=2, balancer="least-outstanding",
                 autoscaler=None, max_nodes=None, **kwargs):
    ceiling = max_nodes or (autoscaler.config.max_replicas
                            if autoscaler else n_replicas)
    return ClusterGateway(engine_factory=make_factory(**kwargs),
                          cluster=Cluster.from_name("a800", ceiling, 1),
                          n_replicas=n_replicas, balancer=balancer,
                          autoscaler=autoscaler)


def bursty_trace(rate=8.0, duration_s=60.0, seed=7):
    """Overload a single replica so extra replicas visibly help."""
    rng = np.random.default_rng(seed)
    from repro.workload import gamma_burst_arrivals
    times = gamma_burst_arrivals(rate, duration_s, rng, cv=4.0)
    requests = [
        TraceRequest(request_id=i, model_id=f"variant-{i % N_MODELS:02d}",
                     arrival_s=t, prompt_tokens=64, output_tokens=16)
        for i, t in enumerate(times)
    ]
    return Trace(requests=requests,
                 model_ids=[f"variant-{i:02d}" for i in range(N_MODELS)],
                 duration_s=duration_s)


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s)


# --------------------------------------------------------------------------- #
class TestHardwareCluster:
    def test_acquire_release_capacity(self):
        cluster = Cluster.from_name("a800", n_nodes=2, gpus_per_node=1)
        a = cluster.acquire()
        b = cluster.acquire()
        assert a is not b
        assert cluster.n_free == 0
        with pytest.raises(ClusterCapacityError):
            cluster.acquire()
        cluster.release(a)
        assert cluster.n_free == 1
        assert cluster.acquire() is a  # released nodes are reused

    def test_release_is_identity_based(self):
        # two same-spec nodes compare equal as dataclasses; release must
        # not be fooled by a foreign but equal node
        cluster = Cluster.from_name("a800", n_nodes=1, gpus_per_node=1)
        cluster.acquire()
        foreign = GPUNode(node_from_name("a800", 1))
        with pytest.raises(ValueError):
            cluster.release(foreign)

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            Cluster.from_name("a800", n_nodes=0)


class TestBalancers:
    def replicas(self, gateway=None, n=3):
        return make_gateway(n_replicas=n).replicas

    def test_registry(self):
        assert {"round-robin", "least-outstanding", "lineage"} <= \
            set(BALANCERS)
        assert isinstance(create_balancer("round-robin"), RoundRobinBalancer)
        passthrough = LeastOutstandingBalancer()
        assert create_balancer(passthrough) is passthrough
        with pytest.raises(KeyError, match="unknown balancer"):
            create_balancer("coin-flip")

    def test_round_robin_rotates(self):
        replicas = self.replicas()
        rr = RoundRobinBalancer()
        picks = [rr.choose("m", replicas).id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_tracks_queue(self):
        gateway = make_gateway(n_replicas=2)
        # load replica 0 with work through the gateway
        gateway.submit("variant-00", 32, 8)
        balancer = LeastOutstandingBalancer()
        assert balancer.choose("m", gateway.replicas).id == 1

    def test_lineage_sticks_and_unpins_on_removal(self):
        replicas = self.replicas()
        balancer = LineageAffinityBalancer()
        first = balancer.choose("variant-00", replicas)
        assert all(balancer.choose("variant-00", replicas) is first
                   for _ in range(5))
        balancer.on_removed(first)
        rehomed = balancer.choose("variant-00", replicas[1:])
        assert rehomed is not first

    def test_lineage_pin_and_owner_fn(self):
        replicas = self.replicas()
        balancer = LineageAffinityBalancer(owner_of=lambda m: m.split("-")[0])
        balancer.pin("variant", replicas[2])
        assert balancer.choose("variant-05", replicas) is replicas[2]
        assert balancer.choose("variant-00", replicas) is replicas[2]


class TestClusterGateway:
    def test_single_replica_replay_matches_plain_gateway(self):
        trace = synthetic_trace(4, rate=1.0, duration_s=30.0, seed=11)
        mgr = make_manager()
        plain = ServingGateway(make_factory(mgr)(None)).replay(trace)
        clustered = ClusterGateway(engine_factory=make_factory(mgr),
                                   cluster=Cluster.from_name("a800", 1, 1),
                                   n_replicas=1).replay(trace)
        assert [record_key(r) for r in plain.records] == \
            [record_key(r) for r in clustered.records]
        assert plain.makespan_s == clustered.makespan_s

    def test_request_ids_unique_across_replicas(self):
        gateway = make_gateway(n_replicas=3, balancer="round-robin")
        ids = [gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 4).id
               for i in range(9)]
        assert ids == list(range(9))
        result = gateway.run_until_drained()
        assert sorted(r.request_id for r in result.records) == list(range(9))

    def test_submit_validates_lengths(self):
        gateway = make_gateway(n_replicas=1)
        with pytest.raises(ValueError):
            gateway.submit("variant-00", 0, 4)

    def test_step_false_when_drained(self):
        gateway = make_gateway(n_replicas=2)
        assert gateway.step() is False
        gateway.submit("variant-00", 16, 2)
        assert gateway.step() is True
        gateway.run_until_drained()
        assert gateway.step() is False

    def test_four_replicas_beat_one_on_bursty_makespan(self):
        """Acceptance: least-outstanding x4 wins on a gamma-burst trace."""
        trace = bursty_trace()
        mgr = make_manager()
        makespans = {}
        for n in (1, 4):
            gateway = ClusterGateway(
                engine_factory=make_factory(mgr),
                cluster=Cluster.from_name("a800", n, 1), n_replicas=n,
                balancer="least-outstanding")
            res = gateway.replay(trace)
            assert res.n_requests == len(trace)
            makespans[n] = res.makespan_s
        assert makespans[4] < makespans[1]

    def test_per_replica_results_conserve_requests(self):
        trace = bursty_trace(rate=3.0, duration_s=30.0)
        gateway = make_gateway(n_replicas=2)
        merged = gateway.replay(trace)
        by_replica = gateway.results_by_replica()
        assert sum(r.n_requests for r in by_replica.values()) == \
            merged.n_requests == len(trace)

    def test_lineage_balancer_partitions_by_variant(self):
        trace = bursty_trace(rate=2.0, duration_s=30.0)
        gateway = make_gateway(n_replicas=2, balancer="lineage")
        gateway.replay(trace)
        seen = {}  # model -> replica name, stable across the whole run
        for name, res in gateway.results_by_replica().items():
            for rec in res.records:
                assert seen.setdefault(rec.model_id, name) == name

    @pytest.mark.parametrize("policy", ["round-robin", "least-outstanding",
                                        "lineage"])
    def test_repeated_replay_is_deterministic(self, policy):
        """Regression: replay resets balancer state (rotation position,
        learned affinities), so the same trace yields identical records
        run after run."""
        trace = bursty_trace(rate=2.0, duration_s=30.0)
        gateway = make_gateway(n_replicas=2, balancer=policy)
        first = gateway.replay(trace)
        second = gateway.replay(trace)
        assert [record_key(r) for r in first.records] == \
            [record_key(r) for r in second.records]

    def test_drain_replica_guards_last_active(self):
        gateway = make_gateway(n_replicas=2)
        gateway.submit("variant-00", 16, 2)
        gateway.submit("variant-01", 16, 2)
        drained = gateway.drain_replica()
        with pytest.raises(RuntimeError, match="last active"):
            gateway.drain_replica()
        # re-draining an already-draining replica is an idempotent no-op
        assert gateway.drain_replica(drained) is drained

    def test_fixed_set_cannot_spawn(self):
        engines = [make_factory()(None)]
        gateway = ClusterGateway.from_engines(engines)
        with pytest.raises(RuntimeError, match="fixed replica set"):
            gateway.spawn_replica()

    def test_from_engines_validation(self):
        with pytest.raises(ValueError):
            ClusterGateway.from_engines([])
        with pytest.raises(ValueError):
            ClusterGateway.from_engines([make_factory()(None)],
                                        names=["a", "b"])


# --------------------------------------------------------------------------- #
# the replica lifecycle
# --------------------------------------------------------------------------- #
class Fleet:
    """A gateway's ``ReplicaSet``, reached the way the gateway reaches
    it: ``spawn_replica`` / ``drain_replica`` and the reap after a step."""

    def __init__(self):
        self.cluster = Cluster.from_name("a800", 5, 1)
        gateway = ClusterGateway(engine_factory=make_factory(),
                                 cluster=self.cluster, n_replicas=3)
        self.set = gateway._set
        self.spawn, self.reap = gateway.spawn_replica, gateway._reap_drained
        self.drain = gateway.drain_replica

    def load(self, member, n):
        for _ in range(n):
            member.engine.submit(TraceRequest(
                request_id=1000 + 10 * member.id + member.unfinished,
                model_id="variant-00", arrival_s=0.0, prompt_tokens=16,
                output_tokens=4))


@pytest.fixture
def fleet():
    return Fleet()


class TestReplicaSetLifecycle:
    def test_grow_undrains_the_youngest_before_building(self, fleet):
        a, b, c = fleet.set.members
        for member in (a, b, c):
            fleet.load(member, 1)           # busy: a drain cannot reap
        fleet.drain(b)
        fleet.drain(c)
        held = fleet.cluster.n_allocated
        assert fleet.spawn() is c and not c.draining
        assert fleet.spawn() is b and not b.draining
        assert fleet.cluster.n_allocated == held     # node count stayed flat
        assert fleet.set.n_draining == 0
        fresh = fleet.spawn()
        assert fresh not in (a, b, c) and fresh.id > c.id
        assert fleet.set.members == [a, b, c, fresh]
        assert fleet.cluster.n_allocated == held + 1
        assert fleet.cluster.is_allocated(fresh.node)

    def test_shrink_retires_the_least_loaded_youngest_first(self, fleet):
        a, b, c = fleet.set.members
        fleet.load(a, 1)
        fleet.load(b, 2)
        fleet.load(c, 1)
        assert fleet.drain() is c           # ties on load: spawned last
        assert fleet.drain() is a
        assert fleet.set.active_replicas() == [b]

    def test_reap_retires_and_returns_the_node(self, fleet):
        a, b, c = fleet.set.members
        fleet.load(b, 1)
        fleet.drain(b)
        fleet.drain(c)
        fleet.reap()
        # b still has work: it keeps draining, and keeps its node
        assert fleet.set.members == [a, b] and fleet.set.retired == [c]
        assert fleet.set.n_draining == 1 and fleet.set.n_replicas == 1
        assert fleet.cluster.is_allocated(b.node)
        assert not fleet.cluster.is_allocated(c.node)
        assert fleet.cluster.n_free == 5 - 2

    def test_never_below_one_active_member(self, fleet):
        a, b, c = fleet.set.members
        fleet.drain()
        fleet.drain()
        assert fleet.set.n_replicas == 1
        with pytest.raises(RuntimeError, match="last active"):
            fleet.drain()
        with pytest.raises(RuntimeError, match="last active"):
            fleet.drain(fleet.set.active_replicas()[0])


class TestAutoscaler:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(high_queue_per_replica=1.0,
                             low_queue_per_replica=2.0)

    @pytest.mark.parametrize("kwargs, named", [
        ({"check_interval_s": -1.0}, "check_interval_s must be > 0, got -1.0"),
        ({"check_interval_s": 0.0}, "check_interval_s must be > 0, got 0.0"),
        ({"scale_up_cooldown_s": -5}, "scale_up_cooldown_s must be >= 0, "
                                      "got -5"),
        ({"scale_down_cooldown_s": float("nan")},
         "scale_down_cooldown_s must be >= 0, got nan"),
    ])
    def test_config_rejects_clock_nonsense(self, kwargs, named):
        """A negative interval would schedule every tick behind the
        kernel clock."""
        with pytest.raises(ValueError, match=named):
            AutoscalerConfig(**kwargs)
        with pytest.raises(ValueError, match=named):
            Autoscaler(**kwargs)

    def test_replicas_rise_and_fall_with_offered_load(self):
        """Acceptance: replica count traces a rate ramp up and back down."""
        trace = ramp_trace(N_MODELS, peak_rate=8.0, duration_s=240.0,
                           base_rate=0.2, cv=2.0, seed=3)
        autoscaler = Autoscaler(
            min_replicas=1, max_replicas=4, high_queue_per_replica=4.0,
            low_queue_per_replica=1.0, check_interval_s=2.0,
            scale_up_cooldown_s=4.0, scale_down_cooldown_s=15.0)
        gateway = make_gateway(n_replicas=1, autoscaler=autoscaler)
        result = gateway.replay(trace)
        assert result.n_requests == len(trace)
        counts = [s.n_replicas for s in autoscaler.history]
        assert max(counts) > 1                     # scaled up under load
        assert counts[-1] < max(counts)            # ... and back down
        assert any(s.action == "scale_up" for s in autoscaler.history)
        assert any(s.action == "scale_down" for s in autoscaler.history)
        assert result.config["max_replicas_seen"] == max(counts)

    def test_scaled_up_replicas_actually_serve_replayed_load(self):
        """Regression: replay must route at the simulation frontier, not
        up front — otherwise replicas spawned mid-run never get work and
        autoscaling is a performance no-op."""
        trace = ramp_trace(N_MODELS, peak_rate=8.0, duration_s=240.0,
                           base_rate=0.2, cv=2.0, seed=3)
        autoscaler = Autoscaler(
            min_replicas=1, max_replicas=4, high_queue_per_replica=4.0,
            low_queue_per_replica=1.0, check_interval_s=2.0,
            scale_up_cooldown_s=4.0, scale_down_cooldown_s=15.0)
        mgr = make_manager()
        scaled = make_gateway(n_replicas=1, autoscaler=autoscaler, mgr=mgr)
        auto_res = scaled.replay(trace)
        per_replica = [r.n_requests
                       for r in scaled.results_by_replica().values()]
        assert sum(1 for n in per_replica if n > 0) >= 2
        fixed = make_gateway(n_replicas=1, mgr=mgr)
        fixed_res = fixed.replay(trace)
        assert auto_res.makespan_s < fixed_res.makespan_s
        assert auto_res.percentile_ttft_s(99) < \
            fixed_res.percentile_ttft_s(99)

    def test_retired_replicas_keep_their_records(self):
        trace = ramp_trace(N_MODELS, peak_rate=8.0, duration_s=240.0,
                           base_rate=0.2, cv=2.0, seed=3)
        autoscaler = Autoscaler(
            min_replicas=1, max_replicas=4, high_queue_per_replica=4.0,
            low_queue_per_replica=1.0, check_interval_s=2.0,
            scale_up_cooldown_s=4.0, scale_down_cooldown_s=15.0)
        gateway = make_gateway(n_replicas=1, autoscaler=autoscaler)
        result = gateway.replay(trace)
        # every request completes exactly once even across retirements
        assert sorted(r.request_id for r in result.records) == \
            list(range(len(trace)))

    def test_draining_replica_gets_no_new_requests(self):
        gateway = make_gateway(n_replicas=2, balancer="round-robin")
        drained = gateway.drain_replica(gateway.replicas[0])
        # idle when drained -> retired from the live set immediately
        assert gateway.retired == [drained]
        survivor = gateway.active_replicas()[0]
        for i in range(4):
            gateway.submit(f"variant-{i:02d}", 16, 2)
        assert drained.unfinished == 0
        assert survivor.unfinished == 4

    def test_scale_up_revives_draining_replica(self):
        """Regression: a draining replica still holds its cluster node, so
        scale-up at the node ceiling must revive it rather than acquire a
        node that does not exist (previously ClusterCapacityError)."""
        autoscaler = Autoscaler(min_replicas=1, max_replicas=2,
                                high_queue_per_replica=1.0,
                                low_queue_per_replica=0.5)
        gateway = make_gateway(n_replicas=2, autoscaler=autoscaler)
        for i in range(8):
            gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 8)
        drained = gateway.drain_replica()
        assert drained.draining and drained in gateway.replicas
        action = autoscaler.control(gateway)
        assert action == "scale_up"
        assert not drained.draining
        assert len(gateway.replicas) == 2

    def test_undersized_cluster_rejected_at_construction(self):
        with pytest.raises(ValueError, match="cluster has 1 nodes"):
            ClusterGateway(engine_factory=make_factory(),
                           cluster=Cluster.from_name("a800", 1, 1),
                           n_replicas=1,
                           autoscaler=Autoscaler(max_replicas=4))

    def test_lineage_rebalances_when_autoscaler_drains_pinned_replica(self):
        """Regression coverage for the Autoscaler x lineage interaction:
        when the controller drains the replica a variant is pinned to,
        ``drain_replica`` must notify the balancer (dropping the pin and
        the learned homes) so later requests for that variant rehome to a
        surviving replica instead of chasing the drained one."""
        balancer = LineageAffinityBalancer()
        autoscaler = Autoscaler(min_replicas=1, max_replicas=2,
                                high_queue_per_replica=1000.0,
                                low_queue_per_replica=999.0,
                                check_interval_s=1e-3,
                                scale_down_cooldown_s=0.0,
                                scale_up_cooldown_s=0.0)
        gateway = make_gateway(n_replicas=2, balancer=balancer,
                               autoscaler=autoscaler)
        pinned = gateway.replicas[0]
        balancer.pin("variant-00", pinned)
        balancer.choose("variant-01", gateway.replicas)   # learned home
        # both replicas idle -> the idle watermark triggers a scale-down;
        # the controller retires the pinned replica's peerless queue first
        action = autoscaler.control(gateway)
        assert action == "scale_down"
        drained = next(r for r in gateway.replicas + gateway.retired
                       if r.draining or r in gateway.retired)
        # whichever replica drained, no pin or home may reference it
        assert all(r is not drained
                   for r in balancer._pinned.values())
        assert all(r is not drained
                   for r in balancer._home.values())
        survivor = gateway.active_replicas()[0]
        for i in range(4):
            gateway.submit("variant-00", 32, 4)
            gateway.submit("variant-01", 32, 4)
        assert drained.unfinished == 0
        assert survivor.unfinished == 8
        result = gateway.run_until_drained()
        assert sorted(r.request_id for r in result.records) == \
            list(range(8))

    def test_lineage_pin_to_drained_replica_rehomes_under_load(self):
        """End-to-end: a replayed burst for a pinned variant keeps
        completing after its home replica drains mid-run."""
        mgr = make_manager()
        balancer = LineageAffinityBalancer()
        gateway = make_gateway(n_replicas=2, balancer=balancer, mgr=mgr)
        balancer.pin("variant-00", gateway.replicas[0])
        for i in range(6):
            gateway.submit("variant-00", 32, 4, arrival_s=float(i))
        gateway.step()
        gateway.drain_replica(gateway.replicas[0])
        for i in range(6, 12):
            gateway.submit("variant-00", 32, 4)
        result = gateway.run_until_drained()
        assert result.n_requests == 12
        # post-drain requests all served by the survivor
        by_replica = gateway.results_by_replica()
        survivor_records = [r for name, res in by_replica.items()
                            for r in res.records
                            if name == gateway.active_replicas()[0].name]
        assert {r.request_id for r in survivor_records} >= set(range(6, 12))

    def test_observes_frontier_not_max_replica_clock(self):
        """Regression: the controller observes at the kernel clock (the
        min-busy frontier).  Previously it read ``gateway.clock`` — the
        *most-advanced* replica — so one replica racing ahead would
        fast-forward the check-interval/cooldown clock: the controller
        stamped its sample at the runaway clock and then debounced every
        later check (frontier time minus that stamp stays negative),
        starving the watermark while real backlog piled up."""
        autoscaler = Autoscaler(min_replicas=1, max_replicas=4,
                                high_queue_per_replica=2.0,
                                low_queue_per_replica=0.5,
                                check_interval_s=2.0)
        gateway = make_gateway(n_replicas=2, autoscaler=autoscaler,
                               max_nodes=4)
        for i in range(12):
            gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 8,
                           arrival_s=0.0)
        # replica 1 raced 5000 simulated seconds ahead (still busy); the
        # cluster frontier — the kernel clock — is still at 0
        gateway.replicas[1].engine.clock = 5000.0
        assert gateway.frontier == 0.0
        assert gateway.clock == 5000.0
        assert autoscaler.control(gateway) == "scale_up"
        assert autoscaler.history[-1].clock_s == 0.0   # frontier, not max
        # frontier advances past the check interval -> the controller
        # samples again instead of staying debounced behind the runaway
        gateway.replicas[0].engine.clock = 3.0
        autoscaler.control(gateway)
        assert len(autoscaler.history) == 2
        assert autoscaler.history[-1].clock_s == 3.0

    def test_autoscaler_attached_after_construction_still_ticks(self):
        """Regression: the tick schedule is seeded at construction/reset,
        so an autoscaler assigned to the public attribute afterwards must
        still get its first (immediately due) tick."""
        gateway = make_gateway(n_replicas=1, max_nodes=4)
        gateway.autoscaler = Autoscaler(
            min_replicas=1, max_replicas=4, high_queue_per_replica=2.0,
            low_queue_per_replica=0.5, check_interval_s=1.0,
            scale_up_cooldown_s=0.0)
        for i in range(16):
            gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 8)
        gateway.run_until_drained()
        assert len(gateway.autoscaler.history) > 0
        assert any(s.action == "scale_up"
                   for s in gateway.autoscaler.history)

    def test_cooldown_limits_flapping(self):
        config = AutoscalerConfig(max_replicas=8, check_interval_s=1.0,
                                  scale_up_cooldown_s=1000.0)
        autoscaler = Autoscaler(config)
        gateway = make_gateway(n_replicas=1, autoscaler=autoscaler,
                               max_nodes=8)
        for i in range(64):
            gateway.submit(f"variant-{i % N_MODELS:02d}", 64, 16)
        gateway.run_until_drained()
        ups = sum(1 for s in autoscaler.history if s.action == "scale_up")
        assert ups <= 1  # cooldown blocks the second spawn


class TestStackIntegration:
    #: the facade's registry served on one-GPU replicas
    ONE_GPU = StackSpec(node=node_from_name("a800", 1),
                        config=EngineConfig(tp_degree=1))

    @pytest.fixture(scope="class")
    def system(self, base_model, finetuned):
        from repro.core import DeltaZip
        dz = DeltaZip(base_model)
        dz.register_finetuned("review-ft", finetuned.model,
                              finetuned.calibration_tokens)
        return dz

    def test_replicas_build_a_cluster(self, system):
        trace = synthetic_trace(3, rate=1.0, duration_s=20.0, seed=5)
        mgr = system.manager(LLAMA_7B)
        for model_id in trace.model_ids:
            mgr.register_delta(model_id, "base", 8.0)
        gateway = build(replace(self.ONE_GPU,
                                scheduler=SchedulerConfig(
                                    max_batch_requests=8,
                                    max_concurrent_deltas=2),
                                replicas=2, balancer="lineage"), mgr)
        assert isinstance(gateway, ClusterGateway)
        assert len(gateway.replicas) == 2
        result = gateway.replay(trace)
        assert result.n_requests == len(trace)
        assert result.config["balancer"] == "lineage"

    def test_autoscaler_sizes_the_cluster_to_its_ceiling(self, system):
        gateway = build(replace(self.ONE_GPU, replicas=1,
                                autoscaler=AutoscalerConfig(
                                    max_replicas=3,
                                    high_queue_per_replica=2.0)),
                        system.manager(LLAMA_7B))
        assert isinstance(gateway, ClusterGateway)
        assert gateway.autoscaler.config.max_replicas == 3
        gateway.spawn_replica()
        gateway.spawn_replica()
        with pytest.raises(ClusterCapacityError):
            gateway.spawn_replica()
        gateway.submit("review-ft", 32, 4)
        result = gateway.run_until_drained()
        assert result.n_requests == 1


# --------------------------------------------------------------------- #
# lineage routing: identity sets decide what the nested scans decided
# --------------------------------------------------------------------- #
class ScanLineageBalancer(LineageAffinityBalancer):
    """``_valid_homes`` and ``choose`` as they were with nested
    ``any(x is y ...)`` membership scans, verbatim."""

    def _valid_homes(self, key, replicas):
        candidates = [self._pinned.get(key), self._home.get(key)]
        candidates.extend(self._secondary.get(key, ()))
        homes = []
        for cand in candidates:
            if cand is not None and not cand.draining \
                    and any(r is cand for r in replicas) \
                    and not any(h is cand for h in homes):
                homes.append(cand)
        return homes

    def choose(self, model_id, replicas, conversation_id=None):
        from repro.serving.cluster import AFFINITY_BIAS
        if conversation_id is not None:
            conv = self._conv_home.get(conversation_id)
            if conv is not None and not conv.draining \
                    and any(r is conv for r in replicas):
                return conv
        key = self._owner_of(model_id)
        homes = self._valid_homes(key, replicas)
        if not homes:
            chosen = self._fallback.choose(model_id, replicas)
            self._home[key] = chosen
        elif homes[0] is self._pinned.get(key):
            chosen = homes[0]
        else:
            chosen = min(replicas, key=lambda r: (
                r.unfinished + (0.0 if any(h is r for h in homes)
                                else AFFINITY_BIAS), r.id))
            if not any(h is chosen for h in homes):
                self._secondary.setdefault(key, []).append(chosen)
        if conversation_id is not None:
            self._conv_home[conversation_id] = chosen
        return chosen


class FakeReplica:
    """What a balancer reads of a replica; hashes by identity."""

    def __init__(self, replica_id, unfinished, draining):
        self.id, self.unfinished, self.draining = \
            replica_id, unfinished, draining


def balancer_state(balancer):
    def ids(mapping):
        return {k: r.id for k, r in mapping.items()}
    return (ids(balancer._pinned), ids(balancer._home),
            {k: [r.id for r in rs] for k, rs in balancer._secondary.items()},
            ids(balancer._conv_home))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lineage_choices_match_the_nested_scans(data):
    draw = data.draw
    n = draw(st.integers(1, 9))
    fleet = [FakeReplica(i, draw(st.integers(0, 12)), draw(st.booleans()))
             for i in range(n)]
    keys = ["k0", "k1", "k2", "k3"]
    convs = [None, "c0", "c1"]
    member = st.sampled_from(fleet)
    shipped, scan = LineageAffinityBalancer(), ScanLineageBalancer()
    for balancer in (shipped, scan):
        balancer._owner_of = lambda model_id: model_id.split("/")[0]
    pins = draw(st.dictionaries(st.sampled_from(keys), member, max_size=2))
    homes = draw(st.dictionaries(st.sampled_from(keys), member))
    secondary = draw(st.dictionaries(st.sampled_from(keys),
                                     st.lists(member, max_size=4)))
    conv = draw(st.dictionaries(st.sampled_from(convs[1:]), member))
    for balancer in (shipped, scan):
        balancer._pinned = dict(pins)
        balancer._home = dict(homes)
        balancer._secondary = {k: list(v) for k, v in secondary.items()}
        balancer._conv_home = dict(conv)
    for _ in range(draw(st.integers(1, 12))):
        routable = [r for r in fleet if draw(st.booleans())] or fleet[:1]
        model_id = f"{draw(st.sampled_from(keys))}/v{draw(st.integers(0, 2))}"
        conversation = draw(st.sampled_from(convs))
        want = scan.choose(model_id, routable, conversation)
        got = shipped.choose(model_id, routable, conversation)
        assert got is want
        assert balancer_state(shipped) == balancer_state(scan)
        replica = draw(member)
        replica.unfinished += draw(st.integers(-1, 3))
        replica.draining = draw(st.booleans())
