"""The cluster frontier ledger: heap reads == a brute-force replica scan.

``ClusterGateway`` answers "which busy replica is least advanced" from a
lazy min-heap re-keyed only for the replica it just stepped or handed a
request, and counts draining replicas instead of listing the set.  The
definition it replaced — scan every replica, every step — lives on here
(:class:`ScanGateway`, a verbatim copy) and in the sanitizer, and these
tests hold the two equal: after every single operation, in the order
replicas are stepped on the cold paths (horizon skip, wedged
fall-through, re-entrant submits, spawn/drain/revive), in the number of
replica reads a step costs, and across ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.cluster as cluster_mod
from repro.hardware import (Cluster, ClusterCapacityError, GPUNode,
                            node_from_name)
from repro.serving import (Autoscaler, ClusterGateway, EngineConfig,
                           SchedulerConfig, create_engine)
from repro.serving.cluster import Replica
from repro.serving.gateway import Gateway
from repro.serving.tenancy import Tenant, TenantGateway
from repro.sim.sanitizer import check_cluster_frontier, sanitized
from repro.workload import (PatienceModel, TenantWorkload,
                            impatient_cancel_schedule, multi_tenant_trace,
                            ramp_trace)
from repro.workload.spec import TraceRequest
from test_serving_cluster import (N_MODELS, bursty_trace, make_factory,
                                  make_manager)

REPO = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# the brute-force definition
# --------------------------------------------------------------------- #
class ScanGateway(ClusterGateway):
    """``frontier`` / ``step`` / ``_route_due`` as they were before the
    ledger: every read walks the replica set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sanitize = False        # nothing here maintains the ledger

    @property
    def frontier(self) -> float:
        busy = [r.clock for r in self.replicas if r.unfinished > 0]
        return min(busy) if busy else self.clock

    def step(self) -> bool:
        self._route_due()
        best: Optional[Replica] = None
        for r in self.replicas:
            if r.unfinished > 0 and \
                    r.clock < r.engine.config.max_sim_seconds and \
                    (best is None or (r.clock, r.id) < (best.clock, best.id)):
                best = r
        if best is not None:
            if best.engine.step():
                return self._made_progress()
            rest = sorted(
                (r for r in self.replicas
                 if r is not best and r.unfinished > 0
                 and r.clock < r.engine.config.max_sim_seconds),
                key=lambda r: (r.clock, r.id))
            for replica in rest:
                if replica.engine.step():
                    return self._made_progress()
        self._reap_drained()
        return False

    def _route_due(self) -> None:
        while self._unrouted:
            busy = [r.clock for r in self.replicas if r.unfinished > 0]
            frontier = min(busy) if busy else self._unrouted.peek_time()
            routed_any = False
            for event in self._unrouted.pop_due(frontier):
                request = event.request
                pending = self._pending_cancels.pop(request.request_id, None)
                if pending is not None and pending[0] <= request.arrival_s:
                    self._retire_orphan(request, pending[1])
                    continue
                replica = self.balancer.choose(
                    request.model_id, self.active_replicas(),
                    request.conversation_id)
                replica.engine.submit(request)
                self._owner[request.request_id] = replica
                if pending is not None:
                    replica.engine.schedule_cancel(
                        request.request_id, pending[0], reason=pending[1])
                routed_any = True
            if routed_any or busy:
                return


def assert_ledger_exact(gateway: ClusterGateway) -> None:
    check_cluster_frontier(gateway)
    busy = [r for r in gateway.replicas if r.unfinished > 0]
    least = min(busy, key=lambda r: (r.clock, r.id), default=None)
    assert gateway.least_busy() is least
    assert gateway.frontier == (least.clock if busy else gateway.clock)
    assert gateway.n_replicas == \
        sum(1 for r in gateway.replicas if not r.draining)


# --------------------------------------------------------------------- #
# (a) ledger == brute force after every operation
# --------------------------------------------------------------------- #
OPS = ("submit", "submit", "ingest", "step", "step", "step", "cancel",
       "spawn", "drain", "lift", "reseat", "reset")


class TestLedgerOps:
    @given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10 ** 6)),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_random_ops_match_the_scan(self, ops):
        gateway = ClusterGateway(engine_factory=make_factory(),
                                 cluster=Cluster.from_name("a800", 5, 1),
                                 n_replicas=3, balancer="least-outstanding")
        next_id = 0
        for op, pick in ops:
            model = f"variant-{pick % N_MODELS:02d}"
            if op == "submit":
                at = None if pick % 3 else gateway.frontier + (pick % 7) * 0.3
                gateway.submit(model, 16 + pick % 64, 1 + pick % 6,
                               arrival_s=at)
                next_id += 1
            elif op == "ingest":
                gateway.ingest(TraceRequest(
                    request_id=next_id, model_id=model,
                    arrival_s=gateway.frontier + (pick % 5) * 0.2,
                    prompt_tokens=16 + pick % 64, output_tokens=1 + pick % 6))
                next_id += 1
            elif op == "step":
                gateway.step()
            elif op == "cancel" and next_id:
                at = None if pick % 2 else gateway.frontier + 0.5
                gateway.cancel(pick % next_id, at_s=at)
            elif op == "spawn":                # revives when one drains
                try:
                    gateway.spawn_replica()
                except ClusterCapacityError:
                    pass
            elif op == "drain" and gateway.n_replicas > 1:
                gateway.drain_replica()
            elif op == "lift":
                gateway.lift_idle_clocks(gateway.frontier + pick % 3)
            elif op == "reseat":
                busy = [r for r in gateway.replicas if r.unfinished > 0]
                if busy:               # an outside writer, forward only
                    engine = busy[pick % len(busy)].engine
                    engine.clock = engine.clock + 0.25 * (pick % 4)
            elif op == "reset":
                gateway.reset()
                next_id = 0
            assert_ledger_exact(gateway)
        gateway.run_until_drained()
        assert_ledger_exact(gateway)

    def test_outside_clock_write_on_a_busy_replica_is_seen(self):
        gateway = ClusterGateway(engine_factory=make_factory(), n_replicas=2)
        for i in range(4):
            gateway.submit(f"variant-{i:02d}", 32, 8, arrival_s=0.0)
        gateway.replicas[0].engine.clock = 7.0
        assert gateway.least_busy() is gateway.replicas[1]
        gateway.replicas[1].engine.clock = 9.0
        assert gateway.least_busy() is gateway.replicas[0]
        assert gateway.frontier == 7.0


# --------------------------------------------------------------------- #
# (b) the same replicas are stepped in the same order
# --------------------------------------------------------------------- #
STEPPED: List[int] = []


class LoggingReplica(Replica):
    """Appends its id to :data:`STEPPED` on every ``engine.step()``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        inner_step = self.engine.step

        def step() -> bool:
            STEPPED.append(self.id)
            return inner_step()

        self.engine.step = step


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.status, rec.first_token_s,
            rec.finish_s, rec.queue_wait_s, rec.loading_s, rec.inference_s,
            rec.tokens_served)


def fixed_replicas(n):
    def scenario(cls):
        gateway = cls(engine_factory=make_factory(), n_replicas=n,
                      balancer="lineage")
        return gateway, gateway.replay(bursty_trace(duration_s=30.0))
    return scenario


def autoscaled(cls):
    """The ramp drives the controller up and back down; a manual
    drain + spawn on top revives a still-busy draining replica."""
    autoscaler = Autoscaler(
        min_replicas=1, max_replicas=4, high_queue_per_replica=4.0,
        low_queue_per_replica=1.0, check_interval_s=2.0,
        scale_up_cooldown_s=4.0, scale_down_cooldown_s=15.0)
    gateway = cls(engine_factory=make_factory(),
                  cluster=Cluster.from_name("a800", 4, 1), n_replicas=1,
                  autoscaler=autoscaler, journal=True)
    for request in ramp_trace(N_MODELS, peak_rate=8.0, duration_s=120.0,
                              base_rate=0.2, cv=2.0, seed=3):
        gateway.ingest(request)
    steps = 0
    while gateway.step():
        steps += 1
        if steps % 400 == 0 and gateway.n_replicas > 1:
            gateway.drain_replica()
            gateway.spawn_replica()
    actions = {s.action for s in autoscaler.history}
    assert {"scale_up", "scale_down"} <= actions
    assert any(getattr(e, "revived", False) for e in gateway.kernel.journal)
    return gateway, gateway.result()


def heterogeneous_horizons(cls):
    """Replica 0 stops at 1 simulated second with work left; the scan
    skips it (it stays on the frontier) and keeps serving replica 1."""
    mgr = make_manager()

    def engine(cap):
        return create_engine(
            "deltazip", mgr, GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=4,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1, max_sim_seconds=cap))
    gateway = cls.from_engines([engine(1.0), engine(36000.0)],
                               balancer="round-robin")
    for i in range(40):
        gateway.submit(f"variant-{i % N_MODELS:02d}", 64, 24,
                       arrival_s=0.05 * i)
    result = gateway.run_until_drained()
    capped = gateway.replicas[0]
    assert capped.unfinished > 0 and capped.clock >= 1.0
    assert gateway.replicas[1].unfinished == 0
    assert gateway.frontier == capped.clock
    return gateway, result


def wedged_replica(cls):
    """Replica 0 holds a request no batch can admit; every step tries
    it first (least clock), fails, and falls through to the others."""
    gateway = cls(engine_factory=make_factory(), n_replicas=3,
                  balancer="round-robin")
    gateway.submit("variant-00", 50_000_000, 4, arrival_s=0.0)
    for i in range(1, 25):
        gateway.submit(f"variant-{i % N_MODELS:02d}", 48, 12,
                       arrival_s=0.1 * i)
    result = gateway.run_until_drained()
    assert gateway.replicas[0].unfinished == 1
    assert result.n_requests == 24
    return gateway, result


def closed_loop(cls):
    """Each completion submits the next request from inside the step
    that retired it (the re-entrant path into ``_accept``)."""
    state = {"left": 60}

    def on_complete(record):
        if state["left"]:
            state["left"] -= 1
            gateway.submit(f"variant-{state['left'] % N_MODELS:02d}",
                           32 + state["left"] % 17, 2 + state["left"] % 5)

    gateway = cls(engine_factory=make_factory(), n_replicas=4,
                  balancer="least-outstanding",
                  on_request_complete=on_complete)
    for i in range(12):
        gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 3 + i % 4)
    result = gateway.run_until_drained()
    assert result.n_requests == 72
    return gateway, result


def tenants_over_cluster(cls):
    pool = [f"variant-{i:02d}" for i in range(N_MODELS)]
    trace = multi_tenant_trace(
        (TenantWorkload("aggressor", rate=10.0, cv=2.0, model_ids=pool),
         TenantWorkload("gold", rate=1.0, model_ids=pool[:4])),
        duration_s=30.0, seed=11)
    cancels = impatient_cancel_schedule(trace, PatienceModel(mean_s=6.0),
                                        seed=12)
    cluster = cls(engine_factory=make_factory(),
                  cluster=Cluster.from_name("a800", 3, 1), n_replicas=2,
                  balancer="lineage",
                  autoscaler=Autoscaler(min_replicas=2, max_replicas=3,
                                        high_queue_per_replica=6.0,
                                        low_queue_per_replica=1.0,
                                        scale_up_cooldown_s=4.0,
                                        scale_down_cooldown_s=10.0))
    gateway = TenantGateway(
        cluster, policy="vtc", shed=True,
        tenants=(Tenant("aggressor", weight=1.0, rate_tokens_per_s=2000.0,
                        burst_tokens=8000.0),
                 Tenant("gold", weight=2.0, slo_class="interactive")))
    result = gateway.replay(trace, cancels=cancels)
    statuses = {r.status for r in result.records}
    assert {"cancelled", "finished"} <= statuses
    return cluster, result


SCENARIOS = {
    "fixed-1": fixed_replicas(1), "fixed-4": fixed_replicas(4),
    "fixed-8": fixed_replicas(8), "autoscaled": autoscaled,
    "heterogeneous-horizons": heterogeneous_horizons,
    "wedged": wedged_replica, "closed-loop": closed_loop,
    "tenants": tenants_over_cluster,
}


class SteppedGateway(ClusterGateway):
    """The ledger gateway drained by ``while self.step()``: one replica
    iteration per step, so the per-step order is there to compare (its
    own drain loop coasts between steps)."""

    run_until_drained = Gateway.run_until_drained


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_step_order_and_records_equal_the_scan(name, monkeypatch):
    """Since the cluster's drain loop coasts, "same replica, every step"
    is asked of the ledger gateway stepped one iteration at a time, and
    the records / kernel clock / retired count also of its own drain."""
    monkeypatch.setattr(cluster_mod, "Replica", LoggingReplica)
    runs = []
    for cls in (ScanGateway, SteppedGateway, ClusterGateway):
        STEPPED.clear()
        gateway, result = SCENARIOS[name](cls)
        runs.append((list(STEPPED),
                     [record_key(r) for r in result.records],
                     gateway.kernel.now, len(gateway.retired)))
    scan, ledger, drained = runs
    assert len(scan[0]) > 0
    assert ledger[0] == scan[0]              # same replica, every step
    assert ledger[1:] == scan[1:]
    assert drained[1:] == scan[1:]
    assert len(drained[0]) <= len(scan[0])   # coasted, or the same steps


# --------------------------------------------------------------------- #
# (c) a step reads O(1) replicas, whatever the replica count
# --------------------------------------------------------------------- #
class CountingReplica(Replica):
    """Counts every read that reaches the engine through this replica:
    ``clock``, ``unfinished``, and ``.engine`` itself."""

    reads = 0

    @property
    def engine(self):
        CountingReplica.reads += 1
        return self._engine

    @engine.setter
    def engine(self, value):
        self._engine = value

    @property
    def clock(self):
        CountingReplica.reads += 1
        return self._engine.clock

    @property
    def unfinished(self):
        CountingReplica.reads += 1
        return self._engine.unfinished


def replica_reads_per_step(n_replicas, cls=ClusterGateway):
    gateway = cls(engine_factory=make_factory(), n_replicas=n_replicas,
                  balancer="round-robin")
    for i in range(6 * n_replicas):
        gateway.submit(f"variant-{i % N_MODELS:02d}", 32, 6, arrival_s=0.0)
    CountingReplica.reads = 0
    steps = 0
    while gateway.step():
        steps += 1
    assert steps >= 6 * n_replicas
    return CountingReplica.reads / steps


def test_replica_reads_per_step_do_not_grow_with_replicas(monkeypatch):
    monkeypatch.setattr(cluster_mod, "Replica", CountingReplica)
    with sanitized(False):            # its check is the scan, by design
        few, many = replica_reads_per_step(4), replica_reads_per_step(32)
        assert many <= few + 1.0
        # the guard has teeth: the scan reads every replica, every step
        assert replica_reads_per_step(32, ScanGateway) > 3 * 32


# --------------------------------------------------------------------- #
# (d) hash-seed independence of the autoscaled replay
# --------------------------------------------------------------------- #
HASHSEED_SCRIPT = """
import hashlib, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from test_cluster_frontier import ClusterGateway, autoscaled, record_key
gateway, result = autoscaled(ClusterGateway)
digest = hashlib.sha256()
for rec in result.records:
    digest.update(repr(record_key(rec)).encode())
print(len(result.records), len(gateway.retired), digest.hexdigest())
"""


def test_autoscaled_replay_is_identical_across_hash_seeds():
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT, str(REPO / "src"),
             str(REPO / "tests")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert int(outputs[0][0]) > 0 and int(outputs[0][1]) > 0
    assert outputs[0] == outputs[1]
