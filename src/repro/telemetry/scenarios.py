"""Named stress drills with asserted recovery invariants.

Production teams script failure drills ("kill a replica mid-burst, watch
the backlog drain") and gate on *invariants*, not on eyeballing a chart.
This module packages four such drills over the serving stack, each
returning a :class:`ScenarioReport` whose invariants are hard pass/fail
checks evaluated from the telemetry gauge series:

* ``replica-failure-mid-burst`` — drain the busiest replica in the
  middle of a burst; the autoscaler must re-spawn (revive) capacity and
  the backlog must fall back under the scale-up watermark.
* ``thundering-herd`` — a quiet cluster hit by a request spike; the
  autoscaler must scale up and the herd must drain.
* ``scale-from-zero`` — a cold (floor) deployment meets sustained load;
  capacity must reach the demanded level and the queue must drain.
* ``noisy-neighbor`` — one tenant floods a shared replica under VTC
  fair queueing + shedding; the victim tenant's SLO attainment must hold
  at (or recover to) its pre-fault level.

Every drill is seeded and fully deterministic — same name + seed +
quick flag → identical reports — which is what makes them CI-gateable.

Run them via ``python -m repro.cli scenarios <name>|all [--quick]`` or
:func:`run_scenario` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, cast

from ..hardware import node_from_name
from ..serving import (AutoscalerConfig, ClusterGateway, EngineConfig,
                       LLAMA_7B, ModelManager, SchedulerConfig, StackSpec,
                       Tenant, TenantGateway, build)
from ..workload import TenantWorkload, multi_tenant_trace, synthetic_trace
from ..workload.spec import Trace
from . import Telemetry
from .gauges import GaugeSnapshot

__all__ = [
    "InvariantResult", "ScenarioReport", "SCENARIO_NAMES", "run_scenario",
    "run_all",
]


@dataclass(frozen=True)
class InvariantResult:
    """One asserted recovery invariant: what was required, what held."""

    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioReport:
    """The outcome of one drill: invariants + the gauge series behind
    them (exportable as the CI artifact)."""

    name: str
    description: str
    invariants: List[InvariantResult] = field(default_factory=list)
    gauges: List[GaugeSnapshot] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "description": self.description,
            "ok": self.ok,
            "invariants": [{"name": i.name, "passed": i.passed,
                            "detail": i.detail} for i in self.invariants],
            "metrics": dict(self.metrics),
            "gauge_series": [g.as_dict() for g in self.gauges],
        }


# --------------------------------------------------------------------- #
# shared builders
# --------------------------------------------------------------------- #
def _manager(n_models: int, ratio: float = 8.0) -> ModelManager:
    manager = ModelManager(LLAMA_7B)
    manager.register_base("base")
    for i in range(n_models):
        manager.register_delta(f"variant-{i:02d}", "base", ratio)
    return manager


#: every drill's replica: a small DeltaZip engine on one A800
_REPLICA = StackSpec("deltazip", node=node_from_name("a800", 1),
                     scheduler=SchedulerConfig(max_batch_requests=8,
                                               max_concurrent_deltas=4),
                     config=EngineConfig(tp_degree=1))


def _cluster_stack(n_models: int, autoscaler: AutoscalerConfig,
                   telemetry: Telemetry,
                   n_replicas: int = 1) -> ClusterGateway:
    gateway = cast(ClusterGateway, build(
        replace(_REPLICA, replicas=n_replicas, autoscaler=autoscaler),
        _manager(n_models)))
    telemetry.attach(gateway)
    return gateway


def _first_below(series: List[GaugeSnapshot], after_s: float,
                 value: Callable[[GaugeSnapshot], float],
                 threshold: float) -> Optional[float]:
    """Earliest snapshot time >= after_s where value() <= threshold."""
    for snap in series:
        if snap.time_s >= after_s and value(snap) <= threshold:
            return snap.time_s
    return None


def _check(invariants: List[InvariantResult], name: str, passed: bool,
           detail: str) -> None:
    invariants.append(InvariantResult(name=name, passed=passed,
                                      detail=detail))


# --------------------------------------------------------------------- #
# the drills
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[bool, int], ScenarioReport]] = {}


_Drill = Callable[[bool, int], ScenarioReport]


def _register(name: str) -> Callable[[_Drill], _Drill]:
    def deco(fn: _Drill) -> _Drill:
        _REGISTRY[name] = fn
        return fn
    return deco


@_register("replica-failure-mid-burst")
def _replica_failure(quick: bool, seed: int) -> ScenarioReport:
    """Drain a replica at the peak of a burst; capacity must recover."""
    duration = 120.0 if quick else 360.0
    rate = 3.0 if quick else 4.0
    n_models = 4
    high_wm = 4.0
    autoscaler = AutoscalerConfig(min_replicas=2, max_replicas=4,
                                  high_queue_per_replica=high_wm,
                                  low_queue_per_replica=0.5,
                                  check_interval_s=2.0,
                                  scale_up_cooldown_s=4.0,
                                  scale_down_cooldown_s=60.0)
    telemetry = Telemetry(interval_s=1.0)
    gateway = _cluster_stack(n_models, autoscaler, telemetry,
                             n_replicas=2)
    trace = synthetic_trace(n_models, rate=rate, duration_s=duration,
                            seed=seed)
    fault_s = duration / 3.0

    # replay manually so the fault can be injected mid-run
    gateway.reset()
    for request in trace:
        gateway.ingest(request)
    faulted_at: Optional[float] = None
    pre_fault_replicas = 0
    while gateway.step():
        if faulted_at is None and gateway.clock >= fault_s:
            pre_fault_replicas = gateway.n_replicas
            victim = max(gateway.active_replicas(),
                         key=lambda r: (r.unfinished, r.id))
            gateway.drain_replica(victim)
            faulted_at = gateway.clock
    result = gateway.result()
    assert faulted_at is not None, "fault never injected (trace too short)"

    series = [s for s in telemetry.series()
              if isinstance(s, GaugeSnapshot)]
    invariants: List[InvariantResult] = []
    recover_window = 60.0

    recovered_at = _first_below(
        series, faulted_at, lambda s: float(-s.n_replicas),
        -float(pre_fault_replicas))
    _check(invariants, "replica-count-recovers",
           recovered_at is not None and
           recovered_at - faulted_at <= recover_window,
           f"replicas back to >= {pre_fault_replicas} at "
           f"t={recovered_at} (fault at t={faulted_at:.1f}, "
           f"window {recover_window:.0f}s)")

    drained_at = _first_below(
        series, faulted_at,
        lambda s: s.backlog / max(s.n_replicas, 1), high_wm)
    _check(invariants, "backlog-below-watermark",
           drained_at is not None,
           f"backlog/replica <= {high_wm} at t={drained_at} "
           f"after the fault")

    _check(invariants, "no-request-lost",
           result.n_requests == len(trace),
           f"{result.n_requests}/{len(trace)} requests terminal")

    return ScenarioReport(
        name="replica-failure-mid-burst",
        description="drain the busiest replica mid-burst; the "
                    "autoscaler must restore capacity and drain the "
                    "backlog",
        invariants=invariants, gauges=series,
        metrics={"fault_s": faulted_at,
                 "pre_fault_replicas": float(pre_fault_replicas),
                 "recovered_at_s": float(recovered_at or -1.0),
                 "n_requests": float(result.n_requests)})


@_register("thundering-herd")
def _thundering_herd(quick: bool, seed: int) -> ScenarioReport:
    """A quiet cluster hit by a spike; scale up, then drain the herd."""
    herd = 60 if quick else 200
    n_models = 4
    high_wm = 4.0
    autoscaler = AutoscalerConfig(min_replicas=1, max_replicas=4,
                                  high_queue_per_replica=high_wm,
                                  low_queue_per_replica=0.5,
                                  check_interval_s=2.0,
                                  scale_up_cooldown_s=3.0,
                                  scale_down_cooldown_s=120.0)
    telemetry = Telemetry(interval_s=1.0)
    gateway = _cluster_stack(n_models, autoscaler, telemetry,
                             n_replicas=1)
    # a trickle, then the herd arrives within one second at t=30
    trickle = synthetic_trace(n_models, rate=0.2, duration_s=30.0,
                              seed=seed)
    herd_trace = synthetic_trace(n_models, rate=float(herd),
                                 duration_s=1.0, seed=seed + 1)
    requests = list(trickle.requests)
    next_id = len(requests)
    for req in herd_trace.requests:
        req.request_id = next_id
        req.arrival_s = 30.0 + req.arrival_s
        next_id += 1
        requests.append(req)
    trace = Trace(requests=requests, model_ids=trickle.model_ids,
                  duration_s=31.0)

    result = gateway.replay(trace)
    series = [s for s in telemetry.series()
              if isinstance(s, GaugeSnapshot)]
    invariants: List[InvariantResult] = []

    peak_replicas = max((s.n_replicas for s in series), default=0)
    _check(invariants, "autoscaler-reacted", peak_replicas > 1,
           f"peak replicas {peak_replicas} > 1 after the herd")

    drained_at = _first_below(
        series, 31.0, lambda s: s.backlog / max(s.n_replicas, 1),
        high_wm)
    _check(invariants, "herd-drains-below-watermark",
           drained_at is not None,
           f"backlog/replica back under {high_wm} at t={drained_at}")

    _check(invariants, "no-request-lost",
           result.n_requests == len(trace),
           f"{result.n_requests}/{len(trace)} requests terminal")

    return ScenarioReport(
        name="thundering-herd",
        description="a quiet cluster takes a one-second spike of "
                    f"{herd} requests; it must scale and drain",
        invariants=invariants, gauges=series,
        metrics={"herd_size": float(herd),
                 "peak_replicas": float(peak_replicas),
                 "drained_at_s": float(drained_at or -1.0)})


@_register("scale-from-zero")
def _scale_from_zero(quick: bool, seed: int) -> ScenarioReport:
    """A floor deployment meets sustained load after a long idle gap."""
    onset_s = 60.0
    duration = 60.0 if quick else 180.0
    rate = 3.0 if quick else 4.0
    n_models = 4
    high_wm = 3.0
    autoscaler = AutoscalerConfig(min_replicas=1, max_replicas=4,
                                  high_queue_per_replica=high_wm,
                                  low_queue_per_replica=0.5,
                                  check_interval_s=2.0,
                                  scale_up_cooldown_s=3.0,
                                  scale_down_cooldown_s=300.0)
    telemetry = Telemetry(interval_s=1.0)
    gateway = _cluster_stack(n_models, autoscaler, telemetry,
                             n_replicas=1)
    # load starts only after a long cold stretch (the "from zero" part:
    # the deployment sits at its one-replica floor with nothing resident)
    base = synthetic_trace(n_models, rate=rate, duration_s=duration,
                           seed=seed)
    for req in base.requests:
        req.arrival_s += onset_s
    trace = Trace(requests=base.requests, model_ids=base.model_ids,
                  duration_s=onset_s + duration)

    result = gateway.replay(trace)
    series = [s for s in telemetry.series()
              if isinstance(s, GaugeSnapshot)]
    invariants: List[InvariantResult] = []

    scale_window = 60.0
    scaled_at = _first_below(
        series, onset_s, lambda s: float(-s.n_replicas), -2.0)
    _check(invariants, "scales-past-floor",
           scaled_at is not None and scaled_at - onset_s <= scale_window,
           f"replicas >= 2 at t={scaled_at} (onset t={onset_s:.0f}, "
           f"window {scale_window:.0f}s)")

    drained_at = _first_below(
        series, onset_s + duration / 2.0,
        lambda s: s.backlog / max(s.n_replicas, 1), high_wm)
    _check(invariants, "steady-state-below-watermark",
           drained_at is not None,
           f"backlog/replica <= {high_wm} at t={drained_at}")

    _check(invariants, "no-request-lost",
           result.n_requests == len(trace),
           f"{result.n_requests}/{len(trace)} requests terminal")

    return ScenarioReport(
        name="scale-from-zero",
        description="sustained load hits a one-replica floor after a "
                    "long idle stretch; capacity must follow demand",
        invariants=invariants, gauges=series,
        metrics={"onset_s": onset_s,
                 "scaled_at_s": float(scaled_at or -1.0),
                 "drained_at_s": float(drained_at or -1.0)})


@_register("noisy-neighbor")
def _noisy_neighbor(quick: bool, seed: int) -> ScenarioReport:
    """One tenant floods a shared replica; VTC + shedding must hold the
    victim's SLO attainment at its pre-fault level."""
    duration = 90.0 if quick else 240.0
    victim_rate = 0.4
    noisy_quiet, noisy_flood = 0.4, 20.0
    fault_s, clear_s = duration / 3.0, 2.0 * duration / 3.0
    # the noisy tenant's contract caps its in-system requests, so the
    # flood piles up at the admission frontier instead of the engine
    tenants = (Tenant("victim", weight=2.0, slo_class="interactive"),
               Tenant("noisy", weight=1.0, slo_class="batch",
                      max_outstanding=8))

    # a deliberately small replica: the flood must actually hurt
    gateway = cast(TenantGateway, build(replace(
        _REPLICA, scheduler=SchedulerConfig(max_batch_requests=4,
                                            max_concurrent_deltas=2),
        admission="vtc", tenants=tenants, shed=True), _manager(4)))
    telemetry = Telemetry(interval_s=1.0)
    telemetry.attach(gateway)

    victim_pool = ("variant-00", "variant-01")
    noisy_pool = ("variant-02", "variant-03")
    quiet_a = multi_tenant_trace(
        (TenantWorkload("victim", rate=victim_rate, model_ids=victim_pool),
         TenantWorkload("noisy", rate=noisy_quiet, model_ids=noisy_pool)),
        duration_s=fault_s, seed=seed)
    flood = multi_tenant_trace(
        (TenantWorkload("victim", rate=victim_rate, model_ids=victim_pool),
         TenantWorkload("noisy", rate=noisy_flood, model_ids=noisy_pool)),
        duration_s=clear_s - fault_s, seed=seed + 1)
    quiet_b = multi_tenant_trace(
        (TenantWorkload("victim", rate=victim_rate, model_ids=victim_pool),
         TenantWorkload("noisy", rate=noisy_quiet, model_ids=noisy_pool)),
        duration_s=duration - clear_s, seed=seed + 2)
    requests = list(quiet_a.requests)
    for offset, part in ((fault_s, flood), (clear_s, quiet_b)):
        for req in part.requests:
            req.request_id = len(requests)
            req.arrival_s += offset
            requests.append(req)
    trace = Trace(requests=requests, model_ids=quiet_a.model_ids,
                  duration_s=duration)

    # replay manually to snapshot the victim's attainment pre-fault
    gateway.reset()
    for request in trace:
        gateway.ingest(request)
    pre_fault_attainment: Optional[float] = None
    while gateway.step():
        if pre_fault_attainment is None and gateway.clock >= fault_s:
            latest = telemetry.latest()
            if latest is not None:
                pre_fault_attainment = \
                    latest.attainment.get("victim", 1.0)
    gateway.run_until_drained()
    assert pre_fault_attainment is not None, \
        "pre-fault window produced no gauge snapshot"

    series = [s for s in telemetry.series()
              if isinstance(s, GaugeSnapshot)]
    invariants: List[InvariantResult] = []
    final = gateway.slo_attainment()
    eps = 0.05

    _check(invariants, "victim-attainment-holds",
           final["victim"] >= pre_fault_attainment - eps,
           f"victim attainment {final['victim']:.2%} >= pre-fault "
           f"{pre_fault_attainment:.2%} - {eps:.0%}")

    noisy_stats = gateway.controller.stats["noisy"]
    throttled = noisy_stats.deferred + noisy_stats.shed + \
        noisy_stats.rejected
    _check(invariants, "noisy-tenant-throttled",
           throttled > 0,
           f"noisy tenant throttled {throttled} times "
           f"(deferred {noisy_stats.deferred}, shed {noisy_stats.shed}, "
           f"rejected {noisy_stats.rejected}); attainment "
           f"{final['noisy']:.2%} vs victim {final['victim']:.2%}")

    return ScenarioReport(
        name="noisy-neighbor",
        description="one tenant floods a shared replica under VTC + "
                    "shedding; the victim's SLO attainment must hold",
        invariants=invariants, gauges=series,
        metrics={"pre_fault_attainment": pre_fault_attainment,
                 "final_victim_attainment": final["victim"],
                 "final_noisy_attainment": final["noisy"],
                 "noisy_throttled": float(throttled)})


SCENARIO_NAMES = tuple(sorted(_REGISTRY))


def run_scenario(name: str, quick: bool = False,
                 seed: int = 0) -> ScenarioReport:
    """Run one named drill; deterministic per (name, quick, seed)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {', '.join(SCENARIO_NAMES)}")
    return _REGISTRY[name](quick, seed)


def run_all(quick: bool = False, seed: int = 0) -> List[ScenarioReport]:
    """Every registered drill, in name order."""
    return [run_scenario(name, quick=quick, seed=seed)
            for name in SCENARIO_NAMES]
