"""Cluster serving layer: replicated engines, load balancing, autoscaling.

PR 1 made every engine an online submit/step system behind a single
serving gateway — for a single replica on a single node.  This module
scales that surface out:

* :class:`Replica` — one engine on its own :class:`GPUNode`;
* :class:`ReplicaSet` — the gateway's replicas and their spawn /
  un-drain / drain / reap lifecycle on a hardware cluster;
* :class:`LoadBalancer` policies (:data:`BALANCERS` registry):
  ``round-robin``, ``least-outstanding``, and ``lineage`` session affinity
  that keeps a variant's delta resident on the replica that already paid to
  load it;
* :class:`Autoscaler` — an offered-backlog watermark controller with
  cooldowns that spawns and drains the gateway's replicas at runtime;
* :class:`ClusterGateway` — the same ``submit`` / ``step`` /
  ``run_until_drained`` / ``replay`` surface as a single gateway, so
  clients are replica-count-agnostic.

Time is owned by the :mod:`repro.sim` kernel: the gateway holds a
:class:`~repro.sim.SimKernel` whose monotone clock is the cluster
*frontier* (the least busy-replica clock — the single "now" that
routing, autoscaling, and the admission layer above all read), keeps
unrouted trace requests as :class:`~repro.sim.Arrival` events in an
:class:`~repro.sim.EventQueue`, and schedules the autoscaler as
:class:`~repro.sim.AutoscalerTick` events instead of polling it after
every step.  Replicas remain independent discrete-event machines with
their own local clocks (each models its own hardware timeline); the
cluster advances the least-advanced replica that has work, so
per-replica results are identical to running each replica's request
stream on a standalone gateway regardless of interleaving.

Multi-tenant admission control (token buckets, per-tenant quotas, VTC
fair queueing, SLO-aware shedding) sits *in front of* this gateway:
:class:`repro.serving.tenancy.TenantGateway` wraps a cluster gateway,
holds requests at the cluster frontier, and releases the admitted ones
through :meth:`ClusterGateway.ingest`; completions flow back through
:meth:`ClusterGateway.add_completion_listener`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, Type, TypeVar, Union)

from ..hardware.cluster import Cluster, GPUNode
from ..sim import (Arrival, AutoscalerTick, EventQueue, IterationDone,
                   KeyedHeap, ReplicaDrain, ReplicaSpawn, SimKernel)
from ..sim import sanitizer as _sanitizer
from ..workload.spec import Trace, TraceRequest
from .base import DrainLoop, ServingEngine
from .gateway import (CancelSchedule, CompletionCallback, Gateway,
                      TokenCallback)
from .handle import HandleStatus
from .metrics import ServingResult
from .model_manager import unknown_model
from .request import RequestRecord, ServingRequest

__all__ = [
    "Replica", "ReplicaSet", "LoadBalancer", "RoundRobinBalancer",
    "LeastOutstandingBalancer", "LineageAffinityBalancer",
    "ConversationAffinityBalancer",
    "BALANCERS", "create_balancer",
    "AutoscalerConfig", "AutoscalerSample", "Autoscaler",
    "ClusterGateway",
]

#: builds one engine on the node a replica was allocated
EngineFactory = Callable[[GPUNode], ServingEngine]

#: requests a non-home replica must be ahead by to win a lineage choice
AFFINITY_BIAS = 4.0


class Replica:
    """One serving replica: an engine, optionally on a node."""

    def __init__(self, replica_id: int, engine: ServingEngine,
                 name: Optional[str] = None, node: Optional[GPUNode] = None):
        self.id = replica_id
        self.name = name or f"replica-{replica_id}"
        self.node = node
        self.engine = engine
        self.draining = False
        #: clock it is filed under in the gateway's frontier ledger
        self.frontier_key: Optional[float] = None

    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def unfinished(self) -> int:
        return self.engine.unfinished

    @property
    def backlog(self) -> int:
        return self.engine.backlog

    @property
    def running(self) -> Sequence[ServingRequest]:
        return self.engine.batch.requests

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "draining" if self.draining else "active"
        return (f"Replica({self.name}, {state}, "
                f"unfinished={self.unfinished}, clock={self.clock:.1f})")


#: a balancer's member: anything with ``id``, ``draining``, ``unfinished``
M = TypeVar("M")


class ReplicaSet:
    """A :class:`ClusterGateway`'s replicas and their spawn / un-drain /
    drain / reap lifecycle.  ``build(node)`` makes a replica on a node
    acquired from ``cluster`` (``None``: a fleet without a hardware
    ledger).  A draining replica stays in ``members`` while it runs its
    queue dry, then moves to ``retired`` (kept for its stats) and
    returns its node."""

    def __init__(self, build: Callable[[Optional[GPUNode]], Replica],
                 cluster: Optional[Cluster] = None):
        self.members: List[Replica] = []
        self.retired: List[Replica] = []
        self.n_draining = 0               # draining entries of `members`
        self.cluster = cluster
        self._build = build

    def active_replicas(self) -> List[Replica]:
        return [m for m in self.members if not m.draining]

    @property
    def n_replicas(self) -> int:
        return len(self.members) - self.n_draining

    def grow(self) -> Tuple[Replica, bool]:
        """One more active member, and whether it was revived: the
        youngest draining member is un-drained before anything is built
        (no cold start, and draining members still hold their nodes)."""
        revived = self.n_draining > 0
        if revived:
            member = max((m for m in self.members if m.draining),
                         key=lambda m: m.id)
            member.draining = False
            self.n_draining -= 1
        else:
            member = self._build(self.cluster.acquire()
                                 if self.cluster is not None else None)
            self.members.append(member)
        if _sanitizer.enabled():
            _sanitizer.check_replica_set(self, self.cluster)
        return member, revived

    def shrink(self, member: Optional[Replica] = None) -> Replica:
        """Stop routing to one member — by default the cheapest to
        retire: least outstanding work, on ties the youngest."""
        if self.n_replicas <= 1:
            raise RuntimeError("cannot drain the last active replica")
        if member is None:
            member = min(self.active_replicas(),
                         key=lambda m: (m.unfinished, -m.id))
        member.draining = True
        self.n_draining += 1
        if _sanitizer.enabled():
            _sanitizer.check_replica_set(self, self.cluster)
        return member

    def reap(self) -> None:
        """Retire the draining members that ran dry; free their nodes."""
        for member in [m for m in self.members
                       if m.draining and m.unfinished == 0]:
            self.members.remove(member)
            self.retired.append(member)
            self.n_draining -= 1
            if self.cluster is not None and member.node is not None:
                self.cluster.release(member.node)
        if _sanitizer.enabled():
            _sanitizer.check_replica_set(self, self.cluster)


# --------------------------------------------------------------------------- #
# load-balancing policies
# --------------------------------------------------------------------------- #
class LoadBalancer:
    """Chooses the replica that serves each submitted request.

    ``conversation_id`` names the session a request belongs to (None on
    session-free traffic); every caller passes it.
    """

    name: str = "abstract"

    def choose(self, model_id: str, replicas: Sequence[M],
               conversation_id: Optional[str] = None) -> M:
        """Pick one of the eligible (non-draining) replicas."""
        raise NotImplementedError

    def on_removed(self, replica: M, survivors: Sequence[M] = ()) -> None:
        """A replica left the set (drained); drop any state pinned to
        it.  ``survivors`` is the remaining active set, so policies that
        keep residency state can migrate it instead of just dropping."""

    def on_abandoned(self, model_id: str,
                     conversation_id: Optional[str] = None) -> None:
        """A request for this model (and session, when tagged) was
        cancelled/expired; policies that learned an affinity from it may
        drop that state so abandoned work does not keep a variant — or a
        dead conversation — pinned to a replica."""

    def reset(self) -> None:
        """Forget per-run routing state (rotation position, learned
        affinities) so repeated replays stay deterministic.  Explicitly
        pinned assignments survive."""


class RoundRobinBalancer(LoadBalancer):
    """Rotate through replicas regardless of load or residency."""

    name = "round-robin"

    def __init__(self):
        self._turn = 0

    def choose(self, model_id: str, replicas: Sequence[Replica],
               conversation_id: Optional[str] = None) -> Replica:
        replica = replicas[self._turn % len(replicas)]
        self._turn += 1
        return replica

    def reset(self) -> None:
        self._turn = 0


class LeastOutstandingBalancer(LoadBalancer):
    """Send each request to the replica with the fewest unfinished
    requests (join-the-shortest-queue; ties break on replica id)."""

    name = "least-outstanding"

    def choose(self, model_id: str, replicas: Sequence[Replica],
               conversation_id: Optional[str] = None) -> Replica:
        return min(replicas, key=lambda r: (r.unfinished, r.id))


class LineageAffinityBalancer(LoadBalancer):
    """Load-and-residency routing: requests for the same affinity key
    prefer the replica(s) where that key's delta is already resident,
    but spill to a less-loaded replica when the residency advantage is
    outweighed by queue imbalance.

    Each eligible replica is scored ``outstanding + AFFINITY_BIAS *
    (not home)`` (ties break on replica id): a non-home replica wins
    only when it is more than ``AFFINITY_BIAS`` requests ahead.  A
    spill *teaches* the key a secondary home — the delta is swapped
    onto the spill target, so it is genuinely resident there from then
    on (replicated hot deltas).

    ``owner_of`` maps a model id to its affinity key — identity by default
    (per-variant stickiness); the multi-base router passes its lineage
    lookup so every variant of one base lands on that base's replica.
    Unseen keys fall through to a least-outstanding choice; ``pin`` fixes a
    key's home up front, and a pinned key never spills.

    When a home replica drains, keys with a surviving secondary home
    promote it for free (the delta is already there); sole-residency
    keys migrate to the least-loaded survivor, pricing the artifact
    move over the interconnect via
    :meth:`~repro.serving.engine.DeltaZipEngine.receive_delta`.
    """

    name = "lineage"

    def __init__(self, owner_of: Optional[Callable[[str], str]] = None):
        self._owner_of = owner_of or (lambda model_id: model_id)
        self._fallback = LeastOutstandingBalancer()
        self._pinned: Dict[str, Replica] = {}
        self._home: Dict[str, Replica] = {}
        self._secondary: Dict[str, List[Replica]] = {}
        self._conv_home: Dict[str, Replica] = {}

    def pin(self, key: str, replica: Replica) -> None:
        """Fix an affinity key's home replica (survives :meth:`reset`)."""
        self._pinned[key] = replica

    def _valid_homes(self, key: str,
                     routable: Set[Replica]) -> List[Replica]:
        """The key's residencies in ``routable`` that are not draining,
        primary first."""
        candidates: List[Optional[Replica]] = [
            self._pinned.get(key), self._home.get(key)]
        candidates.extend(self._secondary.get(key, ()))
        return [cand for cand in candidates if cand is not None
                and not cand.draining and cand in routable]

    def choose(self, model_id: str, replicas: Sequence[Replica],
               conversation_id: Optional[str] = None) -> Replica:
        # replicas hash and compare by identity: sets test membership
        routable = set(replicas)
        if conversation_id is not None:
            # session turns outrank lineage: the conversation's prefix KV
            # lives on the replica that served its earlier turns
            conv = self._conv_home.get(conversation_id)
            if conv is not None and not conv.draining and conv in routable:
                return conv
        key = self._owner_of(model_id)
        homes = self._valid_homes(key, routable)
        if not homes:
            chosen = self._fallback.choose(model_id, replicas)
            self._home[key] = chosen
        elif homes[0] is self._pinned.get(key):
            # a pin is a placement constraint, not a preference: only
            # that replica is known to be able to serve the key at all
            # (one GPU group per base model), so load never spills it
            chosen = homes[0]
        else:
            at_home = set(homes)
            chosen = min(replicas, key=lambda r: (
                r.unfinished + (0.0 if r in at_home else AFFINITY_BIAS),
                r.id))
            if chosen not in at_home:
                # load outweighed residency; the swap-in makes the delta
                # resident here too, so remember the replication
                self._secondary.setdefault(key, []).append(chosen)
        if conversation_id is not None:
            self._conv_home[conversation_id] = chosen
        return chosen

    def on_removed(self, replica: Replica,
                   survivors: Sequence[Replica] = ()) -> None:
        self._pinned = {k: r for k, r in self._pinned.items()
                        if r is not replica}
        self._conv_home = {k: r for k, r in self._conv_home.items()
                           if r is not replica}
        orphaned = sorted(k for k, r in self._home.items()
                          if r is replica)
        self._home = {k: r for k, r in self._home.items()
                      if r is not replica}
        for key in list(self._secondary):
            kept = [r for r in self._secondary[key] if r is not replica]
            if kept:
                self._secondary[key] = kept
            else:
                del self._secondary[key]
        alive = [r for r in survivors
                 if not r.draining and r is not replica]
        for key in orphaned:
            extras = self._secondary.get(key)
            if extras:
                # a surviving residency already holds the delta: free
                new_home = min(extras, key=lambda r: (r.unfinished, r.id))
                rest = [r for r in extras if r is not new_home]
                if rest:
                    self._secondary[key] = rest
                else:
                    del self._secondary[key]
            elif alive:
                # sole residency drained: migrate the artifact, priced
                # as a peer-to-peer move over the interconnect
                new_home = min(alive, key=lambda r: (r.unfinished, r.id))
                receive = getattr(new_home.engine, "receive_delta", None)
                if receive is not None:
                    try:
                        receive(key, new_home.engine.clock)
                    except KeyError:
                        pass    # affinity key is not a model id
            else:
                continue
            self._home[key] = new_home

    def on_abandoned(self, model_id: str,
                     conversation_id: Optional[str] = None) -> None:
        # a cancelled request must not keep its variant's learned home
        # alive: the next request re-homes by load (explicit pins stay).
        # Conversation keys unpin too, so a drained/abandoned session
        # stops attracting its dead turns to one replica.
        key = self._owner_of(model_id)
        self._home.pop(key, None)
        self._secondary.pop(key, None)
        if conversation_id is not None:
            self._conv_home.pop(conversation_id, None)

    def reset(self) -> None:
        self._home.clear()
        self._secondary.clear()
        self._conv_home.clear()


class ConversationAffinityBalancer(LoadBalancer):
    """Conversation affinity: every turn of a session lands on the
    replica that served its earlier turns — the replica whose prefix
    cache holds that conversation's KV blocks (see
    :mod:`repro.serving.prefix_cache`), so repeat turns hit instead of
    re-prefilling on a cold replica.

    Session-free requests (no ``conversation_id``) fall through to a
    least-outstanding choice, as does the *first* turn of each session
    (which then learns its home).  Homes unpin when their replica drains
    (:meth:`on_removed`) and when a session's request is abandoned
    (:meth:`on_abandoned`), so dead sessions stop steering load.
    """

    name = "conversation"

    def __init__(self):
        self._fallback = LeastOutstandingBalancer()
        self._home: Dict[str, Replica] = {}

    def choose(self, model_id: str, replicas: Sequence[Replica],
               conversation_id: Optional[str] = None) -> Replica:
        if conversation_id is None:
            return self._fallback.choose(model_id, replicas)
        home = self._home.get(conversation_id)
        if home is not None and not home.draining \
                and any(r is home for r in replicas):
            return home
        chosen = self._fallback.choose(model_id, replicas)
        self._home[conversation_id] = chosen
        return chosen

    def on_removed(self, replica: Replica,
                   survivors: Sequence[Replica] = ()) -> None:
        self._home = {k: r for k, r in self._home.items()
                      if r is not replica}

    def on_abandoned(self, model_id: str,
                     conversation_id: Optional[str] = None) -> None:
        if conversation_id is not None:
            self._home.pop(conversation_id, None)

    def reset(self) -> None:
        self._home.clear()


BALANCERS: Dict[str, Type[LoadBalancer]] = {
    cls.name: cls for cls in (RoundRobinBalancer, LeastOutstandingBalancer,
                              LineageAffinityBalancer,
                              ConversationAffinityBalancer)
}


def create_balancer(policy: Union[str, LoadBalancer], **kwargs) -> LoadBalancer:
    """A balancer instance from a policy name (or pass one through)."""
    if isinstance(policy, LoadBalancer):
        return policy
    if policy not in BALANCERS:
        raise KeyError(f"unknown balancer {policy!r}; "
                       f"registered: {sorted(BALANCERS)}")
    return BALANCERS[policy](**kwargs)


# --------------------------------------------------------------------------- #
# autoscaling
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AutoscalerConfig:
    """Watermark controller knobs.

    Scale up when the *offered* backlog per active replica — engine
    backlog plus any requests an admission layer holds at the cluster
    frontier (see :meth:`Gateway.set_admission_probe
    <repro.serving.gateway.Gateway.set_admission_probe>`) — exceeds
    ``high_queue_per_replica``; scale down when it drops below
    ``low_queue_per_replica``.  Cooldowns stop the controller from
    flapping on bursty arrivals.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    high_queue_per_replica: float = 8.0
    low_queue_per_replica: float = 1.0
    check_interval_s: float = 2.0
    scale_up_cooldown_s: float = 5.0
    scale_down_cooldown_s: float = 30.0

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.low_queue_per_replica >= self.high_queue_per_replica:
            raise ValueError("low watermark must sit below the high one")
        for knob, ok, want in (
                ("check_interval_s", self.check_interval_s > 0, "> 0"),
                ("scale_up_cooldown_s", self.scale_up_cooldown_s >= 0, ">= 0"),
                ("scale_down_cooldown_s", self.scale_down_cooldown_s >= 0,
                 ">= 0")):
            if not ok:
                raise ValueError(
                    f"{knob} must be {want}, got {getattr(self, knob)!r}")


@dataclass
class AutoscalerSample:
    """One controller observation (kept for tests and benchmarks)."""

    clock_s: float
    n_replicas: int
    queue_per_replica: float
    action: Optional[str] = None    # "scale_up" | "scale_down" | None


class Autoscaler:
    """Queue-driven replica controller for a :class:`ClusterGateway`.

    The gateway schedules the controller as
    :class:`~repro.sim.AutoscalerTick` events on its sim kernel — one
    tick every ``check_interval_s`` of simulated time — and each fired
    tick calls :meth:`control`, which spawns/drains replicas through the
    gateway.  Observations happen at the *kernel clock* (the cluster
    frontier, :attr:`ClusterGateway.frontier`): the max-of-replicas
    clock used previously runs ahead of the frontier whenever replica
    clocks skew, which silently stretched check intervals and cooldowns
    (see the skewed-clock regression test).  The queue signal is
    admission-aware: requests a tenancy layer holds at the frontier
    (:attr:`ClusterGateway.admission_queued`) count as offered load, so
    the cluster scales before shedding kicks in rather than after.
    """

    def __init__(self, config: Optional[AutoscalerConfig] = None, **kwargs):
        if config is not None and kwargs:
            raise ValueError("pass either an AutoscalerConfig or kwargs")
        self.config = config or AutoscalerConfig(**kwargs)
        self.history: List[AutoscalerSample] = []
        self._last_check: Optional[float] = None
        self._last_up: Optional[float] = None
        self._last_down: Optional[float] = None

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self.history.clear()
        self._last_check = self._last_up = self._last_down = None

    @property
    def max_replica_count(self) -> int:
        return max((s.n_replicas for s in self.history), default=0)

    def control(self, target: "ClusterGateway") -> Optional[str]:
        # observe at the monotone kernel clock (the ratcheted frontier),
        # not the most-advanced replica: a replica that raced ahead must
        # not fast-forward the controller's notion of elapsed time, and
        # an idle-moment fallback to the max clock must not leave
        # _last_check stamped ahead of later frontier observations
        now = target.sim_now
        cfg = self.config
        if self._last_check is not None and \
                now - self._last_check < cfg.check_interval_s:
            return None
        self._last_check = now

        active = target.active_replicas()
        n = len(active)
        # backlog, not unfinished: replayed traces submit far-future
        # arrivals up front, and the controller must not scale on load
        # that has not been offered yet.  Admission-held requests count:
        # they are offered load the engines cannot see.
        offered = sum(r.backlog for r in active) + target.admission_queued
        queue_per = offered / max(n, 1)

        action = None
        overloaded = queue_per > cfg.high_queue_per_replica
        idle = queue_per < cfg.low_queue_per_replica
        if overloaded and n < cfg.max_replicas and \
                self._cooled(self._last_up, now, cfg.scale_up_cooldown_s):
            target.spawn_replica()
            self._last_up = now
            action = "scale_up"
        elif idle and n > cfg.min_replicas and \
                self._cooled(self._last_down, now, cfg.scale_down_cooldown_s) \
                and self._cooled(self._last_up, now, cfg.scale_down_cooldown_s):
            target.drain_replica()
            self._last_down = now
            action = "scale_down"

        self.history.append(AutoscalerSample(
            clock_s=now, n_replicas=target.n_replicas,
            queue_per_replica=queue_per, action=action))
        return action

    @staticmethod
    def _cooled(last: Optional[float], now: float, cooldown_s: float) -> bool:
        return last is None or now - last >= cooldown_s


# --------------------------------------------------------------------------- #
# the cluster gateway
# --------------------------------------------------------------------------- #
class ClusterGateway(Gateway, DrainLoop):
    """Replica-count-agnostic serving frontend over a set of replicas.

    The :class:`~repro.serving.gateway.Gateway` surface — ``submit`` /
    ``step`` / ``run_until_drained`` / ``replay`` / ``result`` — over any
    number of :class:`Replica`\\ s.  Construct it either from an
    ``engine_factory`` plus a hardware
    :class:`~repro.hardware.cluster.Cluster` (homogeneous replicas,
    autoscalable) or from pre-built engines via :meth:`from_engines`
    (heterogeneous replicas, e.g. one per base model).
    """

    def __init__(self, engine_factory: Optional[EngineFactory] = None,
                 cluster: Optional[Cluster] = None,
                 n_replicas: int = 1,
                 balancer: Union[str, LoadBalancer] = "least-outstanding",
                 autoscaler: Optional[Autoscaler] = None,
                 on_token: Optional[TokenCallback] = None,
                 on_request_complete: Optional[CompletionCallback] = None,
                 journal: bool = False,
                 telemetry=None, _fixed: bool = False):
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        super().__init__(on_token, on_request_complete)
        # the one clock: kernel time is the cluster frontier, and every
        # cross-layer event (spawns, drains, autoscaler ticks, engine
        # events when journaled or observed) flows through it
        self.kernel = SimKernel(journal=journal)
        self.balancer = create_balancer(balancer)
        self.autoscaler = autoscaler
        self._factory = engine_factory
        self._next_replica_id = 0
        # trace requests awaiting routing: replay defers each routing
        # decision until the simulation frontier reaches the arrival, so
        # balancers and the autoscaler see the load actually offered so far
        self._unrouted = EventQueue()     # Arrival events on the kernel
        self._ticks = EventQueue()        # scheduled AutoscalerTicks
        self._owner: Dict[int, Replica] = {}       # routed request -> replica
        #: unrouted request -> its earliest cancel so far (None: none yet)
        self._pending_cancels: Dict[int, Optional[Tuple[float, str]]] = {}
        self._set = ReplicaSet(self._build_replica, cluster)
        self.replicas: List[Replica] = self._set.members   # the same lists
        self.retired: List[Replica] = self._set.retired
        self._sanitize = _sanitizer.enabled()
        # the frontier ledger: busy replicas by (clock, id), see least_busy
        self._busy: KeyedHeap[Replica] = KeyedHeap()
        self._least: Optional[Replica] = None      # least_busy()'s last answer
        if not _fixed:
            if engine_factory is None:
                raise ValueError(
                    "pass an engine_factory (or use from_engines)")
            if autoscaler is not None:
                n_replicas = max(n_replicas, autoscaler.config.min_replicas)
            ceiling = n_replicas if autoscaler is None else \
                max(n_replicas, autoscaler.config.max_replicas)
            if cluster is not None and cluster.n_nodes < ceiling:
                raise ValueError(
                    f"cluster has {cluster.n_nodes} nodes but up to "
                    f"{ceiling} replicas were requested")
            for _ in range(n_replicas):
                self.spawn_replica()
        self._schedule_tick(0.0)
        self._wire()                      # an on_token callback taps now
        if telemetry is not None:
            telemetry.attach(self)

    @classmethod
    def from_engines(cls, engines: Sequence[ServingEngine],
                     names: Optional[Sequence[str]] = None,
                     balancer: Union[str, LoadBalancer] = "least-outstanding",
                     on_token: Optional[TokenCallback] = None,
                     on_request_complete: Optional[CompletionCallback] = None
                     ) -> "ClusterGateway":
        """A fixed replica set over pre-built (possibly heterogeneous)
        engines; replica *i* is named ``names[i]`` when given."""
        if not engines:
            raise ValueError("need at least one engine")
        if names is not None and len(names) != len(engines):
            raise ValueError("names must match engines one-to-one")
        gateway = cls(balancer=balancer, on_token=on_token,
                      on_request_complete=on_request_complete, _fixed=True)
        for i, engine in enumerate(engines):
            name = names[i] if names is not None else None
            gateway.replicas.append(
                gateway._build_replica(None, engine, name))
        return gateway

    # ------------------------------------------------------------------ #
    # replica-set management
    # ------------------------------------------------------------------ #
    def active_replicas(self) -> List[Replica]:
        return self._set.active_replicas()

    @property
    def n_replicas(self) -> int:
        return len(self.replicas) - self._set.n_draining

    def lead_engine(self) -> Optional[ServingEngine]:
        pool = self.replicas or self.retired
        return pool[0].engine if pool else None

    def engines(self) -> List[ServingEngine]:
        return [r.engine for r in self.replicas]

    def spawn_replica(self) -> Replica:
        """Bring one more replica online at the current cluster clock
        (a still-draining one is revived first: :meth:`ReplicaSet.grow`)."""
        replica, revived = self._set.grow()
        self.kernel.emit(ReplicaSpawn(time=self.kernel.now,
                                      replica_id=replica.id, revived=revived))
        return replica

    def drain_replica(self, replica: Optional[Replica] = None) -> Replica:
        """Stop routing to one replica; it is retired once it drains."""
        if replica is not None and replica.draining:
            return replica
        replica = self._set.shrink(replica)
        self.kernel.emit(ReplicaDrain(time=self.kernel.now,
                                      replica_id=replica.id))
        self.balancer.on_removed(replica, self.active_replicas())
        self._reap_drained()
        return replica

    def _build_replica(self, node: Optional[GPUNode],
                       engine: Optional[ServingEngine] = None,
                       name: Optional[str] = None) -> Replica:
        """A wired replica on ``node`` — around ``engine`` when given
        (:meth:`from_engines`), else around one the factory builds."""
        if engine is None:
            if self._factory is None:
                raise RuntimeError("this gateway has a fixed replica set "
                                   "(no engine factory)")
            engine = self._factory(node)
            # the new replica joins *now*: its private clock starts at the
            # cluster clock so cold-start latencies are measured from spawn
            engine.clock = max(engine.clock, self.clock)
        replica = Replica(self._next_replica_id, engine, name=name, node=node)
        self._next_replica_id += 1
        engine.on_finish = self._finish_hook
        if self._token_tap:
            engine.on_token = self._token_hook
        if self.kernel.journal is not None or self._telemetry is not None:
            # publish engine events into the journal and/or onward to the
            # telemetry layer (each built only if the kernel wants it)
            engine.on_event = self.kernel.emit
        return replica

    def _reap_drained(self) -> None:
        if self._set.n_draining:
            self._set.reap()

    # ------------------------------------------------------------------ #
    # the single-gateway surface
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """The most-advanced replica's clock (the makespan frontier)."""
        return max((r.engine.clock for r in self.replicas + self.retired),
                   default=0.0)

    @property
    def frontier(self) -> float:
        """The least busy-replica clock — the point the simulation cannot
        retreat behind while work is in flight.  Routing and the
        admission layer above observe *this* "now": unlike :attr:`clock`
        a single fast replica does not drag it forward.  With no busy
        replica it falls back to :attr:`clock` (where the cluster last
        stopped), which can sit ahead of where a lagging replica resumes;
        consumers needing strict monotonicity use :attr:`sim_now`."""
        least = self.least_busy()
        return least.frontier_key if least is not None else self.clock

    def least_busy(self) -> Optional[Replica]:
        """The busy replica with the least ``(clock, id)``: the top of
        the frontier ledger, a lazy min-heap holding one live entry per
        busy replica (the one under its ``frontier_key``).  The gateway
        re-files a replica when it steps it or hands it a request and
        drops superseded entries here.  Outside writers only move a busy
        clock forward, so a stale key under-estimates and checking the
        top against the live engine keeps every read exact — as it keeps
        the last answer, reused while its engine is busy at its key."""
        least = self._least
        if least is not None and least.engine.unfinished > 0 and \
                least.engine.clock == least.frontier_key:
            return least
        busy = self._busy
        while (replica := busy.peek()) is not None:
            key = busy.peek_key()[0]
            live = key == replica.frontier_key
            engine = replica.engine
            if live and engine.unfinished > 0 and engine.clock == key:
                self._least = replica
                return replica
            busy.pop()
            if live:
                self._rekey(replica)            # moved by an outside writer
        return None

    def _rekey(self, replica: Replica) -> None:
        """File ``replica`` under its current clock (idle: unfile it)."""
        engine = replica.engine
        key = engine.clock if engine.unfinished > 0 else None
        if key != replica.frontier_key:
            replica.frontier_key = key
            self._least = None
            if key is not None:
                self._busy.push((key, replica.id), replica)

    @property
    def sim_now(self) -> float:
        """The monotone kernel clock: :attr:`frontier` ratcheted forward.
        This is the autoscaler's observation clock — it reflects frontier
        progress even between steps, but never runs backward across an
        idle fallback."""
        return self.kernel.advance(self.frontier)

    @property
    def unfinished(self) -> int:
        return sum(r.unfinished for r in self.replicas) + \
            len(self._unrouted)

    @property
    def backlog(self) -> int:
        """Cluster-wide arrived-but-unfinished requests."""
        return sum(r.backlog for r in self.replicas)

    def _accept(self, request: TraceRequest) -> None:
        """A submitted request is routed at once: the balancer picks its
        replica, whose engine holds it until its arrival.  Affinity
        balancers send a ``conversation_id``-tagged request to the
        session's home replica, whose prefix cache (when enabled) skips
        re-prefilling the shared history."""
        active = self.active_replicas()
        if not active:
            raise RuntimeError("no active replicas")
        self._assign(request, active)

    def _assign(self, request: TraceRequest, active: List[Replica]) -> Replica:
        """One routing decision: the balancer's replica takes the request."""
        replica = self.balancer.choose(request.model_id, active,
                                       request.conversation_id)
        replica.engine.submit(request)
        self._owner[request.request_id] = replica
        self._rekey(replica)
        if self._sanitize:
            _sanitizer.check_cluster_frontier(self)
        return replica

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        """Cancel one request at simulated time ``at_s`` (default: now).

        Routed requests forward the cancel to their owning replica's
        engine (freeing its batch slot there); not-yet-routed requests
        carry their earliest cancel with them — applied by the owning
        engine after routing, or withdrawn here (:meth:`Gateway._withdraw`)
        when the cancel time precedes the arrival (the request never enters
        a replica, and the lineage balancer never pins its abandoned work).
        A cancel for an id that is neither is stale and ignored, as on
        every engine.
        """
        rid = int(request_id)
        if at_s is None:
            at_s = self.sim_now
        owner = self._owner.get(rid)
        if owner is not None:
            owner.engine.schedule_cancel(rid, float(at_s), reason=reason)
        elif rid in self._pending_cancels:
            pending = self._pending_cancels[rid]
            if pending is None or at_s < pending[0]:
                self._pending_cancels[rid] = (float(at_s), reason)

    def ingest(self, request: TraceRequest) -> int:
        """Accept a fully-formed :class:`TraceRequest` verbatim.

        Preserves the caller's request id and arrival time; the request is
        routed once the simulation frontier reaches its arrival (see
        :meth:`_route_due`), exactly like trace replay.  This is the entry
        point the admission layer releases requests through.  An id still
        live here (unrouted or routed), or a model no replica's manager
        registers, is rejected.
        """
        rid = request.request_id
        if rid in self._pending_cancels or rid in self._owner:
            raise ValueError(f"request id {rid!r} is already live")
        if not self._serves(request.model_id):
            raise unknown_model(request)
        self._unrouted.push(Arrival(time=request.arrival_s, request=request))
        self._pending_cancels[rid] = None
        self._next_id = max(self._next_id, request.request_id + 1)
        return request.request_id

    def _serves(self, model_id: str) -> bool:
        # replicas share one manager unless built from_engines over
        # several (one per base model): the first replica answers
        return any(model_id in replica.engine.manager
                   for replica in self.replicas)

    def _wire(self) -> None:
        """Lazily fan the engines' token callbacks into cluster-level
        listeners and handles (installed on demand so replay paths
        without handles pay no per-token overhead)."""
        if not self._token_tap and self._wants_tokens():
            self._token_tap = True
            for replica in self.replicas:
                replica.engine.on_token = self._token_hook

    def step(self) -> bool:
        """Advance the least-advanced replica that has work by one engine
        iteration; False once no replica can make progress (all drained,
        past their sim-time cap, or wedged on inadmissible requests)."""
        return self._step_from(self._route_due()) is not None

    def _step_from(self, first: Optional[Replica]) -> Optional[Replica]:
        """:meth:`step` once routing returned the least busy ``first``:
        the replica it advanced, or None."""
        if first is not None:
            if self._step_replica(first):
                return first
            # the least-advanced replica is at its own horizon or wedged:
            # fall through to the other busy ones in (clock, id) order
            for replica in sorted(
                    (r for r in self.replicas
                     if r is not first and r.frontier_key is not None),
                    key=lambda r: (r.engine.clock, r.id)):
                if self._step_replica(replica):
                    return replica
        self._reap_drained()
        return None

    def _step_replica(self, replica: Replica) -> bool:
        """One engine iteration on ``replica`` if it may run.  A step that
        applied a due cancel to the engine's last request retires it *and*
        returns False: a moved ``unfinished`` is progress too, or
        :meth:`step` would advance the next replica — possibly past an
        arrival due at its clock — without going back through routing."""
        engine = replica.engine
        unfinished = engine.unfinished
        if unfinished > 0 and \
                engine.clock < engine.config.max_sim_seconds and \
                (engine.step() or engine.unfinished != unfinished):
            self._rekey(replica)
            self._made_progress()
            return True
        return False

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished (the
        drain loop: :class:`~repro.serving.base.DrainLoop`)."""
        self._drain()
        return self.result()

    # the drain loop's parent hooks: the members are the replicas
    @property
    def observed(self) -> bool:
        """The replica engines' token tap (a token listener or handle),
        an ``IterationDone`` subscriber or journal; a subclass that steps
        or drains its own way.  Completion listeners and telemetry bound
        the horizon instead."""
        cls = type(self)
        return self._token_tap or self.kernel.wants(IterationDone) \
            or cls.step is not ClusterGateway.step \
            or cls.run_until_drained is not ClusterGateway.run_until_drained

    def _least_member(self) -> Optional[Replica]:
        # not step(): routing again before the step could place an
        # arrival that one step per turn places after it
        return self._route_due()

    def _turn(self) -> float:
        """The next autoscaler and gauge tick: the cluster fires each as
        the frontier reaches it (:meth:`_made_progress`), and an admission
        layer above reads it again after."""
        bound = self._ticks.peek_time()
        if bound is None:
            bound = math.inf
        telemetry = self._telemetry
        if telemetry is not None and telemetry.next_tick_s < bound:
            bound = telemetry.next_tick_s
        return bound

    def _horizon(self, replica: Replica) -> float:
        """The next unrouted arrival (routed on ``due <= frontier``; the
        ticks are :meth:`_turn`'s).  While a completion listener may
        inject work, also the earliest time another busy replica could
        start an iteration that is not quiet (it finishes or admits): its
        callback runs there.  Between these the replicas are independent
        timelines, and a coast moves nothing a balancer or
        :class:`Autoscaler` reads (``unfinished``, ``backlog``)."""
        horizon = replica.engine.config.max_sim_seconds   # _step_replica's
        head = self._unrouted.peek_time()
        if head is not None and head < horizon:
            horizon = head
        if self._listeners:
            for other in self.replicas:
                if other is not replica and other.frontier_key is not None:
                    engine = other.engine
                    quiet = engine._quiet_at    # kept until it moves
                    if quiet is None:
                        quiet = engine._quiet_until()
                    if quiet < horizon:
                        horizon = quiet
        return horizon

    def _finish_bound(self, replica: Replica) -> float:
        """While a completion listener hears finishes (and may read the
        frontier or inject work), the least clock the other busy replicas
        are filed under (a stale key only under-estimates): a finish
        coasts only where a step would have run it."""
        bound = math.inf
        if self._listeners:
            for other in self.replicas:
                key = other.frontier_key
                if key is not None and key < bound and other is not replica:
                    bound = key
        return bound

    def _coast_watch(self, replica: Replica) -> Tuple[
            List[Tuple[str, Optional[float]]], List[Tuple[str, Any]]]:
        bounds = [("an unrouted arrival", self._unrouted.peek_time()),
                  ("an autoscaler tick", self._ticks.peek_time())]
        if self._telemetry is not None:
            bounds.append(("a telemetry tick", self._telemetry.next_tick_s))
        if self._listeners:
            bounds += [(f"a completion on busy {other.name}",
                        other.engine._quiet_until())
                       for other in self.replicas if other is not replica
                       and other.engine.unfinished > 0]
        return bounds, []

    def _coast_member(self, replica: Replica, horizon: float) -> bool:
        """Let ``replica`` coast to ``horizon``, re-file it and redo the
        post-step bookkeeping: a tick the run crossed fires at this
        frontier, not one real step later.  Did it move?"""
        engine = replica.engine
        watch = (engine.clock, engine.batch.epoch,
                 _sanitizer.coast_ledger(engine),
                 self._watch(replica)[0]) if self._sanitize else None
        moved = engine._coast(horizon, self._finish_bound(replica))
        if watch is not None:         # the check reads the clock itself
            moved = engine.clock > watch[0]
        if not moved:
            return False
        self._rekey(replica)
        self._made_progress()
        if watch is not None:
            now, head = self.kernel.now, self._ticks.peek_time()
            _sanitizer.check_coast_bounds(
                replica.name, engine, *watch, [(
                    "the cluster's bookkeeping (kernel at the frontier, no "
                    "tick behind it)", True, now >= self.frontier and (
                        self.autoscaler is None or head is None
                        or head > now))])
        return True

    def _made_progress(self) -> bool:
        """Post-step bookkeeping: advance the kernel clock to the new
        frontier and fire any autoscaler tick it has reached."""
        self._reap_drained()
        if self._sanitize:
            _sanitizer.check_cluster_frontier(self)
        now = max(self.kernel.now, self.frontier)
        fired = False
        if self.autoscaler is not None:
            if not self._ticks:
                # an autoscaler attached after construction still gets
                # its first tick (due immediately, like at reset)
                self._schedule_tick(now)
            if self._ticks.peek_time() <= now:
                # journal fired ticks *before* advancing the kernel past
                # them: a tick is never emitted behind the kernel clock
                # (the sanitizer's no-past-events invariant)
                for tick in self._ticks.pop_due(now):
                    self.kernel.emit(tick)
                fired = True
        self.kernel.advance(now)
        if fired:
            self.autoscaler.control(self)
            self._schedule_tick(now + self.autoscaler.config.check_interval_s)
        telemetry = self._telemetry
        if telemetry is not None and now >= telemetry.next_tick_s:
            # after all emissions for this step (including autoscaler
            # spawns/drains) so forwarded kernel-timeline events never
            # land behind the telemetry clock
            telemetry.advance(now)
        return True

    def _schedule_tick(self, at: float) -> None:
        if self.autoscaler is not None:
            self._ticks.push(AutoscalerTick(time=at))

    def _route_due(self) -> Optional[Replica]:
        """Route unrouted trace requests the frontier has reached;
        returns the least busy replica once they are placed.

        The frontier is the kernel clock (least busy-replica clock) — the
        cluster never simulates a replica below it, so routing everything
        due by then (in arrival order) gives each replica its requests
        before it could step past their arrival, and no earlier.  With
        every replica idle the next arrival group is released to restart
        the clocks: the cluster-level idle-skip.

        A request whose scheduled cancel precedes its arrival never
        reaches a replica: it is withdrawn at its arrival as a
        cancelled/expired record, consumes no balancer choice, and — when
        every due request was withdrawn while all replicas idle — the next
        arrival group is released immediately so the drain cannot wedge.
        """
        busy = self.least_busy()
        while self._unrouted:
            was_busy = busy is not None
            due = self._unrouted.peek_time()
            frontier = busy.frontier_key if was_busy else due
            if due > frontier:
                break
            routed_any = False
            for event in self._unrouted.pop_due(frontier):
                request = event.request
                pending = self._pending_cancels.pop(request.request_id, None)
                if pending is not None and pending[0] <= request.arrival_s:
                    # never enters a replica: withdrawn at its arrival
                    self._record_completion(self._withdraw(
                        request, request.arrival_s, pending[1]))
                    continue
                replica = self._assign(request, self.active_replicas())
                if pending is not None:
                    replica.engine.schedule_cancel(
                        request.request_id, pending[0], reason=pending[1])
                routed_any = True
            busy = self.least_busy()
            if routed_any or was_busy:
                break
        return busy

    def result(self) -> ServingResult:
        """Merged cluster-level snapshot of completions so far (records
        of requests cancelled before routing included)."""
        parts = list(self.results_by_replica().values())
        if self._withdrawn:
            parts.append(ServingResult(engine="cluster", makespan_s=1e-9,
                                       records=list(self._withdrawn)))
        merged = ServingResult.merge(
            parts, engine="cluster",
            config={"replicas": len(self.replicas) + len(self.retired),
                    "balancer": self.balancer.name})
        if self.autoscaler is not None:
            merged.config["max_replicas_seen"] = \
                self.autoscaler.max_replica_count
        return merged

    def results_by_replica(self) -> Dict[str, ServingResult]:
        """Per-replica results keyed by replica name (retired included)."""
        return {r.name: r.engine.build_result()
                for r in self.retired + self.replicas}

    def replay(self, trace: Trace,
               cancels: Optional[CancelSchedule] = None) -> ServingResult:
        """Serve a pre-materialized trace as if it arrived live.

        Each request is routed only once the simulation frontier reaches
        its arrival (see :meth:`_route_due`), so load-dependent balancers
        and the autoscaler react to offered load, not to a trace they can
        see into the future of.  Request ids and arrival times are
        preserved verbatim, and routing happens in arrival order — with
        one replica (or a pinned lineage balancer) per-replica records
        are bit-identical to ``engine.run(sub_trace)`` on the matching
        partition.  ``cancels`` schedules client cancellations as
        ``(request_id, at_s)`` pairs; ``None`` replays bit-identically to
        a pre-cancellation run.
        """
        return self._replay(trace, cancels)

    def reset(self) -> None:
        """Fresh simulated timeline on the current replica set (replicas
        retired by earlier scale-downs are dropped, not resurrected).
        Registered listeners survive; per-request handles do not."""
        for replica in self.replicas:
            replica.engine.reset()
            replica.frontier_key = None
        self._busy.clear()
        self._least = None
        self.retired.clear()
        self.kernel.reset()
        self._unrouted.clear()
        self._ticks.clear()
        self._schedule_tick(0.0)
        self._owner.clear()
        self._pending_cancels.clear()
        self.balancer.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        super().reset()

    # ------------------------------------------------------------------ #
    # completions
    # ------------------------------------------------------------------ #
    def _finish_hook(self, request: ServingRequest, clock: float) -> None:
        """Every replica engine's ``on_finish``."""
        self._record_completion(request.record())

    def _record_completion(self, record: RequestRecord) -> None:
        if not record.finished:
            self.balancer.on_abandoned(record.model_id,
                                       record.conversation_id)
        # the routing entry of a terminal request goes, so cluster maps
        # stay O(active)
        self._owner.pop(record.request_id, None)
        self._complete(record)
        if self._sanitize:
            _sanitizer.check_cluster_released(self, record)

    def _status_of(self, request_id: int) -> HandleStatus:
        """Live status for a handle: the owning replica's view, or
        QUEUED while the request is still unrouted."""
        owner = self._owner.get(request_id)
        if owner is not None:
            return self._engine_status(owner.engine, request_id)
        return HandleStatus.QUEUED
