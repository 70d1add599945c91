"""Disaggregated prefill/decode serving and multi-node sharded serving.

Modern LLM serving separates the two phases of a request's life onto
different machines (DistServe, Splitwise): *prefill* is compute-bound
and batches well by tokens, *decode* is memory-bound and batches well
by requests, so colocating them forces one pool's batching policy onto
the other.  This module builds that architecture on top of the existing
engine template and the cluster layer's fleet mechanism:

* :class:`DisaggregatedEngine` (registered ``disagg``) owns two
  heterogeneous worker pools on one :class:`~repro.hardware.cluster.
  Cluster` — a prefill pool running chunked prefill to completion and a
  decode pool running continuous batching.  Each pool *is* a
  :class:`~repro.serving.cluster.ReplicaSet` (a cluster gateway's spawn
  / un-drain / drain / reap lifecycle) routed by a cluster
  :class:`~repro.serving.cluster.LoadBalancer`.  When a request's
  prefill finishes, its KV blocks cross the node interconnect as a typed
  :class:`~repro.sim.KvTransfer` event priced by
  :func:`~repro.serving.kv_transfer.plan_kv_transfer` (uncached suffix
  only when the prefill side's prefix cache held the shared prefix),
  and the request resumes decoding on the least-loaded decode worker.
* Scaling is pool-aware: each pool takes its own
  :class:`~repro.serving.cluster.Autoscaler` — separate watermarks,
  cooldowns and check intervals per role — so a prefill-heavy burst
  grows the prefill pool without over-provisioning decode.
* :class:`ShardedEngine` (registered ``sharded``) spans one
  tensor-parallel group across several cluster nodes, charging the
  per-layer inter-node ring all-reduce over the same
  :class:`~repro.hardware.interconnect.InterconnectModel` on top of the
  intra-node collective already priced by
  :class:`~repro.serving.costs.IterationCostModel`.

Determinism contract: pool workers are full
:class:`~repro.serving.engine.DeltaZipEngine` instances on their own
kernel clocks; the owner steps whichever busy worker is earliest
(ties broken by worker id), decode workers never idle-jump past the
prefill frontier (a handoff can only be scheduled at or after the
prefill worker's clock), and idle jumps are clamped to autoscaler
check boundaries — so run-to-run and idle-skip replays produce
identical records, and every existing engine is bit-identical with
disaggregation off (nothing in this module runs unless constructed).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields, replace
from math import inf
from typing import Any, Dict, List, Optional, Set, Tuple, Type

from ..hardware.cluster import Cluster, GPUNode
from ..hardware.interconnect import InterconnectModel
from ..sim import Event, KvTransfer, PhaseTransition
from ..sim import sanitizer as _sanitizer
from ..workload.spec import TraceRequest
from .base import (Admission, EngineConfig, ServingEngine, register_engine)
from .cluster import (Autoscaler, ConversationAffinityBalancer,
                      LeastOutstandingBalancer, LoadBalancer, ReplicaSet)
from .costs import BatchComposition
from .engine import DeltaZipEngine
from .kv_transfer import plan_kv_transfer
from .metrics import EngineStats
from .model_manager import ArtifactKind, ModelManager
from .models import FP16
from .request import RequestState, ServingRequest
from .scheduler import SchedulerConfig

__all__ = ["DEFAULT_PREFILL_CHUNK_TOKENS", "DisaggregatedEngine",
           "ShardedEngine"]

#: token budget of one chunked-prefill slab on a prefill worker
DEFAULT_PREFILL_CHUNK_TOKENS = 512


# --------------------------------------------------------------------- #
# pool workers
# --------------------------------------------------------------------- #
class _PoolWorker(DeltaZipEngine):
    """One pool member: a DeltaZip engine on its own timeline.

    Workers forward finishes (and, while it has a listener, tokens and
    events) to the owning :class:`DisaggregatedEngine`, which maintains
    the canonical (client-visible) requests.  A worker is itself its pool's
    :class:`~repro.serving.cluster.ReplicaSet` member (``id``,
    ``draining``): a draining worker accepts no new routes but runs its
    queue dry before its node is released.
    """

    role = "worker"

    def __init__(self, owner: "DisaggregatedEngine", worker_id: int,
                 node: GPUNode):
        self.owner = owner
        self.id = worker_id
        self.draining = False
        self.name = f"disagg.{self.role}{worker_id}"
        super().__init__(owner.manager, node, owner.scheduler_config,
                         owner.config)
        self.on_finish = self._finish_to_owner

    # forwarded hooks: finish is permanent, the owner's _wire_hooks
    # installs the other two only while it has a listener for them
    def _finish_to_owner(self, req: ServingRequest, clock_s: float) -> None:
        self.owner._on_worker_finish(self, req, clock_s)

    def _event_to_owner(self, event: Event) -> None:
        self.owner._on_worker_event(self, event)

    def _next_wake(self) -> Optional[float]:
        """Clamp idle jumps to the owner's next autoscaler check so the
        controllers observe the pools at their scheduled boundaries in
        both idle-skip modes (a jump may not overshoot a check)."""
        wake = super()._next_wake()
        bound = self.owner._next_check_s
        if wake is not None and self.clock < bound < wake:
            return bound
        return wake


class _PrefillWorker(_PoolWorker):
    """Prefill pool member: chunked prefill, requests retire after one
    token (their surrogate trace asks for exactly one output token)."""

    role = "prefill"

    def iteration_cost(self,
                       admitted: List[ServingRequest]) -> Optional[float]:
        batch = self._compose(admitted)
        if batch.empty:
            return None
        self._last_batch = batch
        chunk = self.owner.prefill_chunk_tokens
        if batch.decode_per_delta or batch.prefill_tokens <= chunk:
            return self.cost.iteration_time(batch, self.config.variant_kind)
        # chunked prefill: slab the token budget across deltas in id
        # order; later slabs attend over earlier ones (context grows)
        total = 0.0
        processed = 0
        remaining = dict(sorted(batch.prefill_tokens_per_delta.items()))
        while remaining:
            slab: Dict[str, int] = {}
            space = chunk
            for delta_id in sorted(remaining):
                if space <= 0:
                    break
                take = min(remaining[delta_id], space)
                slab[delta_id] = take
                space -= take
            for delta_id, take in slab.items():
                left = remaining[delta_id] - take
                if left:
                    remaining[delta_id] = left
                else:
                    del remaining[delta_id]
            total += self.cost.iteration_time(
                BatchComposition(decode_per_delta={},
                                 prefill_tokens_per_delta=slab,
                                 context_tokens=batch.context_tokens
                                 + processed),
                self.config.variant_kind)
            processed += sum(slab.values())
        return total


class _DecodeWorker(_PoolWorker):
    """Decode pool member: continuous batching over handed-off requests.

    Arrivals are *resumes*, not fresh prefills: the owner seeds each
    handed-off request as already prefilled (KV arrived over the wire),
    so the engine's swap-resume path admits it straight into decode.
    """

    role = "decode"

    def _reset_engine(self) -> None:
        super()._reset_engine()
        # prefix reuse is priced once, on the prefill side; the decode
        # pool sees only post-transfer KV state
        self._prefix_cache = None
        self._seeded: Dict[int, int] = {}

    def seed(self, request_id: int, cached_prefix_tokens: int) -> None:
        self._seeded[request_id] = cached_prefix_tokens

    def on_arrival(self, request: ServingRequest) -> None:
        cached = self._seeded.pop(request.request_id, None)
        if cached is not None:
            request.generated_tokens = 1      # the prefill pool's token
            request.prefilled = True
            request.cached_prefix_tokens = cached
            self.owner._note_arrived(request.request_id)
        super().on_arrival(request)

    def _bounded_jump(self, target: float) -> float:
        # never idle-jump past the prefill frontier: a busy prefill
        # worker at clock T can still hand off a request arriving >= T,
        # so the decode clock must not pass T before that submit lands.
        bound = self.owner._prefill_frontier()
        if bound is not None and target > bound:
            target = max(self.clock, bound)
        return super()._bounded_jump(target)


# --------------------------------------------------------------------- #
# worker pools
# --------------------------------------------------------------------- #
class _Pool(ReplicaSet[_PoolWorker]):
    """One role's workers: a :class:`~repro.serving.cluster.ReplicaSet`
    whose members are the worker engines, the balancer that routes to
    them, and the six members an :class:`~repro.serving.cluster.
    Autoscaler` reads and drives on its target."""

    def __init__(self, owner: "DisaggregatedEngine",
                 worker_cls: Type[_PoolWorker], balancer: LoadBalancer,
                 scaler: Optional[Autoscaler]):
        super().__init__(self._build_worker, owner._cluster)
        self.owner = owner
        self.role = worker_cls.role
        self.balancer = balancer
        self.scaler = scaler
        self._worker_cls = worker_cls
        self.sim_now = 0.0    # the check boundary the controller observes
        self.next_check_s = inf
        if scaler is not None:
            scaler.reset()
            self.next_check_s = scaler.config.check_interval_s

    def _build_worker(self, node: Optional[GPUNode]) -> _PoolWorker:
        assert node is not None           # pools always sit on a cluster
        owner = self.owner
        worker = self._worker_cls(owner, owner._next_worker_id, node)
        owner._next_worker_id += 1
        worker.clock = self.sim_now       # cold start counts from spawn
        owner._wire_hooks(worker)
        return worker

    # the rest of what an Autoscaler asks of its target ----------------- #
    @property
    def admission_queued(self) -> int:
        # KV moves in flight: decode load its engines cannot see yet
        return len(self.owner._in_transfer) if self.role == "decode" else 0

    def recent_ttft_percentile(self, q: float = 90.0) -> float:
        return 0.0                        # pools scale on backlog alone

    def spawn_replica(self) -> _PoolWorker:
        return self.grow()[0]

    def drain_replica(self) -> _PoolWorker:
        worker = self.shrink()
        # e.g. conversation homes pinned to it re-learn on the next turn
        self.balancer.on_removed(worker, self.active_replicas())
        return worker


# --------------------------------------------------------------------- #
# the disaggregated engine
# --------------------------------------------------------------------- #
@register_engine
class DisaggregatedEngine(ServingEngine):
    """Prefill/decode disaggregation over heterogeneous worker pools.

    The engine satisfies the full :class:`~repro.serving.base.
    ServingEngine` protocol (submit/step/abort/lookup/backlog/
    build_result) by *delegation*: every request is routed to a prefill
    worker at submit time (conversation affinity when the prefix cache
    is on, least-outstanding otherwise), runs prefill to completion
    there, pays the priced KV transfer, and finishes decoding on a
    decode worker.  The owner keeps the canonical request object whose
    record is what clients, gateways, and metrics observe — worker-side
    surrogate requests are an implementation detail.
    """

    name = "disagg"
    variant_artifact = ArtifactKind.DELTA
    include_stats = True

    def __init__(self, manager: ModelManager, node: GPUNode,
                 scheduler_config: SchedulerConfig,
                 engine_config: EngineConfig = EngineConfig(),
                 prefill_workers: int = 1, decode_workers: int = 1,
                 prefill_chunk_tokens: int = DEFAULT_PREFILL_CHUNK_TOKENS,
                 cluster: Optional[Cluster] = None,
                 link: Optional[InterconnectModel] = None,
                 prefill_autoscaler: Optional[Autoscaler] = None,
                 decode_autoscaler: Optional[Autoscaler] = None):
        if prefill_workers < 1 or decode_workers < 1:
            raise ValueError("each pool needs at least one worker")
        if prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        if prefill_autoscaler is decode_autoscaler is not None:
            raise ValueError("each pool needs its own Autoscaler")
        self.scheduler_config = scheduler_config
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self._n_prefill = prefill_workers
        self._n_decode = decode_workers
        self._link = link if link is not None else InterconnectModel()
        self._scalers = (prefill_autoscaler, decode_autoscaler)
        ceiling = 0
        for n, scaler in zip((prefill_workers, decode_workers),
                             self._scalers):
            if scaler is not None and scaler.config.ttft_high_s is not None:
                raise ValueError(
                    "a pool autoscaler scales on backlog alone: it has no "
                    f"signal for ttft_high_s={scaler.config.ttft_high_s!r}")
            ceiling += n if scaler is None \
                else max(n, scaler.config.max_replicas)
        if cluster is not None and cluster.n_nodes < ceiling:
            raise ValueError(
                f"cluster has {cluster.n_nodes} nodes but up to "
                f"{ceiling} workers were requested")
        self._cluster = cluster if cluster is not None \
            else Cluster(node.spec, n_nodes=ceiling)
        super().__init__(manager, node, engine_config)

    @classmethod
    def build(cls, manager: ModelManager, node: GPUNode,
              scheduler_config: Optional[SchedulerConfig] = None,
              engine_config: Optional[EngineConfig] = None,
              **kwargs: Any) -> "ServingEngine":
        return cls(manager, node, scheduler_config or SchedulerConfig(),
                   engine_config or EngineConfig(), **kwargs)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def _reset_engine(self) -> None:
        for pool in getattr(self, "_pools", {}).values():   # none at first
            for worker in pool.members:
                self._cluster.release(worker.node)
        self._next_worker_id = 0
        self._owner_of: Dict[int, _PoolWorker] = {}
        self._cancel_log: Dict[int, List[Tuple[float, str]]] = {}
        self._in_transfer: Set[int] = set()
        self._kv_transfers = 0
        self._kv_transfer_bytes = 0
        self._kv_transfer_s = 0.0
        self._stepped: Optional[_PoolWorker] = None   # whom step() advanced
        # the owner hooks the pool workers are wired to; every worker is
        # wired on its way into a pool, so step() rewires only on a change
        self._wired_hooks = (self.on_event, self.emit_phases, self.on_token)
        # conversation affinity keeps a session on the prefill worker
        # whose prefix cache holds its history; decode has no such state
        prefill = _Pool(self, _PrefillWorker,
                        ConversationAffinityBalancer()
                        if self.config.prefix_cache
                        else LeastOutstandingBalancer(), self._scalers[0])
        decode = _Pool(self, _DecodeWorker, LeastOutstandingBalancer(),
                       self._scalers[1])
        prefill.peers, decode.peers = (decode,), (prefill,)
        self._prefill, self._decode = prefill, decode
        self._pools = {"prefill": prefill, "decode": decode}
        self._prefill_pool, self._decode_pool = prefill.members, decode.members
        self._next_check_s = min(prefill.next_check_s, decode.next_check_s)
        for pool, n in ((prefill, self._n_prefill), (decode, self._n_decode)):
            for _ in range(n):
                pool.grow()

    def _all_workers(self) -> List[_PoolWorker]:
        return self._prefill_pool + self._decode_pool

    def active_workers(self, role: str) -> List[_PoolWorker]:
        """Non-draining members of one pool (the routable set)."""
        return self._pools[role].active_replicas()

    # aggregated stats: the owner's counters are derived, so the base
    # class's ``self.stats = EngineStats()`` in reset() is a no-op here
    @property
    def stats(self) -> EngineStats:
        agg = EngineStats()
        for pool in getattr(self, "_pools", {}).values():
            # reaped workers stay in `retired` for exactly this sum
            for worker in pool.members + pool.retired:
                ws = worker.stats
                for f in dataclass_fields(EngineStats):
                    setattr(agg, f.name,
                            getattr(agg, f.name) + getattr(ws, f.name))
        agg.kv_transfers += getattr(self, "_kv_transfers", 0)
        agg.kv_transfer_bytes += getattr(self, "_kv_transfer_bytes", 0)
        agg.kv_transfer_s += getattr(self, "_kv_transfer_s", 0.0)
        return agg

    @stats.setter
    def stats(self, value: EngineStats) -> None:
        pass  # derived from the pools; base reset's assignment is moot

    # ------------------------------------------------------------------ #
    # clock: the cluster frontier sees the earliest busy worker
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        # workers with arrived work advance on event-exact boundaries;
        # a worker whose only work is a *pending* future arrival (a KV
        # handoff in flight) reports that arrival time instead of its
        # raw clock, which under dense-quantum stepping creeps through
        # intermediate positions skip-mode never visits — outer layers
        # (the tenancy frontier) must see the same "now" in both modes.
        # One pass: the earliest busy worker, else the earliest waiting
        # one, else the latest clock of an all-idle fleet.
        busy: Optional[float] = None
        waiting: Optional[float] = None
        latest: Optional[float] = None
        for pool in (self._prefill_pool, self._decode_pool):
            for w in pool:
                now = w.clock
                if w.running or w.backlog > 0:
                    if busy is None or now < busy:
                        busy = now
                elif busy is None:
                    if w.unfinished > 0:
                        nxt = w._pending.peek_time()
                        wake = now if nxt is None else max(now, nxt)
                        if waiting is None or wake < waiting:
                            waiting = wake
                    if latest is None or now > latest:
                        latest = now
        if busy is not None:
            return busy
        if waiting is not None:
            return waiting
        return 0.0 if latest is None else latest

    @clock.setter
    def clock(self, value: float) -> None:
        # outer layers re-seat idle engines (replica spawn, floor bumps):
        # lift every worker that lags, never rewind one that leads
        for worker in self._all_workers():
            if value > worker.clock:
                worker.clock = value

    # ------------------------------------------------------------------ #
    # submission and routing
    # ------------------------------------------------------------------ #
    def submit(self, request: TraceRequest) -> ServingRequest:
        req = ServingRequest(trace=request)
        self._live[request.request_id] = req
        self._n_submitted += 1
        pool = self._prefill
        worker = pool.balancer.choose(request.model_id,
                                      pool.active_replicas(),
                                      request.conversation_id)
        self._owner_of[request.request_id] = worker
        # the prefill surrogate asks for exactly one token: prefill plus
        # the first decode step, after which the worker retires it and
        # the owner hands the KV state to the decode pool
        worker.submit(replace(request, output_tokens=1)
                      if request.output_tokens > 1 else request)
        return req

    def lookup(self, request_id: int) -> Optional[ServingRequest]:
        """The canonical request, refreshed from the surrogate on the
        worker that owns it now (no listener, no per-token forwarding)."""
        canonical = self._live.get(request_id)
        worker = self._owner_of.get(request_id)
        surrogate = worker.lookup(request_id) if worker is not None else None
        if canonical is not None and surrogate is not None:
            self._sync_progress(canonical, surrogate)
        return canonical

    def schedule_cancel(self, request_id: int, at_s: float,
                        reason: str = "cancel") -> None:
        worker = self._owner_of.get(request_id)
        if worker is None:
            return               # stale: already released (or unknown)
        # remembered so a handoff after this call re-arms the cancel on
        # the decode worker (deadlines re-arm themselves via the trace)
        self._cancel_log.setdefault(request_id, []).append(
            (float(at_s), reason))
        worker.schedule_cancel(request_id, at_s, reason)

    def _apply_cancel(self, request_id: int,
                      reason: str) -> Optional[ServingRequest]:
        canonical = self._live.get(request_id)
        worker = self._owner_of.get(request_id)
        if canonical is None or worker is None:
            return None          # unknown, or stale: already released
        if worker._apply_cancel(request_id, reason) is None:
            return None
        return canonical          # finalized via the worker finish hook

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        self._sync_hooks()
        limit = self.config.max_sim_seconds
        # one pass: the least (clock, id) worker with work below the limit
        first: Optional[_PoolWorker] = None
        first_key = (limit, -1)
        for pool in (self._prefill_pool, self._decode_pool):
            for w in pool:
                if w.unfinished > 0 and (w.clock, w.id) < first_key:
                    first, first_key = w, (w.clock, w.id)
        progress = first is not None and self._step_worker(first)
        if first is not None and not progress:
            # a clamped idle jump moved nothing: let the next candidate
            # make time (only now are the others listed and sorted)
            rest = [w for w in self._all_workers() if w is not first
                    and w.unfinished > 0 and w.clock < limit]
            rest.sort(key=lambda w: (w.clock, w.id))
            progress = any(self._step_worker(w) for w in rest)
        if self._next_check_s < inf:
            self._run_autoscalers()
        return progress

    def _step_worker(self, worker: _PoolWorker) -> bool:
        """One worker step; did it move the worker?  Whatever ``step()``
        returned: one that applied a due cancel to the worker's last
        request retires it and returns False."""
        before = (worker.clock, worker.unfinished)
        worker.step()
        if (worker.clock, worker.unfinished) == before:
            return False
        self._stepped = worker
        return True

    def run_until_drained(self) -> None:
        """The base drain loop, letting the decode worker each ``step()``
        advanced coast up to :meth:`_horizon` (prefill workers price
        through their own ``iteration_cost``: never).  Only this loop
        does — ``_coast`` stays the base no-op, so under an outer layer,
        which reads this engine through ``clock``, a ``step()`` is one
        worker iteration — and not with a finish listener: a callback may
        submit "now", which a worker that ran ahead would take late."""
        limit_s = self.config.max_sim_seconds
        if self.unfinished == 0 or self.clock >= limit_s:
            return
        while self.step():
            worker = self._stepped
            assert worker is not None       # step() moved somebody
            if worker.role == "decode" and self.on_finish is None:
                self._coast_worker(worker)
            if self.unfinished == 0:
                break
            # ``clock`` is the earliest *busy* worker while one is busy,
            # so the one just advanced, still busy below the limit, keeps
            # it below without the two-pool pass.  Otherwise ask: with
            # nobody busy ``clock`` is a pending-only worker's next
            # arrival (a handoff in flight), which can be past the limit
            # while every raw clock is still below it.
            if not (worker.clock < limit_s
                    and (worker.running or worker.backlog > 0)) \
                    and self.clock >= limit_s:
                break

    def _coast_worker(self, worker: _PoolWorker) -> None:
        """Let ``worker`` coast to the horizon; a check the run crossed
        is observed at this event frontier, not one real step later."""
        start_s = worker.clock
        watch = _sanitizer.CoastWatch(
            worker, self._kv_transfers, set(self._in_transfer)) \
            if self._sanitize else None
        worker._coast(self._horizon(worker))
        if worker.clock > start_s:
            if watch is not None:
                _sanitizer.check_worker_coast(self, worker, watch)
            if self._next_check_s < inf:
                self._run_autoscalers()

    def _horizon(self, worker: _PoolWorker) -> float:
        """The time no coasted iteration of decode ``worker`` may start
        at or after (its own next arrival, live cancel and first finish
        are inside ``_coast``).  Busy decode workers do not bound each
        other: independent timelines, and a coast finishes nobody."""
        horizon = min(self.config.max_sim_seconds,  # step() serves below it
                      self._next_check_s)  # the controllers observe the pools
        for w in self._prefill_pool:       # a handoff arrives after it
            if w.unfinished > 0 and w.clock < horizon:
                horizon = w.clock
        # a waiting decode worker (work, none of it arrived): step()
        # serves the least raw clock first and ``clock`` reports the
        # earliest busy worker, so none is left behind a coasted one
        for w in self._decode_pool:
            if w is not worker and w.unfinished > 0 and not w.running \
                    and w.backlog == 0 and w.clock < horizon:
                horizon = w.clock
        return horizon

    def _sync_hooks(self) -> None:
        """Rewire the pooled workers when the owner's ``on_event`` /
        ``emit_phases`` / ``on_token`` changed since they were last wired
        (a listener attached mid-run takes effect at the next step)."""
        hooks = (self.on_event, self.emit_phases, self.on_token)
        if hooks != self._wired_hooks:
            self._wired_hooks = hooks
            for worker in self._all_workers():
                self._wire_hooks(worker)

    def _wire_hooks(self, worker: _PoolWorker) -> None:
        has_sink = self.on_event is not None
        worker.emit_phases = self.emit_phases and has_sink
        worker.on_event = worker._event_to_owner if has_sink else None
        # forwarded only while someone listens: no per-token cost otherwise
        worker.on_token = self._on_worker_token \
            if self.on_token is not None else None

    def _prefill_frontier(self) -> Optional[float]:
        times = [w.clock for w in self._prefill_pool if w.unfinished > 0]
        return min(times) if times else None

    def _event_frontier(self) -> float:
        """The earliest point any worker can still act: raw clocks for
        workers with arrived work, next-arrival times for pending-only
        ones.  Unlike the tenancy-facing ``clock`` (which prefers busy
        workers), this never ignores a worker that will wake soon, so it
        crosses an autoscaler check boundary at the same position in
        event order under both idle-skip and dense-quantum stepping —
        how far an idle worker's clock happened to creep cannot change
        when a scale action lands relative to the surrounding handoffs.
        """
        vals = []
        for w in self._all_workers():
            if w.running or w.backlog > 0:
                vals.append(w.clock)
            elif w.unfinished > 0:
                nxt = w._pending.peek_time()
                vals.append(w.clock if nxt is None else max(w.clock, nxt))
        return min(vals) if vals else self.clock

    def _run_autoscalers(self) -> None:
        """Let each pool's controller observe at every check boundary
        the event frontier has reached, then retire drained workers."""
        if self.unfinished == 0:
            return                # a drained system never rescales
        now = self._event_frontier()
        for pool in self._pools.values():
            scaler = pool.scaler
            while scaler is not None and now >= pool.next_check_s:
                pool.sim_now = pool.next_check_s
                scaler.control(pool)
                pool.next_check_s += scaler.config.check_interval_s
            if pool.n_draining:
                pool.reap()
        self._next_check_s = min(self._prefill.next_check_s,
                                 self._decode.next_check_s)

    # ------------------------------------------------------------------ #
    # worker callbacks: canonical request maintenance + KV handoff
    # ------------------------------------------------------------------ #
    def _on_worker_token(self, req: ServingRequest, clock_s: float) -> None:
        canonical = self._live.get(req.request_id)
        if canonical is None:
            return
        self._sync_progress(canonical, req)
        if self.on_token is not None:
            self.on_token(canonical, clock_s)

    @staticmethod
    def _sync_progress(canonical: ServingRequest,
                       req: ServingRequest) -> None:
        """Bring the canonical request up to its worker-side surrogate
        (first token, the running state it starts, token count): per token
        while a listener is wired, else at handoff, finalize, ``lookup``."""
        if canonical.first_token_s is None and req.first_token_s is not None:
            canonical.first_token_s = req.first_token_s
            canonical.state = RequestState.RUNNING
        if req.generated_tokens > canonical.generated_tokens:
            canonical.generated_tokens = req.generated_tokens

    def _on_worker_finish(self, worker: _PoolWorker, req: ServingRequest,
                          clock_s: float) -> None:
        canonical = self._live.get(req.request_id)
        if canonical is None:
            return
        self._fold_timing(canonical, req)
        if worker.role == "decode" \
                or req.state is not RequestState.FINISHED \
                or canonical.trace.output_tokens <= 1:
            self._finalize(canonical, req, clock_s)
            return
        self._handoff(worker, canonical, req)

    @staticmethod
    def _fold_timing(canonical: ServingRequest,
                     req: ServingRequest) -> None:
        canonical.queue_wait_s += req.queue_wait_s
        canonical.loading_s += req.loading_s
        canonical.inference_s += req.inference_s
        canonical.preemptions += req.preemptions
        canonical.skipped_line = canonical.skipped_line or req.skipped_line
        if req.cached_prefix_tokens:
            canonical.cached_prefix_tokens = req.cached_prefix_tokens
        if canonical.first_scheduled_s is None:
            canonical.first_scheduled_s = req.first_scheduled_s

    def _handoff(self, src: _PoolWorker, canonical: ServingRequest,
                 req: ServingRequest) -> None:
        rid = canonical.request_id
        assert req.finish_s is not None
        self._sync_progress(canonical, req)
        start_s = req.finish_s
        plan = plan_kv_transfer(self.manager.spec, self._link,
                                context_tokens=req.context_length,
                                cached_prefix_tokens=req.cached_prefix_tokens)
        canonical.transfer_s = plan.transfer_s
        self._kv_transfers += 1
        self._kv_transfer_bytes += plan.nbytes
        self._kv_transfer_s += plan.transfer_s
        dst = self._decode.balancer.choose(canonical.model_id,
                                           self._decode.active_replicas())
        emit = self.on_event
        if emit is not None:
            emit(KvTransfer(
                time=start_s, request_id=rid, model_id=canonical.model_id,
                nbytes=plan.nbytes, transfer_s=plan.transfer_s,
                tokens=plan.tokens, cached_tokens=plan.cached_tokens,
                src=src.name, dst=dst.name))
            if self.emit_phases:
                emit(PhaseTransition(
                    time=start_s, request_id=rid, phase="transfer",
                    model_id=canonical.model_id,
                    tenant_id=canonical.tenant_id, source=self.name))
        self._owner_of[rid] = dst
        self._in_transfer.add(rid)
        dst.seed(rid, req.cached_prefix_tokens)
        dst.submit(replace(canonical.trace,
                           arrival_s=start_s + plan.transfer_s))
        for at_s, reason in self._cancel_log.get(rid, ()):
            dst.schedule_cancel(rid, at_s, reason)

    def _note_arrived(self, request_id: int) -> None:
        self._in_transfer.discard(request_id)

    def _finalize(self, canonical: ServingRequest, req: ServingRequest,
                  clock_s: float) -> None:
        rid = canonical.request_id
        self._sync_progress(canonical, req)
        canonical.state = req.state
        canonical.finish_s = req.finish_s
        self._cancel_log.pop(rid, None)
        self._in_transfer.discard(rid)
        self._owner_of.pop(rid, None)
        self._retire([canonical])
        if self.on_finish is not None:
            self.on_finish(canonical, clock_s)
        if self._sanitize:
            _sanitizer.check_released(self, canonical)

    # phase translation: worker-local lifecycles map onto the canonical
    # queue → prefill → transfer → decode → retire span; the owner's own
    # _retire emits retire, _handoff emits transfer
    _PREFILL_PHASE_MAP = {"queue": "queue", "prefill": "prefill"}
    _DECODE_PHASE_MAP = {"prefill": "decode"}

    def _on_worker_event(self, worker: _PoolWorker, event: Event) -> None:
        emit = self.on_event
        if emit is None:
            return
        if isinstance(event, PhaseTransition):
            mapping = self._PREFILL_PHASE_MAP if worker.role == "prefill" \
                else self._DECODE_PHASE_MAP
            phase = mapping.get(event.phase)
            if phase is None:
                return
            if phase != event.phase:
                event = replace(event, phase=phase, source=self.name)
            emit(event)
            return
        emit(event)

    # ------------------------------------------------------------------ #
    # protocol surface the pools satisfy jointly
    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> int:
        return sum(w.backlog for w in self._all_workers()) + \
            len(self._in_transfer)

    def has_queued(self) -> bool:
        return any(w.has_queued() for w in self._all_workers())

    def on_arrival(self, request: ServingRequest) -> None:
        raise AssertionError("disagg routes at submit; no owner queue")

    def admit(self) -> Admission:
        raise AssertionError("disagg steps its pools; no owner admission")

    def iteration_cost(self,
                       admitted: List[ServingRequest]) -> Optional[float]:
        raise AssertionError("disagg steps its pools; no owner iterations")

    def utilization(self) -> Dict[str, float]:
        workers = self._all_workers()
        if not workers:
            return {"batch_occupancy": 0.0, "kv_occupancy": 0.0}
        batch = 0.0
        kv = 0.0
        for worker in workers:
            util = worker.utilization()
            batch += util["batch_occupancy"]
            kv += util["kv_occupancy"]
        return {"batch_occupancy": batch / len(workers),
                "kv_occupancy": kv / len(workers)}

    def pool_gauges(self) -> Dict[str, float]:
        """Per-pool occupancy/backlog for the telemetry gauge board; KV
        moves in flight count as decode backlog (where they land)."""
        gauges: Dict[str, float] = {}
        for role, pool in self._pools.items():
            workers = pool.members
            gauges[f"{role}_workers"] = float(pool.n_replicas)
            gauges[f"{role}_occupancy"] = sum(
                w.utilization()["batch_occupancy"]
                for w in workers) / len(workers)
            gauges[f"{role}_backlog"] = float(
                sum(w.backlog for w in workers) + pool.admission_queued)
        return gauges

    def result_config(self) -> Dict[str, object]:
        cfg: Dict[str, object] = {
            "tp_degree": self.config.tp_degree,
            "variant_kind": self.config.variant_kind,
            "max_batch_requests": self.scheduler_config.max_batch_requests,
            "max_concurrent_deltas":
                self.scheduler_config.max_concurrent_deltas,
            "prefill_workers": self._n_prefill,
            "decode_workers": self._n_decode,
            "prefill_chunk_tokens": self.prefill_chunk_tokens,
            "kv_link_gbps": self._link.gbps,
        }
        for role, pool in self._pools.items():
            if pool.scaler is not None:
                cfg[f"max_{role}_workers_seen"] = \
                    pool.scaler.max_replica_count
        if self.config.prefix_cache:
            cfg["prefix_cache"] = True
            cfg["prefix_block_tokens"] = self.config.prefix_block_tokens
        return cfg


# --------------------------------------------------------------------- #
# sharded multi-node tensor parallelism
# --------------------------------------------------------------------- #
@register_engine
class ShardedEngine(DeltaZipEngine):
    """One tensor-parallel group spanning several cluster nodes.

    The intra-node collective stage is already priced by
    :class:`~repro.serving.costs.IterationCostModel` (NVLink/PCIe ring
    inside the node); this engine adds the hierarchical *inter-node*
    stage: per layer, two ring all-reduces of the activation block
    across ``n_nodes`` participants over the RDMA interconnect.  Node
    membership is validated against :meth:`GPUNode.tp_group` on every
    node acquired from the cluster.
    """

    name = "sharded"
    variant_artifact = ArtifactKind.DELTA
    include_stats = True

    def __init__(self, manager: ModelManager, node: GPUNode,
                 scheduler_config: SchedulerConfig,
                 engine_config: EngineConfig = EngineConfig(),
                 tp_degree: Optional[int] = None,
                 n_nodes: Optional[int] = None,
                 cluster: Optional[Cluster] = None,
                 link: Optional[InterconnectModel] = None):
        tp = tp_degree if tp_degree is not None else engine_config.tp_degree
        per_node_gpus = node.spec.n_gpus
        if n_nodes is None:
            n_nodes = max(1, -(-tp // per_node_gpus))
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if tp % n_nodes:
            raise ValueError(
                f"tp degree {tp} does not shard evenly over "
                f"{n_nodes} nodes")
        self._n_nodes = n_nodes
        self._per_node_tp = tp // n_nodes
        self._link = link if link is not None else InterconnectModel()
        self._shard_nodes: List[GPUNode] = [node]
        if n_nodes > 1:
            src = cluster if cluster is not None \
                else Cluster(node.spec, n_nodes=n_nodes - 1)
            for _ in range(n_nodes - 1):
                self._shard_nodes.append(src.acquire())
        for member in self._shard_nodes:
            member.tp_group(self._per_node_tp)  # validates the degree
        super().__init__(manager, node, scheduler_config,
                         replace(engine_config, tp_degree=tp))

    def iteration_cost(self,
                       admitted: List[ServingRequest]) -> Optional[float]:
        cost = super().iteration_cost(admitted)
        if cost is None or self._n_nodes <= 1:
            return cost
        batch = self._last_batch
        assert batch is not None
        rows = batch.decode_requests + batch.prefill_tokens
        if rows <= 0:
            return cost
        spec = self.manager.spec
        per_layer = self._link.allreduce_time(rows * spec.dim * FP16,
                                              self._n_nodes)
        return cost + 2 * spec.n_layers * per_layer

    def result_config(self) -> Dict[str, object]:
        cfg = super().result_config()
        cfg["n_nodes"] = self._n_nodes
        cfg["per_node_tp"] = self._per_node_tp
        cfg["interconnect_gbps"] = self._link.gbps
        return cfg
