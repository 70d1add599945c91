"""Disaggregated prefill/decode serving and multi-node sharded serving.

Modern LLM serving separates the two phases of a request's life onto
different machines (DistServe, Splitwise): *prefill* is compute-bound
and batches well by tokens, *decode* is memory-bound and batches well
by requests, so colocating them forces one pool's batching policy onto
the other.  This module builds that architecture on top of the existing
engine template and the cluster layer's balancers:

* :class:`DisaggregatedEngine` (registered ``disagg``) owns two fixed,
  heterogeneous worker pools, one worker per node — a prefill pool
  running chunked prefill to completion and a decode pool running
  continuous batching — each routed by a cluster
  :class:`~repro.serving.cluster.LoadBalancer`.  When a request's
  prefill finishes, its KV blocks cross the node interconnect as a typed
  :class:`~repro.sim.KvTransfer` event priced by
  :func:`~repro.serving.kv_transfer.plan_kv_transfer` (uncached suffix
  only when the prefill side's prefix cache held the shared prefix),
  and the request resumes decoding on the least-loaded decode worker.
* :class:`ShardedEngine` (registered ``sharded``) spans one
  tensor-parallel group across several nodes, charging the
  per-layer inter-node ring all-reduce over the same
  :class:`~repro.hardware.interconnect.InterconnectModel` on top of the
  intra-node collective already priced by
  :class:`~repro.serving.costs.IterationCostModel`.

Determinism contract: pool workers are full
:class:`~repro.serving.engine.DeltaZipEngine` instances on their own
kernel clocks; the owner steps whichever busy worker is earliest
(ties broken by worker id), and decode workers never idle-jump past the
prefill frontier (a handoff can only be scheduled at or after the
prefill worker's clock) — so run-to-run and idle-skip replays produce
identical records, and every existing engine is bit-identical with
disaggregation off (nothing in this module runs unless constructed).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from ..hardware.cluster import GPUNode
from ..hardware.interconnect import InterconnectModel
from ..sim import KvTransfer, PhaseTransition
from ..sim import sanitizer as _sanitizer
from ..workload.spec import TraceRequest
from .base import EngineConfig, ServingEngine, register_engine
from .cluster import (ConversationAffinityBalancer, LeastOutstandingBalancer,
                      LoadBalancer)
from .costs import BatchComposition, LinearPlan
from .engine import DeltaZipEngine
from .kv_transfer import plan_kv_transfer
from .metrics import EngineStats
from .model_manager import ArtifactKind, ModelManager, unknown_model
from .models import FP16
from .request import RequestState, ServingRequest
from .scheduler import SchedulerConfig

__all__ = ["DEFAULT_PREFILL_CHUNK_TOKENS", "DisaggregatedEngine",
           "ShardedEngine"]

#: token budget of one chunked-prefill slab on a prefill worker
DEFAULT_PREFILL_CHUNK_TOKENS = 512


def _copy(r: TraceRequest, arrival_s: float,
          output_tokens: int) -> TraceRequest:
    """``replace(r, arrival_s=..., output_tokens=...)`` without its
    per-call field scan (``TraceRequest`` still validates the copy)."""
    return TraceRequest(r.request_id, r.model_id, arrival_s, r.prompt_tokens,
                        output_tokens, r.tenant_id, r.deadline_s,
                        r.conversation_id, r.shared_prefix_id,
                        r.shared_prefix_tokens)


# --------------------------------------------------------------------- #
# pool workers
# --------------------------------------------------------------------- #
class _PoolWorker(DeltaZipEngine):
    """One pool member: a DeltaZip engine on its own timeline.

    Workers forward finishes (and, while it has a listener, tokens) to
    the owning :class:`DisaggregatedEngine`, which maintains the canonical
    (client-visible) requests, and publish events into the owner's
    ``on_event``: their lifecycle phases translated by :attr:`phases`
    onto the canonical span.  A worker is what its pool's balancer
    routes to (``id``, and ``draining``: always False, the pools are
    fixed).
    """

    role = "worker"
    #: worker-local phase -> the canonical span's phase it stands for;
    #: the rest are the other pool's or the owner's (transfer, retire)
    phases: Dict[str, str] = {}

    def __init__(self, owner: "DisaggregatedEngine", worker_id: int,
                 node: GPUNode):
        self.owner = owner
        self.id = worker_id
        self.draining = False
        self.name = f"disagg.{self.role}{worker_id}"
        super().__init__(owner.manager, node, owner.scheduler_config,
                         owner.config)
        self.on_finish = self._finish_to_owner

    # finish is forwarded for good; the owner's _wire_hooks sets on_token
    # and on_event while it has a listener for them
    def _finish_to_owner(self, req: ServingRequest, clock_s: float) -> None:
        self.owner._on_worker_finish(self, req, clock_s)

    def _phase(self, req: ServingRequest, phase: str, time: float,
               status: str = "") -> None:
        canonical = self.phases.get(phase)
        if canonical is not None:
            super()._phase(req, canonical, time, status)

    def _reset_engine(self) -> None:
        super()._reset_engine()
        self.metrics = None          # no sink of its own: see _retire

    def _retire(self, requests: List[ServingRequest]) -> None:
        # a surrogate leaves no record behind: clients, gateways and the
        # metrics observe the owner's canonical request (which publishes
        # the retire phase)
        self._n_retired += len(requests)
        for req in requests:
            self._live.pop(req.request_id, None)


class _PrefillWorker(_PoolWorker):
    """Prefill pool member: chunked prefill, requests retire after one
    token (their surrogate trace asks for exactly one output token)."""

    role = "prefill"
    phases = {"queue": "queue", "prefill": "prefill"}

    def iteration_cost(self,
                       admitted: List[ServingRequest]) -> Optional[float]:
        batch = self._compose(admitted)
        if batch.empty:
            return None
        chunk = self.owner.prefill_chunk_tokens
        cost, kind = self.cost, self.config.variant_kind
        if batch.decode_per_delta or batch.prefill_tokens <= chunk:
            return cost.iteration_time(batch, kind)
        # chunked prefill: slab the token budget across deltas in id
        # order (so a slab's rows are in the order rows_plan asks for);
        # later slabs attend over earlier ones (context grows)
        left = [n for _, n in sorted(batch.prefill_tokens_per_delta.items())]
        total = 0.0
        context = batch.context_tokens
        i = 0
        while i < len(left):
            rows: List[int] = []
            space = chunk
            while i < len(left) and space > 0:
                take = min(left[i], space)
                rows.append(take)
                space -= take
                left[i] -= take
                if not left[i]:
                    i += 1
            total += cost.plan_time(cost.rows_plan(rows, kind), context)
            context += chunk - space
        return total


class _DecodeWorker(_PoolWorker):
    """Decode pool member: continuous batching over handed-off requests.

    Arrivals are *resumes*, not fresh prefills: the owner seeds each
    handed-off request as already prefilled (KV arrived over the wire),
    so the engine's swap-resume path admits it straight into decode.
    """

    role = "decode"
    phases = {"prefill": "decode"}      # admitted to decode its KV

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
                 prefill_chunk_tokens: int = DEFAULT_PREFILL_CHUNK_TOKENS):
        if prefill_workers < 1 or decode_workers < 1:
            raise ValueError("each pool needs at least one worker")
        if prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        self.scheduler_config = scheduler_config
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self._n_prefill = prefill_workers
        self._n_decode = decode_workers
        self._link = InterconnectModel()
        # one node per worker, made once: each reset builds fresh workers
        # on them, prefill first, ids counting up through both pools
        self._nodes = [GPUNode(node.spec)
                       for _ in range(prefill_workers + decode_workers)]
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
        self._owner_of: Dict[int, _PoolWorker] = {}
        self._cancel_log: Dict[int, List[Tuple[float, str]]] = {}
        self._in_transfer: Set[int] = set()
        self._kv_transfers = 0
        self._kv_transfer_bytes = 0
        self._kv_transfer_s = 0.0
        self._stepped: Optional[_PoolWorker] = None   # whom step() advanced
        n = self._n_prefill
        self._prefill_pool: List[_PoolWorker] = [
            _PrefillWorker(self, i, node)
            for i, node in enumerate(self._nodes[:n])]
        self._decode_pool: List[_PoolWorker] = [
            _DecodeWorker(self, n + i, node)
            for i, node in enumerate(self._nodes[n:])]
        self._workers = self._prefill_pool + self._decode_pool   # id order
        # the owner hooks the pool workers are wired to; step() rewires
        # them only on a change
        self._wired_hooks = (self.on_event, self.on_token)
        for worker in self._workers:
            self._wire_hooks(worker)
        # conversation affinity keeps a session on the prefill worker
        # whose prefix cache holds its history; decode has no such state
        self._prefill_balancer: LoadBalancer = \
            ConversationAffinityBalancer() if self.config.prefix_cache \
            else LeastOutstandingBalancer()
        self._decode_balancer: LoadBalancer = LeastOutstandingBalancer()

    # aggregated stats: the owner's counters are derived, so the base
    # class's ``self.stats = EngineStats()`` in reset() is a no-op here
    @property
    def stats(self) -> EngineStats:
        agg = EngineStats.total(w.stats for w in self._workers)
        agg.kv_transfers += self._kv_transfers
        agg.kv_transfer_bytes += self._kv_transfer_bytes
        agg.kv_transfer_s += self._kv_transfer_s
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
        for w in self._workers:
            now = w._sim.now
            left = w._n_submitted - w._n_retired      # w.unfinished
            if w.batch.requests or left > w._pending.count_after(now):
                if busy is None or now < busy:
                    busy = now
            elif busy is None:
                if left > 0:
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
        for worker in self._workers:
            if value > worker.clock:
                worker.clock = value

    # ------------------------------------------------------------------ #
    # submission and routing
    # ------------------------------------------------------------------ #
    def submit(self, request: TraceRequest) -> ServingRequest:
        rid = request.request_id
        if rid in self._live:
            raise ValueError(f"request id {rid!r} is already live")
        if request.model_id not in self.manager:
            raise unknown_model(request)
        req = ServingRequest(trace=request)
        self._live[rid] = req
        self._n_submitted += 1
        worker = self._prefill_balancer.choose(request.model_id,
                                               self._prefill_pool,
                                               request.conversation_id)
        self._owner_of[rid] = worker
        # the prefill surrogate asks for exactly one token: prefill plus
        # the first decode step, after which the worker retires it and
        # the owner hands the KV state to the decode pool
        worker.submit(_copy(request, request.arrival_s, 1)
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
        return self._step_from(self._least_worker()) is not None

    def _least_worker(self) -> Optional[_PoolWorker]:
        """One pass: the least (clock, id) worker with work below the
        limit, the one :meth:`step` steps first."""
        first: Optional[_PoolWorker] = None
        least = self.config.max_sim_seconds
        for w in self._workers:           # id order: the first wins a tie
            if w._n_retired < w._n_submitted and w._sim.now < least:
                first, least = w, w._sim.now
        return first

    def _step_worker(self, worker: _PoolWorker) -> bool:
        """One worker step; did it move the worker?  Whatever ``step()``
        returned: one that applied a due cancel to the worker's last
        request retires it and returns False."""
        before = (worker._sim.now, worker._n_submitted - worker._n_retired)
        worker.step()
        if (worker._sim.now, worker._n_submitted - worker._n_retired) \
                == before:
            return False
        self._stepped = worker
        return True

    # the drain loop's parent hooks: the members are the pool workers.
    # Under an outer layer, which reads this engine through ``clock``, a
    # ``step()`` is one worker iteration: the owner has no batch to coast.
    _leaf = False

    @property
    def observed(self) -> bool:
        """Any hook at all: a gauge tick compares :attr:`clock`, the
        earliest *busy* worker, while a step moves the least worker by
        raw clock, so a tick can fall between moves a drain orders
        otherwise; a completion callback may inject work "now"."""
        return self.on_finish is not None or self.on_event is not None \
            or self.on_token is not None

    @property
    def at_horizon(self) -> bool:
        # ``clock`` is the earliest *busy* worker while one is busy, so the
        # one last stepped, still busy below the limit, keeps it below
        # without the two-pool pass.  Otherwise ask: with nobody busy
        # ``clock`` is a pending-only worker's next arrival (a handoff in
        # flight), which can be past the limit while every raw clock is
        # still below it.
        limit_s = self.config.max_sim_seconds
        worker = self._stepped
        if worker is not None and worker._sim.now < limit_s \
                and (worker.batch.requests or worker.backlog > 0):
            return False
        return self.clock >= limit_s

    def _least_member(self) -> Optional[_PoolWorker]:
        return None if self.at_horizon else self._least_worker()

    def _step_from(self, first: Optional[_PoolWorker]
                   ) -> Optional[_PoolWorker]:
        """Step ``first``, the least worker (the drain loop has synced
        the hooks); a step that moved nothing (a clamped idle jump) lets
        the next candidate make time, and only then are the others listed
        and sorted.  The worker advanced, or None."""
        if first is None:
            return None
        if self._step_worker(first):
            return first
        limit = self.config.max_sim_seconds
        rest = [w for w in self._workers if w is not first
                and w.unfinished > 0 and w.clock < limit]
        rest.sort(key=lambda w: (w.clock, w.id))
        return next((w for w in rest if self._step_worker(w)), None)

    def _horizon(self, worker: _PoolWorker) -> float:
        """Busy decode workers do not bound each other's quiet
        iterations: independent timelines (:meth:`_finish_bound` orders
        their finishes).  (A prefill worker's members finish on the
        iteration that admits them, so it never coasts.)"""
        horizon = self.config.max_sim_seconds   # step() serves below it
        for w in self._prefill_pool:       # a handoff arrives after it
            if w._n_retired < w._n_submitted and w._sim.now < horizon:
                horizon = w._sim.now
        # a waiting decode worker (work, none of it arrived): step()
        # serves the least raw clock first and ``clock`` reports the
        # earliest busy worker, so none is left behind a coasted one
        for w in self._decode_pool:
            if w is not worker and not w.batch.requests \
                    and w._n_retired < w._n_submitted \
                    and w._sim.now < horizon and w.backlog == 0:
                horizon = w._sim.now
        return horizon

    def _finish_bound(self, worker: _PoolWorker) -> float:
        """Finishes reach the owner's sink in the order a step per
        iteration gives them: a worker finishes inside a coast only while
        it is the least busy (the least clock of the others with work)."""
        bound = math.inf
        for w in self._workers:
            if w is not worker and w._n_retired < w._n_submitted \
                    and w._sim.now < bound:
                bound = w._sim.now
        return bound

    def _coast_watch(self, worker: _PoolWorker) -> Tuple[
            List[Tuple[str, Optional[float]]], List[Tuple[str, Any]]]:
        bounds: List[Tuple[str, Optional[float]]] = [
            (f"a handoff from busy {w.name}", w.clock)
            for w in self._prefill_pool if w.unfinished > 0]
        bounds += [(f"waiting {w.name}", w.clock) for w in self._decode_pool
                   if w is not worker and w.unfinished > 0
                   and not w.running and w.backlog == 0]
        return bounds, [("a KV handoff (begun, in flight)",
                         (self._kv_transfers, sorted(self._in_transfer)))]

    def _sync_hooks(self) -> None:
        """Rewire the pooled workers when the owner's ``on_event`` /
        ``on_token`` changed since they were last wired (a listener
        attached mid-run takes effect at the next step)."""
        hooks = (self.on_event, self.on_token)
        if hooks != self._wired_hooks:
            self._wired_hooks = hooks
            for worker in self._workers:
                self._wire_hooks(worker)

    def _wire_hooks(self, worker: _PoolWorker) -> None:
        # the owner's own hook: a worker asks the kernel behind it
        worker.on_event = self.on_event
        # forwarded only while someone listens: no per-token cost otherwise
        worker.on_token = self._on_worker_token \
            if self.on_token is not None else None

    def _prefill_frontier(self) -> Optional[float]:
        times = [w._sim.now for w in self._prefill_pool
                 if w._n_retired < w._n_submitted]
        return min(times) if times else None

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
        dst = self._decode_balancer.choose(canonical.model_id,
                                           self._decode_pool)
        emit = self.on_event
        if emit is not None and self._wants(KvTransfer):
            emit(KvTransfer(
                time=start_s, request_id=rid, model_id=canonical.model_id,
                nbytes=plan.nbytes, transfer_s=plan.transfer_s,
                tokens=plan.tokens, cached_tokens=plan.cached_tokens,
                src=src.name, dst=dst.name))
        if self._wants(PhaseTransition):
            self._phase(canonical, "transfer", start_s)
        self._owner_of[rid] = dst
        self._in_transfer.add(rid)
        dst.seed(rid, req.cached_prefix_tokens)
        trace = canonical.trace
        dst.submit(_copy(trace, start_s + plan.transfer_s,
                         trace.output_tokens))
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

    # ------------------------------------------------------------------ #
    # protocol surface the pools satisfy jointly
    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> int:
        return sum(w.backlog for w in self._workers) + \
            len(self._in_transfer)

    def utilization(self) -> Dict[str, float]:
        workers = self._workers
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
        for role, workers, in_flight in (
                ("prefill", self._prefill_pool, 0),
                ("decode", self._decode_pool, len(self._in_transfer))):
            gauges[f"{role}_workers"] = float(len(workers))
            gauges[f"{role}_occupancy"] = sum(
                w.utilization()["batch_occupancy"]
                for w in workers) / len(workers)
            gauges[f"{role}_backlog"] = float(
                sum(w.backlog for w in workers) + in_flight)
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
        if self.config.prefix_cache:
            cfg["prefix_cache"] = True
            cfg["prefix_block_tokens"] = self.config.prefix_block_tokens
        return cfg


# --------------------------------------------------------------------- #
# sharded multi-node tensor parallelism
# --------------------------------------------------------------------- #
@register_engine
class ShardedEngine(DeltaZipEngine):
    """One tensor-parallel group spanning several nodes.

    The intra-node collective stage is already priced by
    :class:`~repro.serving.costs.IterationCostModel` (NVLink/PCIe ring
    inside the node); this engine adds the hierarchical *inter-node*
    stage: per layer, two ring all-reduces of the activation block
    across ``n_nodes`` participants over the RDMA interconnect.  Every
    shard node has ``node``'s shape and is validated against
    :meth:`GPUNode.tp_group`.
    """

    name = "sharded"
    variant_artifact = ArtifactKind.DELTA
    include_stats = True

    def __init__(self, manager: ModelManager, node: GPUNode,
                 scheduler_config: SchedulerConfig,
                 engine_config: EngineConfig = EngineConfig(),
                 tp_degree: Optional[int] = None,
                 n_nodes: Optional[int] = None):
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
        self._link = InterconnectModel()
        self._shard_nodes = [node] + [GPUNode(node.spec)
                                      for _ in range(n_nodes - 1)]
        for member in self._shard_nodes:
            member.tp_group(self._per_node_tp)  # validates the degree
        super().__init__(manager, node, scheduler_config,
                         replace(engine_config, tp_degree=tp))

    def _linear_plan(self, batch: BatchComposition) -> LinearPlan:
        plan = super()._linear_plan(batch)
        if self._n_nodes <= 1 or plan.rows <= 0:
            return plan
        spec = self.manager.spec
        per_layer = self._link.allreduce_time(plan.rows * spec.dim * FP16,
                                              self._n_nodes)
        return plan._replace(internode_s=2 * spec.n_layers * per_layer)

    def result_config(self) -> Dict[str, object]:
        cfg = super().result_config()
        cfg["n_nodes"] = self._n_nodes
        cfg["per_node_tp"] = self._per_node_tp
        cfg["interconnect_gbps"] = self._link.gbps
        return cfg
