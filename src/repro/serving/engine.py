"""The DeltaZip serving engine: decoupled base+delta continuous batching.

A discrete-event simulation whose *decisions* (admission, batching, swap,
preemption) execute for real against the scheduler and memory pools, while
*durations* come from :class:`IterationCostModel` and the transfer model.
The same engine serves compressed FMT deltas (``variant_kind="delta"``) and
LoRA adapters (``variant_kind="lora"``), mirroring how DeltaZip extends the
Punica/S-LoRA design to deltas.

Timeline semantics per iteration (the shared loop lives in
:class:`~repro.serving.base.ServingEngine`; this class fills in the hooks):

1. arrivals up to the clock join the FCFS queue (and start their async
   disk→CPU delta prefetch, §3.2's "frontend fetches the requested deltas
   into CPU main memory");
2. the scheduler admits requests under the (K, N) limits;
3. newly selected deltas are swapped onto the GPU (CPU→GPU on the critical
   path; LRU eviction of idle deltas);
4. one fused step runs: prefill for newly admitted requests plus one decode
   token for every running request; the clock advances by the modeled time;
5. finished requests retire; their skip-the-line children get preempted and
   requeued at their original position.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..hardware.cluster import GPUNode
from ..hardware.interconnect import InterconnectModel
from ..hardware.memory import Tier
from ..sim.clock import sanitizer as _sanitizer
from .base import (PREEMPT_SWAP_S, WORKSPACE_FRACTION, Admission,
                   EngineConfig, ServingEngine, register_engine)
from .costs import BatchComposition, LinearPlan
from .model_manager import ArtifactKind, ModelManager
from .prefix_cache import Chain, PrefixCache, prefix_block_keys
from .request import ServingRequest
from .scheduler import (ContinuousBatchScheduler, SchedulerConfig,
                        SchedulingDecision)

__all__ = ["EngineConfig", "DeltaZipEngine"]

#: what a standing idle verdict decides and admits (read-only, shared)
_DECIDE_NOTHING = SchedulingDecision()
_ADMIT_NOTHING = Admission()


@register_engine
class DeltaZipEngine(ServingEngine):
    """Multi-variant serving with compressed deltas (or LoRA adapters)."""

    name = "deltazip"
    variant_artifact = ArtifactKind.DELTA
    include_stats = True

    def __init__(self, manager: ModelManager, node: GPUNode,
                 scheduler_config: SchedulerConfig,
                 engine_config: EngineConfig = EngineConfig()):
        self.scheduler_config = scheduler_config
        self.cost = manager.cost_model(
            node.gpu_spec, tp_degree=engine_config.tp_degree,
            delta_bits=engine_config.delta_bits,
            delta_density=engine_config.delta_density,
            lora_rank=engine_config.lora_rank,
            sbmm_impl=engine_config.sbmm_impl)
        super().__init__(manager, node, engine_config)

    @classmethod
    def build(cls, manager, node, scheduler_config=None, engine_config=None,
              **kwargs):
        return cls(manager, node, scheduler_config or SchedulerConfig(),
                   engine_config or EngineConfig(), **kwargs)

    # ------------------------------------------------------------------ #
    # template hooks
    # ------------------------------------------------------------------ #
    def _reset_engine(self) -> None:
        spec = self.manager.spec
        self.scheduler = ContinuousBatchScheduler(self.scheduler_config)
        # per-TP-group GPU memory budget: each GPU holds 1/tp of weights and
        # KV, so the group budget is one GPU's capacity scaled by tp.  Base
        # weights, resident deltas, and the KV cache share it (§5.4's
        # memory-pressure trade-off behind Fig 10).
        group_capacity = self.node.gpu_spec.memory_bytes * \
            self.config.tp_degree
        self._usable = group_capacity * (1.0 - WORKSPACE_FRACTION)
        self._base_bytes = spec.fp16_nbytes
        if self._base_bytes >= self._usable:
            raise ValueError("base model does not fit in the TP group")
        self._kv_per_token = spec.kv_bytes_per_token()
        self._cpu_ready_s: Dict[str, float] = {}  # async disk->cpu prefetch
        self._resident: "OrderedDict[str, int]" = OrderedDict()  # id -> bytes
        self._resident_bytes = 0
        # steady-state memos: the (batch, scheduler) versions at which
        # schedule() last decided nothing, and the batch version whose
        # pure-decode plan ``_steady_plan`` holds.
        # Versions only grow, so a stale key can never match again.
        self._idle_admit_key: Optional[Tuple[int, int]] = None
        self._steady_version = -1
        self._steady_plan = LinearPlan(0, 0.0, 0.0)
        # opt-in prefix/KV cache: None keeps every pre-existing code path
        # untouched (cache-off records are bit-identical to older builds)
        self._prefix_cache: Optional[PrefixCache] = \
            PrefixCache(self.config.prefix_block_tokens) \
            if self.config.prefix_cache else None
        self._prefix_refs: Dict[int, Chain] = {}    # request -> held chain

    def on_arrival(self, request: ServingRequest) -> None:
        self.scheduler.add(request)
        self._start_prefetch(request.model_id, request.arrival_s)

    def has_queued(self) -> bool:
        return len(self.scheduler) > 0

    def remove_queued(self, request_id):
        return self.scheduler.remove(request_id)

    # the steady-iteration precondition (README "The steady-state
    # iteration") in two halves: admit / _decide, and the plan's memo
    def _admits_nothing(self) -> bool:
        """Same batch, queue and resident set as the ``schedule()`` that
        decided nothing: it would decide nothing again."""
        idle = (self.batch.version,
                self.scheduler.version) == self._idle_admit_key
        if idle and self._sanitize:
            _sanitizer.check_steady_verdict(self.name, self.scheduler.decide(
                self.batch, self._resident))
        return idle

    def _rows_unchanged(self) -> bool:
        """``_steady_plan`` prices this batch's pure-decode composition:
        the rows are the same, only the attention context grew."""
        return self.batch.version == self._steady_version

    def admit(self) -> Admission:
        if self._admits_nothing():
            return _ADMIT_NOTHING     # applying nothing is a no-op
        return self._apply(self.scheduler.schedule(self.batch,
                                                   self._resident))

    def _decide(self) -> SchedulingDecision:
        if self._admits_nothing():
            return _DECIDE_NOTHING
        return self.scheduler.decide(self.batch, self._resident)

    def _apply(self, decision: SchedulingDecision) -> Admission:
        batch = self.batch
        admitted = decision.admitted
        if not decision:
            # (a schedule() that admits nothing moves no version, loads and
            # keeps nothing: only the LRU order is touched)
            self._idle_admit_key = (batch.version, self.scheduler.version)
            self._touch_active(self._resident, admitted, False)
            return _ADMIT_NOTHING
        cache = self._prefix_cache

        # swap newly selected deltas onto the GPU; deltas compete with the
        # KV cache for the group budget
        kv_tokens_running = self._kv_tokens_in_use()
        load_time = 0.0
        for delta_id in decision.new_deltas:
            entry = self.manager.get(delta_id)
            nbytes = entry.nbytes
            kv_bytes = kv_tokens_running * self._kv_per_token
            active = set(batch.per_model)
            active.update(r.model_id for r in admitted)
            while self._base_bytes + self._resident_bytes + nbytes + \
                    kv_bytes > self._usable and self._resident:
                evicted = self._evict_lru(self._resident, active)
                if evicted is None:
                    break
                self._resident_bytes -= evicted
                self.stats.evictions += 1
            if cache is not None and self._base_bytes + \
                    self._resident_bytes + nbytes + kv_bytes > self._usable:
                # shed unreferenced prefix blocks before giving up on the
                # delta: cached history must never block live admissions
                deficit = self._base_bytes + self._resident_bytes + nbytes \
                    + kv_bytes - self._usable
                block_bytes = cache.block_tokens * self._kv_per_token
                n = cache.evict(int(-(-deficit // block_bytes)))
                if n:
                    self.stats.prefix_evictions += n
                    kv_tokens_running -= n * cache.block_tokens
                    kv_bytes = kv_tokens_running * self._kv_per_token
            if self._base_bytes + self._resident_bytes + nbytes + kv_bytes \
                    > self._usable:
                # cannot fit: drop the admissions for this delta
                dropped = [r for r in admitted if r.model_id == delta_id]
                for r in dropped:
                    self.scheduler.reinsert(r)
                    r.skipped_line = False
                    self.stats.blocked_admissions += 1
                admitted = [r for r in admitted if r.model_id != delta_id]
                continue
            load_time += self._swap_in_time(delta_id, nbytes, self.clock)
            self.stats.swap_ins += 1
            self._resident[delta_id] = nbytes
            self._resident_bytes += nbytes
        self._touch_active(self._resident, admitted,
                           bool(decision.new_deltas))

        # KV-capacity admission control: every admitted request must fit
        # its full context into the remaining budget
        kv_budget_tokens = self._kv_token_budget()
        kv_in_use = kv_tokens_running
        kept: List[ServingRequest] = []
        for req in admitted:
            looked_up = cache is not None and req.generated_tokens == 0 \
                and req.request_id not in self._prefix_refs \
                and self._prefix_lookup(req)
            need = req.context_length if req.generated_tokens > 0 \
                else req.prompt_tokens + 1
            need -= req.cached_prefix_tokens
            if cache is not None and kv_in_use + need > kv_budget_tokens:
                # make room by dropping unreferenced pool blocks
                deficit = kv_in_use + need - kv_budget_tokens
                n = cache.evict(int(-(-deficit // cache.block_tokens)))
                if n:
                    self.stats.prefix_evictions += n
                    kv_in_use -= n * cache.block_tokens
            if kv_in_use + need <= kv_budget_tokens:
                kept.append(req)
                kv_in_use += need
                if looked_up:
                    # counted once, now that the request is kept: a
                    # bounced admission looks its prefix up again
                    self.stats.prefix_lookups += 1
                    if req.cached_prefix_tokens:
                        self.stats.prefix_hits += 1
                        self.stats.prefix_hit_tokens += \
                            req.cached_prefix_tokens
                continue
            if cache is not None and req.generated_tokens == 0:
                # back to the queue un-admitted: it will re-run the
                # lookup (and re-take references) next time around
                self._release_prefix(req)
                req.cached_prefix_tokens = 0
            self.scheduler.reinsert(req)
            req.skipped_line = False
            self.stats.blocked_admissions += 1
        return Admission(admitted=kept, load_time_s=load_time)

    def _linear_plan(self, batch: BatchComposition) -> LinearPlan:
        return self.cost.linear_plan(batch, self.config.variant_kind)

    def _decode_plan(self) -> LinearPlan:
        if not self._rows_unchanged():
            self._steady_version = self.batch.version
            self._steady_plan = self._linear_plan(self._compose([]))
        elif self._sanitize:
            context = self.batch.context_tokens
            _sanitizer.check_steady_price(
                self.name, self.cost.plan_time(self._steady_plan, context),
                self.cost.plan_time(self._linear_plan(self._compose([])),
                                    context))
        return self._steady_plan

    def retire(self, newly_done: List[ServingRequest]) -> float:
        if self._prefix_cache is not None and newly_done:
            for req in newly_done:
                self._prefix_commit(req)
            self._prefix_trim()
        preempt_time = 0.0
        for parent in newly_done:
            for child in self.scheduler.children_to_preempt(
                    parent, self.batch):
                self.batch.leave(child)
                child.preemptions += 1
                self.stats.preemptions += 1
                if self.config.preempt_mode == "swap":
                    preempt_time += PREEMPT_SWAP_S
                else:
                    child.needs_recompute = True
                self.scheduler.reinsert(child)
        return preempt_time

    def _apply_cancel(self, request_id: int,
                      reason: str) -> Optional[ServingRequest]:
        req = super()._apply_cancel(request_id, reason)
        if req is not None and self._prefix_cache is not None:
            # aborted work commits nothing; its block references must
            # come back so the pool's refcounts conserve (the sanitizer
            # test pins total_refcount == 0 at drain)
            self._release_prefix(req)
        return req

    def _stall_clock(self, next_arrival_s: float) -> float:
        return max(self.clock + 1e-3, next_arrival_s)

    def utilization(self) -> Dict[str, float]:
        util = super().utilization()
        kv_budget = self._kv_token_budget()
        if kv_budget > 0:
            util["kv_occupancy"] = self._kv_tokens_in_use() / kv_budget
        return util

    def _kv_token_budget(self) -> int:
        """KV tokens the group budget holds beside the base weights and
        the resident deltas."""
        return max(0, int((self._usable - self._base_bytes
                           - self._resident_bytes) // self._kv_per_token))

    def _kv_tokens_in_use(self) -> int:
        """KV tokens held right now.  With the prefix cache on that is
        the shared block pool plus each running request's private
        (non-pooled) context; cache-off it is the batch's context."""
        batch = self.batch
        if self._prefix_cache is None:
            return batch.context_tokens
        return self._prefix_cache.n_tokens + batch.context_tokens \
            - batch.cached_prefix_tokens

    def result_config(self) -> Dict[str, object]:
        cfg: Dict[str, object] = {
            "tp_degree": self.config.tp_degree,
            "variant_kind": self.config.variant_kind,
            "max_concurrent_deltas":
                self.scheduler_config.max_concurrent_deltas,
            "max_batch_requests":
                self.scheduler_config.max_batch_requests,
            "preemption": self.scheduler_config.preemption}
        if self.config.prefix_cache:
            cfg["prefix_cache"] = True
            cfg["prefix_block_tokens"] = self.config.prefix_block_tokens
        return cfg

    # ------------------------------------------------------------------ #
    # prefix/KV-cache integration (every call site is gated on the cache
    # existing, so cache-off runs execute none of this)
    # ------------------------------------------------------------------ #
    def _prefix_scope(self, req: ServingRequest):
        # cache-key invariant: (base model, variant) scopes every chain,
        # so two variants can never share a block even when their
        # conversation ids collide
        return (self.manager.spec.name, req.model_id)

    def _prefix_lookup(self, req: ServingRequest) -> bool:
        """Longest-cached-prefix lookup for a fresh prefill; takes block
        references and records the hit on the request.  Capped at the
        last complete block strictly inside the prompt, so at least one
        prompt token always remains to prefill (TTFT stays an actual
        iteration).  False for a request that cannot hit; ``admit``
        counts the others, once it keeps them."""
        cache = self._prefix_cache
        trace = req.trace
        if trace.conversation_id is None and trace.shared_prefix_id is None:
            return False  # private namespace: a hit is impossible
        keys = prefix_block_keys(trace, trace.prompt_tokens - 1,
                                 cache.block_tokens)
        chain = cache.lookup(self._prefix_scope(req), keys) if keys else None
        if chain is not None:
            cache.acquire(chain)
            self._prefix_refs[req.request_id] = chain
            req.cached_prefix_tokens = chain[1] * cache.block_tokens
        return True

    def _prefix_commit(self, req: ServingRequest) -> None:
        """Publish a finished request's context blocks into the pool
        (the next turn's prompt extends them), then return its
        references."""
        cache = self._prefix_cache
        trace = req.trace
        if trace.conversation_id is not None:
            n_tokens = req.context_length
        else:
            # no session: only the cross-request shared region is worth
            # keeping — deeper blocks are private and can never be hit
            n_tokens = min(req.context_length, trace.shared_prefix_tokens) \
                if trace.shared_prefix_id is not None else 0
        if n_tokens:
            cache.insert(self._prefix_scope(req),
                         prefix_block_keys(trace, n_tokens,
                                           cache.block_tokens))
        self._release_prefix(req)

    def _release_prefix(self, req: ServingRequest) -> None:
        chain = self._prefix_refs.pop(req.request_id, None)
        if chain is not None:
            self._prefix_cache.release(chain)

    def _prefix_trim(self) -> None:
        """Evict cold pool blocks until pool + private KV fits the
        budget again (commits can overshoot transiently)."""
        cache = self._prefix_cache
        kv_budget_tokens = self._kv_token_budget()
        private = self.batch.context_tokens - self.batch.cached_prefix_tokens
        allowed = max(0, kv_budget_tokens - private) // cache.block_tokens
        self.stats.prefix_evictions += cache.evict_to(allowed)

    # ------------------------------------------------------------------ #
    def _start_prefetch(self, model_id: str, now_s: float) -> None:
        if model_id in self._cpu_ready_s:
            return
        entry = self.manager.get(model_id)
        fetch = self.node.load_time(entry.nbytes, Tier.DISK, Tier.CPU)
        self._cpu_ready_s[model_id] = now_s + fetch

    def receive_delta(self, model_id: str, at_s: float,
                      link: Optional[InterconnectModel] = None) -> float:
        """Stage an incoming delta migration (peer replica → CPU memory).

        Prices moving ``model_id``'s artifact over ``link`` starting at
        ``at_s``; until it lands, swap-ins of that delta wait out the
        arrival exactly like the async disk prefetch does.  Returns the
        wire time.  The lineage balancer uses this to migrate a delta
        off a draining replica instead of re-fetching it from disk.
        """
        entry = self.manager.get(model_id)
        if link is None:
            link = InterconnectModel()
        transfer_s = link.transfer_time(entry.nbytes)
        ready = float(at_s) + transfer_s
        current = self._cpu_ready_s.get(model_id)
        if current is None or ready < current:
            self._cpu_ready_s[model_id] = ready
        return transfer_s

    def _swap_in_time(self, model_id: str, nbytes: int, now_s: float) -> float:
        """CPU→GPU transfer, waiting out the async disk fetch if needed."""
        wait = max(0.0, self._cpu_ready_s.get(model_id, now_s) - now_s)
        pcie = self.node.load_time(nbytes, Tier.CPU, Tier.GPU)
        return wait + pcie

    def _compose(self, admitted: List[ServingRequest]) -> BatchComposition:
        batch = self.batch
        decode = dict(batch.per_model)
        prefill: Dict[str, int] = {}
        context = batch.context_tokens
        for req in admitted:
            # a prefix-cache hit shifts the reused tokens from prefill to
            # attention context; cached_prefix_tokens is 0 whenever the
            # cache is off, so this is the exact pre-existing arithmetic
            if req.generated_tokens == 0:
                prefill[req.model_id] = prefill.get(req.model_id, 0) \
                    + req.prompt_tokens - req.cached_prefix_tokens
                context += req.cached_prefix_tokens
            elif req.needs_recompute:
                # recompute resume: re-prefill the whole (uncached) context
                prefill[req.model_id] = prefill.get(req.model_id, 0) \
                    + req.context_length - req.cached_prefix_tokens
                context += req.cached_prefix_tokens
                req.needs_recompute = False
            else:
                # swap resume: decoding continues from the parked KV state
                decode[req.model_id] = decode.get(req.model_id, 0) + 1
                context += req.context_length
        return BatchComposition(decode_per_delta=decode,
                                prefill_tokens_per_delta=prefill,
                                context_tokens=context)
