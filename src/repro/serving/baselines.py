"""Baseline engines (§6.1): vLLM-SCB and per-variant dedicated serving.

``VLLMSCBEngine`` is the paper's constructed baseline: vLLM extended with
**S**\\ wapping of whole FP16 models, **C**\\ ontinuous batching (looping over
the models resident in GPU memory — no cross-model batching), and
**B**\\ atching of same-model requests.  It treats every fine-tuned variant
as an independent full model, so GPU memory fits only a couple of variants
and a queue-head miss forces a multi-second full-model swap on the critical
path — the two pathologies Fig 16 visualizes.

Both baselines ride on the shared :class:`~repro.serving.base.ServingEngine`
iteration loop; only admission/swap policy and batch pricing differ.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Set

from ..hardware.cluster import GPUNode
from ..hardware.memory import Tier
from .base import (FULL_MODEL_LOADER_FACTOR, KV_RESERVE_FRACTION,
                   WORKSPACE_FRACTION, Admission, EngineConfig,
                   ServingEngine, register_engine)
from .costs import BatchComposition, LinearPlan
from .metrics import EngineStats, ServingResult
from .model_manager import ArtifactKind, ModelManager, unknown_model
from .request import ServingRequest
from .scheduler import SchedulerConfig, SchedulingDecision

__all__ = ["VLLMSCBEngine", "DedicatedEngine"]


@register_engine
class VLLMSCBEngine(ServingEngine):
    """Swap + continuous batching + same-model batching over full models."""

    name = "vllm-scb"
    variant_artifact = ArtifactKind.FULL

    def __init__(self, manager: ModelManager, node: GPUNode,
                 engine_config: EngineConfig = EngineConfig(),
                 max_batch_requests: int = 32,
                 preload: bool = False):
        self.max_batch_requests = max_batch_requests
        self.preload = preload  # dedicated deployments start warm
        self.cost = manager.cost_model(node.gpu_spec,
                                       tp_degree=engine_config.tp_degree)
        super().__init__(manager, node, engine_config)

    @classmethod
    def build(cls, manager, node, scheduler_config=None, engine_config=None,
              **kwargs):
        if scheduler_config is not None:
            kwargs.setdefault("max_batch_requests",
                              scheduler_config.max_batch_requests)
        return cls(manager, node, engine_config or EngineConfig(), **kwargs)

    # ------------------------------------------------------------------ #
    # template hooks
    # ------------------------------------------------------------------ #
    def _reset_engine(self) -> None:
        spec = self.manager.spec
        group_capacity = self.node.gpu_spec.memory_bytes * \
            self.config.tp_degree
        usable = group_capacity * (1.0 - WORKSPACE_FRACTION)
        weight_budget = usable * (1.0 - KV_RESERVE_FRACTION)
        self._kv_budget_tokens = int(usable * KV_RESERVE_FRACTION
                                     // spec.kv_bytes_per_token())
        self._model_bytes = spec.fp16_nbytes
        self._max_resident = max(1, int(weight_budget // self._model_bytes))
        self._queue: List[ServingRequest] = []
        self._resident: "OrderedDict[str, bool]" = OrderedDict()
        self._in_cpu: Set[str] = set()
        self._warmed = False

    def _before_step(self) -> None:
        if self.preload and not self._warmed:
            # warm start: pre-stage the first models the workload will ask
            # for (in arrival order over everything submitted so far)
            for event in self._pending.in_order():
                if len(self._resident) >= self._max_resident:
                    break
                model_id = event.request.model_id
                if model_id not in self._resident:
                    self._resident[model_id] = True
                    self._in_cpu.add(model_id)
        self._warmed = True

    def on_arrival(self, request: ServingRequest) -> None:
        self._queue.append(request)

    def has_queued(self) -> bool:
        return bool(self._queue)

    def remove_queued(self, request_id):
        for i, req in enumerate(self._queue):
            if req.request_id == request_id:
                return self._queue.pop(i)
        return None

    def _decide(self) -> SchedulingDecision:
        # swap for the queue head if its model is missing, evicting the
        # least recently used inactive model when every slot is taken (no
        # more than _max_resident are ever resident, so one suffices);
        # ``selected_deltas`` is the resident set the fill then sees
        resident = self._resident
        ready = set(resident)
        decision = SchedulingDecision(selected_deltas=ready)
        if self._queue and self._queue[0].model_id not in resident:
            if len(resident) >= self._max_resident:
                active = self.batch.per_model
                ready.discard(next((m for m in resident if m not in active),
                                   None))
            if len(ready) < self._max_resident:
                decision.new_deltas = [self._queue[0].model_id]
                ready.update(decision.new_deltas)

        # admit queued requests whose model is resident (FCFS), within
        # the KV reserve
        batch = self.batch
        capacity = self.max_batch_requests - len(batch)
        kv_in_use = batch.context_tokens
        admitted = decision.admitted
        still: List[ServingRequest] = []
        for req in self._queue:
            need = req.prompt_tokens + 1
            if capacity > 0 and req.model_id in ready \
                    and kv_in_use + need <= self._kv_budget_tokens:
                admitted.append(req)
                capacity -= 1
                kv_in_use += need
            else:
                still.append(req)
        decision.queue = still
        return decision

    def _apply(self, decision: SchedulingDecision) -> Admission:
        # weights are read-only: eviction just frees the slot, the load
        # pays the standard checkpoint-loader cost
        resident = self._resident
        load_time = 0.0
        for model_id in decision.new_deltas:
            for evicted in [m for m in resident
                            if m not in decision.selected_deltas]:
                del resident[evicted]
                self.stats.evictions += 1
            src = Tier.CPU if model_id in self._in_cpu else Tier.DISK
            load_time += FULL_MODEL_LOADER_FACTOR * \
                self.node.load_time(self._model_bytes, src, Tier.GPU)
            resident[model_id] = True
            self._in_cpu.add(model_id)
            self.stats.swap_ins += 1
        if decision.queue is not None:
            self._queue = decision.queue
        self._touch_active(resident, decision.admitted, load_time > 0.0)
        return Admission(admitted=decision.admitted, load_time_s=load_time)

    def _compose(self, admitted: List[ServingRequest]) -> BatchComposition:
        prefill: Dict[str, int] = {}
        for req in admitted:
            prefill[req.model_id] = prefill.get(req.model_id, 0) \
                + req.prompt_tokens
        return BatchComposition(self.batch.per_model, prefill,
                                self.batch.context_tokens)

    def _linear_plan(self, batch: BatchComposition) -> LinearPlan:
        return self.cost.fullmodel_plan(batch)

    def result_config(self) -> Dict[str, object]:
        return {"tp_degree": self.config.tp_degree,
                "max_resident_models": self._max_resident,
                "max_batch_requests": self.max_batch_requests}


@register_engine
class DedicatedEngine(ServingEngine):
    """Upper-bound reference: every variant owns its own TP group.

    No swapping, no cross-variant queueing — just per-variant continuous
    batching.  Used to contextualize cost/latency trade-offs (§8 notes
    DeltaZip targets the regime where dedicating GPUs is too expensive).

    Implemented as a fan-out over per-variant :class:`VLLMSCBEngine`
    groups (each preloaded with its one model); ``submit``/``step``
    delegate, so the engine still speaks the online protocol.
    """

    name = "dedicated"
    variant_artifact = ArtifactKind.FULL

    def __init__(self, manager: ModelManager, node: GPUNode,
                 engine_config: EngineConfig = EngineConfig(),
                 max_batch_requests: int = 32):
        self.max_batch_requests = max_batch_requests
        super().__init__(manager, node, engine_config)

    @classmethod
    def build(cls, manager, node, scheduler_config=None, engine_config=None,
              **kwargs):
        if scheduler_config is not None:
            kwargs.setdefault("max_batch_requests",
                              scheduler_config.max_batch_requests)
        return cls(manager, node, engine_config or EngineConfig(), **kwargs)

    # ------------------------------------------------------------------ #
    # protocol overrides (delegation instead of the template loop)
    # ------------------------------------------------------------------ #
    def _reset_engine(self) -> None:
        self._groups: Dict[str, VLLMSCBEngine] = {}
        self._request_group: Dict[int, VLLMSCBEngine] = {}
        self._clock_floor = 0.0    # where a group created from now on starts

    def _group_for(self, model_id: str) -> VLLMSCBEngine:
        group = self._groups.get(model_id)
        if group is None:
            group = VLLMSCBEngine(self.manager, self.node, self.config,
                                  self.max_batch_requests, preload=True)
            group.clock = self._clock_floor
            self._groups[model_id] = group
            self._wire(group)
        return group

    def _sync_hooks(self) -> None:
        for group in self._groups.values():
            self._wire(group)

    def _wire(self, group: VLLMSCBEngine) -> None:
        # once at creation, then before whatever runs a group (step(), the
        # drain, abort()): a hook may be set mid-session.  Finishes go
        # through the fan-out, which keeps _request_group O(active)
        group.on_token = self.on_token
        group.on_finish = self._fanout_finish
        group.on_event = self.on_event

    def _fanout_finish(self, req: ServingRequest, clock_s: float) -> None:
        self._request_group.pop(req.request_id, None)
        cb = self.on_finish
        if cb is not None:
            cb(req, clock_s)

    def submit(self, request) -> ServingRequest:
        rid = request.request_id
        if rid in self._request_group:
            raise ValueError(f"request id {rid!r} is already live")
        if request.model_id not in self.manager:
            raise unknown_model(request)
        self._n_submitted += 1
        group = self._group_for(request.model_id)
        self._request_group[request.request_id] = group
        return group.submit(request)

    def lookup(self, request_id):
        group = self._request_group.get(request_id)
        return group.lookup(request_id) if group is not None else None

    def schedule_cancel(self, request_id, at_s, reason="cancel"):
        group = self._request_group.get(request_id)
        if group is not None:        # else stale: released, or unknown
            group.schedule_cancel(request_id, at_s, reason=reason)

    def abort(self, request_id, reason="cancel"):
        group = self._request_group.get(request_id)
        if group is None:
            return None
        self._wire(group)      # a hook changed since the last step counts
        return group.abort(request_id, reason=reason)

    @property
    def unfinished(self) -> int:
        return sum(g.unfinished for g in self._groups.values())

    @property
    def backlog(self) -> int:
        return sum(g.backlog for g in self._groups.values())

    # the groups' counters, summed; the base reset's assignment is moot
    @property
    def stats(self) -> EngineStats:
        return EngineStats.total(self._groups[m].stats
                                 for m in sorted(self._groups))

    @stats.setter
    def stats(self, value: EngineStats) -> None:
        pass

    @property
    def clock(self) -> float:
        return max((g.clock for g in self._groups.values()),
                   default=self._clock_floor)

    @clock.setter
    def clock(self, value: float) -> None:
        # outer layers re-seat idle engines (replica spawn, floor bumps):
        # lift every group that lags, never rewind one that leads; groups
        # are lazy, so one created later starts no earlier either
        for group in self._groups.values():
            if value > group.clock:
                group.clock = value
        self._clock_floor = max(self._clock_floor, value)

    def step(self) -> bool:
        self._sync_hooks()
        progressed = False
        for model_id in sorted(self._groups):
            group = self._groups[model_id]
            if group.unfinished > 0 and not group.at_horizon:
                progressed = group.step() or progressed
        return progressed

    def _drain(self, front: Any = None) -> None:
        """Unheard, each group (an independent timeline) drains through
        its own loop, in variant order.  Heard at all, ``step()`` moves
        the groups in lockstep: listeners and gauges read that order."""
        front = self if front is None else front
        self._sync_hooks()
        if not front.observed:
            for model_id in sorted(self._groups):
                self._groups[model_id]._drain()
        while front.unfinished > 0 and not front.at_horizon and front.step():
            pass

    @property
    def observed(self) -> bool:
        return self.on_finish is not None or self.on_event is not None \
            or self.on_token is not None

    @property
    def at_horizon(self) -> bool:
        # while a group has work, each stops at its own cap, in ``step()``
        # as in the drain; idle, the furthest group's clock answers
        busy = [g for g in self._groups.values() if g.unfinished > 0]
        return all(g.at_horizon for g in busy) if busy else super().at_horizon

    def build_result(self) -> ServingResult:
        subs = [self._groups[m].build_result()
                for m in sorted(self._groups)]
        return ServingResult.merge(
            subs, engine=self.name,
            config={"tp_degree": self.config.tp_degree})
