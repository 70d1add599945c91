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
from typing import Dict, List, Optional, Set

from ..hardware.cluster import GPUNode
from ..hardware.memory import Tier
from .base import (FULL_MODEL_LOADER_FACTOR, KV_RESERVE_FRACTION,
                   WORKSPACE_FRACTION, Admission, EngineConfig,
                   ServingEngine, register_engine)
from .costs import IterationCostModel
from .metrics import ServingResult
from .model_manager import ArtifactKind, ModelManager
from .request import ServingRequest
from .scheduler import SchedulerConfig

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
        self.cost = IterationCostModel(
            spec=manager.spec, gpu=node.gpu_spec,
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

    def admit(self) -> Admission:
        # swap for the queue head if its model is missing (weights are
        # read-only: eviction just frees the slot, the load pays the
        # standard checkpoint-loader cost)
        load_time = 0.0
        if self._queue:
            head_model = self._queue[0].model_id
            if head_model not in self._resident:
                while len(self._resident) >= self._max_resident:
                    if self._evict_lru(self._resident,
                                       self.batch.per_model) is None:
                        break
                if len(self._resident) < self._max_resident:
                    src = Tier.CPU if head_model in self._in_cpu else Tier.DISK
                    load_time += FULL_MODEL_LOADER_FACTOR * \
                        self.node.load_time(self._model_bytes, src, Tier.GPU)
                    self._resident[head_model] = True
                    self._in_cpu.add(head_model)

        # admit queued requests whose model is resident (FCFS), within
        # the KV reserve
        batch = self.batch
        capacity = self.max_batch_requests - len(batch)
        kv_in_use = batch.context_tokens
        admitted: List[ServingRequest] = []
        still: List[ServingRequest] = []
        for req in self._queue:
            need = req.prompt_tokens + 1
            if capacity > 0 and req.model_id in self._resident \
                    and kv_in_use + need <= self._kv_budget_tokens:
                admitted.append(req)
                capacity -= 1
                kv_in_use += need
            else:
                still.append(req)
        self._queue = still
        self._touch_active(self._resident, admitted, load_time > 0.0)
        return Admission(admitted=admitted, load_time_s=load_time)

    def iteration_cost(self, admitted: List[ServingRequest]) -> Optional[float]:
        prefill: Dict[str, int] = {}
        for req in admitted:
            prefill[req.model_id] = prefill.get(req.model_id, 0) \
                + req.prompt_tokens
        iter_time = self.cost.fullmodel_iteration_time(
            self.batch.per_model, self.batch.context_tokens, prefill)
        return None if iter_time == 0.0 else iter_time

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
        self._sync_hooks()
        return group

    def _sync_hooks(self) -> None:
        # groups must see callback (re)assignments made after creation —
        # e.g. a gateway token listener registered mid-session; finishes
        # go through the fan-out, which keeps _request_group O(active)
        finish = self._fanout_finish
        for group in self._groups.values():
            group.on_token = self.on_token
            group.on_finish = finish
            group.on_event = self.on_event

    def _fanout_finish(self, req: ServingRequest, clock_s: float) -> None:
        self._request_group.pop(req.request_id, None)
        cb = self.on_finish
        if cb is not None:
            cb(req, clock_s)

    def submit(self, request) -> ServingRequest:
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
        return group.abort(request_id, reason=reason) \
            if group is not None else None

    @property
    def unfinished(self) -> int:
        return sum(g.unfinished for g in self._groups.values())

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
            if group.unfinished > 0 and \
                    group.clock < group.config.max_sim_seconds:
                progressed = group.step() or progressed
        return progressed

    def run_until_drained(self) -> None:
        # groups are independent GPU sets: drain each on its own timeline
        self._sync_hooks()
        for model_id in sorted(self._groups):
            self._groups[model_id].run_until_drained()

    def build_result(self) -> ServingResult:
        subs = [self._groups[m].build_result()
                for m in sorted(self._groups)]
        return ServingResult.merge(
            subs, engine=self.name,
            config={"tp_degree": self.config.tp_degree})
