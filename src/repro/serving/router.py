"""Multi-base-model deployment: route variants to per-base GPU groups.

Paper §5.1: *"If there are M base models and M > 1, we divide the GPU
cluster into M sets of GPUs, each dedicated to serving a particular base
model and its fine-tuned variants."*  The router is a thin lineage policy
over the cluster serving layer: it builds a
:class:`~repro.serving.cluster.ClusterGateway` with one replica per base
group and a :class:`~repro.serving.cluster.LineageAffinityBalancer` pinned
base → replica, so requests can be submitted online (out of order, across
groups) or replayed from a trace — both paths land each request on the
engine owning its variant's lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hardware.cluster import GPUNode
from ..workload.spec import Trace
from .base import EngineConfig, ServingEngine, create_engine
from .cluster import ClusterGateway, LineageAffinityBalancer
from .gateway import CompletionCallback, TokenCallback
from .metrics import ServingResult
from .model_manager import ModelManager
from .scheduler import SchedulerConfig

__all__ = ["BaseModelGroup", "MultiBaseRouter"]


@dataclass
class BaseModelGroup:
    """One base model's serving slice: registry + GPUs + engine knobs."""

    base_id: str
    manager: ModelManager
    node: GPUNode
    scheduler_config: SchedulerConfig = field(default_factory=SchedulerConfig)
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    engine_name: str = "deltazip"

    def engine(self) -> ServingEngine:
        return create_engine(self.engine_name, self.manager, self.node,
                             scheduler_config=self.scheduler_config,
                             engine_config=self.engine_config)


class MultiBaseRouter:
    """Routes requests to the group owning their variant's base model."""

    def __init__(self, groups: List[BaseModelGroup]):
        if not groups:
            raise ValueError("need at least one base-model group")
        self.groups = {g.base_id: g for g in groups}
        if len(self.groups) != len(groups):
            raise ValueError("duplicate base_id among groups")
        self._owner: Dict[str, str] = {}
        for g in groups:
            for variant in g.manager.variants():
                if variant.model_id in self._owner:
                    raise ValueError(
                        f"variant {variant.model_id!r} registered in "
                        f"multiple groups")
                self._owner[variant.model_id] = g.base_id
            self._owner.setdefault(g.base_id, g.base_id)

    # ------------------------------------------------------------------ #
    def owner_of(self, model_id: str) -> str:
        if model_id not in self._owner:
            raise KeyError(f"no group serves model {model_id!r}")
        return self._owner[model_id]

    def partition(self, trace: Trace) -> Dict[str, Trace]:
        """Split a trace into per-group traces (lineage-based)."""
        buckets: Dict[str, List] = {base_id: [] for base_id in self.groups}
        for req in trace:
            buckets[self.owner_of(req.model_id)].append(req)
        out = {}
        for base_id, requests in buckets.items():
            model_ids = sorted({r.model_id for r in requests})
            out[base_id] = Trace(requests=list(requests),
                                 model_ids=model_ids,
                                 duration_s=trace.duration_s)
        return out

    def gateway(self, on_token: Optional[TokenCallback] = None,
                on_request_complete: Optional[CompletionCallback] = None
                ) -> ClusterGateway:
        """An online cluster gateway over the per-base groups.

        One replica per group (named after its ``base_id``), with a
        lineage balancer pinned so every variant's requests land on the
        replica that owns — and keeps resident — its base and deltas.
        Submissions may arrive in any order across groups.
        """
        balancer = LineageAffinityBalancer(owner_of=self.owner_of)
        names = list(self.groups)
        gateway = ClusterGateway.from_engines(
            [self.groups[base_id].engine() for base_id in names],
            names=names, balancer=balancer, on_token=on_token,
            on_request_complete=on_request_complete)
        for base_id, replica in zip(names, gateway.replicas):
            balancer.pin(base_id, replica)
        return gateway

    def run(self, trace: Trace) -> Dict[str, ServingResult]:
        """Serve a trace across the groups; returns per-base results plus
        a merged ``"__cluster__"`` entry.

        A thin replay adapter over :meth:`gateway`: routing a trace
        through the pinned lineage balancer partitions it exactly as
        :meth:`partition` does, so per-base records are identical to
        running each partition on a standalone engine."""
        gateway = self.gateway()
        gateway.replay(trace)
        results = {base_id: res
                   for base_id, res in gateway.results_by_replica().items()
                   if res.n_requests > 0}
        results["__cluster__"] = ServingResult.merge(
            list(results.values()), engine="multi-base",
            config={"groups": sorted(self.groups)})
        return results
