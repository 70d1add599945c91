"""One description of a serving stack and the one builder that makes it.

A :class:`StackSpec` is a frozen value that names a whole deployment:
the engine kind with its configs and hardware node, how many replicas
sit behind which balancer (and whether an autoscaler resizes them), and
whether an admission frontier with tenant contracts sits on top.
:func:`build` turns a spec plus the
:class:`~repro.serving.model_manager.ModelManager` that holds the served
content into the :class:`~repro.serving.gateway.Gateway` it describes::

    spec = StackSpec("deltazip", node=node_from_name("a800", 1),
                     config=EngineConfig(tp_degree=1),
                     replicas=2, balancer="lineage",
                     admission="vtc", tenants=(Tenant("gold", weight=2.0),))
    result = build(spec, manager).replay(trace)

The nesting is decided here and nowhere else: ``replicas=None`` is one
engine behind a :class:`ServingGateway`; an int is a
:class:`ClusterGateway` of that many replicas on a hardware cluster
sized to the replica ceiling ``max(replicas, autoscaler.max_replicas)``;
an ``admission`` policy puts a :class:`TenantGateway` on top.  The spec
holds values only (no live objects, no callables), so it compares with
``==`` and pickles.  Observers are not part of it:
``telemetry.attach(build(spec, manager))`` wires a
:class:`~repro.telemetry.Telemetry` exactly as the gateways'
``telemetry=`` argument does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from ..hardware.cluster import Cluster, GPUNode
from ..hardware.specs import NodeSpec, node_from_name
from .base import ENGINES, EngineConfig, ServingEngine, create_engine
from .cluster import Autoscaler, AutoscalerConfig, ClusterGateway
from .gateway import Gateway, ServingGateway
from .model_manager import ModelManager
from .scheduler import SchedulerConfig
from .tenancy import Tenant, TenantGateway

__all__ = ["StackSpec", "build", "build_engine"]

_DEFAULT_BALANCER = "least-outstanding"


@dataclass(frozen=True)
class StackSpec:
    """A serving deployment as one value.

    ``engine`` is an :data:`~repro.serving.base.ENGINES` key, built on
    ``node`` with ``scheduler`` and ``config``; ``engine_kwargs`` are the
    engine's own constructor arguments (disagg pool sizes and prefill
    chunk, the sharded TP degree and node count, the baselines' batch
    size).  ``replicas``, ``balancer`` and ``autoscaler`` describe the
    cluster layer, and ``admission`` (``"fcfs"`` | ``"vtc"``),
    ``tenants``, ``shed`` and ``engine_queue_depth`` the admission layer;
    a layer's fields may only be set when the layer is there.
    """

    engine: str = "deltazip"
    node: NodeSpec = node_from_name("a800", 4)
    scheduler: SchedulerConfig = SchedulerConfig()
    config: EngineConfig = EngineConfig()
    engine_kwargs: Mapping[str, Any] = field(default_factory=dict)
    replicas: Optional[int] = None
    balancer: str = _DEFAULT_BALANCER
    autoscaler: Optional[AutoscalerConfig] = None
    admission: Optional[str] = None
    tenants: Tuple[Tenant, ...] = ()
    shed: bool = False
    engine_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"registered: {sorted(ENGINES)}")
        if self.replicas is None:
            if self.balancer != _DEFAULT_BALANCER or \
                    self.autoscaler is not None:
                raise ValueError("balancer and autoscaler need replicas")
        elif self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.admission is None and (self.tenants or self.shed or
                                       self.engine_queue_depth is not None):
            raise ValueError("tenants, shed and engine_queue_depth need an "
                             "admission policy")


def build_engine(spec: StackSpec, manager: ModelManager,
                 node: Optional[GPUNode] = None) -> ServingEngine:
    """One engine of ``spec`` on ``node`` (default: a fresh ``spec.node``)."""
    return create_engine(spec.engine, manager, node or GPUNode(spec.node),
                         scheduler_config=spec.scheduler,
                         engine_config=spec.config, **spec.engine_kwargs)


def build(spec: StackSpec, manager: ModelManager,
          journal: bool = False) -> Gateway:
    """The gateway stack ``spec`` describes, serving ``manager``'s models.

    ``journal`` keeps the event journal of every layer that has a kernel
    (the cluster's and the admission frontier's)."""
    gateway: Gateway
    if spec.replicas is None:
        gateway = ServingGateway(build_engine(spec, manager))
    else:
        # the hardware cluster is sized to the replica ceiling
        ceiling = spec.replicas if spec.autoscaler is None else \
            max(spec.replicas, spec.autoscaler.max_replicas)
        gateway = ClusterGateway(
            engine_factory=lambda node: build_engine(spec, manager, node),
            cluster=Cluster(spec.node, n_nodes=ceiling),
            n_replicas=spec.replicas, balancer=spec.balancer,
            autoscaler=None if spec.autoscaler is None
            else Autoscaler(spec.autoscaler), journal=journal)
    if spec.admission is None:
        return gateway
    return TenantGateway(gateway, tenants=spec.tenants,
                         policy=spec.admission, shed=spec.shed,
                         engine_queue_depth=spec.engine_queue_depth,
                         journal=journal)
