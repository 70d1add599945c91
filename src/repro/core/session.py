"""Fluent serving-session builder for the :class:`~repro.core.DeltaZip` facade.

The builder splits configuration from execution and exposes *both*
workload paths::

    session = (dz.session(engine="deltazip")
                 .serving(LLAMA_13B)
                 .on_node("a800", gpus=4)
                 .with_scheduler(max_batch_requests=32)
                 .build())

    session.replay(trace)                      # offline trace replay
    handle = session.submit("vicuna", 128, 64) # ... or online submission
    session.run_until_drained()

Scaling out is one more builder call: ``.with_replicas(4)`` serves through
a :class:`~repro.serving.cluster.ClusterGateway` over one engine per node,
and ``.with_autoscaler(...)`` lets a queue-driven controller spawn and
drain replicas at runtime::

    session = (dz.session("deltazip")
                 .serving(LLAMA_13B)
                 .with_replicas(4, balancer="lineage")
                 .with_autoscaler(max_replicas=8, high_queue_per_replica=6)
                 .build())

Multi-tenant admission control layers on the same way:
``.with_tenants(...)`` declares per-tenant contracts (weights, SLO
classes, token-bucket rates, quotas) and ``.with_admission(...)`` picks
the frontier policy (FCFS or VTC fair queueing, optional SLO-aware
shedding); the session then serves through a
:class:`~repro.serving.tenancy.TenantGateway` and ``submit`` accepts a
``tenant_id``::

    session = (dz.session("deltazip")
                 .serving(LLAMA_13B)
                 .with_tenants(Tenant("burst", rate_tokens_per_s=500.0),
                               Tenant("gold", weight=4.0,
                                      slo_class="interactive"))
                 .with_admission(policy="vtc", shed=True)
                 .build())
    session.submit("vicuna", 128, 64, tenant_id="gold")

Any engine registered in :data:`~repro.serving.base.ENGINES` can back a
session; registered artifacts contribute their *measured* compression
ratios to the simulated swap sizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from ..hardware.cluster import Cluster, GPUNode
from ..hardware.specs import node_from_name
from ..serving.base import (ENGINES, EngineConfig, ServingEngine,
                            create_engine)
from ..serving.cluster import (Autoscaler, AutoscalerConfig, ClusterGateway,
                               LoadBalancer, Replica)
from ..serving.gateway import Gateway, ServingGateway
from ..serving.metrics import ServingResult
from ..serving.model_manager import ModelManager
from ..serving.models import ServedModelSpec
from ..serving.scheduler import SchedulerConfig
from ..serving.tenancy import AdmissionController, Tenant, TenantGateway
from ..workload.spec import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import DeltaZip

__all__ = ["ServingSessionBuilder", "ServingSession"]


class ServingSessionBuilder:
    """Accumulates serving configuration; ``build()`` makes the session."""

    def __init__(self, system: "DeltaZip", engine: str = "deltazip",
                 served_spec: Optional[ServedModelSpec] = None):
        if engine not in ENGINES:
            raise KeyError(f"unknown engine {engine!r}; "
                           f"registered: {sorted(ENGINES)}")
        self._system = system
        self._engine_name = engine
        self._spec = served_spec
        self._node: Optional[GPUNode] = None
        self._scheduler: Optional[SchedulerConfig] = None
        self._engine_config: Optional[EngineConfig] = None
        self._default_ratio: Optional[float] = None
        self._n_replicas = 1
        self._balancer: Union[str, LoadBalancer] = "least-outstanding"
        self._autoscaler: Optional[Autoscaler] = None
        self._cluster: Optional[Cluster] = None
        self._tenants: List[Tenant] = []
        self._admission: Optional[AdmissionController] = None
        self._admission_kwargs: Optional[dict] = None
        self._engine_kwargs: dict = {}

    # ------------------------------------------------------------------ #
    def serving(self, spec: ServedModelSpec) -> "ServingSessionBuilder":
        """The served model's size class (sizes weights, KV, swaps)."""
        self._spec = spec
        return self

    def on_node(self, node: Union[GPUNode, str] = "a800",
                gpus: int = 4) -> "ServingSessionBuilder":
        """The GPU node to serve on: a ``GPUNode`` or a spec name.

        With replicas this also sets the per-replica node shape (each
        replica gets its own node of this spec from the cluster)."""
        if isinstance(node, str):
            node = GPUNode(node_from_name(node, gpus))
        self._node = node
        return self

    def on_cluster(self, cluster: Union[Cluster, str],
                   nodes: int = 4, gpus: int = 4) -> "ServingSessionBuilder":
        """The multi-node cluster replicas draw their nodes from: a
        :class:`~repro.hardware.cluster.Cluster` or a GPU spec name."""
        if isinstance(cluster, str):
            cluster = Cluster.from_name(cluster, n_nodes=nodes,
                                        gpus_per_node=gpus)
        self._cluster = cluster
        return self

    def with_replicas(self, n: int,
                      balancer: Union[str, LoadBalancer, None] = None
                      ) -> "ServingSessionBuilder":
        """Serve through ``n`` engine replicas behind a load balancer
        (``round-robin`` | ``least-outstanding`` | ``lineage``)."""
        if n < 1:
            raise ValueError("need at least one replica")
        self._n_replicas = n
        if balancer is not None:
            self._balancer = balancer
        return self

    def with_autoscaler(self, config: Union[Autoscaler, AutoscalerConfig,
                                            None] = None,
                        **kwargs) -> "ServingSessionBuilder":
        """Queue-driven replica autoscaling: pass an ``Autoscaler``, an
        ``AutoscalerConfig``, or config kwargs."""
        if config is not None and kwargs:
            raise ValueError("pass either a config object or kwargs")
        if isinstance(config, Autoscaler):
            self._autoscaler = config
        elif isinstance(config, AutoscalerConfig):
            self._autoscaler = Autoscaler(config)
        else:
            self._autoscaler = Autoscaler(**kwargs)
        return self

    def with_tenants(self, *tenants: Tenant) -> "ServingSessionBuilder":
        """Declare per-tenant contracts (weight, SLO class, token-bucket
        rate/burst, quota); implies an admission layer in front of the
        gateway.  See :class:`~repro.serving.tenancy.Tenant`."""
        if not tenants:
            raise ValueError("pass at least one Tenant")
        self._tenants.extend(tenants)
        return self

    def with_admission(self, controller: Optional[AdmissionController] = None,
                       **kwargs) -> "ServingSessionBuilder":
        """Admission policy at the frontier: pass an
        :class:`~repro.serving.tenancy.AdmissionController` or its kwargs
        (``policy="fcfs"|"vtc"``, ``shed=True``, ``engine_queue_depth``,
        ...)."""
        if controller is not None and kwargs:
            raise ValueError("pass either a controller or kwargs")
        if controller is not None:
            self._admission = controller
        else:
            self._admission_kwargs = kwargs
        return self

    def with_scheduler(self, config: Optional[SchedulerConfig] = None,
                       **kwargs) -> "ServingSessionBuilder":
        """Scheduler limits: pass a ``SchedulerConfig`` or its kwargs."""
        if config is not None and kwargs:
            raise ValueError("pass either a SchedulerConfig or kwargs")
        self._scheduler = config or SchedulerConfig(**kwargs)
        return self

    def with_engine_config(self, config: Optional[EngineConfig] = None,
                           **kwargs) -> "ServingSessionBuilder":
        """Engine knobs: pass an ``EngineConfig`` or its kwargs."""
        if config is not None and kwargs:
            raise ValueError("pass either an EngineConfig or kwargs")
        self._engine_config = config or EngineConfig(**kwargs)
        return self

    def disaggregated(self, prefill: int = 1, decode: int = 1,
                      block_tokens: Optional[int] = None
                      ) -> "ServingSessionBuilder":
        """Serve through the disaggregated prefill/decode engine:
        ``prefill``/``decode`` size the two worker pools and
        ``block_tokens`` bounds each prefill chunk (default
        :data:`~repro.serving.disagg.DEFAULT_PREFILL_CHUNK_TOKENS`).
        Composes with ``.with_replicas``/``.with_tenants`` — each
        replica is then one disaggregated engine."""
        self._engine_name = "disagg"
        self._engine_kwargs = {"prefill_workers": prefill,
                               "decode_workers": decode}
        if block_tokens is not None:
            self._engine_kwargs["prefill_chunk_tokens"] = block_tokens
        return self

    def sharded(self, tp: int) -> "ServingSessionBuilder":
        """Serve through the multi-node tensor-parallel engine with a
        total TP degree of ``tp`` (sharded across however many nodes of
        the ``.on_node`` shape it takes, with the inter-node allreduce
        surcharge priced per iteration)."""
        self._engine_name = "sharded"
        self._engine_kwargs = {"tp_degree": tp}
        return self

    def with_default_ratio(self, ratio: float) -> "ServingSessionBuilder":
        """Fallback compression ratio for unregistered trace models."""
        self._default_ratio = ratio
        return self

    # ------------------------------------------------------------------ #
    def build(self) -> "ServingSession":
        if self._spec is None:
            raise ValueError(
                "no served model spec: call .serving(spec) or pass "
                "served_spec= to session()")
        system = self._system
        manager = ModelManager(self._spec)
        manager.register_base(system.base_model_id)
        engine_cls = ENGINES[self._engine_name]
        # registered artifacts contribute their measured ratios up front
        for model_id, artifact in sorted(system.artifacts.items()):
            engine_cls.register_variant(manager, model_id,
                                        system.base_model_id,
                                        artifact.compression_ratio(),
                                        config=artifact.config)

        if self._n_replicas == 1 and self._autoscaler is None \
                and self._cluster is None:
            node = self._node or GPUNode(node_from_name("a800", 4))
            engine = self._make_engine(manager, node)
            gateway: Gateway = ServingGateway(engine)
        else:
            cluster = self._cluster
            if cluster is None:
                ceiling = self._n_replicas
                if self._autoscaler is not None:
                    ceiling = max(ceiling,
                                  self._autoscaler.config.max_replicas)
                template = self._node or GPUNode(node_from_name("a800", 4))
                cluster = Cluster(template.spec, n_nodes=ceiling)
            # an explicitly-passed cluster that is too small for the replica
            # ceiling is rejected by ClusterGateway itself
            gateway = ClusterGateway(
                engine_factory=lambda node: self._make_engine(manager, node),
                cluster=cluster, n_replicas=self._n_replicas,
                balancer=self._balancer, autoscaler=self._autoscaler)
        return ServingSession(self._wrap_admission(gateway), manager,
                              system.base_model_id, engine_cls,
                              self._default_ratio)

    def _wrap_admission(self, gateway):
        """Layer the admission frontier over the gateway when configured."""
        if self._admission is None and self._admission_kwargs is None \
                and not self._tenants:
            return gateway
        if self._admission is not None:
            # idempotent across repeated build() and tolerant of a
            # controller that already carries some of the tenants
            for tenant in self._tenants:
                if tenant.tenant_id not in self._admission.tenants:
                    self._admission.register(tenant)
            return TenantGateway(gateway, controller=self._admission)
        return TenantGateway(gateway, tenants=tuple(self._tenants),
                             **(self._admission_kwargs or {}))

    def _make_engine(self, manager: ModelManager,
                     node: GPUNode) -> ServingEngine:
        return create_engine(self._engine_name, manager, node,
                             scheduler_config=self._scheduler,
                             engine_config=self._engine_config,
                             **self._engine_kwargs)

    def replay(self, trace: Trace) -> ServingResult:
        """Convenience: ``build()`` then replay the trace."""
        return self.build().replay(trace)


class ServingSession:
    """A live serving deployment: online ``submit`` plus trace ``replay``.

    Backed by any :class:`~repro.serving.gateway.Gateway` stack — a
    single-replica :class:`~repro.serving.gateway.ServingGateway`, a
    multi-replica :class:`~repro.serving.cluster.ClusterGateway`, or
    either behind a :class:`~repro.serving.tenancy.TenantGateway`
    admission frontier — the session surface is identical, so clients
    are replica-count- and tenancy-agnostic.
    """

    def __init__(self, gateway: Gateway,
                 manager: ModelManager, base_model_id: str,
                 engine_cls=None, default_ratio: Optional[float] = None):
        self.gateway = gateway
        self.manager = manager
        self.base_model_id = base_model_id
        self.default_ratio = default_ratio
        self._engine_cls = engine_cls or type(gateway.engines()[0])

    # ------------------------------------------------------------------ #
    @property
    def _serving(self) -> Gateway:
        """The engine-owning gateway under any admission frontier."""
        return getattr(self.gateway, "inner", self.gateway)

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The admission controller (None without a tenancy layer)."""
        return self.gateway.controller

    @property
    def engine(self) -> Optional[ServingEngine]:
        """The backing engine (single-replica sessions only)."""
        return getattr(self._serving, "engine", None)

    @property
    def replicas(self) -> List[Replica]:
        """The live replica set (empty for single-replica sessions)."""
        return list(getattr(self._serving, "replicas", ()))

    def submit(self, model_id: str, prompt_len: int, output_len: int,
               **kwargs):
        """Submit one online request; returns its
        :class:`~repro.serving.handle.RequestHandle`.

        ``kwargs`` go to :meth:`Gateway.submit
        <repro.serving.gateway.Gateway.submit>` untouched: ``arrival_s``,
        ``deadline_s`` (seconds from arrival) and every request-envelope
        tag (``tenant_id``, ``conversation_id``, ...).  The handle streams
        this request's tokens (``for t, n in handle.tokens``), exposes
        ``status``/``record()`` and supports ``cancel(at_s=...)``.
        """
        self._ensure_registered(model_id)
        return self.gateway.submit(model_id, prompt_len, output_len,
                                   **kwargs)

    def cancel(self, request_id, at_s: Optional[float] = None) -> None:
        """Cancel a submitted request (by handle or id) at ``at_s``."""
        self.gateway.cancel(getattr(request_id, "id", request_id), at_s=at_s)

    def handle(self, request_id):
        """The :class:`RequestHandle` for a submitted request (by handle
        or id)."""
        return self.gateway.handle(getattr(request_id, "id", request_id))

    def step(self) -> bool:
        return self.gateway.step()

    def run_until_drained(self) -> ServingResult:
        return self.gateway.run_until_drained()

    def result(self) -> ServingResult:
        return self.gateway.result()

    def replay(self, trace: Trace, cancels=None) -> ServingResult:
        """Replay an offline trace through the gateway.

        ``cancels`` optionally schedules client cancellations as
        ``(request_id, at_s)`` pairs (see
        :func:`~repro.workload.clients.impatient_cancel_schedule`)."""
        for model_id in trace.model_ids:
            self._ensure_registered(model_id)
        return self.gateway.replay(trace, cancels=cancels)

    @property
    def clock(self) -> float:
        return self.gateway.clock

    # ------------------------------------------------------------------ #
    def _ensure_registered(self, model_id: str) -> None:
        if model_id == self.base_model_id or model_id in self.manager:
            return
        if self.default_ratio is not None:
            self._engine_cls.register_variant(
                self.manager, model_id, self.base_model_id,
                self.default_ratio)
            return
        raise KeyError(
            f"trace model {model_id!r} is not registered and no "
            f"default_ratio was given")
