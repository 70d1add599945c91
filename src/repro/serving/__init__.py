"""DeltaZip serving engine, baselines, and serving metrics (paper §5-6).

The package re-exports the simulation stack only.  The numpy model
execution (:mod:`.runner`, :mod:`.sbmm`, :mod:`.packed_compute`, which
load :mod:`repro.compression` and :mod:`repro.nn`) is imported from its
own module, so a serving run never loads it.
"""

from .base import (Admission, ENGINES, EngineConfig, ServingEngine,
                   create_engine, register_engine)
from .baselines import DedicatedEngine, VLLMSCBEngine
from .cluster import (Autoscaler, AutoscalerConfig, AutoscalerSample,
                      BALANCERS, ClusterGateway, ConversationAffinityBalancer,
                      LeastOutstandingBalancer, LineageAffinityBalancer,
                      LoadBalancer, Replica, RoundRobinBalancer,
                      create_balancer)
from .costs import BatchComposition, IterationCostModel
from .disagg import DisaggregatedEngine, ShardedEngine
from .kv_transfer import KvTransferPlan, plan_kv_transfer
from .economics import (DeploymentCost, GPU_HOURLY_USD, compare_deployments,
                        cost_per_tenant, deployment_cost)
from .engine import DeltaZipEngine
from .gateway import Gateway, ServingGateway
from .handle import HandleStatus, RequestHandle
from .metrics import (EngineStats, ServingResult, UNTENANTED,
                      jain_fairness_index, slo_attainment,
                      slo_attainment_by_tenant, summarize,
                      summarize_by_tenant)
from .model_manager import ArtifactKind, ModelManager, RegisteredModel
from .prefix_cache import PrefixCache, prefix_block_keys
from .router import BaseModelGroup, MultiBaseRouter
from .models import (LLAMA_13B, LLAMA_70B, LLAMA_7B, MODEL_SPECS,
                     PYTHIA_2_8B, ServedModelSpec)
from .request import RequestRecord, RequestState, ServingRequest
from .scheduler import (ContinuousBatchScheduler, SchedulerConfig,
                        SchedulingDecision)
from .stack import StackSpec, build, build_engine
from .streaming_metrics import (QuantileSketch, RecordPolicy,
                                ReservoirSampler, SKETCH_RELATIVE_ERROR,
                                StreamingMetrics, TenantCounters)
from .tenancy import (AdmissionController, AdmissionDecision, DEFAULT_TENANT,
                      SLO_CLASSES, Tenant, TenantAdmissionStats,
                      TenantGateway, TokenBucket)
from .tuning import ProfilePoint, pick_optimal_n, profile_concurrent_deltas

__all__ = [
    "Admission", "ENGINES", "ServingEngine", "Gateway", "ServingGateway",
    "HandleStatus", "RequestHandle",
    "create_engine", "register_engine",
    "DedicatedEngine", "VLLMSCBEngine",
    "Autoscaler", "AutoscalerConfig", "AutoscalerSample", "BALANCERS",
    "ClusterGateway", "ConversationAffinityBalancer",
    "LeastOutstandingBalancer", "LineageAffinityBalancer",
    "LoadBalancer", "Replica", "RoundRobinBalancer", "create_balancer",
    "BatchComposition", "IterationCostModel",
    "DisaggregatedEngine", "ShardedEngine",
    "KvTransferPlan", "plan_kv_transfer",
    "DeploymentCost", "GPU_HOURLY_USD", "compare_deployments",
    "cost_per_tenant", "deployment_cost",
    "DeltaZipEngine", "EngineConfig",
    "EngineStats", "ServingResult", "slo_attainment", "summarize",
    "UNTENANTED", "jain_fairness_index", "slo_attainment_by_tenant",
    "summarize_by_tenant",
    "AdmissionController", "AdmissionDecision", "DEFAULT_TENANT",
    "SLO_CLASSES", "Tenant", "TenantAdmissionStats", "TenantGateway",
    "TokenBucket",
    "PrefixCache", "prefix_block_keys",
    "BaseModelGroup", "MultiBaseRouter",
    "ArtifactKind", "ModelManager", "RegisteredModel",
    "LLAMA_13B", "LLAMA_70B", "LLAMA_7B", "MODEL_SPECS", "PYTHIA_2_8B",
    "ServedModelSpec",
    "RequestRecord", "RequestState", "ServingRequest",
    "ContinuousBatchScheduler", "SchedulerConfig", "SchedulingDecision",
    "StackSpec", "build", "build_engine",
    "QuantileSketch", "RecordPolicy", "ReservoirSampler",
    "SKETCH_RELATIVE_ERROR", "StreamingMetrics", "TenantCounters",
    "ProfilePoint", "pick_optimal_n", "profile_concurrent_deltas",
]
