"""Shared builders for the serving benchmarks (Figs 10-19)."""

from __future__ import annotations

from repro.hardware import GPUNode, node_from_name
from repro.serving import (EngineConfig, LLAMA_13B, LLAMA_7B, ModelManager,
                           SchedulerConfig, ServingEngine, StackSpec, build,
                           build_engine)

# the paper's serving defaults: 32 variants of a 13B model on 4xA800, TP=4
N_VARIANTS = 32
DELTA_RATIO_13B = 10.0   # the ~10x ΔCompress 2-bit ratio of Table 1
DELTA_RATIO_7B = 5.0     # the ~5x 4-bit ratio
TRACE_SECONDS = 300.0


def a800_node(n: int = 4) -> GPUNode:
    return GPUNode(node_from_name("a800", n))


def rtx3090_node(n: int = 1) -> GPUNode:
    return GPUNode(node_from_name("rtx3090", n))


def delta_manager(spec=LLAMA_13B, n_models: int = N_VARIANTS,
                  ratio: float = DELTA_RATIO_13B,
                  prefix: str = "variant") -> ModelManager:
    mgr = ModelManager(spec)
    mgr.register_base("base")
    width = max(2, len(str(n_models - 1)))
    for i in range(n_models):
        mgr.register_delta(f"{prefix}-{i:0{width}d}", "base", ratio)
    return mgr


def full_manager(spec=LLAMA_13B, n_models: int = N_VARIANTS,
                 prefix: str = "variant") -> ModelManager:
    mgr = ModelManager(spec)
    mgr.register_base("base")
    width = max(2, len(str(n_models - 1)))
    for i in range(n_models):
        mgr.register_full(f"{prefix}-{i:0{width}d}", "base")
    return mgr


def lora_manager(spec=LLAMA_13B, n_models: int = N_VARIANTS,
                 rank: int = 16, prefix: str = "variant") -> ModelManager:
    from repro.nn import LoRAConfig, lora_nbytes
    mgr = ModelManager(spec)
    mgr.register_base("base")
    nbytes = lora_nbytes(spec.dim, spec.n_layers, LoRAConfig(rank=rank),
                         mlp_hidden=spec.mlp_hidden)
    width = max(2, len(str(n_models - 1)))
    for i in range(n_models):
        mgr.register_lora(f"{prefix}-{i:0{width}d}", "base", nbytes)
    return mgr


def deltazip_spec(n_deltas: int = 8, k: int = 32, tp: int = 4,
                  preemption: bool = True, variant_kind: str = "delta",
                  lora_rank: int = 16, **stack) -> StackSpec:
    """The paper's DeltaZip engine: K=``k`` batch, N=``n_deltas``."""
    return StackSpec(
        "deltazip",
        scheduler=SchedulerConfig(max_batch_requests=k,
                                  max_concurrent_deltas=n_deltas,
                                  preemption=preemption),
        config=EngineConfig(tp_degree=tp, variant_kind=variant_kind,
                            lora_rank=lora_rank), **stack)


def deltazip_engine(mgr, node, n_deltas: int = 8, k: int = 32,
                    tp: int = 4, preemption: bool = True,
                    variant_kind: str = "delta",
                    lora_rank: int = 16) -> ServingEngine:
    return build_engine(deltazip_spec(n_deltas, k, tp, preemption,
                                      variant_kind, lora_rank), mgr, node)


def scb_engine(mgr, node, tp: int = 4, k: int = 32) -> ServingEngine:
    return build_engine(StackSpec("vllm-scb",
                                  config=EngineConfig(tp_degree=tp),
                                  engine_kwargs={"max_batch_requests": k}),
                        mgr, node)


def deltazip_cluster(n_replicas: int = 2, mgr=None,
                     balancer="least-outstanding", autoscaler=None,
                     n_deltas: int = 8, k: int = 32, tp: int = 4,
                     gpu: str = "a800", gpus_per_node: int = 4,
                     spec=LLAMA_13B):
    """A multi-replica DeltaZip deployment behind a ClusterGateway, one
    engine per ``gpu`` x ``gpus_per_node`` node; ``autoscaler`` is an
    ``AutoscalerConfig`` (the gateway's ``autoscaler`` keeps its
    history)."""
    return build(deltazip_spec(n_deltas, k, tp,
                               node=node_from_name(gpu, gpus_per_node),
                               replicas=n_replicas, balancer=balancer,
                               autoscaler=autoscaler),
                 mgr or delta_manager(spec=spec))
