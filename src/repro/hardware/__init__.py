"""Analytical GPU / memory / interconnect cost models (the simulated
testbed standing in for the paper's 4xA800 cluster).  Hardware owns
every wire: the disk/host/GPU tiers (:mod:`.memory`), the intra-node
NVLink/PCIe ring and the node-to-node RDMA fabric (:mod:`.interconnect`,
one ring formula under both)."""

from .cluster import (Cluster, ClusterCapacityError, GPUNode, SimulatedGPU,
                      allreduce_time)
from .interconnect import InterconnectModel, ring_allreduce_time
from .kernels import (GemmShape, SBMM_IMPLEMENTATIONS, SBMMBreakdown,
                      achieved_flops_ratio, dense_gemm_time,
                      quantized_gemm_time, sbmm_time,
                      sparse_quantized_gemm_time)
from .memory import MemoryPool, OutOfMemoryError, Tier, TransferModel
from .specs import (A100, A800, GPU_SPECS, GPUSpec, NodeSpec, RTX3090,
                    node_from_name)

__all__ = [
    "Cluster", "ClusterCapacityError", "GPUNode", "SimulatedGPU",
    "allreduce_time", "InterconnectModel", "ring_allreduce_time",
    "GemmShape", "SBMM_IMPLEMENTATIONS", "SBMMBreakdown",
    "achieved_flops_ratio", "dense_gemm_time", "quantized_gemm_time",
    "sbmm_time", "sparse_quantized_gemm_time",
    "MemoryPool", "OutOfMemoryError", "Tier", "TransferModel",
    "A100", "A800", "GPU_SPECS", "GPUSpec", "NodeSpec", "RTX3090",
    "node_from_name",
]
