"""Multi-GPU node model: tensor-parallel groups, collective costs, and the
multi-node :class:`Cluster` that allocates whole nodes to serving replicas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .interconnect import ring_allreduce_time
from .memory import MemoryPool, Tier, TransferModel
from .specs import GPUSpec, NodeSpec, node_from_name

__all__ = ["SimulatedGPU", "GPUNode", "allreduce_time",
           "Cluster", "ClusterCapacityError"]

_NVLINK_LATENCY_S = 5e-6
_PCIE_P2P_LATENCY_S = 15e-6


@dataclass
class SimulatedGPU:
    """One device: a memory pool plus its spec."""

    index: int
    spec: GPUSpec
    memory: MemoryPool = field(init=False)

    def __post_init__(self) -> None:
        self.memory = MemoryPool(name=f"gpu{self.index}",
                                 capacity=self.spec.memory_bytes)


def allreduce_time(nbytes: float, n_gpus: int, gpu: GPUSpec) -> float:
    """Ring all-reduce cost across a tensor-parallel group.

    The ring (:func:`~repro.hardware.interconnect.ring_allreduce_time`)
    runs over the peer link; with no NVLink (RTX 3090) traffic crosses
    PCIe, which is the effect behind Fig 18's platform gap.
    """
    if gpu.nvlink_gbps > 0:
        return ring_allreduce_time(nbytes, n_gpus, gpu.nvlink_gbps,
                                   _NVLINK_LATENCY_S)
    return ring_allreduce_time(nbytes, n_gpus, gpu.pcie_gbps,
                               _PCIE_P2P_LATENCY_S)


@dataclass
class GPUNode:
    """A server with ``n_gpus`` identical devices and a shared host tier."""

    spec: NodeSpec
    gpus: List[SimulatedGPU] = field(init=False)
    host_memory: MemoryPool = field(init=False)
    transfers: TransferModel = field(init=False)

    def __post_init__(self) -> None:
        self.gpus = [SimulatedGPU(index=i, spec=self.spec.gpu)
                     for i in range(self.spec.n_gpus)]
        self.host_memory = MemoryPool(name="host",
                                      capacity=self.spec.host_memory_bytes)
        self.transfers = TransferModel(node=self.spec)

    @property
    def gpu_spec(self) -> GPUSpec:
        return self.spec.gpu

    def tp_group(self, degree: int) -> List[SimulatedGPU]:
        """First ``degree`` GPUs as a tensor-parallel serving group."""
        if degree < 1 or degree > len(self.gpus):
            raise ValueError(
                f"tensor-parallel degree {degree} not in [1, {len(self.gpus)}]")
        return self.gpus[:degree]

    def load_time(self, nbytes: float, src: Tier, dst: Tier,
                  decompress_gbps: Optional[float] = None) -> float:
        return self.transfers.time(nbytes, src, dst,
                                   decompress_gbps=decompress_gbps)

    def allreduce(self, nbytes: float, degree: int) -> float:
        return allreduce_time(nbytes, degree, self.spec.gpu)


class ClusterCapacityError(RuntimeError):
    """Raised when a node allocation exceeds the cluster's node count."""


class Cluster:
    """A homogeneous pool of :class:`GPUNode` servers.

    The serving layer allocates whole nodes to replicas (one engine per
    node, the paper's one-TP-group-per-deployment shape) and returns them
    when a replica drains.  Nodes are minted lazily so an autoscaler can
    declare a large ``n_nodes`` ceiling without paying for memory pools it
    never touches.
    """

    def __init__(self, spec: NodeSpec, n_nodes: int = 1) -> None:
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.spec = spec
        self.n_nodes = n_nodes
        self._free: List[GPUNode] = []
        self._allocated: List[GPUNode] = []

    @classmethod
    def from_name(cls, name: str = "a800", n_nodes: int = 1,
                  gpus_per_node: int = 4) -> "Cluster":
        """Build a cluster of ``n_nodes`` identical named-spec servers."""
        return cls(node_from_name(name, gpus_per_node), n_nodes)

    # ------------------------------------------------------------------ #
    @property
    def n_allocated(self) -> int:
        return len(self._allocated)

    @property
    def n_free(self) -> int:
        return self.n_nodes - len(self._allocated)

    def is_allocated(self, node: Optional[GPUNode]) -> bool:
        """Does a replica currently hold this very node object?"""
        return any(allocated is node for allocated in self._allocated)

    def acquire(self) -> GPUNode:
        """Allocate one node (fresh memory pools) to a replica."""
        if self.n_free <= 0:
            raise ClusterCapacityError(
                f"all {self.n_nodes} nodes are allocated")
        node = self._free.pop() if self._free else GPUNode(self.spec)
        self._allocated.append(node)
        return node

    def release(self, node: GPUNode) -> None:
        """Return a node to the free pool (replica drained)."""
        # identity, not dataclass equality: same-spec nodes compare equal
        for i, allocated in enumerate(self._allocated):
            if allocated is node:
                del self._allocated[i]
                self._free.append(node)
                return
        raise ValueError("node was not allocated from this cluster")
