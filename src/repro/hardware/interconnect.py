"""The wires between devices and nodes: one ring formula, one link spec.

:func:`ring_allreduce_time` is the only ring all-reduce in the tree: the
intra-node collective (:func:`repro.hardware.cluster.allreduce_time`,
NVLink or PCIe peer hops) and the inter-node one
(:meth:`InterconnectModel.allreduce_time`) are the same arithmetic over
different link numbers.  :class:`InterconnectModel` is the node-to-node
fabric; its defaults mirror the paper's testbed class — a 200 Gbit RDMA
NIC (~25 GB/s usable) with single-digit-microsecond latency — which
lands between NVLink and disk, so crossing it is a real but amortizable
toll.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterconnectModel", "ring_allreduce_time"]


def ring_allreduce_time(nbytes: float, n_participants: int, gbps: float,
                        latency_s: float) -> float:
    """Ring all-reduce of ``nbytes`` over ``n_participants`` peers joined
    by ``gbps`` GB/s, ``latency_s``-per-hop links: ``2(n-1)`` steps, each
    peer streaming ``2(n-1)/n`` of the buffer."""
    if n_participants <= 1:
        return 0.0
    steps = 2 * (n_participants - 1)
    volume = steps / n_participants * nbytes
    return latency_s * steps + volume / (gbps * 1e9)


@dataclass(frozen=True)
class InterconnectModel:
    """A node-to-node link: setup latency plus stream bandwidth.

    The same fabric carries point-to-point moves (KV blocks between
    disaggregated pools, deltas migrating off a draining replica) and
    ring all-reduces (cross-node tensor parallelism), so both cost
    functions live on one spec and can never disagree about the wire.
    """

    gbps: float = 25.0           # usable GB/s (≈ 200 Gbit RDMA)
    latency_s: float = 10e-6     # per-transfer setup

    def __post_init__(self) -> None:
        if not self.gbps > 0:
            raise ValueError(f"gbps must be > 0, got {self.gbps!r}")
        if not self.latency_s >= 0:
            raise ValueError(
                f"latency_s must be >= 0, got {self.latency_s!r}")

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` point-to-point; zero moves free."""
        if nbytes <= 0:
            return 0.0
        return self.latency_s + nbytes / (self.gbps * 1e9)

    def allreduce_time(self, nbytes: float, n_participants: int) -> float:
        """Ring all-reduce of ``nbytes`` across ``n_participants`` nodes;
        an empty buffer is never sent, so it costs no hop latency."""
        if nbytes <= 0:
            return 0.0
        return ring_allreduce_time(nbytes, n_participants, self.gbps,
                                   self.latency_s)
