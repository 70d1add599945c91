"""Roofline kernel cost models: dense / quantized / sparse GEMM and SBMM.

Every model returns seconds.  The common shape is

    time = max(flops / effective_compute, bytes / memory_bandwidth) + launch

written once, as :func:`roofline_time`, which every GEMM model here, SBMM
and the serving cost model's memoised columns call; it captures the two
regimes the paper leans on:

* **decode** (tiny input rows): memory-bound — time tracks *weight bytes*,
  so 4-bit sparse deltas are ~5-10x faster to apply than FP16 weights;
* **prefill** (large input rows): compute-bound — 2:4 structured sparsity
  engages the sparse tensor cores for up to 2x over dense peak (Fig 6),
  while quantization-only kernels dequantize into the *dense* pipeline and
  plateau at dense peak.

SBMM (§5.2) composes per-delta GEMMs four ways, mirroring Fig 7/17:
``fp16_forloop``, ``naive_forloop`` (low-precision, one launch per delta),
``bmm`` (stacked torch.bmm-style), ``sbmm_reorder`` ("Ours": grouped
requests, still per-delta launches) and ``sbmm`` ("Ours+": one dynamic-
parallelism launch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .specs import GPUSpec

__all__ = ["GemmShape", "dense_gemm_time", "quantized_gemm_time",
           "sparse_quantized_gemm_time", "achieved_flops_ratio",
           "SBMM_IMPLEMENTATIONS", "sbmm_time", "SBMMBreakdown",
           "roofline_time", "sbmm_delta_time", "sbmm_compose",
           "SBMM_MAX_OVERLAP"]

# random-access penalty for gather/scatter of requests that are not grouped
# by delta: effective HBM bandwidth fraction for the activation traffic ...
_SCATTERED_BW_FRACTION = 0.25
# ... plus a fixed per-request gather/scatter cost (uncoalesced row moves)
_RANDOM_ACCESS_US_PER_REQUEST = 3.0
# fraction of peak compute reachable by a GEMM with m input rows
_SMALL_M_KNEE = 64.0
#: how many SBMM child kernels can genuinely overlap (SM-bound)
SBMM_MAX_OVERLAP = 8


@dataclass(frozen=True)
class GemmShape:
    """Problem size ``(m x k) @ (k x n)^T``: m = tokens, k = in, n = out."""

    m: int
    k: int
    n: int

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.k * self.n


def roofline_time(m: int, k: int, n: int, gpu: GPUSpec,
                  weight_bits: float = 16.0,
                  density: Optional[float] = None,
                  scattered: bool = False) -> float:
    """``max(flops / (peak * eff), bytes / hbm)`` of one ``(m x k) @ (k x n)``
    GEMM, launch excluded — the roofline and the small-``m`` efficiency
    ramp (few rows cannot fill the SMs), written here and nowhere else:
    every kernel model below and the serving cost model's per-count
    columns call it.  ``density=None`` is the dense pipeline at
    ``weight_bits`` per weight; a float keeps that fraction of the weights
    plus 2-bit metadata and runs on the sparse tensor cores.  ``scattered``
    activations move at the random-access fraction of HBM bandwidth."""
    eff = gpu.mma_efficiency * (0.15 + 0.85 * min(1.0, m / _SMALL_M_KNEE))
    if density is None:
        peak, per_value = gpu.peak_flops, weight_bits
    else:
        peak = gpu.peak_flops * gpu.sparse_speedup
        per_value = weight_bits * density + 2.0 * density
    act = (m * k + m * n) * 2.0
    if scattered:
        act = act / _SCATTERED_BW_FRACTION
    return max(2.0 * m * k * n / (peak * eff),
               (k * n * per_value / 8.0 + act) / gpu.hbm_bytes_per_s)


def _launch_s(gpu: GPUSpec, include_launch: bool) -> float:
    return gpu.kernel_launch_us * 1e-6 if include_launch else 0.0


def dense_gemm_time(shape: GemmShape, gpu: GPUSpec,
                    include_launch: bool = True,
                    scattered: bool = False) -> float:
    """FP16 x FP16 GEMM."""
    return roofline_time(shape.m, shape.k, shape.n, gpu,
                         scattered=scattered) + _launch_s(gpu, include_launch)


def quantized_gemm_time(shape: GemmShape, gpu: GPUSpec, weight_bits: int,
                        include_launch: bool = True,
                        scattered: bool = False) -> float:
    """INTx x FP16 GEMM (dequantize-into-MMA, Marlin-style).

    Weight traffic shrinks with the bit width, but compute still runs on the
    dense pipeline (dequantization fuses in), so large-m performance matches
    dense peak.
    """
    return roofline_time(shape.m, shape.k, shape.n, gpu, float(weight_bits),
                         scattered=scattered) + _launch_s(gpu, include_launch)


def sparse_quantized_gemm_time(shape: GemmShape, gpu: GPUSpec,
                               weight_bits: int, density: float = 0.5,
                               include_launch: bool = True,
                               scattered: bool = False) -> float:
    """2:4-sparse INTx x FP16 GEMM (Sparse-Marlin-style).

    Keeps only ``density`` of the weights (plus 2-bit metadata) and executes
    dense-equivalent flops on sparse tensor cores: ``sparse_speedup`` x dense
    peak at large m.
    """
    return roofline_time(shape.m, shape.k, shape.n, gpu, float(weight_bits),
                         density, scattered) + _launch_s(gpu, include_launch)


def achieved_flops_ratio(shape: GemmShape, gpu: GPUSpec, kind: str,
                         weight_bits: int = 16) -> float:
    """Achieved FLOPs normalized to *dense FP16 peak* (Fig 6's y-axis).

    ``kind``: "fp16", "quant", or "sparse_quant".
    """
    if kind == "fp16":
        t = dense_gemm_time(shape, gpu, include_launch=False)
    elif kind == "quant":
        t = quantized_gemm_time(shape, gpu, weight_bits, include_launch=False)
    elif kind == "sparse_quant":
        t = sparse_quantized_gemm_time(shape, gpu, weight_bits,
                                       include_launch=False)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return (shape.flops / t) / gpu.peak_flops


# --------------------------------------------------------------------------- #
# SBMM: batched multi-delta matmul
# --------------------------------------------------------------------------- #
SBMM_IMPLEMENTATIONS = ("fp16_forloop", "fp16_bmm", "naive_forloop",
                        "sbmm_reorder", "sbmm")


@dataclass
class SBMMBreakdown:
    """Total and compute-only time of one batched multi-delta matmul."""

    total: float
    compute: float

    @property
    def overhead(self) -> float:
        return self.total - self.compute


def sbmm_delta_time(count: int, shape_k: int, shape_n: int, gpu: GPUSpec,
                    impl: str, weight_bits: int = 4,
                    density: float = 0.5) -> float:
    """One delta's ``count``-row GEMM inside an SBMM of flavour ``impl``,
    launch excluded: the FP16 flavours run dense, the rest 2:4-sparse at
    ``weight_bits``; the for-loops read ungrouped activations.  A function
    of ``(shape, count)`` alone, hence memoisable per row count."""
    dense = impl.startswith("fp16")
    return roofline_time(count, shape_k, shape_n, gpu,
                         16.0 if dense else float(weight_bits),
                         None if dense else density, impl.endswith("forloop"))


def sbmm_compose(columns: Sequence[Sequence[float]], n_requests: int,
                 gpu: GPUSpec, impl: str) -> List[Tuple[float, float]]:
    """``(total, compute)`` of an SBMM per layer shape, all shapes in one
    pass: ``columns[d][s]`` is delta ``d``'s GEMM time at shape ``s``,
    deltas in batch order (every flavour but ``fp16_bmm``, which has no
    per-delta term)."""
    n_deltas = len(columns)
    launch = gpu.kernel_launch_us * 1e-6
    if impl == "sbmm":
        # "Ours+": one host launch; children overlap across SMs, bounded
        # by the largest delta plus a small per-child scheduling cost
        per_child = gpu.dynamic_launch_us * 1e-6 * n_deltas
        parallelism = _sbmm_parallelism(gpu, n_deltas)
    else:
        # one launch per delta; requests grouped per delta (sbmm_reorder)
        # read contiguously, the for-loops also pay a gather/scatter per
        # request
        launches = launch * n_deltas
        gather = _RANDOM_ACCESS_US_PER_REQUEST * 1e-6 * n_requests \
            if impl.endswith("forloop") else None
    out: List[Tuple[float, float]] = []
    for per_delta in zip(*columns):
        # an explicit left-to-right sum: sum() is compensated from Python
        # 3.12 on, and a price may not depend on the interpreter
        compute = 0.0
        for t in per_delta:
            compute += t
        if impl == "sbmm":
            total = launch + max(max(per_delta) + per_child,
                                 compute / parallelism)
        else:
            total = compute + launches
            if gather is not None:
                total += gather
        out.append((total, compute))
    return out


def sbmm_time(requests_per_delta: Sequence[int], shape_k: int, shape_n: int,
              gpu: GPUSpec, impl: str = "sbmm", weight_bits: int = 4,
              density: float = 0.5) -> SBMMBreakdown:
    """Time to compute ``y_i = x_i @ Δ_{idx_i}`` for a batch (Fig 7/8/17).

    ``requests_per_delta`` lists the number of requests per distinct delta
    in the batch (zeros allowed and skipped).
    """
    counts = [c for c in requests_per_delta if c > 0]
    if impl not in SBMM_IMPLEMENTATIONS:
        raise ValueError(f"unknown SBMM impl {impl!r}")
    if not counts:
        return SBMMBreakdown(total=0.0, compute=0.0)
    total_reqs = sum(counts)
    if impl == "fp16_bmm":
        # stack per-request weight copies, then one batched dense kernel
        stack_bytes = total_reqs * shape_k * shape_n * 2.0
        stack_time = stack_bytes / gpu.hbm_bytes_per_s
        compute = sum(dense_gemm_time(GemmShape(1, shape_k, shape_n), gpu,
                                      include_launch=False)
                      for _ in range(total_reqs))
        total = compute + stack_time + gpu.kernel_launch_us * 1e-6
    else:
        (total, compute), = sbmm_compose(
            [[sbmm_delta_time(c, shape_k, shape_n, gpu, impl, weight_bits,
                              density)] for c in counts],
            total_reqs, gpu, impl)
    return SBMMBreakdown(total=total, compute=compute)


def _sbmm_parallelism(gpu: GPUSpec, n_deltas: int) -> float:
    """How many child kernels can genuinely overlap (SM-bound)."""
    return float(min(n_deltas, SBMM_MAX_OVERLAP))
