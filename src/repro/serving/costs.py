"""Iteration cost model: batch composition → seconds (decoupled serving).

Implements the timing consequences of §5.1-§5.3:

* the **base** pass runs one dense FP16 GEMM per linear over the *whole*
  batch (all variants of the same base batch together);
* the **delta** pass runs SBMM — low-precision sparse grouped matmuls —
  in parallel with the base pass (per-layer time is the max of the two,
  the decoupling of Eq. 2);
* tensor parallelism splits every GEMM's output dimension ``1/tp`` and adds
  two ring all-reduces of the activations per layer (Fig 9);
* attention adds KV-cache traffic, which is what makes decode memory-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..hardware.cluster import allreduce_time
from ..hardware.kernels import (GemmShape, dense_gemm_time,
                                quantized_gemm_time, sbmm_time,
                                sparse_quantized_gemm_time)
# the scalar kernel models in hardware.kernels stay the ground truth; the
# vectorized fast paths below reuse their private constants so the two can
# never drift apart (equivalence is pinned by test_streaming_metrics)
from ..hardware.kernels import (_RANDOM_ACCESS_US_PER_REQUEST,
                                _SCATTERED_BW_FRACTION, _SMALL_M_KNEE,
                                _sbmm_parallelism)
from ..hardware.specs import GPUSpec
from .models import FP16, ServedModelSpec

__all__ = ["IterationCostModel", "BatchComposition", "LinearPlan"]

# fixed per-iteration software overhead (scheduler, python, launch queue)
_ITERATION_OVERHEAD_S = 2e-3
# LoRA adapters multiply two rank-r matrices per projection
_LORA_KERNEL_EFFICIENCY = 0.5
# bounded memo caches for the per-iteration pass costs; cleared when full
# so pathological workloads cannot grow them without bound
_MEMO_LIMIT = 65536


@dataclass
class BatchComposition:
    """What one engine iteration executes.

    ``decode_per_delta`` maps variant-id -> number of decoding requests this
    iteration; ``prefill_tokens_per_delta`` maps variant-id -> total prompt
    tokens entering prefill; ``context_tokens`` is the sum of context
    lengths across decoding requests (KV traffic).
    """

    decode_per_delta: Dict[str, int]
    prefill_tokens_per_delta: Dict[str, int]
    context_tokens: int = 0

    @property
    def decode_requests(self) -> int:
        return sum(self.decode_per_delta.values())

    @property
    def prefill_tokens(self) -> int:
        return sum(self.prefill_tokens_per_delta.values())

    @property
    def empty(self) -> bool:
        return self.decode_requests == 0 and self.prefill_tokens == 0


class LinearPlan(NamedTuple):
    """What :meth:`IterationCostModel.iteration_time` derives from a
    batch's *composition* alone: total token-rows, the decoupled linear
    pass ``max(base, variant)`` and the TP all-reduce of those rows."""

    rows: int
    linear_s: float
    allreduce_s: float


class IterationCostModel:
    """Times one continuous-batching iteration for a given engine flavour."""

    def __init__(self, spec: ServedModelSpec, gpu: GPUSpec,
                 tp_degree: int = 1, delta_bits: int = 4,
                 delta_density: float = 0.5, lora_rank: int = 0,
                 sbmm_impl: str = "sbmm"):
        if tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        self.spec = spec
        self.gpu = gpu
        self.tp = tp_degree
        self.delta_bits = delta_bits
        self.delta_density = delta_density
        self.lora_rank = lora_rank
        self.sbmm_impl = sbmm_impl
        # per-layer GEMM shapes with the TP split applied once (the inner
        # loops below are the engine's single hottest code path)
        self._shape_pairs: List[Tuple[int, int]] = \
            [(k, n // self.tp) for k, n in spec.layer_gemm_shapes()]
        self._ks = np.array([k for k, _ in self._shape_pairs],
                            dtype=np.float64)
        self._ns = np.array([n for _, n in self._shape_pairs],
                            dtype=np.float64)
        self._kns = self._ks * self._ns        # exact: integer products
        # the variant passes price each *distinct* (k, n) once (q/k/v/o
        # and gate/up repeat), all of them in one shapes x deltas numpy
        # evaluation, and add the times back up in layer order
        distinct = list(dict.fromkeys(self._shape_pairs))
        self._shape_slots: List[int] = \
            [distinct.index(pair) for pair in self._shape_pairs]
        self._dks = np.array([[k] for k, _ in distinct], dtype=np.float64)
        self._dns = np.array([[n] for _, n in distinct], dtype=np.float64)
        self._kv_bytes_per_token = spec.kv_bytes_per_token()
        self._base_memo: Dict[int, float] = {}
        self._delta_memo: Dict[Tuple[int, ...], float] = {}
        self._lora_memo: Dict[Tuple[int, ...], float] = {}

    # ------------------------------------------------------------------ #
    # building blocks
    #
    # The vectorized passes reproduce hardware.kernels bit-for-bit: every
    # elementwise term keeps the scalar models' operand grouping (all
    # products of integers are exact in float64, so regrouping them is
    # lossless), and reductions accumulate sequentially in the scalar
    # call order.  test_streaming_metrics pins exact equality.
    # ------------------------------------------------------------------ #
    def _base_pass(self, m: int) -> float:
        """Dense FP16 pass over ``m`` token-rows (whole shared-base batch)."""
        if m == 0:
            return 0.0
        cached = self._base_memo.get(m)
        if cached is not None:
            return cached
        gpu = self.gpu
        fill = min(1.0, m / _SMALL_M_KNEE)
        eff = gpu.mma_efficiency * (0.15 + 0.85 * fill)
        compute = (2.0 * m) * self._kns / (gpu.peak_flops * eff)
        weight = self._kns * 16.0 / 8.0
        act = (m * self._ks + m * self._ns) * 2.0
        mem = (weight + act) / gpu.hbm_bytes_per_s
        per_shape = np.maximum(compute, mem) + gpu.kernel_launch_us * 1e-6
        total = 0.0
        for t in per_shape.tolist():
            total += t
        total = total * self.spec.n_layers + self._lm_head(m)
        if len(self._base_memo) >= _MEMO_LIMIT:
            self._base_memo.clear()
        self._base_memo[m] = total
        return total

    def _lm_head(self, m: int) -> float:
        return dense_gemm_time(
            GemmShape(m, self.spec.dim, self.spec.vocab_size // self.tp),
            self.gpu)

    def _sbmm_breakdown(self, counts: List[int], carr: np.ndarray,
                        ks: Union[np.ndarray, float],
                        ns: Union[np.ndarray, float], weight_bits: float,
                        density: float,
                        impl: str) -> List[Tuple[float, float]]:
        """(total, compute) of one batched multi-delta matmul per GEMM
        shape — the vectorized twin of
        :func:`~repro.hardware.kernels.sbmm_time`.  ``ks``/``ns`` are
        (shapes, 1) columns (or a scalar, broadcast), ``carr`` the
        per-delta row counts: every elementwise term is evaluated once
        as a shapes x deltas array."""
        gpu = self.gpu
        kns = ks * ns                          # exact: integer products
        if impl == "fp16_bmm":
            # per-request stacked BMM has no per-delta vector dimension;
            # keep the (rarely hot) scalar model authoritative
            out = []
            for k, n in zip(ks.ravel().tolist(), ns.ravel().tolist()):
                br = sbmm_time(counts, int(k), int(n), gpu, impl=impl,
                               weight_bits=int(weight_bits), density=density)
                out.append((br.total, br.compute))
            return out
        dense = impl.startswith("fp16")
        scattered = impl.endswith("forloop")
        fill = np.minimum(1.0, carr / _SMALL_M_KNEE)
        eff = gpu.mma_efficiency * (0.15 + 0.85 * fill)
        peak = gpu.peak_flops if dense \
            else gpu.peak_flops * gpu.sparse_speedup
        comp = (2.0 * carr) * kns / (peak * eff)
        per_value = 16.0 if dense \
            else weight_bits * density + 2.0 * density
        weight = kns * per_value / 8.0
        act = (carr * ks + carr * ns) * 2.0
        if scattered:
            act = act / _SCATTERED_BW_FRACTION
        mem = (weight + act) / gpu.hbm_bytes_per_s
        launch = gpu.kernel_launch_us * 1e-6
        d = len(counts)
        gather = _RANDOM_ACCESS_US_PER_REQUEST * 1e-6 * sum(counts)
        out = []
        for per_list in np.maximum(comp, mem).tolist():
            compute = 0.0
            for t in per_list:
                compute += t
            if impl == "sbmm":
                overlapped = max(per_list) + gpu.dynamic_launch_us * 1e-6 * d
                total = launch + max(overlapped,
                                     compute / _sbmm_parallelism(gpu, d))
            elif impl == "sbmm_reorder":
                total = compute + launch * d
            else:  # fp16_forloop / naive_forloop
                total = compute + launch * d + gather
            out.append((total, compute))
        return out

    def _sum_over_layer_shapes(self, per_distinct: List[float]) -> float:
        """Sum per-distinct-shape times over the block's linears, in the
        original layer order (float addition is not associative)."""
        total = 0.0
        for slot in self._shape_slots:
            total += per_distinct[slot]
        return total

    def _delta_pass(self, rows_per_delta: Sequence[int]) -> float:
        """SBMM pass: grouped sparse low-precision matmuls per linear."""
        counts = [c for c in rows_per_delta if c > 0]
        if not counts:
            return 0.0
        key = tuple(counts)
        cached = self._delta_memo.get(key)
        if cached is not None:
            return cached
        carr = np.array(counts, dtype=np.float64)
        bits = float(self.delta_bits)
        total = self._sum_over_layer_shapes([
            t for t, _ in self._sbmm_breakdown(
                counts, carr, self._dks, self._dns, bits,
                self.delta_density, self.sbmm_impl)])
        total = total * self.spec.n_layers
        if len(self._delta_memo) >= _MEMO_LIMIT:
            self._delta_memo.clear()
        self._delta_memo[key] = total
        return total

    def _lora_pass(self, rows_per_adapter: Sequence[int]) -> float:
        """Punica-style batched adapter matmuls.

        Each projection applies two rank-r GEMMs (shrink then expand), but
        Punica's SGMV kernel fuses them into one launch — so the second
        GEMM contributes compute only.
        """
        counts = [c for c in rows_per_adapter if c > 0]
        if not counts or self.lora_rank <= 0:
            return 0.0
        key = tuple(counts)
        cached = self._lora_memo.get(key)
        if cached is not None:
            return cached
        r = self.lora_rank
        carr = np.array(counts, dtype=np.float64)
        down = self._sbmm_breakdown(counts, carr, self._dks, float(r),
                                    16.0, 1.0, "sbmm")
        up = self._sbmm_breakdown(counts, carr, float(r), self._dns,
                                  16.0, 1.0, "sbmm")
        total = self._sum_over_layer_shapes([
            (down_total + up_compute) / _LORA_KERNEL_EFFICIENCY * 0.5
            for (down_total, _), (_, up_compute) in zip(down, up)])
        total = total * self.spec.n_layers
        if len(self._lora_memo) >= _MEMO_LIMIT:
            self._lora_memo.clear()
        self._lora_memo[key] = total
        return total

    def _attention(self, context_tokens: int, new_tokens: int) -> float:
        """KV-cache read/write traffic (memory-bound decode attention)."""
        kv_read = context_tokens * self._kv_bytes_per_token / self.tp
        kv_write = new_tokens * self._kv_bytes_per_token / self.tp
        return (kv_read + kv_write) / self.gpu.hbm_bytes_per_s

    def _allreduce(self, m: int) -> float:
        if self.tp == 1 or m == 0:
            return 0.0
        per_layer = 2 * allreduce_time(m * self.spec.dim * FP16, self.tp,
                                       self.gpu)
        return per_layer * self.spec.n_layers

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def iteration_time(self, batch: BatchComposition,
                       variant_kind: str = "delta") -> float:
        """Seconds for one iteration of the decoupled engine.

        ``variant_kind``: "delta" (compressed FMT), "lora", or "none"
        (requests all target the base model).
        """
        return self.plan_time(self.linear_plan(batch, variant_kind),
                              batch.context_tokens)

    def linear_plan(self, batch: BatchComposition,
                    variant_kind: str = "delta") -> LinearPlan:
        """The composition-dependent part of :meth:`iteration_time`: it
        reads which variants run how many rows and never
        ``context_tokens``, so it stands for as long as the composition
        does."""
        decode = batch.decode_per_delta
        prefill = batch.prefill_tokens_per_delta
        # rows in sorted variant order: dict/set order differs across
        # batches and processes, and the row order feeds non-associative
        # float sums in the variant pass
        if prefill:
            rows = [decode.get(delta_id, 0) + prefill.get(delta_id, 0)
                    for delta_id in sorted(decode.keys() | prefill.keys())]
        else:
            rows = [decode[delta_id] for delta_id in sorted(decode)]
        m_total = sum(rows)              # integers: exact in any order
        if m_total == 0:
            return LinearPlan(0, 0.0, 0.0)

        base = self._base_pass(m_total)
        if variant_kind == "delta":
            variant = self._delta_pass(rows)
        elif variant_kind == "lora":
            variant = self._lora_pass(rows)
        elif variant_kind == "none":
            variant = 0.0
        else:
            raise ValueError(f"unknown variant kind {variant_kind!r}")

        # decoupled: base GEMM and variant matmuls execute in parallel
        return LinearPlan(m_total, max(base, variant),
                          self._allreduce(m_total))

    def plan_time(self, plan: LinearPlan, context_tokens: int) -> float:
        """The context-dependent part: attention over ``context_tokens``
        on top of a :meth:`linear_plan`.  The iteration-time formula is
        written here and nowhere else."""
        m_total, linear, allreduce = plan
        if m_total == 0:
            return 0.0
        attn = self._attention(context_tokens, m_total)
        return linear + attn + allreduce + _ITERATION_OVERHEAD_S

    def fullmodel_iteration_time(
        self,
        rows_per_model: Dict[str, int],
        context_tokens: int,
        prefill_tokens_per_model: Optional[Dict[str, int]] = None,
    ) -> float:
        """vLLM-SCB baseline: loop over resident models, dense pass each.

        Batches within a model, but each model's pass is a separate series
        of dense kernels (no cross-model batching).
        """
        prefill = prefill_tokens_per_model or {}
        models = set(rows_per_model) | set(prefill)
        if not models:
            return 0.0
        total = 0.0
        any_rows = False
        # sorted: set order is hash-randomized across processes, and the
        # per-model pass times feed a non-associative float sum
        for model_id in sorted(models):
            m = rows_per_model.get(model_id, 0) + prefill.get(model_id, 0)
            if m == 0:
                continue
            any_rows = True
            total += self._base_pass(m)
            total += self._allreduce(m)
        if not any_rows:
            return 0.0
        new_tokens = sum(rows_per_model.values()) + sum(prefill.values())
        total += self._attention(context_tokens, new_tokens)
        return total + _ITERATION_OVERHEAD_S
