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

A batch is priced in plain floats from the scalar kernel models of
:mod:`repro.hardware.kernels`, which stay the only place a formula is
written.  The one per-element term — the roofline of a ``c``-row GEMM —
depends on (GEMM shape, ``c``) alone, so the variant passes keep it as a
*column* per row count (one float per distinct layer shape) and a batch of
``d`` deltas merely combines ``d`` columns; a membership change that moves
one delta's count re-prices no roofline whose count was seen before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..hardware.cluster import allreduce_time
from ..hardware.kernels import (SBMM_IMPLEMENTATIONS, GemmShape,
                                dense_gemm_time, sbmm_compose,
                                sbmm_delta_time, sbmm_time)
from ..hardware.specs import GPUSpec
from ..sim import sanitizer as _sanitizer
from .models import FP16, ServedModelSpec

__all__ = ["IterationCostModel", "BatchComposition", "LinearPlan",
           "check_pricing_knobs"]

# fixed per-iteration software overhead (scheduler, python, launch queue)
_ITERATION_OVERHEAD_S = 2e-3
# LoRA adapters multiply two rank-r matrices per projection, each batched
# like an SBMM of this (flavour, weight bits, density)
_LORA_KERNEL_EFFICIENCY = 0.5
_LORA_SBMM = ("sbmm", 16, 1.0)
# bound on every memo below (pass totals and per-count columns alike):
# cleared when full, so no workload grows them without bound
_MEMO_LIMIT = 65536

#: one SBMM the variant passes run: its GEMM shapes (one per distinct layer
#: shape), (flavour, weight bits, density) and ``{row count: column}`` memo
_Family = Tuple[List[Tuple[int, int]], Tuple[str, int, float],
                Dict[int, List[float]]]


def check_pricing_knobs(sbmm_impl: str, delta_bits: int,
                        delta_density: float, lora_rank: int) -> None:
    """Reject variant-pass knobs the kernel models cannot price (shared
    by :class:`IterationCostModel` and ``EngineConfig``)."""
    if sbmm_impl not in SBMM_IMPLEMENTATIONS:
        raise ValueError(f"unknown sbmm_impl {sbmm_impl!r}")
    if delta_bits < 1:
        raise ValueError(f"delta_bits {delta_bits!r} must be >= 1")
    if not 0.0 < delta_density <= 1.0:
        raise ValueError(f"delta_density {delta_density!r} not in (0, 1]")
    if lora_rank < 0:
        raise ValueError(f"lora_rank {lora_rank!r} must be >= 0")


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
                 sbmm_impl: str = "sbmm") -> None:
        if tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        check_pricing_knobs(sbmm_impl, delta_bits, delta_density, lora_rank)
        self.spec = spec
        self.gpu = gpu
        self.tp = tp_degree
        self.delta_bits = delta_bits
        self.delta_density = delta_density
        self.lora_rank = lora_rank
        self.sbmm_impl = sbmm_impl
        # per-layer GEMM shapes with the TP split applied once; every pass
        # prices each *distinct* (k, n) once (q/k/v/o and gate/up repeat)
        # and adds the times back up in layer order
        pairs = [(k, n // self.tp) for k, n in spec.layer_gemm_shapes()]
        distinct = list(dict.fromkeys(pairs))
        self._distinct: List[Tuple[int, int]] = distinct
        self._shape_slots: List[int] = [distinct.index(p) for p in pairs]
        # LoRA shrinks to rank r then expands, as two dense "sbmm" batches
        r = lora_rank
        self._families: Dict[str, _Family] = {
            "delta": (distinct, (sbmm_impl, delta_bits, delta_density), {}),
            "lora_down": ([(k, r) for k, _ in distinct], _LORA_SBMM, {}),
            "lora_up": ([(r, n) for _, n in distinct], _LORA_SBMM, {}),
        }
        self._kv_bytes_per_token = spec.kv_bytes_per_token()
        self._base_memo: Dict[int, float] = {}
        self._delta_memo: Dict[Tuple[int, ...], float] = {}
        self._lora_memo: Dict[Tuple[int, ...], float] = {}
        self._sanitize = _sanitizer.enabled()

    # ------------------------------------------------------------------ #
    # building blocks
    #
    # Each pass is the scalar kernel composition of hardware.kernels over
    # the layer's linears — same functions, same operand order, hence the
    # floats of a loop over ``sbmm_time`` / ``dense_gemm_time`` (``==`` in
    # tests/test_serving_costs.py) — minus the work that repeats: equal
    # layer shapes, seen row counts (columns), seen batches (tuple memos).
    # ------------------------------------------------------------------ #
    def _base_pass(self, m: int) -> float:
        """Dense FP16 pass over ``m`` token-rows (whole shared-base batch)."""
        if m == 0:
            return 0.0
        cached = self._base_memo.get(m)
        if cached is not None:
            if self._sanitize:
                _sanitizer.check_cost_total(self, "base", m, cached)
            return cached
        total = self._sum_over_layer_shapes(
            [dense_gemm_time(GemmShape(m, k, n), self.gpu)
             for k, n in self._distinct])
        total = total * self.spec.n_layers + self._lm_head(m)
        if len(self._base_memo) >= _MEMO_LIMIT:
            self._base_memo.clear()
        self._base_memo[m] = total
        return total

    def _lm_head(self, m: int) -> float:
        return dense_gemm_time(
            GemmShape(m, self.spec.dim, self.spec.vocab_size // self.tp),
            self.gpu)

    def _sbmm(self, family: str,
              counts: List[int]) -> List[Tuple[float, float]]:
        """(total, compute) of one batched multi-delta matmul per distinct
        GEMM shape of ``family``: one column per delta, looked up by its
        row count (built on a miss), combined shape by shape."""
        shapes, knobs, columns = self._families[family]
        gpu = self.gpu
        picked = []
        for c in counts:
            column = columns.get(c)
            if column is None:
                column = [sbmm_delta_time(c, k, n, gpu, *knobs)
                          for k, n in shapes]
                if len(columns) >= _MEMO_LIMIT:
                    columns.clear()
                columns[c] = column
            elif self._sanitize:
                _sanitizer.check_cost_column(family, gpu, shapes, knobs, c,
                                             column)
            picked.append(column)
        n_requests = sum(counts)
        return [sbmm_compose(per_delta, n_requests, gpu, knobs[0])
                for per_delta in zip(*picked)]

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
            if self._sanitize:
                _sanitizer.check_cost_total(self, "delta", key, cached)
            return cached
        if self.sbmm_impl == "fp16_bmm":
            # per-request stacked BMM has no per-delta term to keep
            per_shape = [sbmm_time(counts, k, n, self.gpu, "fp16_bmm").total
                         for k, n in self._distinct]
        else:
            per_shape = [t for t, _ in self._sbmm("delta", counts)]
        total = self._sum_over_layer_shapes(per_shape) * self.spec.n_layers
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
            if self._sanitize:
                _sanitizer.check_cost_total(self, "lora", key, cached)
            return cached
        total = self._sum_over_layer_shapes([
            (down_total + up_compute) / _LORA_KERNEL_EFFICIENCY * 0.5
            for (down_total, _), (_, up_compute)
            in zip(self._sbmm("lora_down", counts),
                   self._sbmm("lora_up", counts))])
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
