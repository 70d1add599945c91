"""The iteration cost model: prices, memos, validation.

Prices are the contract (every record digest hangs off them), so the
comparisons against the scalar reference — ``ref_*``: a plain loop over
the public kernel models of :mod:`repro.hardware.kernels`, one call per
linear — are ``==`` on floats, never ``approx``:

* the passes equal the reference over layer shapes (MHA and GQA), TP
  degrees, GPUs, all five SBMM flavours and hypothesis-drawn batches;
* memo state never leaks into a price: a long-lived model, a fresh model
  per batch and a model whose memos are cleared every few entries return
  identical floats;
* once every row count of a batch has been seen, pricing it evaluates no
  roofline at all;
* knobs the kernel models cannot price are rejected at construction, by
  the cost model and by ``EngineConfig`` alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import A800
from repro.hardware import kernels
from repro.hardware.kernels import (SBMM_IMPLEMENTATIONS, GemmShape,
                                    dense_gemm_time, sbmm_time)
from repro.hardware.specs import A100, RTX3090
from repro.serving import (LLAMA_13B, LLAMA_7B, BatchComposition,
                           EngineConfig, IterationCostModel)
from repro.serving import costs
from repro.serving.models import LLAMA_70B
from repro.sim.sanitizer import sanitized


# --------------------------------------------------------------------- #
# the scalar reference: a loop over the public kernels, one call per linear
# --------------------------------------------------------------------- #
def ref_base_pass(model, m):
    """The plain loop over the layer's linears, verbatim."""
    if m == 0:
        return 0.0
    total = 0.0
    for k, n in model.spec.layer_gemm_shapes():
        total += dense_gemm_time(GemmShape(m, k, n // model.tp), model.gpu)
    return total * model.spec.n_layers + model._lm_head(m)


def ref_delta_pass(model, rows):
    counts = [c for c in rows if c > 0]
    if not counts:
        return 0.0
    total = 0.0
    for k, n in model.spec.layer_gemm_shapes():
        total += sbmm_time(counts, k, n // model.tp, model.gpu,
                           impl=model.sbmm_impl,
                           weight_bits=model.delta_bits,
                           density=model.delta_density).total
    return total * model.spec.n_layers


def ref_lora_pass(model, rows):
    counts = [c for c in rows if c > 0]
    if not counts or model.lora_rank <= 0:
        return 0.0
    r = model.lora_rank
    total = 0.0
    for k, n in model.spec.layer_gemm_shapes():
        down = sbmm_time(counts, k, r, model.gpu, impl="sbmm",
                         weight_bits=16, density=1.0)
        up = sbmm_time(counts, r, n // model.tp, model.gpu, impl="sbmm",
                       weight_bits=16, density=1.0)
        total += (down.total + up.compute) / 0.5 * 0.5
    return total * model.spec.n_layers


ROW_SETS = ([1], [3, 0, 5], [8, 8, 8, 8], [1, 2, 3, 4, 5, 6, 7, 8],
            [100, 1], [0, 0, 7])
M_VALUES = (1, 3, 17, 64, 100, 4096)


class TestCostModelBitExact:
    @pytest.mark.parametrize("spec", [LLAMA_7B, LLAMA_13B],
                             ids=["7b", "13b"])
    @pytest.mark.parametrize("gpu", [A100, RTX3090], ids=["a100", "3090"])
    @pytest.mark.parametrize("tp", [1, 4])
    def test_base_pass(self, spec, gpu, tp):
        model = IterationCostModel(spec, gpu, tp_degree=tp)
        for m in M_VALUES:
            assert model._base_pass(m) == ref_base_pass(model, m)

    # the variant passes evaluate each *distinct* (k, n) once, as a
    # column per row count, and re-add the times in layer order: MHA has
    # 3 distinct shapes of 7, GQA (kv_heads < heads) has 4
    @pytest.mark.parametrize("impl", ["sbmm", "sbmm_reorder", "fp16_bmm",
                                      "fp16_forloop", "naive_forloop"])
    @pytest.mark.parametrize("tp", [1, 4])
    @pytest.mark.parametrize("spec", [LLAMA_7B, LLAMA_70B],
                             ids=["mha", "gqa"])
    def test_delta_pass_all_impls(self, spec, tp, impl):
        model = IterationCostModel(spec, A100, tp_degree=tp, sbmm_impl=impl)
        assert len(set(model._shape_slots)) == \
            (3 if spec.kv_heads == spec.n_heads else 4)
        for rows in ROW_SETS:
            assert model._delta_pass(rows) == ref_delta_pass(model, rows)

    @pytest.mark.parametrize("tp", [1, 4])
    @pytest.mark.parametrize("spec", [LLAMA_7B, LLAMA_70B],
                             ids=["mha", "gqa"])
    def test_lora_pass(self, spec, tp):
        model = IterationCostModel(spec, A100, tp_degree=tp, lora_rank=16)
        for rows in ROW_SETS:
            assert model._lora_pass(rows) == ref_lora_pass(model, rows)

    @pytest.mark.parametrize("tp", [1, 4])
    @pytest.mark.parametrize("kind", ["delta", "lora", "none"])
    def test_iteration_time_end_to_end(self, kind, tp):
        model = IterationCostModel(LLAMA_7B, A100, tp_degree=tp,
                                   lora_rank=16)
        batch = BatchComposition(
            decode_per_delta={"a": 3, "b": 5},
            prefill_tokens_per_delta={"a": 64, "c": 32},
            context_tokens=2048)
        expected_rows = [3 + 64, 5, 32]
        base = ref_base_pass(model, 8 + 96)
        variant = {"delta": ref_delta_pass, "lora": ref_lora_pass,
                   "none": lambda model, rows: 0.0}[kind](model,
                                                          expected_rows)
        ar = model._allreduce(104)
        assert (ar > 0.0) == (tp > 1)

        def scalar(context_tokens):
            attn = model._attention(context_tokens, 104)
            return max(base, variant) + attn + ar + 2e-3

        assert model.iteration_time(batch, kind) == scalar(2048)
        # the engine's steady-state path: one plan from the composition,
        # then only attention re-priced as the context grows
        plan = model.linear_plan(batch, kind)
        assert plan == (104, max(base, variant), ar)
        for context_tokens in (2048, 2049, 2048 + 104, 10 ** 6):
            assert model.plan_time(plan, context_tokens) == \
                scalar(context_tokens)
            batch.context_tokens = context_tokens
            assert model.iteration_time(batch, kind) == \
                scalar(context_tokens)

    def test_empty_composition_prices_to_zero(self):
        model = IterationCostModel(LLAMA_7B, A100, tp_degree=4)
        empty = BatchComposition({}, {}, context_tokens=512)
        assert model.linear_plan(empty).rows == 0
        assert model.iteration_time(empty) == 0.0

    def test_memo_does_not_change_answers(self):
        model = IterationCostModel(LLAMA_7B, A100)
        first = model._base_pass(17)
        assert model._base_pass(17) == first  # memo hit
        assert model._delta_pass([3, 5]) == model._delta_pass([3, 5])


# --------------------------------------------------------------------- #
# behaviour: what the prices say about the design
# --------------------------------------------------------------------- #
class TestIterationCostModel:
    def make(self, **kw):
        return IterationCostModel(LLAMA_13B, A800, tp_degree=4, **kw)

    def batch(self, decode, prefill=None, context=0):
        return BatchComposition(decode_per_delta=decode,
                                prefill_tokens_per_delta=prefill or {},
                                context_tokens=context)

    def test_empty_batch_free(self):
        assert self.make().iteration_time(self.batch({})) == 0.0

    def test_grows_with_batch(self):
        cm = self.make()
        small = cm.iteration_time(self.batch({"a": 1}, context=100))
        large = cm.iteration_time(self.batch({"a": 32}, context=3200))
        assert large > small

    def test_batching_variants_cheaper_than_fullmodel_loop(self):
        """The decoupling payoff: 8 variants x 2 requests in one decoupled
        pass beats 8 separate full-model passes."""
        cm = self.make()
        decode = {f"m{i}": 2 for i in range(8)}
        decoupled = cm.iteration_time(self.batch(decode, context=1600))
        scb = cm.fullmodel_iteration_time({f"m{i}": 2 for i in range(8)},
                                          context_tokens=1600)
        assert decoupled < scb / 2

    def test_single_variant_overhead_modest(self):
        """For one variant the decoupled path costs at most ~2x the plain
        dense pass (base GEMM dominates; delta rides along)."""
        cm = self.make()
        dec = cm.iteration_time(self.batch({"m0": 8}, context=800))
        full = cm.fullmodel_iteration_time({"m0": 8}, context_tokens=800)
        assert dec < 2.0 * full

    def test_lora_variant_cheaper_than_delta(self):
        cm = self.make(lora_rank=16)
        decode = {f"m{i}": 2 for i in range(8)}
        lora = cm.iteration_time(self.batch(decode, context=800), "lora")
        delta = cm.iteration_time(self.batch(decode, context=800), "delta")
        assert lora <= delta * 1.1

    def test_none_variant_is_base_only(self):
        cm = self.make()
        t = cm.iteration_time(self.batch({"m0": 4}, context=400), "none")
        assert t > 0

    def test_unknown_variant_kind_rejected(self):
        cm = self.make()
        with pytest.raises(ValueError):
            cm.iteration_time(self.batch({"m0": 1}), "adapterzzz")

    def test_tp_reduces_iteration_time(self):
        decode = {f"m{i}": 4 for i in range(4)}
        t1 = IterationCostModel(LLAMA_13B, A800, tp_degree=1).iteration_time(
            self.batch(decode, context=1000))
        t4 = IterationCostModel(LLAMA_13B, A800, tp_degree=4).iteration_time(
            self.batch(decode, context=1000))
        assert t4 < t1

    def test_invalid_tp_rejected(self):
        with pytest.raises(ValueError):
            IterationCostModel(LLAMA_13B, A800, tp_degree=0)


# --------------------------------------------------------------------- #
# properties: the passes over drawn batches, memo independence, traffic
# --------------------------------------------------------------------- #
SPECS = {"7b": LLAMA_7B, "13b": LLAMA_13B}
GPUS = {"a100": A100, "a800": A800, "3090": RTX3090}


@st.composite
def impl_and_rows(draw):
    """An SBMM flavour and 1-16 deltas' row counts, zeros interleaved.
    ``fp16_bmm``'s scalar model loops once per *request*, so its counts
    stop at 128 where the per-delta flavours go to 4096."""
    impl = draw(st.sampled_from(SBMM_IMPLEMENTATIONS))
    counts = st.integers(1, 128 if impl == "fp16_bmm" else 4096)
    rows = draw(st.lists(st.one_of(st.just(0), counts), min_size=1,
                         max_size=24).filter(
        lambda rows: 1 <= sum(1 for c in rows if c > 0) <= 16))
    return impl, rows


def ref_iteration_time(model, rows, kind, context_tokens):
    m = sum(rows)
    variant = {"delta": ref_delta_pass, "lora": ref_lora_pass,
               "none": lambda model, rows: 0.0}[kind](model, rows)
    return max(ref_base_pass(model, m), variant) \
        + model._attention(context_tokens, m) + model._allreduce(m) + 2e-3


def batch_of(rows, context_tokens=0):
    """Rows as a decode-only batch whose sorted ids keep the row order."""
    return BatchComposition({f"d{i:02d}": c for i, c in enumerate(rows)},
                            {}, context_tokens)


class TestPassesMatchReference:
    @settings(max_examples=120, deadline=None)
    @given(impl_rows=impl_and_rows(), tp=st.sampled_from([1, 2, 4]),
           spec=st.sampled_from(sorted(SPECS)),
           gpu=st.sampled_from(sorted(GPUS)),
           context=st.integers(0, 10 ** 6))
    def test_every_pass_and_the_iteration(self, impl_rows, tp, spec, gpu,
                                          context):
        impl, rows = impl_rows
        model = IterationCostModel(SPECS[spec], GPUS[gpu], tp_degree=tp,
                                   lora_rank=16, sbmm_impl=impl)
        m = sum(rows)
        # twice: the second answer comes from the memos
        for _ in range(2):
            assert model._base_pass(m) == ref_base_pass(model, m)
            assert model._delta_pass(rows) == ref_delta_pass(model, rows)
            assert model._lora_pass(rows) == ref_lora_pass(model, rows)
            for kind in ("delta", "lora", "none"):
                assert model.iteration_time(batch_of(rows, context), kind) \
                    == ref_iteration_time(model, rows, kind, context)


class TestMemoStateNeverLeaks:
    @pytest.mark.parametrize("impl", SBMM_IMPLEMENTATIONS)
    def test_long_lived_fresh_and_thrashing_models_agree(self, impl,
                                                         monkeypatch):
        rng = random.Random(impl)
        # few distinct counts and repeated batches: every memo gets hits
        batches = [[rng.choice((0, 1, 2, 3, 5, 8, 64, 700))
                    for _ in range(rng.randint(1, 9))] for _ in range(60)]
        batches += batches[:20]

        def make():
            return IterationCostModel(LLAMA_7B, A100, tp_degree=2,
                                      lora_rank=8, sbmm_impl=impl)

        def price(model, rows):
            return [model.iteration_time(batch_of(rows, 4096), kind)
                    for kind in ("delta", "lora", "none")]

        fresh = [price(make(), rows) for rows in batches]
        long_lived = make()
        assert [price(long_lived, rows) for rows in batches] == fresh
        # columns and pass totals are cleared and rebuilt mid-sequence
        monkeypatch.setattr(costs, "_MEMO_LIMIT", 4)
        thrashing = make()
        assert [price(thrashing, rows) for rows in batches] == fresh
        for memo in (thrashing._base_memo, thrashing._delta_memo,
                     thrashing._lora_memo,
                     *(f[-1] for f in thrashing._families.values())):
            assert len(memo) <= 4


class TestRooflineTraffic:
    def test_a_new_tuple_of_seen_counts_evaluates_no_roofline(
            self, monkeypatch):
        calls = []
        roofline = kernels.roofline_time

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return roofline(*args, **kwargs)

        monkeypatch.setattr(kernels, "roofline_time", counted)
        with sanitized(False):      # its re-derivations would be counted
            model = IterationCostModel(LLAMA_7B, A100, tp_degree=4,
                                       lora_rank=16)
        n_distinct = len(set(model._shape_slots))
        model._delta_pass([3, 5, 9])
        assert len(calls) == 3 * n_distinct     # one column per new count
        model._lora_pass([3, 5, 9])
        assert len(calls) == 3 * n_distinct * 3    # a down and an up column
        del calls[:]
        seen_counts = ([5, 3], [9, 9, 3, 5], [3], [5, 0, 9])
        priced = [(model._delta_pass(rows), model._lora_pass(rows))
                  for rows in seen_counts]
        assert calls == []
        assert priced == [(ref_delta_pass(model, rows),
                           ref_lora_pass(model, rows))
                          for rows in seen_counts]
        # one new count among seen ones: exactly one column is built
        del calls[:]
        model._delta_pass([3, 7, 5])
        assert calls == [(7, k, n) for k, n in model._distinct]


# --------------------------------------------------------------------- #
# validation: what the kernels cannot price is rejected, not priced
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("knob, value", [
    ("sbmm_impl", "sbm"), ("sbmm_impl", ""), ("delta_bits", 0),
    ("delta_bits", -4), ("delta_density", 0.0), ("delta_density", 1.5),
    ("delta_density", -0.5), ("lora_rank", -1)])
def test_unpriceable_knob_is_rejected_by_name(knob, value):
    for build in (lambda **kw: IterationCostModel(LLAMA_7B, A100, **kw),
                  EngineConfig):
        with pytest.raises(ValueError, match=knob) as err:
            build(**{knob: value})
        assert repr(value) in str(err.value)


def test_priceable_edges_are_accepted():
    IterationCostModel(LLAMA_7B, A100, delta_bits=1, delta_density=1.0,
                       lora_rank=0)
    EngineConfig(delta_bits=1, delta_density=1.0, lora_rank=0)
    for impl in SBMM_IMPLEMENTATIONS:
        assert EngineConfig(sbmm_impl=impl).sbmm_impl == impl
