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
from dataclasses import replace
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import A800
from repro.hardware import kernels
from repro.hardware.kernels import (SBMM_IMPLEMENTATIONS, GemmShape,
                                    dense_gemm_time, sbmm_time)
from repro.hardware.specs import A100, GPU_SPECS, RTX3090
from repro.serving import (LLAMA_13B, LLAMA_7B, MODEL_SPECS,
                           BatchComposition, EngineConfig,
                           IterationCostModel)
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


def ref_attention(model, context_tokens, new_tokens):
    """KV-cache read/write traffic (memory-bound decode attention)."""
    kv = model.spec.kv_bytes_per_token()
    kv_read = context_tokens * kv / model.tp
    kv_write = new_tokens * kv / model.tp
    return (kv_read + kv_write) / model.gpu.hbm_bytes_per_s


def ref_fullmodel_time(model, rows_per_model, context_tokens,
                       prefill_tokens_per_model=None):
    """vLLM-SCB's loop over resident models, one dense pass each, as the
    scalar formula it was written as before it became a plan."""
    prefill = prefill_tokens_per_model or {}
    models = set(rows_per_model) | set(prefill)
    total = 0.0
    any_rows = False
    for model_id in sorted(models):
        m = rows_per_model.get(model_id, 0) + prefill.get(model_id, 0)
        if m == 0:
            continue
        any_rows = True
        total += ref_base_pass(model, m)
        total += model._allreduce_pass(m)
    if not any_rows:
        return 0.0
    new_tokens = sum(rows_per_model.values()) + sum(prefill.values())
    total += ref_attention(model, context_tokens, new_tokens)
    return total + 2e-3


def fullmodel_time(model, rows_per_model, context_tokens, prefill=None):
    return model.plan_time(model.fullmodel_plan(BatchComposition(
        rows_per_model, prefill or {}, context_tokens)), context_tokens)


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
        ar = model._allreduce_pass(104)
        assert (ar > 0.0) == (tp > 1)

        def scalar(context_tokens):
            attn = ref_attention(model, context_tokens, 104)
            return max(base, variant) + attn + ar + 2e-3

        assert model.iteration_time(batch, kind) == scalar(2048)
        # the engine's steady-state path: one plan from the composition,
        # then only attention re-priced as the context grows
        plan = model.linear_plan(batch, kind)
        assert plan == (104, max(base, variant), ar, 0.0)
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
        scb = fullmodel_time(cm, {f"m{i}": 2 for i in range(8)}, 1600)
        assert decoupled < scb / 2

    def test_single_variant_overhead_modest(self):
        """For one variant the decoupled path costs at most ~2x the plain
        dense pass (base GEMM dominates; delta rides along)."""
        cm = self.make()
        dec = cm.iteration_time(self.batch({"m0": 8}, context=800))
        full = fullmodel_time(cm, {"m0": 8}, 800)
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
        + ref_attention(model, context_tokens, m) \
        + model._allreduce_pass(m) + 2e-3


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

    @settings(max_examples=300, deadline=None)
    @given(decode=st.dictionaries(st.sampled_from("abcdefgh"),
                                  st.integers(1, 64), max_size=6),
           prefill=st.dictionaries(st.sampled_from("abcdefgh"),
                                   st.integers(1, 4096), max_size=4),
           tp=st.sampled_from([1, 2, 4]), spec=st.sampled_from(sorted(SPECS)),
           gpu=st.sampled_from(sorted(GPUS)),
           context=st.integers(0, 10 ** 6), growth=st.integers(0, 64))
    def test_the_full_model_plan_is_the_full_model_formula(
            self, decode, prefill, tp, spec, gpu, context, growth):
        """vLLM-SCB's price as a plan, ``LinearPlan(rows, sum of (base +
        all-reduce), 0.0)``, == the per-model loop it replaced, at the
        step's context and along a coasted run's."""
        model = IterationCostModel(SPECS[spec], GPUS[gpu], tp_degree=tp)
        plan = model.fullmodel_plan(BatchComposition(decode, prefill,
                                                     context))
        assert model.plan_time(plan, context) == \
            ref_fullmodel_time(model, decode, context, prefill)
        if plan.rows:
            times, _ = model.plan_run(plan, context, growth, 3, 0.0, inf)
            assert times == [ref_fullmodel_time(model, decode,
                                                context + i * growth,
                                                prefill) for i in range(3)]


def ref_sbmm_compose(per_delta, n_requests, gpu, impl):
    """``sbmm_compose`` of one layer shape as it was before it took every
    shape's column at once, verbatim."""
    compute = 0.0
    for t in per_delta:
        compute += t
    n_deltas = len(per_delta)
    launch = gpu.kernel_launch_us * 1e-6
    if impl == "sbmm":
        overlapped = max(per_delta) + gpu.dynamic_launch_us * 1e-6 * n_deltas
        spread = compute / kernels._sbmm_parallelism(gpu, n_deltas)
        return launch + max(overlapped, spread), compute
    total = compute + launch * n_deltas
    if impl.endswith("forloop"):
        total += kernels._RANDOM_ACCESS_US_PER_REQUEST * 1e-6 * n_requests
    return total, compute


class TestOnePassPricing:
    """The coast's pricing: a run of iterations from one plan, and the
    SBMM combine over every layer shape at once."""

    @settings(max_examples=150, deadline=None)
    @given(impl_rows=impl_and_rows(), tp=st.sampled_from([1, 2, 4]),
           kind=st.sampled_from(["delta", "lora", "none"]),
           context=st.integers(0, 10 ** 6), growth=st.integers(1, 64),
           n=st.integers(0, 40), start=st.floats(0.0, 100.0),
           span=st.floats(0.0, 0.5))
    def test_a_run_is_successive_plan_times(self, impl_rows, tp, kind,
                                            context, growth, n, start, span):
        impl, rows = impl_rows
        model = IterationCostModel(LLAMA_13B, A800, tp_degree=tp,
                                   lora_rank=16, sbmm_impl=impl)
        plan = model.linear_plan(batch_of(rows), kind)
        limit = start + span
        times, end = model.plan_run(plan, context, growth, n, start, limit)
        want, now = [], start
        for i in range(n):
            if now >= limit:
                break
            price = model.plan_time(plan, context + i * growth)
            assert price == ref_iteration_time(model, rows, kind,
                                               context + i * growth)
            now += price
            want.append(price)
        assert times == want and end == now

    @settings(max_examples=150, deadline=None)
    @given(impl=st.sampled_from([i for i in SBMM_IMPLEMENTATIONS
                                 if i != "fp16_bmm"]),
           gpu=st.sampled_from(sorted(GPUS)),
           columns=st.tuples(st.integers(1, 5), st.sampled_from([
               # near-equal times on many deltas reach the spread bound
               st.floats(1e-7, 1e-2), st.sampled_from([1e-3, 1.2e-3])]))
           .flatmap(lambda shapes_times: st.lists(st.lists(
               shapes_times[1], min_size=shapes_times[0],
               max_size=shapes_times[0]), min_size=1, max_size=16)),
           n_requests=st.integers(1, 512))
    def test_the_columns_combine_is_a_compose_per_shape(
            self, impl, gpu, columns, n_requests):
        got = kernels.sbmm_compose(columns, n_requests, GPUS[gpu], impl)
        assert got == [ref_sbmm_compose(per_delta, n_requests, GPUS[gpu],
                                        impl)
                       for per_delta in zip(*columns)]


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
        for memo in (thrashing._base_memo, thrashing._allreduce_memo,
                     thrashing._top_memo, thrashing._delta_memo,
                     thrashing._lora_memo,
                     *(f[-1] for f in thrashing._families.values())):
            assert len(memo) <= 4


@st.composite
def same_largest_and_n(draw):
    """1-8 deltas' row counts, then more batches of as many deltas with
    the same largest count, in any order: one (largest, n) key."""
    n = draw(st.integers(1, 8))
    top = draw(st.integers(1, 4096))
    batch = st.lists(st.integers(1, top), min_size=n - 1,
                     max_size=n - 1).flatmap(
        lambda rest: st.permutations(rest + [top]))
    return draw(st.lists(batch, min_size=2, max_size=5))


class TestLargestDeltaKey:
    """"Ours+" over deltas that all overlap is keyed by (largest count,
    n): the kernel property the key rests on, and the key against the
    count tuple."""

    @pytest.mark.parametrize("tp", [1, 2, 4, 8])
    @pytest.mark.parametrize("spec", sorted(MODEL_SPECS))
    @pytest.mark.parametrize("gpu", sorted(GPU_SPECS))
    def test_every_delta_column_is_non_decreasing_in_rows(self, gpu, spec,
                                                          tp):
        model = IterationCostModel(MODEL_SPECS[spec], GPU_SPECS[gpu],
                                   tp_degree=tp)
        _, knobs, _ = model._families["delta"]
        for k, n in model._distinct:
            column = [kernels.sbmm_delta_time(c, k, n, model.gpu, *knobs)
                      for c in range(1, 8193)]
            assert all(a <= b for a, b in zip(column, column[1:])), (k, n)

    @settings(max_examples=150, deadline=None)
    @given(batches=same_largest_and_n(), tp=st.sampled_from([1, 2, 4]),
           spec=st.sampled_from(sorted(SPECS)),
           gpu=st.sampled_from(sorted(GPUS)))
    def test_the_key_prices_as_a_cold_tuple_keyed_model(self, batches, tp,
                                                        spec, gpu):
        def make():
            return IterationCostModel(SPECS[spec], GPUS[gpu], tp_degree=tp)

        keyed = make()
        assert keyed._top_n == 8
        got = [keyed._delta_pass(rows) for rows in batches]
        assert len(keyed._top_memo) == 1 and not keyed._delta_memo
        want = []
        for rows in batches:
            cold = make()
            cold._top_n = 0                  # the count tuple, cold
            want.append(cold._delta_pass(rows))
            assert list(cold._delta_memo) == [tuple(rows)]
        assert got == want == [ref_delta_pass(keyed, rows)
                               for rows in batches]

    @pytest.mark.parametrize("gpu, impl, rows", [
        (A100, "sbmm", list(range(1, 10))),           # nine deltas
        (replace(A100, dynamic_launch_us=0.0), "sbmm", [3, 5, 9]),
        (A100, "sbmm_reorder", [3, 5, 9]),
        (A100, "fp16_bmm", [3, 5, 9])])
    def test_elsewhere_the_count_tuple_keys_the_pass(self, gpu, impl, rows):
        model = IterationCostModel(LLAMA_7B, gpu, sbmm_impl=impl)
        assert model._delta_pass(rows) == ref_delta_pass(model, rows)
        assert list(model._delta_memo) == [tuple(rows)]
        assert not model._top_memo


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
