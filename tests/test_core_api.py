"""The DeltaZip facade: registration, generation, simulation."""

import warnings

import numpy as np
import pytest

from repro.core import DeltaZip
from repro.compression import CompressionConfig
from repro.serving import (EngineConfig, LLAMA_7B, SchedulerConfig, StackSpec,
                           build)
from repro.workload import synthetic_trace


@pytest.fixture(scope="module")
def system(base_model, finetuned):
    dz = DeltaZip(base_model)
    dz.register_finetuned("review-ft", finetuned.model,
                          finetuned.calibration_tokens)
    return dz


class TestRegistration:
    def test_artifact_recorded(self, system):
        assert system.registered_models == ["review-ft"]
        assert system.compression_ratio("review-ft") > 2.0

    def test_duplicate_rejected(self, system, finetuned):
        with pytest.raises(ValueError):
            system.register_finetuned("review-ft", finetuned.model, None)

    def test_shape_mismatch_rejected(self, base_model):
        from repro.nn import TransformerConfig, TransformerModel
        dz = DeltaZip(base_model)
        other = TransformerModel(TransformerConfig.small(), seed=0)
        with pytest.raises(ValueError):
            dz.register_finetuned("bad", other, None)

    def test_lora_registration(self, system, base_model, review_task):
        from repro.evaluation import run_lora
        dz = DeltaZip(base_model)
        lora = run_lora(base_model, review_task, rank=2, n_train=16,
                        epochs=1)
        dz.register_lora("lora-ft", lora.adapter)
        assert "lora-ft" in dz.registered_models


class TestGeneration:
    def test_variant_generation_differs_from_base(self, system, base_model,
                                                  review_task, rng):
        example = review_task.generator(np.random.default_rng(5))
        out_ft = system.generate("review-ft", example.prompt,
                                 max_new_tokens=2)
        assert len(out_ft) >= 1
        # the fine-tuned variant answers with a label token
        from repro.evaluation.tasks import ANSWER_BASE
        assert out_ft[0] in (ANSWER_BASE, ANSWER_BASE + 1)

    def test_batched_generation(self, system, review_task):
        rng = np.random.default_rng(9)
        examples = [review_task.generator(rng) for _ in range(3)]
        outs = system.generate_batch(
            ["review-ft", "base", "review-ft"],
            [e.prompt for e in examples], max_new_tokens=2)
        assert len(outs) == 3

    def test_quality_preserved_through_compression(self, system, finetuned,
                                                   review_task):
        """Table 1's property, end to end: the compressed variant scores
        close to the uncompressed FMT checkpoint."""
        from repro.evaluation import evaluate_examples
        rng = np.random.default_rng(77)
        examples = review_task.examples(40, rng)
        acc_fmt = evaluate_examples(finetuned.model, examples).accuracy

        from repro.nn import TransformerModel
        recon = TransformerModel(system.base_model.config, seed=0)
        recon.load_state_dict(
            system.artifacts["review-ft"].to_state_dict(system.base_state))
        acc_compressed = evaluate_examples(recon, examples).accuracy
        assert acc_compressed >= acc_fmt - 0.1


#: the facade's registry served with K=8, N=2 at TP=1
SPEC = StackSpec(scheduler=SchedulerConfig(8, 2),
                 config=EngineConfig(tp_degree=1))


class TestSimulate:
    def test_simulation_with_registered_ratio(self, system):
        trace = synthetic_trace(1, rate=0.5, duration_s=30.0, seed=0,
                                model_prefix="x")
        # rename trace models to the registered variant
        for req in trace.requests:
            req.model_id = "review-ft"
        trace.model_ids = ["review-ft"]
        result = build(SPEC, system.manager(LLAMA_7B)).replay(trace)
        assert result.n_requests == len(trace)

    def test_simulate_and_session_are_retired(self, system):
        """The deprecated wrapper and the fluent session layer are gone,
        and the stack builder replays without a deprecation warning."""
        assert not hasattr(system, "simulate")
        assert not hasattr(system, "session")
        trace = synthetic_trace(1, rate=0.5, duration_s=20.0, seed=0)
        mgr = system.manager(LLAMA_7B)
        mgr.register_delta(trace.model_ids[0], "base", 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = build(SPEC, mgr).replay(trace)
        assert result.n_requests == len(trace)

    def test_unregistered_trace_model_is_a_key_error(self, system):
        trace = synthetic_trace(2, rate=0.5, duration_s=20.0, seed=0)
        mgr = system.manager(LLAMA_7B)
        with pytest.raises(KeyError, match="unknown model"):
            build(SPEC, mgr).replay(trace)
        for model_id in trace.model_ids:
            mgr.register_delta(model_id, "base", 8.0)
        result = build(SPEC, mgr).replay(trace)
        assert result.n_requests == len(trace)

    def test_manager_holds_each_artifact_at_its_measured_ratio(self, system):
        measured = LLAMA_7B.delta_nbytes(system.compression_ratio("review-ft"))
        assert system.manager(LLAMA_7B).get("review-ft").nbytes == measured
        # a full-model engine swaps the whole FP16 checkpoint instead
        full = system.manager(LLAMA_7B, engine="vllm-scb").get("review-ft")
        assert full.nbytes == LLAMA_7B.fp16_nbytes
