"""End-to-end integration: the full life-of-a-model, Fig 4 style.

pretrain → fine-tune two variants → register/compress → quality holds →
functional multi-variant serving is exact → at-scale simulation uses the
measured ratios → artifacts survive a disk round-trip.
"""

import numpy as np
import pytest

from repro.compression import load_compressed_delta, save_compressed_delta
from repro.core import DeltaZip
from repro.evaluation import evaluate_task, make_task, run_fmt
from repro.nn import TransformerModel
from repro.serving import (LLAMA_7B, EngineConfig, SchedulerConfig,
                           StackSpec, build)
from repro.serving.runner import DecoupledModelRunner
from repro.workload import synthetic_trace


@pytest.fixture(scope="module")
def two_variant_system(base_model):
    """A DeltaZip deployment with two fine-tuned variants."""
    dz = DeltaZip(base_model)
    tasks = {}
    for name in ("review", "yesno"):
        task = make_task(name)
        fmt = run_fmt(base_model, task, n_train=192, epochs=8, seed=0)
        dz.register_finetuned(f"{name}-expert", fmt.model,
                              fmt.calibration_tokens)
        tasks[name] = (task, fmt)
    return dz, tasks


class TestLifeOfAModel:
    def test_both_variants_registered(self, two_variant_system):
        dz, _ = two_variant_system
        assert dz.registered_models == ["review-expert", "yesno-expert"]
        for model_id in dz.registered_models:
            assert dz.compression_ratio(model_id) > 2.0

    def test_quality_preserved_per_variant(self, two_variant_system,
                                           base_model):
        dz, tasks = two_variant_system
        for name, (task, fmt) in tasks.items():
            recon = TransformerModel(base_model.config, seed=0)
            recon.load_state_dict(
                dz.artifacts[f"{name}-expert"].to_state_dict(dz.base_state))
            acc_fmt = evaluate_task(fmt.model, task, 40).accuracy
            acc_rec = evaluate_task(recon, task, 40).accuracy
            assert acc_rec >= acc_fmt - 0.12, name

    def test_variants_are_isolated(self, two_variant_system, base_model,
                                   rng):
        """Each variant's rows get its own delta in one batch."""
        dz, _ = two_variant_system
        runner = dz.runner()
        toks = rng.integers(4, 100, size=(2, 10))
        both = runner.forward(toks, ["review-expert", "yesno-expert"])
        review_only = runner.forward(toks, ["review-expert"] * 2)
        yesno_only = runner.forward(toks, ["yesno-expert"] * 2)
        np.testing.assert_allclose(both[0], review_only[0], atol=1e-5)
        np.testing.assert_allclose(both[1], yesno_only[1], atol=1e-5)
        assert not np.allclose(both[0], yesno_only[0], atol=1e-3)

    def test_simulation_with_measured_ratios(self, two_variant_system):
        dz, _ = two_variant_system
        trace = synthetic_trace(2, rate=1.0, duration_s=30.0, seed=3)
        for req in trace.requests:
            req.model_id = ("review-expert" if req.model_id.endswith("0")
                            else "yesno-expert")
        trace.model_ids = ["review-expert", "yesno-expert"]
        spec = StackSpec(scheduler=SchedulerConfig(8, 2),
                         config=EngineConfig(tp_degree=1))
        result = build(spec, dz.manager(LLAMA_7B)).replay(trace)
        assert result.n_requests == len(trace)
        assert result.stats is not None
        assert result.stats.iterations > 0

    def test_artifact_disk_roundtrip_serves_identically(
            self, two_variant_system, base_model, tmp_path, rng):
        dz, _ = two_variant_system
        path = str(tmp_path / "review.dzip")
        save_compressed_delta(dz.artifacts["review-expert"], path)
        loaded = load_compressed_delta(path)
        runner = DecoupledModelRunner(base_model, {"v": loaded})
        toks = rng.integers(4, 100, size=(1, 8))
        fresh = dz.runner().forward(toks, ["review-expert"])
        from_disk = runner.forward(toks, ["v"])
        # extras round-trip at FP16, so tolerances are loose but tight
        np.testing.assert_allclose(fresh, from_disk, atol=0.05, rtol=0.05)
