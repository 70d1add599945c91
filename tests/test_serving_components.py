"""Serving components: model specs, manager, functional SBMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.configs import CompressionConfig
from repro.serving import (LLAMA_13B, LLAMA_70B, LLAMA_7B, ModelManager,
                           group_requests_by_delta, sbmm_forward,
                           sbmm_reference)
from repro.serving.model_manager import ArtifactKind


class TestModelSpecs:
    def test_7b_parameter_count(self):
        # Llama-2-7B is ~6.7e9 parameters
        assert 6.0e9 < LLAMA_7B.total_params < 7.5e9

    def test_13b_parameter_count(self):
        assert 12.0e9 < LLAMA_13B.total_params < 14.0e9

    def test_70b_uses_gqa(self):
        assert LLAMA_70B.kv_heads == 8
        # GQA shrinks KV bytes far below the MHA equivalent
        mha_like = 2 * LLAMA_70B.n_layers * LLAMA_70B.dim * 2
        assert LLAMA_70B.kv_bytes_per_token() < mha_like / 4

    def test_delta_nbytes(self):
        assert LLAMA_13B.delta_nbytes(10.0) == \
            pytest.approx(LLAMA_13B.fp16_nbytes / 10, rel=1e-6)
        with pytest.raises(ValueError):
            LLAMA_13B.delta_nbytes(0)

    def test_gemm_shapes_cover_seven_projections(self):
        shapes = LLAMA_7B.layer_gemm_shapes()
        assert len(shapes) == 7
        assert shapes[0] == (4096, 4096)
        assert shapes[4] == (4096, 11008)

    def test_bridge_from_transformer_config(self, tiny_config):
        spec = __import__("repro.serving.models",
                          fromlist=["ServedModelSpec"]) \
            .ServedModelSpec.from_transformer_config(tiny_config)
        assert spec.dim == tiny_config.dim
        assert spec.n_layers == tiny_config.n_layers


class TestModelManager:
    def make(self):
        mgr = ModelManager(LLAMA_13B)
        mgr.register_base("base")
        return mgr

    def test_register_and_lookup(self):
        mgr = self.make()
        mgr.register_delta("v1", "base", 10.0,
                           CompressionConfig.deltazip_4bit())
        entry = mgr.get("v1")
        assert entry.kind == ArtifactKind.DELTA
        assert entry.nbytes == LLAMA_13B.delta_nbytes(10.0)
        assert "v1" in mgr

    def test_duplicate_rejected(self):
        mgr = self.make()
        with pytest.raises(ValueError):
            mgr.register_base("base")

    def test_unknown_base_rejected(self):
        mgr = self.make()
        with pytest.raises(KeyError):
            mgr.register_delta("v1", "nope", 10.0)

    def test_delta_on_delta_rejected(self):
        mgr = self.make()
        mgr.register_delta("v1", "base", 10.0)
        with pytest.raises(ValueError):
            mgr.register_delta("v2", "v1", 10.0)

    def test_lineage(self):
        mgr = self.make()
        mgr.register_delta("v1", "base", 10.0)
        assert mgr.lineage("v1") == ["v1", "base"]

    def test_variants_filter(self):
        mgr = self.make()
        mgr.register_delta("v1", "base", 10.0)
        mgr.register_lora("l1", "base", 10_000_000)
        mgr.register_full("f1", "base")
        assert {m.model_id for m in mgr.variants("base")} == \
            {"v1", "l1", "f1"}
        assert [m.model_id for m in mgr.bases()] == ["base"]

    def test_lora_nbytes_small(self):
        mgr = self.make()
        entry = mgr.register_lora("l1", "base", 10_000_000)
        assert entry.nbytes < mgr.get("base").nbytes / 100


class TestFunctionalSBMM:
    def test_matches_reference(self, rng):
        x = rng.normal(size=(7, 8)).astype(np.float32)
        deltas = [rng.normal(size=(5, 8)).astype(np.float32)
                  for _ in range(3)]
        idx = [0, 1, 2, 0, 1, 2, 0]
        np.testing.assert_allclose(sbmm_forward(x, deltas, idx),
                                   sbmm_reference(x, deltas, idx), atol=1e-5)

    @given(st.integers(1, 16), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_property(self, batch, n_deltas):
        rng = np.random.default_rng(batch * 7 + n_deltas)
        x = rng.normal(size=(batch, 6)).astype(np.float32)
        deltas = [rng.normal(size=(4, 6)).astype(np.float32)
                  for _ in range(n_deltas)]
        idx = rng.integers(0, n_deltas, size=batch)
        np.testing.assert_allclose(sbmm_forward(x, deltas, idx),
                                   sbmm_reference(x, deltas, idx), atol=1e-4)

    def test_grouping_contiguous(self):
        order, groups = group_requests_by_delta([2, 0, 2, 1, 0])
        assert set(order.tolist()) == set(range(5))
        np.testing.assert_array_equal(groups[2], [0, 2])
        np.testing.assert_array_equal(groups[0], [1, 4])

    def test_index_validation(self, rng):
        x = rng.normal(size=(2, 4)).astype(np.float32)
        deltas = [rng.normal(size=(3, 4)).astype(np.float32)]
        with pytest.raises(IndexError):
            sbmm_forward(x, deltas, [0, 5])
        with pytest.raises(ValueError):
            sbmm_forward(x, deltas, [0])

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            sbmm_forward(rng.normal(size=(2, 3, 4)).astype(np.float32),
                         [np.zeros((2, 4), dtype=np.float32)], [0, 0])
