"""Grouped-query attention: shapes, equivalence, training, serving."""

import numpy as np
import pytest

from repro.nn import (KVCache, MultiHeadAttention, TrainingConfig,
                      TransformerConfig, TransformerModel, train_lm)


@pytest.fixture()
def gqa_attn():
    return MultiHeadAttention(dim=16, n_heads=4, max_seq=32,
                              rng=np.random.default_rng(3), n_kv_heads=2)


class TestGQAAttention:
    def test_kv_projection_shapes(self, gqa_attn):
        assert gqa_attn.k_proj.out_features == 8   # 2 kv heads x head_dim 4
        assert gqa_attn.q_proj.out_features == 16
        assert gqa_attn.group_size == 2

    def test_forward_shape(self, gqa_attn, rng):
        x = rng.normal(size=(2, 5, 16)).astype(np.float32)
        assert gqa_attn(x).shape == (2, 5, 16)

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(16, 4, 8, np.random.default_rng(0),
                               n_kv_heads=3)

    def test_kv_equals_heads_matches_mha(self, rng):
        """n_kv_heads == n_heads must behave exactly like plain MHA."""
        a = MultiHeadAttention(16, 4, 32, np.random.default_rng(3))
        b = MultiHeadAttention(16, 4, 32, np.random.default_rng(3),
                               n_kv_heads=4)
        x = rng.normal(size=(1, 6, 16)).astype(np.float32)
        np.testing.assert_allclose(a(x), b(x), atol=1e-6)

    def test_gqa_equals_mha_with_duplicated_kv_weights(self, rng):
        """GQA with KV weights duplicated across groups == full MHA."""
        gqa = MultiHeadAttention(16, 4, 32, np.random.default_rng(7),
                                 n_kv_heads=2)
        mha = MultiHeadAttention(16, 4, 32, np.random.default_rng(7))
        mha.q_proj.weight.data = gqa.q_proj.weight.data.copy()
        mha.o_proj.weight.data = gqa.o_proj.weight.data.copy()
        # duplicate each kv head's rows for both query heads in its group
        for proj in ("k_proj", "v_proj"):
            w = getattr(gqa, proj).weight.data  # (8, 16): 2 heads x 4 dims
            per_head = w.reshape(2, 4, 16)
            dup = np.repeat(per_head, 2, axis=0).reshape(16, 16)
            getattr(mha, proj).weight.data = dup
        x = rng.normal(size=(1, 5, 16)).astype(np.float32)
        np.testing.assert_allclose(gqa(x), mha(x), atol=1e-5)

    def test_incremental_matches_full(self, gqa_attn, rng):
        x = rng.normal(size=(1, 6, 16)).astype(np.float32)
        full = gqa_attn(x)
        cache = KVCache(1, 2, 32, 4)  # kv heads, not query heads
        outs = [gqa_attn(x[:, t:t + 1], kv_cache=cache) for t in range(6)]
        np.testing.assert_allclose(full, np.concatenate(outs, axis=1),
                                   atol=1e-4)

    def test_backward_matches_numeric(self, rng):
        attn = MultiHeadAttention(8, 4, 8, np.random.default_rng(5),
                                  n_kv_heads=2)
        x = rng.normal(size=(1, 3, 8)).astype(np.float64)
        grad_out = rng.normal(size=(1, 3, 8)).astype(np.float64)

        def loss():
            return float(np.sum(attn(x.astype(np.float32)) * grad_out))

        attn(x.astype(np.float32), cache=True)
        grad_x = attn.backward(grad_out.astype(np.float32))
        eps = 1e-3
        num = np.zeros_like(x)
        flat, nflat = x.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            hi = loss()
            flat[i] = old - eps
            lo = loss()
            flat[i] = old
            nflat[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(grad_x, num, atol=2e-2, rtol=5e-2)


class TestGQAModel:
    def test_model_trains(self):
        config = TransformerConfig.tiny_gqa()
        model = TransformerModel(config, seed=0)
        rng = np.random.default_rng(0)
        start = rng.integers(0, 8, size=(48, 1))
        x = ((start + np.arange(12)[None, :]) % 20 + 2).astype(np.int64)
        y = np.concatenate([x[:, 1:], np.full((48, 1), -100)], axis=1)
        hist = train_lm(model, x, y, TrainingConfig(epochs=6, lr=3e-3))
        assert hist[-1] < hist[0] * 0.6

    def test_kv_cache_decode_matches_full(self, rng):
        model = TransformerModel(TransformerConfig.tiny_gqa(), seed=0)
        toks = rng.integers(0, 128, size=(1, 6))
        full = model(toks)
        caches = model.new_kv_caches(1)
        assert caches[0].keys.shape[1] == 2  # kv heads
        prefill = model(toks[:, :5], kv_caches=caches)
        step = model(toks[:, 5:6], kv_caches=caches)
        np.testing.assert_allclose(full[:, :5], prefill, atol=1e-4)
        np.testing.assert_allclose(full[:, 5:6], step, atol=1e-4)

    def test_compression_pipeline_handles_gqa(self, rng):
        """K/V projections are rectangular under GQA; the pipeline must
        compress them like any other linear."""
        from repro.compression import CompressionConfig, DeltaCompressor
        config = TransformerConfig.tiny_gqa()
        base = TransformerModel(config, seed=0)
        ft = TransformerModel(config, seed=0)
        ft.load_state_dict(base.state_dict())
        for param in ft.parameters():
            param.data = param.data + \
                rng.normal(0, 0.01, param.data.shape).astype(np.float32)
        calib = rng.integers(4, 100, size=(8, 12))
        art = DeltaCompressor(CompressionConfig.deltazip_4bit()).compress(
            ft, base.state_dict(), calib)
        k_layer = art.layers["layers.0.self_attn.k_proj.weight"]
        assert k_layer.shape == (32, 64)  # kv_dim x dim
        assert art.compression_ratio() > 2.0

    def test_decoupled_runner_serves_gqa(self, rng):
        from repro.compression import CompressionConfig, DeltaCompressor
        from repro.serving.runner import DecoupledModelRunner
        config = TransformerConfig.tiny_gqa()
        base = TransformerModel(config, seed=0)
        ft = TransformerModel(config, seed=0)
        ft.load_state_dict(base.state_dict())
        for param in ft.parameters():
            param.data = param.data + \
                rng.normal(0, 0.01, param.data.shape).astype(np.float32)
        calib = rng.integers(4, 100, size=(8, 12))
        art = DeltaCompressor(CompressionConfig.deltazip_4bit()).compress(
            ft, base.state_dict(), calib)
        runner = DecoupledModelRunner(base, {"v": art})
        recon = TransformerModel(config, seed=0)
        recon.load_state_dict(art.to_state_dict(base.state_dict()))
        toks = rng.integers(4, 100, size=(2, 8))
        np.testing.assert_allclose(runner.forward(toks, ["v", "v"]),
                                   recon(toks), atol=1e-4)