"""Synthetic tasks, pre-training, fine-tuning drivers, accuracy harness."""

import numpy as np
import pytest

from repro.evaluation import (TASK_REGISTRY, build_training_arrays,
                              evaluate_examples, evaluate_task,
                              generic_corpus, make_task, make_task_dataset,
                              pretrain_base_model, run_fmt, run_lora)
from repro.evaluation.tasks import ANSWER_BASE, EOS, PAD, QUERY


class TestTaskGenerators:
    @pytest.mark.parametrize("name", sorted(TASK_REGISTRY))
    def test_examples_well_formed(self, name, rng):
        task = make_task(name)
        for ex in task.examples(50, rng):
            assert ex.answer in ex.choices
            assert ex.prompt[-1] == QUERY
            assert 0 <= ex.gold_index < len(ex.choices)
            assert all(t < 128 for t in ex.prompt)

    @pytest.mark.parametrize("name", sorted(TASK_REGISTRY))
    def test_labels_roughly_balanced(self, name, rng):
        task = make_task(name)
        examples = task.examples(300, rng)
        golds = [ex.gold_index for ex in examples]
        counts = np.bincount(golds, minlength=len(examples[0].choices))
        nonzero = counts[counts > 0]
        assert len(nonzero) >= min(2, task.n_classes)

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            make_task("stackoverflow")

    def test_math_task_multi_token_answers(self, rng):
        task = make_task("math")
        ex = task.generator(rng)
        assert len(ex.answer) == 2
        assert len(ex.choices) == 16


class TestTrainingArrays:
    def test_shapes_and_masking(self, rng):
        task = make_task("review")
        examples = task.examples(4, rng)
        inputs, targets = build_training_arrays(examples, pad_to=24)
        assert inputs.shape == targets.shape == (4, 24)
        for i, ex in enumerate(examples):
            # prompt span (up to position len-2) contributes no loss
            assert np.all(targets[i, :len(ex.prompt) - 1] == -100)
            # answer token is predicted from the QUERY position
            assert targets[i, len(ex.prompt) - 1] == ex.answer[0]
            # padding is ignored
            seq_len = len(ex.prompt) + len(ex.answer) + 1
            assert np.all(targets[i, seq_len:] == -100)
            assert np.all(inputs[i, seq_len:] == PAD)
            assert inputs[i, seq_len - 1] == EOS

    def test_too_long_rejected(self, rng):
        task = make_task("review")
        examples = task.examples(1, rng)
        with pytest.raises(ValueError):
            build_training_arrays(examples, pad_to=4)

    def test_make_task_dataset_deterministic(self):
        task = make_task("review")
        a = make_task_dataset(task, 8, 24, seed=5)
        b = make_task_dataset(task, 8, 24, seed=5)
        np.testing.assert_array_equal(a[0], b[0])


class TestCorpusAndPretrain:
    def test_corpus_shapes(self, rng):
        x, y = generic_corpus(8, 16, 128, rng)
        assert x.shape == (8, 16)
        assert y.shape == (8, 16)
        assert np.all(y[:, -1] == -100)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_pretrained_model_beats_random_on_lm(self, tiny_config,
                                                 base_model, rng):
        from repro.nn import TransformerModel
        import repro.nn.functional as F
        x, y = generic_corpus(16, 16, tiny_config.vocab_size,
                              np.random.default_rng(123))
        random_model = TransformerModel(tiny_config, seed=99)
        loss_random = F.cross_entropy(random_model(x), y)
        loss_base = F.cross_entropy(base_model(x), y)
        assert loss_base < loss_random


class TestHarness:
    def test_finetuned_beats_base(self, base_model, finetuned, review_task):
        acc_base = evaluate_task(base_model, review_task, 40).accuracy
        acc_fmt = evaluate_task(finetuned.model, review_task, 40).accuracy
        assert acc_fmt > acc_base + 0.2

    def test_eval_deterministic_given_seed(self, finetuned, review_task):
        a = evaluate_task(finetuned.model, review_task, 20, seed=7)
        b = evaluate_task(finetuned.model, review_task, 20, seed=7)
        assert a.accuracy == b.accuracy

    def test_percent_property(self, finetuned, review_task):
        res = evaluate_task(finetuned.model, review_task, 10)
        assert res.percent == pytest.approx(res.accuracy * 100)

    def test_empty_examples_rejected(self, base_model):
        with pytest.raises(ValueError):
            evaluate_examples(base_model, [])


class TestFinetuneDrivers:
    def test_fmt_moves_all_weights(self, base_model, review_task):
        result = run_fmt(base_model, review_task, n_train=32, epochs=1)
        base_state = base_model.state_dict()
        moved = sum(not np.allclose(v, base_state[k], atol=1e-7)
                    for k, v in result.model.state_dict().items())
        assert moved > len(base_state) * 0.9
        assert result.calibration_tokens.shape[0] == 32

    def test_lora_returns_adapter(self, base_model, review_task):
        result = run_lora(base_model, review_task, rank=2, n_train=32,
                          epochs=1)
        assert result.adapter is not None
        assert result.adapter.config.rank == 2
        assert len(result.adapter.matrices) == \
            2 * base_model.config.n_layers

    def test_lora_leaves_frozen_weights_without_gradients(
            self, base_model, review_task, monkeypatch):
        """Frozen weights accumulate no dW (dL/dx still flows), and that
        changes nothing the optimizer sees: adapter and merged weights
        ``==`` a run whose frozen weights accumulate dW, as every layer's
        backward once did (flipped trainable once the optimizer skipped
        them)."""
        import repro.nn.training as training

        def run():
            result = run_lora(base_model, review_task, rank=2, n_train=32,
                              epochs=2)
            return result, [(name, a.copy(), b.copy()) for name, (a, b)
                            in sorted(result.adapter.matrices.items())], \
                result.model.state_dict()

        quiet, adapter, merged = run()
        # every model parameter was frozen while the adapter trained
        assert all(p.grad is None for p in quiet.model.parameters())

        built = training.Adam.__init__

        def accumulating(self, params, **kwargs):
            params = list(params)
            built(self, params, **kwargs)
            for p in params:
                p.trainable = True
        monkeypatch.setattr(training.Adam, "__init__", accumulating)
        heard, adapter_then, merged_then = run()
        assert sum(p.grad is not None for p in heard.model.parameters()) \
            == len(list(heard.model.parameters()))
        assert [(n, a.tobytes(), b.tobytes()) for n, a, b in adapter] == \
            [(n, a.tobytes(), b.tobytes()) for n, a, b in adapter_then]
        assert {k: v.tobytes() for k, v in merged.items()} == \
            {k: v.tobytes() for k, v in merged_then.items()}

    def test_lora_merge_false_leaves_base(self, base_model, review_task,
                                          rng):
        result = run_lora(base_model, review_task, rank=2, n_train=32,
                          epochs=1, merge=False)
        toks = rng.integers(4, 100, size=(1, 8))
        np.testing.assert_allclose(result.model(toks), base_model(toks),
                                   atol=1e-5)

    def test_fmt_does_not_mutate_base(self, base_model, review_task):
        before = base_model.state_dict()
        run_fmt(base_model, review_task, n_train=16, epochs=1)
        after = base_model.state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
