"""Serving PEFT beyond LoRA: RoSA adapters through the delta path (§8).

The paper's discussion: emerging PEFT methods like RoSA (low-rank + sparse)
produce full-rank-capable updates that LoRA-only serving systems cannot
host — but DeltaZip can, because any per-layer update is just a delta.
This example trains a RoSA adapter, converts it to a per-layer delta, and
serves it through the decoupled multi-variant runner alongside a plain
LoRA variant and the base model.

Run:  python examples/rosa_serving.py
"""

import numpy as np

from repro.compression.artifacts import CompressedDelta, CompressedLayer
from repro.compression.configs import CompressionConfig
from repro.evaluation import (evaluate_task, make_task, pretrain_base_model)
from repro.evaluation.finetune import make_task_dataset
from repro.nn import (RoSAConfig, TrainingConfig, TransformerConfig,
                      TransformerModel, attach_rosa, detach_rosa, merge_rosa,
                      train_lm)
from repro.serving.runner import DecoupledModelRunner


def rosa_delta_artifact(adapter, base_state, model_id="rosa-variant"):
    """Wrap a RoSA adapter as a servable (uncompressed) delta artifact."""
    config = CompressionConfig(bits=16, sparsity_n=0, group_size=32)
    layers = {}
    for name, delta in adapter.delta_state_dict().items():
        layers[name] = CompressedLayer(name=name, shape=delta.shape,
                                       config=config, fp16_values=delta)
    extras = {name: np.zeros_like(arr)
              for name, arr in base_state.items() if name not in layers}
    return CompressedDelta(model_id=model_id, base_model_id="base",
                           config=config, layers=layers, extras=extras)


def main():
    config = TransformerConfig.small(vocab_size=128, max_seq=64)
    base = pretrain_base_model(config, n_sequences=256, epochs=6, seed=0)
    task = make_task("yesno")

    print("=== train a RoSA adapter (rank-2 + 2% sparse support) ===")
    model = TransformerModel(config, seed=0)
    model.load_state_dict(base.state_dict())
    attach_rosa(model, RoSAConfig(rank=2, sparse_density=0.02))
    x, y = make_task_dataset(task, 384, pad_to=min(config.max_seq, 22),
                             seed=0)
    train_lm(model, x, y, TrainingConfig(epochs=12, lr=5e-3))
    adapter = detach_rosa(model)
    merge_rosa(model, adapter)

    acc_base = evaluate_task(base, task, 80).percent
    acc_rosa = evaluate_task(model, task, 80).percent
    print(f"accuracy: base {acc_base:.1f}% -> RoSA {acc_rosa:.1f}%")
    print(f"adapter size: {adapter.nbytes():,} B "
          f"(dense delta would be "
          f"{sum(m[3].size * 2 for m in adapter.matrices.values()):,} B)")

    print("\n=== serve the RoSA variant through the delta path ===")
    artifact = rosa_delta_artifact(adapter, base.state_dict())
    runner = DecoupledModelRunner(base, {"rosa-variant": artifact})
    rng = np.random.default_rng(3)
    examples = [task.generator(rng) for _ in range(3)]
    outs = runner.generate(
        [ex.prompt for ex in examples],
        ["rosa-variant", "__base__", "rosa-variant"], max_new_tokens=2)
    print("mixed batch (rosa, base, rosa) answers:", outs)
    print("gold answers:", [ex.answer for ex in examples])

    # correctness: decoupled serving == merged model
    toks = np.asarray(examples[0].prompt)[None, :]
    decoupled = runner.forward(toks, ["rosa-variant"])
    merged = model(toks)
    print(f"decoupled-vs-merged max |diff|: "
          f"{np.abs(decoupled - merged).max():.2e}")


if __name__ == "__main__":
    main()
