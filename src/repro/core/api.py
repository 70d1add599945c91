"""The DeltaZip facade: the end-to-end system of paper Fig 4.

Glues the three components together behind one object:

* **Delta Compressor** — ``register_finetuned`` extracts + compresses the
  delta of an uploaded FMT checkpoint against its base (offline);
* **Model Manager** — tracks artifacts, lineage, and measured sizes;
* **Serving** — ``runner()`` gives the functional decoupled executor for
  real generation across variants, and ``session`` builds an at-scale
  serving session (any registered engine) using the *measured*
  compression ratios of the registered artifacts; sessions replay
  offline traces or accept online submissions through the gateway.

Example::

    dz = DeltaZip(base_model)
    dz.register_finetuned("vicuna", finetuned_model, calib_tokens)
    out = dz.generate("vicuna", prompt_tokens)
    session = dz.session("deltazip", served_spec=LLAMA_13B).build()
    result = session.replay(trace)             # offline
    handle = session.submit("vicuna", 128, 64) # ... or online
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..compression.artifacts import CompressedDelta
from ..compression.configs import CompressionConfig
from ..compression.pipeline import DeltaCompressor
from ..nn.lora import LoRAAdapter
from ..nn.transformer import TransformerModel
from ..serving.models import ServedModelSpec
from ..serving.runner import DecoupledModelRunner
from .session import ServingSessionBuilder

__all__ = ["DeltaZip"]


class DeltaZip:
    """Serve many full-model-tuned variants of one base model."""

    def __init__(self, base_model: TransformerModel,
                 compression: Optional[CompressionConfig] = None,
                 base_model_id: str = "base"):
        self.base_model = base_model
        self.base_model_id = base_model_id
        self.base_state = base_model.state_dict()
        self.compression = compression or CompressionConfig.deltazip_4bit()
        self.artifacts: Dict[str, CompressedDelta] = {}
        self.adapters: Dict[str, LoRAAdapter] = {}
        self._runner: Optional[DecoupledModelRunner] = None

    # ------------------------------------------------------------------ #
    # registration (the offline path of Fig 4)
    # ------------------------------------------------------------------ #
    def register_finetuned(
        self,
        model_id: str,
        model: TransformerModel,
        calibration_tokens: Optional[np.ndarray],
        config: Optional[CompressionConfig] = None,
    ) -> CompressedDelta:
        """Compress and store an FMT checkpoint's delta."""
        if model_id in self.artifacts or model_id in self.adapters:
            raise ValueError(f"model {model_id!r} already registered")
        if model.config != self.base_model.config:
            raise ValueError("fine-tuned model shape differs from the base")
        compressor = DeltaCompressor(config or self.compression)
        artifact = compressor.compress(
            model, self.base_state, calibration_tokens,
            model_id=model_id, base_model_id=self.base_model_id)
        self.artifacts[model_id] = artifact
        self._runner = None  # invalidate cached runner
        return artifact

    def register_lora(self, model_id: str, adapter: LoRAAdapter) -> None:
        """Register a PEFT adapter directly (Fig 4's LoRA path)."""
        if model_id in self.artifacts or model_id in self.adapters:
            raise ValueError(f"model {model_id!r} already registered")
        self.adapters[model_id] = adapter

    @property
    def registered_models(self) -> List[str]:
        return sorted(list(self.artifacts) + list(self.adapters))

    def compression_ratio(self, model_id: str) -> float:
        return self.artifacts[model_id].compression_ratio()

    # ------------------------------------------------------------------ #
    # functional serving
    # ------------------------------------------------------------------ #
    def runner(self) -> DecoupledModelRunner:
        """The decoupled executor with every registered delta loaded."""
        if self._runner is None:
            self._runner = DecoupledModelRunner(self.base_model,
                                                self.artifacts)
        return self._runner

    def generate(self, model_id: str, prompt: Sequence[int],
                 max_new_tokens: int = 16) -> List[int]:
        """Greedy generation from one registered variant (or the base)."""
        variant = model_id if model_id != self.base_model_id else "__base__"
        return self.runner().generate([list(prompt)], [variant],
                                      max_new_tokens=max_new_tokens)[0]

    def generate_batch(self, model_ids: Sequence[str],
                       prompts: Sequence[Sequence[int]],
                       max_new_tokens: int = 16) -> List[List[int]]:
        """Batched multi-variant generation (the Fig 4 serving path)."""
        variants = [m if m != self.base_model_id else "__base__"
                    for m in model_ids]
        return self.runner().generate([list(p) for p in prompts], variants,
                                      max_new_tokens=max_new_tokens)

    # ------------------------------------------------------------------ #
    # at-scale serving (simulation)
    # ------------------------------------------------------------------ #
    def session(self, engine: str = "deltazip",
                served_spec: Optional[ServedModelSpec] = None
                ) -> ServingSessionBuilder:
        """Fluent builder for an at-scale serving session.

        ``engine`` names any entry in the :data:`~repro.serving.ENGINES`
        registry.  The returned builder configures hardware and scheduling,
        and ``build()`` yields a :class:`~repro.core.session.ServingSession`
        exposing both offline ``replay(trace)`` and the online ``submit``
        path::

            result = (dz.session("deltazip", served_spec=LLAMA_13B)
                        .on_node("a800", gpus=4)
                        .with_scheduler(max_batch_requests=32)
                        .replay(trace))
        """
        return ServingSessionBuilder(self, engine=engine,
                                     served_spec=served_spec)
