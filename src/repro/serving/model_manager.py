"""Model Manager: registry, delta zoo, lineage metadata (paper Fig 4).

Tracks every registered artifact (base models, compressed FMT deltas, LoRA
adapters), its byte size, lineage (which base it derives from), and its
current storage tier.  The serving engines consult it for swap planning,
and price their iterations with the one cost model it keeps per
deployment (:meth:`ModelManager.cost_model`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..hardware.memory import Tier
from ..hardware.specs import GPUSpec
from ..sim import sanitizer as _sanitizer
from ..workload.spec import TraceRequest
from .costs import IterationCostModel
from .models import ServedModelSpec

if TYPE_CHECKING:        # annotations only: serving never loads compression
    from ..compression.configs import CompressionConfig

__all__ = ["ArtifactKind", "RegisteredModel", "ModelManager",
           "unknown_model"]


class ArtifactKind:
    BASE = "base"
    DELTA = "delta"
    LORA = "lora"
    FULL = "full"  # uncompressed fine-tuned checkpoint (baseline serving)


@dataclass
class RegisteredModel:
    """Metadata row for one servable artifact."""

    model_id: str
    kind: str
    nbytes: int
    base_model_id: Optional[str] = None
    compression: Optional[CompressionConfig] = None
    tier: Tier = Tier.DISK
    last_used_s: float = 0.0

    @property
    def is_variant(self) -> bool:
        return self.kind in (ArtifactKind.DELTA, ArtifactKind.LORA,
                             ArtifactKind.FULL)


class ModelManager:
    """In-memory registry standing in for the metadata store + delta zoo."""

    def __init__(self, spec: ServedModelSpec):
        self.spec = spec
        self._models: Dict[str, RegisteredModel] = {}
        self._cost_models: Dict[Tuple, IterationCostModel] = {}

    # ------------------------------------------------------------------ #
    def register_base(self, model_id: str) -> RegisteredModel:
        entry = RegisteredModel(model_id=model_id, kind=ArtifactKind.BASE,
                                nbytes=self.spec.fp16_nbytes)
        return self._insert(entry)

    def register_delta(self, model_id: str, base_model_id: str,
                       compression_ratio: float,
                       config: Optional[CompressionConfig] = None) -> RegisteredModel:
        self._require(base_model_id, ArtifactKind.BASE)
        entry = RegisteredModel(
            model_id=model_id, kind=ArtifactKind.DELTA,
            nbytes=self.spec.delta_nbytes(compression_ratio),
            base_model_id=base_model_id, compression=config)
        return self._insert(entry)

    def register_full(self, model_id: str, base_model_id: str) -> RegisteredModel:
        """An uncompressed FMT checkpoint (what vLLM-SCB swaps)."""
        self._require(base_model_id, ArtifactKind.BASE)
        entry = RegisteredModel(model_id=model_id, kind=ArtifactKind.FULL,
                                nbytes=self.spec.fp16_nbytes,
                                base_model_id=base_model_id)
        return self._insert(entry)

    def register_lora(self, model_id: str, base_model_id: str,
                      adapter_nbytes: int) -> RegisteredModel:
        self._require(base_model_id, ArtifactKind.BASE)
        entry = RegisteredModel(model_id=model_id, kind=ArtifactKind.LORA,
                                nbytes=adapter_nbytes,
                                base_model_id=base_model_id)
        return self._insert(entry)

    # ------------------------------------------------------------------ #
    def cost_model(self, gpu: GPUSpec, **knobs: Any) -> IterationCostModel:
        """The iteration cost model of one deployment of this spec: every
        engine built over this manager with the same GPU and pricing
        knobs (``IterationCostModel``'s keyword arguments; a cluster's
        replicas, disagg workers, dedicated groups) shares it, hence its
        memos, which hold pure prices.  Scoped to the manager: a new
        manager starts cold."""
        # a model reads the sanitizer switch once, at construction
        key = (gpu, tuple(sorted(knobs.items())), _sanitizer.enabled())
        model = self._cost_models.get(key)
        if model is None:
            model = self._cost_models[key] = IterationCostModel(
                self.spec, gpu, **knobs)
        return model

    def get(self, model_id: str) -> RegisteredModel:
        if model_id not in self._models:
            raise KeyError(f"unknown model {model_id!r}")
        return self._models[model_id]

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._models

    def variants(self, base_model_id: Optional[str] = None) -> List[RegisteredModel]:
        out = [m for m in self._models.values() if m.is_variant]
        if base_model_id is not None:
            out = [m for m in out if m.base_model_id == base_model_id]
        return out

    def bases(self) -> List[RegisteredModel]:
        return [m for m in self._models.values()
                if m.kind == ArtifactKind.BASE]

    def lineage(self, model_id: str) -> List[str]:
        """Chain from this artifact to its root base model."""
        chain = [model_id]
        entry = self.get(model_id)
        while entry.base_model_id is not None:
            chain.append(entry.base_model_id)
            entry = self.get(entry.base_model_id)
        return chain

    # ------------------------------------------------------------------ #
    def _insert(self, entry: RegisteredModel) -> RegisteredModel:
        if entry.model_id in self._models:
            raise ValueError(f"model {entry.model_id!r} already registered")
        self._models[entry.model_id] = entry
        return entry

    def _require(self, model_id: str, kind: str) -> None:
        entry = self.get(model_id)
        if entry.kind != kind:
            raise ValueError(
                f"{model_id!r} is a {entry.kind}, expected {kind}")


def unknown_model(request: TraceRequest) -> KeyError:
    """The error every layer that accepts a request raises, before it
    queues anything, when no manager below it registers the request's
    model (else the request would fail mid-drain, once an engine loads
    it)."""
    return KeyError(f"request {request.request_id!r}: unknown model "
                    f"{request.model_id!r}")
