"""Core layers: Linear, RMSNorm, Embedding — with explicit forward/backward.

Backward passes cache whatever they need on ``self`` during forward (a
single-sample-in-flight convention that the training loop respects), which
keeps the substrate simple while still supporting full fine-tuning.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensoring import Module, Parameter, init_normal

__all__ = ["Linear", "RMSNorm", "Embedding"]


class Linear(Module):
    """Dense layer ``y = x @ W^T`` with weight of shape ``(out, in)``.

    No bias, matching Llama-family checkpoints.  The ``(out, in)`` layout is
    the same one the compression pipeline (and SparseGPT) assumes: rows are
    output channels, columns are input channels.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 std: float = 0.02):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_normal(rng, (out_features, in_features), std=std))
        self._cached_input = None

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        if cache:
            self._cached_input = x
        return x @ self.weight.data.T

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/dy, accumulate dL/dW (a frozen weight gets none) and
        return dL/dx."""
        x = self._cached_input
        if x is None:
            raise RuntimeError("Linear.backward called without a cached forward")
        if self.weight.trainable:
            flat_x = x.reshape(-1, self.in_features)
            flat_g = grad_out.reshape(-1, self.out_features)
            self.weight.accumulate_grad(flat_g.T @ flat_x)
        grad_in = grad_out @ self.weight.data
        self._cached_input = None
        return grad_in

    def __call__(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        return self.forward(x, cache=cache)


class RMSNorm(Module):
    """Llama-style RMS normalization with a learned scale."""

    def __init__(self, dim: int, eps: float = 1e-6):
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self._cached_input = None

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        if cache:
            self._cached_input = x
        return F.rms_norm(x, self.weight.data, eps=self.eps)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cached_input
        if x is None:
            raise RuntimeError("RMSNorm.backward called without a cached forward")
        grad_x, grad_w = F.rms_norm_backward(x, self.weight.data, grad_out, eps=self.eps)
        if self.weight.trainable:
            self.weight.accumulate_grad(grad_w)
        self._cached_input = None
        return grad_x

    def __call__(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        return self.forward(x, cache=cache)


class Embedding(Module):
    """Token embedding table of shape ``(vocab, dim)``."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(init_normal(rng, (vocab_size, dim)))
        self._cached_indices = None

    def forward(self, indices: np.ndarray, cache: bool = False) -> np.ndarray:
        if cache:
            self._cached_indices = indices
        return self.weight.data[indices]

    def backward(self, grad_out: np.ndarray) -> None:
        indices = self._cached_indices
        if indices is None:
            raise RuntimeError("Embedding.backward called without a cached forward")
        if self.weight.trainable:
            grad = np.zeros_like(self.weight.data)
            flat_idx = indices.reshape(-1)
            flat_grad = grad_out.reshape(-1, self.dim)
            np.add.at(grad, flat_idx, flat_grad)
            self.weight.accumulate_grad(grad)
        self._cached_indices = None

    def __call__(self, indices: np.ndarray, cache: bool = False) -> np.ndarray:
        return self.forward(indices, cache=cache)
