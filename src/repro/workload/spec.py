"""Trace dataclasses shared by generators and serving engines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["TraceRequest", "Trace", "LengthSampler"]


@dataclass
class TraceRequest:
    """One inference request in a workload trace.

    ``model_id`` names a fine-tuned variant (or the base model); prompt and
    output lengths are in tokens, sampled to match LMSys chat statistics.
    ``tenant_id`` optionally names the tenant the request bills to; ``None``
    (untenanted, the default for every pre-existing trace) is treated as
    the default tenant by the admission layer.  ``deadline_s`` is an
    *absolute* simulated time (same timeline as ``arrival_s``) by which
    the request must finish; past it the serving stack aborts the request
    as ``expired``, charging only the tokens actually generated.  ``None``
    (the default for every pre-existing trace) means no deadline.

    ``conversation_id`` groups the turns of one multi-turn session: turn
    *k+1*'s prompt is turn *k*'s full context (prompt + generated reply)
    plus the new user tokens, so a prefix cache can skip re-prefilling
    the shared history.  ``shared_prefix_id`` names a prompt region
    shared *across* conversations (a system prompt); the first
    ``shared_prefix_tokens`` prompt tokens belong to it.  All three
    default to "no session structure" and are inert unless an engine
    enables its prefix cache.
    """

    request_id: int
    model_id: str
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    tenant_id: Optional[str] = None
    deadline_s: Optional[float] = None
    conversation_id: Optional[str] = None
    shared_prefix_id: Optional[str] = None
    shared_prefix_tokens: int = 0

    def __post_init__(self) -> None:
        # every entry point (submit, ingest, replay, load_trace) builds
        # this envelope, so a length that would be served as finished or
        # a time that would hang or strand a drain is refused here, once.
        # A deadline may precede the arrival: the request expires on it.
        if not self.prompt_tokens >= 1:
            name, want = "prompt_tokens", ">= 1"
        elif not self.output_tokens >= 1:
            name, want = "output_tokens", ">= 1"
        elif not math.isfinite(self.arrival_s):
            name, want = "arrival_s", "finite"
        elif self.deadline_s is not None and not math.isfinite(self.deadline_s):
            name, want = "deadline_s", "finite when set"
        else:
            return
        raise ValueError(f"request {self.request_id!r}: {name} must be "
                         f"{want}, got {getattr(self, name)!r}")


@dataclass
class Trace:
    """A time-ordered request sequence over a set of model variants."""

    requests: List[TraceRequest]
    model_ids: List[str]
    duration_s: float

    def __post_init__(self):
        self.requests.sort(key=lambda r: (r.arrival_s, r.request_id))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def per_model_counts(self) -> Dict[str, int]:
        counts = {m: 0 for m in self.model_ids}
        for req in self.requests:
            counts[req.model_id] = counts.get(req.model_id, 0) + 1
        return counts

    @property
    def tenant_ids(self) -> List[str]:
        """Distinct tenants tagged on requests (untenanted excluded)."""
        return sorted({r.tenant_id for r in self.requests
                       if r.tenant_id is not None})

    def per_tenant_counts(self) -> Dict[Optional[str], int]:
        counts: Dict[Optional[str], int] = {}
        for req in self.requests:
            counts[req.tenant_id] = counts.get(req.tenant_id, 0) + 1
        return counts

    def arrival_rate(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return len(self.requests) / self.duration_s

    def windowed_counts(self, window_s: float) -> Dict[str, np.ndarray]:
        """Per-model invocation counts per time window (Fig 1's view)."""
        n_windows = max(1, int(np.ceil(self.duration_s / window_s)))
        out = {m: np.zeros(n_windows, dtype=np.int64) for m in self.model_ids}
        for req in self.requests:
            idx = min(int(req.arrival_s // window_s), n_windows - 1)
            out[req.model_id][idx] += 1
        return out


@dataclass
class LengthSampler:
    """Samples (prompt, output) token lengths.

    Defaults approximate the LMSys Chatbot-Arena conversations the paper
    replays: log-normal prompt lengths (median ≈ 50 tokens, long tail) and
    geometric-ish output lengths (mean ≈ 200 tokens), both clipped.
    """

    prompt_log_mean: float = 3.9
    prompt_log_sigma: float = 0.9
    output_mean: float = 200.0
    min_tokens: int = 4
    max_prompt: int = 1024
    max_output: int = 512

    def sample(self, rng: np.random.Generator) -> tuple:
        # builtin min/max: the same ints as np.clip (lo > hi gives hi),
        # without a numpy dispatch per scalar draw
        lo = self.min_tokens
        prompt = int(min(max(rng.lognormal(self.prompt_log_mean,
                                           self.prompt_log_sigma), lo),
                         self.max_prompt))
        output = int(min(max(rng.geometric(1.0 / self.output_mean), lo),
                         self.max_output))
        return prompt, output
