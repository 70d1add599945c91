"""Pricing KV-cache movement between disaggregated serving pools.

Disaggregated prefill/decode serving (DistServe/Splitwise-style) runs a
request's prefill on one worker and its decode on another, so the KV
blocks produced by prefill must cross the node interconnect before
decode can start.  The wire itself is hardware
(:class:`~repro.hardware.interconnect.InterconnectModel`); this module
is the single place a request's move over it is sized:
:func:`plan_kv_transfer` turns one request's context into a
:class:`KvTransferPlan` — how many KV token-rows actually move (the
uncached suffix only, when the decode side's prefix cache already holds
the shared prefix), the byte count from
:meth:`~repro.serving.models.ServedModelSpec.kv_bytes_per_token`, and
the priced wire time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.interconnect import InterconnectModel
from .models import ServedModelSpec

__all__ = ["KvTransferPlan", "plan_kv_transfer"]


@dataclass(frozen=True)
class KvTransferPlan:
    """One request's priced prefill→decode KV move.

    ``tokens`` is the KV token-rows that cross the wire (context minus
    the prefix-cached prefix); ``cached_tokens`` is what the prefix
    cache saved from the transfer; ``transfer_s`` is the wire time for
    ``nbytes`` under the given :class:`InterconnectModel`.
    """

    tokens: int
    cached_tokens: int
    nbytes: int
    transfer_s: float

    @property
    def skipped(self) -> bool:
        """True when nothing crosses the wire (fully cached context)."""
        return self.tokens == 0


def plan_kv_transfer(spec: ServedModelSpec, link: InterconnectModel,
                     context_tokens: int,
                     cached_prefix_tokens: int = 0) -> KvTransferPlan:
    """Price moving one request's KV context across ``link``.

    ``context_tokens`` is the full KV length produced by prefill
    (prompt plus the first generated token); ``cached_prefix_tokens``
    are already resident on the destination via the shared prefix
    cache, so only the suffix is transferred.
    """
    if context_tokens < 0:
        raise ValueError("context_tokens must be >= 0")
    cached = max(0, min(cached_prefix_tokens, context_tokens))
    tokens = context_tokens - cached
    nbytes = tokens * spec.kv_bytes_per_token()
    return KvTransferPlan(tokens=tokens, cached_tokens=cached,
                          nbytes=nbytes,
                          transfer_s=link.transfer_time(nbytes))
