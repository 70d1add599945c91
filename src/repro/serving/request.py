"""Serving-side request lifecycle and per-request timing records:
:class:`ServingRequest` is the mutable state an engine steps,
:class:`RequestRecord` the immutable row it leaves behind, built once
per terminal request by :meth:`ServingRequest.record`."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from sys import intern
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..workload.spec import TraceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import RunningBatch

__all__ = ["DEFAULT_TENANT", "RequestState", "TERMINAL_STATES",
           "ServingRequest", "RequestRecord", "synthesized_abort_record"]

#: the tenant that requests without a ``tenant_id`` bill against — shared
#: by per-tenant metrics grouping and the admission layer so the two can
#: never disagree on the untenanted bucket's key
DEFAULT_TENANT = "default"


class RequestState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"      # prefilled, decoding
    PREEMPTED = "preempted"  # skip-the-line request bumped by parent finish
    FINISHED = "finished"
    CANCELLED = "cancelled"  # client withdrew it (partial completion)
    EXPIRED = "expired"      # deadline passed before it finished


#: states a request never leaves; the set the abort machinery checks to
#: treat late Cancel events as stale
TERMINAL_STATES = frozenset((RequestState.FINISHED, RequestState.CANCELLED,
                             RequestState.EXPIRED))

#: terminal state -> the status string its record carries: one lookup in
#: ``ServingRequest.record`` answers "terminal?" and "which status?"
_TERMINAL_STATUS = {state: state.value for state in TERMINAL_STATES}


@dataclass(eq=False, slots=True)
class ServingRequest:
    """Mutable serving state wrapped around an immutable trace request.

    The trace fields every iteration reads (ids, arrival, token counts)
    are copied in once at construction; requests compare and hash by
    identity — two objects are never "the same request".

    ``generated_tokens`` and ``inference_s`` are plain values while the
    request is in no batch.  A :class:`~repro.serving.base.RunningBatch`
    member is not touched per iteration: it keeps what it joined with and
    its join epoch, the two properties *derive* the current values from
    the batch's epoch ledger (so do ``context_length``, ``done`` and
    ``remaining_tokens``), and ``leave()`` writes them back.  Read them
    at any time; write them only outside a batch."""

    trace: TraceRequest
    state: RequestState = RequestState.QUEUED
    prefilled: bool = False
    first_scheduled_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    queue_wait_s: float = 0.0
    loading_s: float = 0.0
    skipped_line: bool = False
    parent_id: Optional[int] = None  # head-of-queue request we drafted behind
    preemptions: int = 0
    needs_recompute: bool = False    # KV discarded at preemption; re-prefill
    cached_prefix_tokens: int = 0    # prompt tokens served from the prefix cache
    transfer_s: float = 0.0          # prefill→decode KV move (disaggregated)
    # memoized terminal record: retire-time metrics observation and the
    # gateway finish hooks both ask for it, and a terminal request can
    # never produce a different one
    _record_cache: Optional["RequestRecord"] = field(default=None, repr=False)
    # epoch-ledger member state: the batch (None outside one), its epoch
    # at the join and at the last token, the two values as of the join
    _ledger: Optional["RunningBatch"] = field(
        default=None, init=False, repr=False)
    _join_epoch: int = field(default=0, init=False, repr=False)
    _due: int = field(default=0, init=False, repr=False)
    _tokens: int = field(default=0, init=False, repr=False)
    _inference: float = field(default=0.0, init=False, repr=False)
    request_id: int = field(init=False)
    model_id: str = field(init=False)
    arrival_s: float = field(init=False)
    tenant_id: Optional[str] = field(init=False)
    prompt_tokens: int = field(init=False)
    output_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        trace = self.trace
        self.request_id = trace.request_id
        self.model_id = trace.model_id
        self.arrival_s = trace.arrival_s
        self.tenant_id = trace.tenant_id
        self.prompt_tokens = trace.prompt_tokens
        self.output_tokens = trace.output_tokens

    @property
    def conversation_id(self) -> Optional[str]:
        return self.trace.conversation_id

    @property
    def deadline_s(self) -> Optional[float]:
        return self.trace.deadline_s

    @property
    def generated_tokens(self) -> int:
        """Output tokens so far: one per batch epoch since the join."""
        ledger = self._ledger
        if ledger is None:
            return self._tokens
        return self._tokens + ledger.epoch - self._join_epoch

    @generated_tokens.setter
    def generated_tokens(self, value: int) -> None:
        self._tokens += value - self.generated_tokens

    @property
    def inference_s(self) -> float:
        """Seconds in executed iterations: the join-time value plus the
        ``iter_time`` of every epoch since, added one at a time in order —
        a prefix-sum difference, or ``sum()`` (compensated from Python
        3.12 on), rounds differently, and records are bit-compared."""
        total = self._inference
        ledger = self._ledger
        if ledger is not None:
            for iter_time in ledger.times_since(self._join_epoch):
                total += iter_time
        return total

    @inference_s.setter
    def inference_s(self, value: float) -> None:
        if self._ledger is not None:
            raise AttributeError(f"inference_s of request {self.request_id} "
                                 "is derived while it is in a batch")
        self._inference = value

    @property
    def remaining_tokens(self) -> int:
        return self.output_tokens - self.generated_tokens

    @property
    def done(self) -> bool:
        return self.generated_tokens >= self.output_tokens

    @property
    def terminal(self) -> bool:
        """Finished, cancelled, or expired — no further transitions."""
        return self.state in TERMINAL_STATES

    @property
    def context_length(self) -> int:
        return self.prompt_tokens + self.generated_tokens

    def record(self) -> "RequestRecord":
        """This request's result row.  Built once per terminal request
        (the retire path and the gateway finish hooks share the memo);
        a running request's snapshot reads as ``finished`` and is not
        kept.  Fields go in positionally, in ``RequestRecord`` order; the
        two id strings are interned, so a million records of one variant
        share one string however the client built each request's."""
        rec = self._record_cache
        if rec is not None:
            return rec
        finish_s = self.finish_s
        if finish_s is None:
            raise ValueError(f"request {self.request_id} not finished")
        status = _TERMINAL_STATUS.get(self.state)
        tenant = self.tenant_id
        rec = RequestRecord(
            self.request_id, intern(self.model_id), self.arrival_s,
            self.first_token_s, finish_s, self.prompt_tokens,
            self.output_tokens, self.queue_wait_s, self.loading_s,
            self.inference_s, self.skipped_line, self.preemptions,
            tenant and intern(tenant),
            status or RequestState.FINISHED.value,
            self.generated_tokens, self.trace.conversation_id,
            self.cached_prefix_tokens, self.transfer_s)
        if status is not None:
            self._record_cache = rec
        return rec


class RequestRecord(NamedTuple):
    """Immutable per-request result row (the unit of every Fig 11-19 metric).

    A named tuple — one allocation per retirement, immutable, hashable,
    keyword-constructible; ``tuple(record)`` is the fields in order.

    ``status`` distinguishes the terminal state: ``"finished"`` (the only
    value pre-cancellation runs produce), ``"cancelled"``, ``"expired"``,
    or — for records synthesized at the admission frontier and surfaced
    only through request handles — ``"shed"``.  ``served_tokens`` counts
    the output tokens actually generated; ``None`` (legacy records) means
    all ``output_tokens`` were served.  ``conversation_id`` carries the
    session key through to metrics and routing;
    ``cached_prefix_tokens`` counts the prompt tokens whose prefill was
    skipped by the engine's prefix cache (0 everywhere the cache is off).
    ``transfer_s`` is the priced prefill→decode KV-move time under
    disaggregated serving (0 for every colocated engine).
    """

    request_id: int
    model_id: str
    arrival_s: float
    first_token_s: Optional[float]
    finish_s: float
    prompt_tokens: int
    output_tokens: int
    queue_wait_s: float
    loading_s: float
    inference_s: float
    skipped_line: bool
    preemptions: int
    tenant_id: Optional[str] = None
    status: str = "finished"
    served_tokens: Optional[int] = None
    conversation_id: Optional[str] = None
    cached_prefix_tokens: int = 0
    transfer_s: float = 0.0

    @property
    def finished(self) -> bool:
        """True when the request ran to completion (not aborted)."""
        return self.status == "finished"

    @property
    def tokens_served(self) -> int:
        """Output tokens actually generated (= requested when finished)."""
        if self.served_tokens is not None:
            return self.served_tokens
        return self.output_tokens

    @property
    def e2e_latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        if self.first_token_s is None:
            return self.e2e_latency_s
        return self.first_token_s - self.arrival_s

    @property
    def time_per_token_s(self) -> float:
        return self.e2e_latency_s / max(self.output_tokens, 1)


def synthesized_abort_record(request: TraceRequest, finish_s: float,
                             status: str) -> RequestRecord:
    """Terminal record for a request that never reached an engine.

    The shared constructor behind every layer-synthesized abort: a
    cluster request cancelled before routing, a tenancy request
    cancelled/expired at the admission frontier, or a shed/rejected
    request surfaced only through its handle.  Zero tokens were served;
    ``finish_s`` is floored at the arrival so latency never goes
    negative, and the whole wait (if any) is queue time.
    """
    finish = max(finish_s, request.arrival_s)
    tenant = request.tenant_id
    return RequestRecord(
        request_id=request.request_id, model_id=intern(request.model_id),
        arrival_s=request.arrival_s, first_token_s=None, finish_s=finish,
        prompt_tokens=request.prompt_tokens,
        output_tokens=request.output_tokens,
        queue_wait_s=finish - request.arrival_s,
        loading_s=0.0, inference_s=0.0, skipped_line=False, preemptions=0,
        tenant_id=tenant and intern(tenant), status=status, served_tokens=0,
        conversation_id=request.conversation_id)
