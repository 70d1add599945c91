"""First-class request handles: streaming, cancellation, deadlines.

Every ``submit()`` across the serving stack — engine-backed
:class:`~repro.serving.gateway.ServingGateway`, multi-replica
:class:`~repro.serving.cluster.ClusterGateway`, and the admission-controlled
:class:`~repro.serving.tenancy.TenantGateway` — returns a
:class:`RequestHandle`: the client's per-request view of the simulated
system.  A handle exposes

* :attr:`~RequestHandle.id` and :attr:`~RequestHandle.status` (a
  :class:`HandleStatus`);
* :attr:`~RequestHandle.tokens` — a stream of ``(clock_s, n_generated)``
  token events for *this* request.  Iterating it *drives the simulation*
  (the owning gateway steps until the next token), so a client can
  consume its own output exactly like an SSE stream;
* :meth:`~RequestHandle.record` / :meth:`~RequestHandle.result` once the
  request is terminal, and :meth:`~RequestHandle.add_done_callback` for
  completion-driven clients (closed-loop sessions schedule their next
  turn from it);
* :meth:`~RequestHandle.cancel` — withdraw the request at an explicit
  simulated time (client disconnect, impatience).

Handles compare and hash by identity; ``handle.id`` is the integer
request id that records, ``cancel()`` and ``gateway.handle()`` speak.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, List, Optional, Protocol, Tuple

from ..sim.clock import sanitizer as _sanitizer
from ..workload.spec import TraceRequest
from .request import RequestRecord

__all__ = ["HandleStatus", "RequestHandle", "TokenEvent", "HandleGateway"]

#: one streamed token observation: (simulated clock, tokens generated so far)
TokenEvent = Tuple[float, int]

#: callback fired once, when the handle reaches a terminal status
DoneCallback = Callable[["RequestHandle"], None]


class HandleStatus(str, Enum):
    """Client-visible request lifecycle."""

    QUEUED = "queued"        # submitted; waiting to arrive / face admission
    ADMITTED = "admitted"    # accepted into the system, not yet executing
    RUNNING = "running"      # in a batch, generating tokens
    FINISHED = "finished"    # ran to completion
    CANCELLED = "cancelled"  # client withdrew it (partial completion)
    EXPIRED = "expired"      # deadline passed before completion
    SHED = "shed"            # dropped by admission control (shed/rejected)

    @property
    def terminal(self) -> bool:
        return self in (HandleStatus.FINISHED, HandleStatus.CANCELLED,
                        HandleStatus.EXPIRED, HandleStatus.SHED)


class HandleGateway(Protocol):
    """What a handle needs from the gateway that issued it: stepping,
    cancellation routing, and live status lookup — every
    :class:`~repro.serving.gateway.Gateway` layer satisfies this."""

    def step(self) -> bool: ...  # pragma: no cover - protocol

    def cancel(self, request_id: int,
               at_s: Optional[float] = None) -> None: ...  # pragma: no cover

    def _status_of(
            self, request_id: int) -> "HandleStatus": ...  # pragma: no cover


#: RequestRecord.status value -> terminal HandleStatus
_RECORD_STATUS = {
    "finished": HandleStatus.FINISHED,
    "cancelled": HandleStatus.CANCELLED,
    "expired": HandleStatus.EXPIRED,
    "shed": HandleStatus.SHED,
    "rejected": HandleStatus.SHED,
}


class RequestHandle:
    """A client's live view of one submitted request.

    Created by :meth:`Gateway.submit
    <repro.serving.gateway.Gateway.submit>` around the request envelope
    it built; fed by that gateway's token/completion plumbing.  All
    methods are safe to call at any point of the request's life.
    """

    __slots__ = ("_request", "_gateway", "_events", "_record", "_callbacks")

    def __init__(self, request: TraceRequest,
                 gateway: HandleGateway) -> None:
        self._request = request
        self._gateway = gateway
        self._events: List[TokenEvent] = []
        self._record: Optional[RequestRecord] = None
        self._callbacks: List[DoneCallback] = []

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def id(self) -> int:
        return self._request.request_id

    @property
    def model_id(self) -> str:
        return self._request.model_id

    @property
    def tenant_id(self) -> Optional[str]:
        return self._request.tenant_id

    @property
    def deadline_s(self) -> Optional[float]:
        """Absolute simulated finish-by time (None = unbounded)."""
        return self._request.deadline_s

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def status(self) -> HandleStatus:
        if self._record is not None:
            return _RECORD_STATUS.get(self._record.status,
                                      HandleStatus.FINISHED)
        return self._gateway._status_of(self.id)

    @property
    def done(self) -> bool:
        """Terminal — finished, cancelled, expired, or shed."""
        return self._record is not None

    def record(self) -> RequestRecord:
        """The immutable per-request record; only valid once terminal."""
        if self._record is None:
            raise ValueError(f"request {self.id} is not terminal yet "
                             f"(status={self.status.value})")
        return self._record

    def result(self, drain: bool = True) -> RequestRecord:
        """Block (in simulated time) until terminal, then return the
        record.  With ``drain=False`` the gateway is not stepped and a
        still-running request raises instead."""
        if self._record is None and drain:
            while self._record is None and self._gateway.step():
                pass
        return self.record()

    def add_done_callback(self, fn: DoneCallback) -> None:
        """Run ``fn(handle)`` when the request reaches a terminal state.

        Fires during the gateway step that retires the request (or
        immediately, if already terminal) — the hook closed-loop clients
        use to schedule their next turn as a fresh arrival.
        """
        if self._record is not None:
            fn(self)
        else:
            self._callbacks.append(fn)

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    @property
    def tokens(self) -> Iterator[TokenEvent]:
        """Stream this request's ``(clock_s, n_generated)`` token events.

        Consuming the iterator steps the owning gateway whenever no
        buffered event is available and the request is not yet terminal —
        the simulated-time equivalent of reading a streaming response.
        Multiple iterators over the same handle each replay from the
        first token.
        """
        return _TokenStream(self)

    @property
    def token_events(self) -> List[TokenEvent]:
        """Token events observed so far (without driving the gateway)."""
        return list(self._events)

    @property
    def n_generated(self) -> int:
        """Output tokens generated so far."""
        if self._record is not None:
            return self._record.tokens_served
        return self._events[-1][1] if self._events else 0

    # ------------------------------------------------------------------ #
    # control
    # ------------------------------------------------------------------ #
    def cancel(self, at_s: Optional[float] = None) -> None:
        """Withdraw this request at simulated time ``at_s`` (default:
        now, i.e. the gateway's current frontier).  The request aborts at
        the first iteration boundary at or after ``at_s``, freeing its
        batch slot; only tokens generated by then are charged.  Stale
        cancels (already terminal) are ignored."""
        if self._record is not None:
            return
        self._gateway.cancel(self.id, at_s=at_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RequestHandle(id={self.id}, model={self.model_id!r}, "
                f"status={self.status.value}, tokens={self.n_generated})")

    # ------------------------------------------------------------------ #
    # gateway-side plumbing
    # ------------------------------------------------------------------ #
    def _push_token(self, clock_s: float, n_generated: int) -> None:
        self._events.append((clock_s, n_generated))

    def _finish(self, record: RequestRecord) -> None:
        if self._record is not None:
            # a second terminal transition is a status-machine bug; the
            # sanitizer turns the silent drop into a hard failure
            if _sanitizer.enabled():
                _sanitizer.check_handle_finish(self.id, True)
            return
        self._record = record
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _TokenStream:
    """Iterator over a handle's token events that drives the gateway."""

    __slots__ = ("_handle", "_i")

    def __init__(self, handle: RequestHandle) -> None:
        self._handle = handle
        self._i = 0

    def __iter__(self) -> "_TokenStream":
        return self

    def __next__(self) -> TokenEvent:
        handle = self._handle
        while self._i >= len(handle._events):
            if handle.done or not handle._gateway.step():
                raise StopIteration
        event = handle._events[self._i]
        self._i += 1
        return event
