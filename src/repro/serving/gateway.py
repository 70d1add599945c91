"""Online serving gateways: one client surface, three stackable layers.

Real serving frontends (vLLM-style continuous batching) accept requests at
runtime; they do not get the whole workload up front.  :class:`Gateway`
is that client surface, declared once for every layer of the stack:

* :meth:`~Gateway.submit` — a request joins the simulated system *now*
  (or at an explicit ``arrival_s``), returning a
  :class:`~repro.serving.handle.RequestHandle` — the client's view of
  that one request: per-request token streaming, status, ``cancel()``,
  a finish-by ``deadline_s``, and the terminal record;
* ``step`` — advance the system by one scheduling iteration;
* :meth:`~Gateway.run_until_drained` — serve until every submitted
  request finished;
* per-token and per-request completion callbacks fire as the simulated
  clock produces tokens, enabling closed-loop clients, autoscalers, and
  interactive sessions.  :meth:`~Gateway.add_token_listener` and
  :meth:`~Gateway.add_completion_listener` register them, in call
  order; listeners survive :meth:`~Gateway.reset` (they are wiring, not
  per-timeline state).

The layers differ only in where an accepted request goes next:
:class:`ServingGateway` (this module) hands it to one engine speaking the
:class:`~repro.serving.base.ServingEngine` protocol,
:class:`~repro.serving.cluster.ClusterGateway` routes it to a replica, and
:class:`~repro.serving.tenancy.TenantGateway` holds it at the admission
frontier of the gateway it wraps and releases it through ``ingest``.

Offline ``replay`` is a thin adapter over the same machinery — it
submits the trace's requests verbatim and drains — so replaying a trace
through a gateway is bit-identical to the reference ``engine.run(trace)``
path.  ``replay(trace, cancels=[(request_id, at_s), ...])`` additionally
schedules client cancellations at deterministic simulated times (the
impatient-client workload model).

Simulated time is owned by the :mod:`repro.sim` kernel underneath the
engine; gateways expose it read-only through ``clock`` and ``frontier``
so stacked layers share one definition of "now" instead of re-deriving
it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..sim import Cancel, PhaseTransition, SimKernel
from ..workload.spec import Trace, TraceRequest
from .base import ServingEngine
from .handle import HandleStatus, RequestHandle
from .metrics import ServingResult
from .model_manager import unknown_model
from .request import (RequestRecord, RequestState, ServingRequest,
                      synthesized_abort_record)
from .streaming_metrics import RecordPolicy

__all__ = ["Gateway", "ServingGateway"]

# gateway-level callbacks
TokenCallback = Callable[[int, str, int, float], None]
#: (request_id, model_id, generated_tokens, clock_s)
CompletionCallback = Callable[[RequestRecord], None]
#: fires once per finished request with its immutable record

#: a client-cancellation schedule: (request_id, cancel_at_s) pairs
CancelSchedule = Iterable[Tuple[int, float]]


class Gateway:
    """The client surface and layer plumbing every frontend shares.

    A concrete layer defines ``step``, ``ingest``, ``cancel``, ``result``,
    ``unfinished``, ``_accept`` (where a submitted request goes next) and
    ``_status_of``.  The remaining layer questions (:attr:`clock`,
    :attr:`backlog`, :meth:`lead_engine`, :attr:`n_replicas`,
    :meth:`engines`, :meth:`_wire`) default to asking ``self.inner``, the
    gateway a stacked layer wraps; the layers that own engines answer
    them directly.
    """

    #: the gateway a stacked layer wraps (unset on engine-owning layers)
    inner: "Gateway"
    #: the layer's ``AdmissionController`` (None on layers without one)
    controller: Optional[Any] = None
    #: the layer's own sim kernel (None: it has no events to forward)
    kernel: Optional[SimKernel] = None

    def __init__(self) -> None:
        self._listeners: List[CompletionCallback] = []
        self._token_listeners: List[TokenCallback] = []
        self._token_tap = False           # inner token fan-out installed?
        self._handles: Dict[int, RequestHandle] = {}
        self._next_id = 0
        self._telemetry = None
        self._admission_probe: Optional[Callable[[], int]] = None
        #: records of requests this layer retired itself (:meth:`_withdraw`)
        self._withdrawn: List[RequestRecord] = []

    # ------------------------------------------------------------------ #
    # the client surface
    # ------------------------------------------------------------------ #
    def submit(self, model_id: str, prompt_len: int, output_len: int,
               arrival_s: Optional[float] = None,
               deadline_s: Optional[float] = None, **tags) -> RequestHandle:
        """Submit one request; returns its :class:`RequestHandle`.

        ``arrival_s`` defaults to the layer's current simulated time
        ("the request arrives now"); an explicit value may also lie in the
        future (it joins once the clock gets there) or the past (it joins
        at the next step, keeping its nominal arrival for latency math).
        ``deadline_s`` bounds the request: it must *finish* within that
        many simulated seconds of its arrival or it is aborted as
        expired.  ``tags`` are the remaining
        :class:`~repro.workload.spec.TraceRequest` fields, forwarded
        verbatim into the request envelope — ``tenant_id`` (per-tenant
        metrics and admission), ``conversation_id`` (session affinity and
        prefix reuse), and whatever else the envelope carries; no layer
        names them, so a new field needs no gateway edit, and an unknown
        tag is a ``TypeError``.  The returned handle streams this
        request's tokens and exposes its status and terminal record.
        """
        arrival_s = self._now() if arrival_s is None else float(arrival_s)
        if deadline_s is not None:
            if not (math.isfinite(deadline_s) and deadline_s > 0):
                raise ValueError("deadline_s must be finite and > 0 when "
                                 f"set, got {deadline_s!r}")
            deadline_s = arrival_s + float(deadline_s)
        request = TraceRequest(request_id=self._next_id, model_id=model_id,
                               arrival_s=arrival_s,
                               prompt_tokens=int(prompt_len),
                               output_tokens=int(output_len),
                               deadline_s=deadline_s, **tags)
        if not self._serves(model_id):
            raise unknown_model(request)
        self._next_id += 1
        handle = RequestHandle(request, self)
        self._handles[request.request_id] = handle
        self._wire()
        self._accept(request)
        return handle

    def handle(self, request_id: int) -> Optional[RequestHandle]:
        """The handle for a request submitted through this gateway."""
        return self._handles.get(int(request_id))

    def add_completion_listener(self, listener: CompletionCallback) -> None:
        """Register a per-request completion callback.

        Fires once per terminal record that appears in ``result()``,
        after the listeners registered before it; outer layers use this
        to track outstanding work.  Listeners survive :meth:`reset`.
        """
        self._listeners.append(listener)
        self._wire()

    def add_token_listener(self, listener: TokenCallback) -> None:
        """Register a per-token callback — the streaming-side parity of
        :meth:`add_completion_listener`.  Fires as ``(request_id,
        model_id, generated_tokens, clock_s)`` after the listeners
        registered before it and survives :meth:`reset`."""
        self._token_listeners.append(listener)
        self._wire()

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished."""
        while self.step():
            pass
        return self.result()

    def reset(self) -> None:
        """Fresh simulated timeline (request ids restart from zero).
        Registered token/completion listeners survive; per-request
        handles from the previous timeline are dropped.  Layers reset
        their own state, then call this."""
        self._handles.clear()
        self._withdrawn.clear()
        self._next_id = 0
        self._wire()
        if self._telemetry is not None:
            self._telemetry.reset()      # idempotent across stacked layers

    def _replay(self, trace: Trace,
                cancels: Optional[CancelSchedule]) -> ServingResult:
        """The body of every layer's ``replay``: reset, ingest each trace
        request verbatim, schedule the cancels, drain."""
        self.reset()
        for request in trace:
            self.ingest(request)
        if cancels is not None:
            for request_id, at_s in cancels:
                self.cancel(request_id, at_s=at_s)
        return self.run_until_drained()

    @property
    def telemetry(self):
        """The attached :class:`repro.telemetry.Telemetry`, or None."""
        return self._telemetry

    # ------------------------------------------------------------------ #
    # what outer layers ask the layer below
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        return self.inner.clock

    @property
    def backlog(self) -> int:
        """Arrived-but-unfinished requests (future arrivals excluded)."""
        return self.inner.backlog

    def _serves(self, model_id: str) -> bool:
        """True when a manager below this layer registers ``model_id``:
        every layer that accepts a request asks before queueing it."""
        return self.inner._serves(model_id)

    @property
    def record_policy(self) -> RecordPolicy:
        """The engines' record-retention policy (what the sinks keep; the
        one per-request map gated on it is :attr:`_handles`)."""
        engine = self.lead_engine()
        return engine.config.record_policy if engine is not None \
            else RecordPolicy.KEEP_ALL

    @property
    def n_replicas(self) -> int:
        """Replicas currently accepting new requests."""
        return self.inner.n_replicas

    def engines(self) -> List[ServingEngine]:
        """Every live engine under this gateway."""
        return self.inner.engines()

    def lead_engine(self) -> Optional[ServingEngine]:
        """One engine standing for :meth:`engines` (one config template)."""
        return self.inner.lead_engine()

    @property
    def at_horizon(self) -> bool:
        """True when ``step()`` would simulate past an engine's
        ``max_sim_seconds``.  Only a layer whose ``step`` does not
        enforce that cap itself ever answers True."""
        return False

    # the front of a drain loop (:class:`~repro.serving.base.DrainLoop`):
    # a layer with no idle path of its own
    def _resume(self) -> bool:
        return False

    def lift_idle_clocks(self, now: float) -> None:
        """Raise every idle engine's clock to ``now``: a request an outer
        layer releases at ``now`` must not be served in an idle engine's
        past."""
        for engine in self.engines():
            if engine.unfinished == 0:
                engine.clock = max(engine.clock, now)

    def set_admission_probe(self, probe: Callable[[], int]) -> None:
        """Let an admission layer report requests held at its frontier.

        An autoscaler adds the probe's count to the engine backlog, so
        it scales on *offered* load — requests an admission controller
        is still holding back are otherwise invisible to the engines and
        the controller would scale too late (only after shedding already
        kicked in)."""
        self._admission_probe = probe

    @property
    def admission_queued(self) -> int:
        """Requests an admission layer holds at this gateway's frontier."""
        return self._admission_probe() if self._admission_probe is not None \
            else 0

    # ------------------------------------------------------------------ #
    # layer plumbing
    # ------------------------------------------------------------------ #
    def _accept(self, request: TraceRequest) -> None:
        """hook: where a submitted request goes next — an engine, a
        replica, or the admission frontier."""
        raise NotImplementedError

    def _now(self) -> float:
        """Arrival time of a request submitted without one."""
        return self.clock

    def _wants_tokens(self) -> bool:
        return bool(self._token_listeners or self._handles)

    def _wire(self) -> None:
        """Ask the layer below for token events once someone consumes
        them (installed on demand, so replay paths stay hook-free)."""
        if not self._token_tap and self._wants_tokens():
            self._token_tap = True
            self.inner.add_token_listener(self._token_fanout)

    def _token_hook(self, request: ServingRequest, clock: float) -> None:
        """An engine's ``on_token``, on the layers that own engines."""
        self._token_fanout(request.request_id, request.model_id,
                           request.generated_tokens, clock)

    def _token_fanout(self, request_id: int, model_id: str,
                      n_generated: int, clock: float) -> None:
        for listener in self._token_listeners:
            listener(request_id, model_id, n_generated, clock)
        handle = self._handles.get(request_id)
        if handle is not None:
            handle._push_token(clock, n_generated)

    def _withdraw(self, request: TraceRequest, at_s: float,
                  reason: str) -> RequestRecord:
        """Retire a request that never reached an engine, withdrawn at
        ``at_s`` by a cancel (``reason="cancel"``) or its deadline: its
        ``Cancel`` then its ``retire`` phase are published on
        :attr:`kernel` (each only if wanted, as an engine publishes an
        abort) and the record is kept for ``result()``.  The layer
        delivers the returned record through its own completion path."""
        status = "expired" if reason == "deadline" else "cancelled"
        kernel = self.kernel
        if kernel is not None:
            if kernel.wants(Cancel):
                kernel.emit(Cancel(time=at_s, request_id=request.request_id,
                                   reason=reason))
            if kernel.wants(PhaseTransition):
                kernel.emit(PhaseTransition.of(request, "retire", at_s,
                                               "frontier", status))
        record = synthesized_abort_record(request, at_s, status)
        self._withdrawn.append(record)
        return record

    def _complete(self, record: RequestRecord) -> None:
        """Deliver one terminal record: listeners, then the handle."""
        for listener in self._listeners:
            listener(record)
        if self._handles:
            # the one per-request map a policy gates: ``handle(id)`` after
            # completion is public API, so KEEP_ALL keeps the entry (the
            # terminal handle answers from its own record either way)
            if self.record_policy is RecordPolicy.KEEP_ALL:
                handle = self._handles.get(record.request_id)
            else:
                handle = self._handles.pop(record.request_id, None)
            if handle is not None:
                handle._finish(record)

    @staticmethod
    def _engine_status(engine: ServingEngine,
                       request_id: int) -> HandleStatus:
        """A request's state on the engine it was handed to, in the client
        vocabulary (a terminal one is released: its handle answers from
        the record, so an unknown id is one still on its way in)."""
        req = engine.lookup(request_id)
        if req is None:
            return HandleStatus.QUEUED
        if req.state is RequestState.RUNNING:
            return HandleStatus.RUNNING
        # queued or preempted: inside the engine once it has arrived
        if req.arrival_s <= engine.clock:
            return HandleStatus.ADMITTED
        return HandleStatus.QUEUED


class ServingGateway(Gateway):
    """Online submit/step facade over any registered serving engine."""

    def __init__(self, engine: ServingEngine, telemetry=None):
        super().__init__()
        self.engine = engine
        self._wire()
        if telemetry is not None:
            telemetry.attach(self)

    def _wire(self) -> None:
        """Engine callbacks are installed only while someone listens, so
        pure replay paths pay no per-token callback overhead."""
        self.engine.on_token = self._token_hook \
            if self._wants_tokens() else None
        self.engine.on_finish = self._finish_hook \
            if self._listeners or self._handles else None

    def _finish_hook(self, request: ServingRequest, clock: float) -> None:
        self._complete(request.record())

    def _accept(self, request: TraceRequest) -> None:
        self.engine.submit(request)

    def _serves(self, model_id: str) -> bool:
        return model_id in self.engine.manager

    # ------------------------------------------------------------------ #
    # online path
    # ------------------------------------------------------------------ #
    def ingest(self, request: TraceRequest) -> int:
        """Submit a fully-formed :class:`TraceRequest` verbatim.

        Preserves the caller's request id and arrival time — the entry
        point used by trace replay and by the cluster gateway, which
        allocates ids globally so merged records stay unique.
        """
        self.engine.submit(request)
        self._next_id = max(self._next_id, request.request_id + 1)
        return request.request_id

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        """Schedule a cancellation of one request at simulated time
        ``at_s`` (default: the engine's current clock, i.e. "now").  The
        abort applies at the first iteration boundary at or after that
        time; stale cancels are ignored."""
        if at_s is None:
            at_s = self.engine.clock
        self.engine.schedule_cancel(int(request_id), float(at_s),
                                    reason=reason)

    def step(self) -> bool:
        """One engine iteration; False when the engine is drained."""
        progressed = self.engine.step()
        self._turn()
        return progressed

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished, or the
        engine is past ``max_sim_seconds``: the engine's drain loop, with
        this gateway its front."""
        self._drain(self)
        return self.result()

    def _drain(self, front: Gateway) -> None:
        self.engine._drain(front)

    @property
    def observed(self) -> bool:
        return self.engine.observed

    def _turn(self) -> float:
        """Fire the gauge ticks the engine's clock has reached; the next
        one bounds a coast (its gauges read the engine between steps)."""
        telemetry = self._telemetry
        if telemetry is None:
            return math.inf
        now = self.engine.clock
        if now >= telemetry.next_tick_s:
            telemetry.advance(now)
        return telemetry.next_tick_s

    def _coast_watch(self, member: Any) -> Tuple[
            List[Tuple[str, Optional[float]]], List[Tuple[str, Any]]]:
        telemetry = self._telemetry
        return ([("a telemetry tick", telemetry.next_tick_s)]
                if telemetry is not None else []), []

    def result(self) -> ServingResult:
        """Snapshot of completions so far (callable mid-flight)."""
        return self.engine.build_result()

    def reset(self) -> None:
        self.engine.reset()
        super().reset()

    def replay(self, trace: Trace,
               cancels: Optional[CancelSchedule] = None) -> ServingResult:
        """Replay a pre-materialized trace through the online machinery.

        Equivalent to (and bit-identical with) ``engine.run(trace)``:
        resets the engine, submits every trace request verbatim
        (preserving its request id and arrival time), and drains.
        ``cancels`` schedules client cancellations — ``(request_id,
        at_s)`` pairs — at deterministic simulated times; with
        ``cancels=None`` the records are bit-identical to a
        pre-cancellation replay.
        """
        return self._replay(trace, cancels)

    # ------------------------------------------------------------------ #
    # what outer layers ask: this layer owns the one engine
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def frontier(self) -> float:
        """The point simulated time cannot retreat behind — for a single
        engine, its kernel clock.  Outer layers (cluster routing, the
        admission frontier in :mod:`repro.serving.tenancy`) read this
        instead of deriving their own notion of "now"."""
        return self.engine.clock

    @property
    def unfinished(self) -> int:
        return self.engine.unfinished

    @property
    def backlog(self) -> int:
        return self.engine.backlog

    @property
    def n_replicas(self) -> int:
        return 1

    def engines(self) -> List[ServingEngine]:
        return [self.engine]

    def lead_engine(self) -> Optional[ServingEngine]:
        return self.engine

    @property
    def at_horizon(self) -> bool:
        return self.engine.at_horizon

    def _status_of(self, request_id: int) -> HandleStatus:
        """Live status for a handle (terminal handles answer locally)."""
        return self._engine_status(self.engine, request_id)
