"""Per-request lifecycle spans assembled from typed kernel events.

A :class:`SpanRecorder` subscribes to a :class:`~repro.sim.SimKernel`
and folds the event stream into :class:`RequestSpan` objects — the
OTel-style view of one request's life: ``queue → prefill → decode →
retire`` (or an immediately-terminal ``shed``/``rejected`` verdict from
the admission layer).  The recorder is a pure observer: it never emits
events, never touches the clock, and its presence cannot change replay
records.

Memory follows the serving stack's ``record_policy`` contract:

* ``KEEP_ALL`` — every closed span is retained;
* ``SAMPLE_K`` — a deterministic Algorithm-R reservoir of ``sample_k``
  closed spans (seeded, so identical runs keep identical samples);
* ``DROP`` — closed spans are discarded entirely.

Under every policy the *open* spans are O(active requests), and the
always-on per-phase duration sketches answer quantile queries without
any retained spans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..serving.streaming_metrics import QuantileSketch, RecordPolicy
from ..sim.events import AdmissionDecision, Cancel, Event, PhaseTransition
from ..sim.kernel import SimKernel

__all__ = ["RequestSpan", "SpanRecorder"]

#: fixed entropy for the span reservoir's seed sequence (deterministic,
#: independent of the metrics reservoir's stream)
_SPAN_ENTROPY = 0x5BA2_CAFE

#: lifecycle phases in span order (``transfer`` appears only under
#: disaggregated serving, between the prefill and decode pools)
PHASES = ("queue", "prefill", "transfer", "decode", "retire")


@dataclass
class RequestSpan:
    """One request's lifecycle: phase entry timestamps + attributes.

    Timestamps are ``None`` until the request enters the phase.  A span
    is *closed* once ``retire_s`` is set; ``status`` then carries the
    terminal state (``finished`` / ``cancelled`` / ``expired`` /
    ``shed`` / ``rejected``).  ``decision`` is the admission verdict
    when an admission layer saw the request.
    """

    request_id: int
    tenant_id: Optional[str] = None
    model_id: str = ""
    source: Optional[str] = None
    decision: Optional[str] = None
    cancel_reason: Optional[str] = None
    queue_s: Optional[float] = None
    prefill_s: Optional[float] = None
    transfer_s: Optional[float] = None
    decode_s: Optional[float] = None
    retire_s: Optional[float] = None
    status: str = ""

    @property
    def closed(self) -> bool:
        return self.retire_s is not None

    @property
    def start_s(self) -> Optional[float]:
        for t in (self.queue_s, self.prefill_s, self.transfer_s,
                  self.decode_s, self.retire_s):
            if t is not None:
                return t
        return None

    def duration_s(self) -> Optional[float]:
        """End-to-end span length (None while open or never started)."""
        start = self.start_s
        if start is None or self.retire_s is None:
            return None
        return self.retire_s - start

    def phase_bounds(self) -> List[tuple]:
        """Closed sub-spans as ``(phase, start_s, end_s)`` triples.

        Each phase runs until the next phase the request actually
        entered (skipped phases collapse to nothing); the last one ends
        at retirement.  Empty while the span is open.
        """
        if self.retire_s is None:
            return []
        stamps = [("queue", self.queue_s), ("prefill", self.prefill_s),
                  ("transfer", self.transfer_s), ("decode", self.decode_s)]
        entered = [(name, t) for name, t in stamps if t is not None]
        out: List[tuple] = []
        for i, (name, t) in enumerate(entered):
            end = entered[i + 1][1] if i + 1 < len(entered) \
                else self.retire_s
            out.append((name, t, end))
        return out

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class SpanRecorder:
    """Kernel subscriber assembling :class:`RequestSpan` objects.

    Subscribe with :meth:`subscribe` (live) or replay a journal with
    :meth:`fold`; read back with :meth:`completed`, :meth:`span`,
    :attr:`active_count`, and :meth:`summary`.
    """

    def __init__(self, policy: RecordPolicy = RecordPolicy.KEEP_ALL,
                 sample_k: int = 256, sample_seed: int = 0) -> None:
        if sample_k < 1:
            raise ValueError("sample_k must be >= 1")
        self.policy = RecordPolicy(policy)
        self._sample_k = sample_k
        self._sample_seed = sample_seed
        self._active: Dict[int, RequestSpan] = {}
        self._closed: List[RequestSpan] = []
        self._rng: Optional[np.random.Generator] = None
        self.n_closed = 0
        self.status_counts: Dict[str, int] = {}
        #: always-on duration sketches, one per phase plus end-to-end
        self.sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch()
            for name in ("queue", "prefill", "transfer", "decode", "e2e")}

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def _handlers(self) -> tuple:
        return ((PhaseTransition, self._on_phase),
                (AdmissionDecision, self._on_decision),
                (Cancel, self._on_cancel))

    def subscribe(self, kernel: SimKernel) -> None:
        """Attach this recorder to a kernel's event stream."""
        for event_type, handler in self._handlers():
            kernel.subscribe(event_type, handler)

    def fold(self, events: Iterable[Event]) -> "SpanRecorder":
        """Replay recorded events (a kernel journal) through the handlers
        :meth:`subscribe` attaches; returns the recorder."""
        handlers = self._handlers()
        for event in events:
            for event_type, handler in handlers:
                if isinstance(event, event_type):
                    handler(event)
        return self

    # ------------------------------------------------------------------ #
    # event handlers (pure observation)
    # ------------------------------------------------------------------ #
    def _get(self, request_id: int) -> RequestSpan:
        span = self._active.get(request_id)
        if span is None:
            span = RequestSpan(request_id=request_id)
            self._active[request_id] = span
        return span

    def _on_phase(self, event: PhaseTransition) -> None:
        span = self._get(event.request_id)
        if event.model_id:
            span.model_id = event.model_id
        if event.tenant_id is not None:
            span.tenant_id = event.tenant_id
        if event.source is not None:
            span.source = event.source
        if event.phase == "queue" and span.queue_s is None:
            span.queue_s = event.time
        elif event.phase == "prefill" and span.prefill_s is None:
            span.prefill_s = event.time
        elif event.phase == "transfer" and span.transfer_s is None:
            span.transfer_s = event.time
        elif event.phase == "decode" and span.decode_s is None:
            span.decode_s = event.time
        elif event.phase == "retire" and span.retire_s is None:
            span.retire_s = event.time
            span.status = event.status or "finished"
            self._close(span)

    def _on_decision(self, event: AdmissionDecision) -> None:
        span = self._get(event.request_id)
        span.decision = event.decision
        if event.model_id:
            span.model_id = event.model_id
        if event.tenant_id:
            span.tenant_id = event.tenant_id
        if event.decision in ("shed", "rejected") and span.retire_s is None:
            # never reaches an engine: terminal at the verdict itself
            span.queue_s = span.queue_s if span.queue_s is not None \
                else event.time
            span.retire_s = event.time
            span.status = event.decision
            self._close(span)

    def _on_cancel(self, event: Cancel) -> None:
        # published before the retire transition it causes; a request
        # cancelled before it ever queued opens its span here
        self._get(event.request_id).cancel_reason = event.reason

    # ------------------------------------------------------------------ #
    # retention
    # ------------------------------------------------------------------ #
    def _close(self, span: RequestSpan) -> None:
        self._active.pop(span.request_id, None)
        self.n_closed += 1
        self.status_counts[span.status] = \
            self.status_counts.get(span.status, 0) + 1
        for name, start, end in span.phase_bounds():
            self.sketches[name].add(end - start)
        total = span.duration_s()
        if total is not None:
            self.sketches["e2e"].add(total)
        if self.policy is RecordPolicy.KEEP_ALL:
            self._closed.append(span)
        elif self.policy is RecordPolicy.SAMPLE_K:
            self._offer_sample(span)
        # DROP: discard

    def _offer_sample(self, span: RequestSpan) -> None:
        """Algorithm-R reservoir over closed spans (deterministic)."""
        if len(self._closed) < self._sample_k:
            self._closed.append(span)
            return
        if self._rng is None:
            seq = np.random.SeedSequence(
                _SPAN_ENTROPY, spawn_key=(self._sample_seed,))
            self._rng = np.random.Generator(np.random.PCG64(seq))
        j = int(self._rng.integers(0, self.n_closed))
        if j < self._sample_k:
            self._closed[j] = span

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #
    @property
    def active_count(self) -> int:
        """Open (in-flight) spans — O(active) under every policy."""
        return len(self._active)

    def span(self, request_id: int) -> Optional[RequestSpan]:
        """The open span for a live request (closed spans: see
        :meth:`completed`)."""
        return self._active.get(request_id)

    def completed(self) -> List[RequestSpan]:
        """Retained closed spans (all / sampled / none, per policy)."""
        return list(self._closed)

    def summary(self) -> Dict[str, object]:
        """Counts plus per-phase duration quantiles from the sketches."""
        phases: Dict[str, Dict[str, float]] = {}
        for name, sketch in self.sketches.items():
            phases[name] = {"p50_s": sketch.quantile(50.0),
                            "p95_s": sketch.quantile(95.0),
                            "mean_s": sketch.mean}
        return {"n_closed": self.n_closed,
                "n_active": self.active_count,
                "n_retained": len(self._closed),
                "status_counts": dict(sorted(self.status_counts.items())),
                "phases": phases}

    def clear(self) -> None:
        """Fresh timeline: drop every span, counter, and sketch (the
        reservoir reseeds so a reset run resamples identically)."""
        self._active.clear()
        self._closed.clear()
        self._rng = None
        self.n_closed = 0
        self.status_counts.clear()
        for name in list(self.sketches):
            self.sketches[name] = QuantileSketch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecorder(policy={self.policy.value}, "
                f"active={self.active_count}, closed={self.n_closed})")
