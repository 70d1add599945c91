"""Typed simulation events shared by every serving layer.

The serving stack is a discrete-event simulation; these dataclasses are
the vocabulary of that simulation.  Each event carries the simulated
``time`` it is scheduled for (or occurred at) and a ``sort_key`` used to
break ties deterministically — request-carrying events tie-break on the
request id, exactly matching the ``(arrival_s, request_id)`` heap tuples
the layers used before the kernel existed, so replay order is unchanged.

Producers and consumers:

* :class:`Arrival` — a request approaching a queue frontier.  Engines
  hold their not-yet-arrived submissions as ``Arrival`` events; the
  cluster holds unrouted trace requests; the admission layer holds
  offered-but-not-yet-due requests.
* :class:`IterationDone` — one executed engine iteration.  Emitted by
  :class:`~repro.serving.base.ServingEngine` through ``on_event`` for
  cross-layer instrumentation (the kernel journal, tests, benchmarks).
* :class:`BucketRefill` — a deferred request's token bucket becomes
  solvent.  Emitted by the admission controller so the tenancy frontier
  knows when to wake an otherwise idle system.
* :class:`Cancel` — a request leaves the system before finishing, either
  because its client gave up (``reason="cancel"``) or because its
  deadline passed (``reason="deadline"``).  Engines hold scheduled
  cancellations in an :class:`~repro.sim.EventQueue` next to their
  arrivals, so cancellation and deadline expiry happen at deterministic
  simulated times — replay with the same cancel schedule is
  record-identical, and replay with no cancels is bit-identical to a
  pre-cancellation run.
* :class:`AutoscalerTick` — the next scheduled controller observation.
  The cluster gateway schedules one tick ahead instead of polling the
  controller after every step.
* :class:`ReplicaSpawn` / :class:`ReplicaDrain` — replica-set changes,
  journaled so a run's scaling history is reconstructible from events.
* :class:`PhaseTransition` — a request crossing a lifecycle boundary
  (``queue → prefill [→ transfer] → decode → retire``).  Emitted by
  :class:`~repro.serving.base.ServingEngine` (and by the tenancy
  frontier for shed/rejected requests that never reach an engine) so the
  telemetry layer can assemble per-request spans without scraping
  per-request state.  The ``transfer`` phase only appears under
  disaggregated serving, between prefill completing on one pool and
  decode starting on the other.
* :class:`KvTransfer` — a request's KV blocks moving from its prefill
  worker to its decode worker over the interconnect.  Emitted by
  :class:`~repro.serving.disagg.DisaggregatedEngine` with the priced
  byte count (uncached suffix only when the prefix cache held the
  shared prefix) so journals and benchmarks can audit transfer cost
  against the hardware transfer model.
* :class:`AdmissionDecision` — the admission controller's verdict on one
  offered request (admitted / deferred / shed / rejected), emitted by
  :class:`~repro.serving.tenancy.AdmissionController`.
* :class:`TelemetryTick` — a periodic gauge-snapshot poll scheduled by
  :class:`~repro.telemetry.Telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Event", "Arrival", "Cancel", "IterationDone", "BucketRefill",
    "AutoscalerTick", "ReplicaSpawn", "ReplicaDrain",
    "PhaseTransition", "AdmissionDecision", "TelemetryTick",
    "KvTransfer",
]


@dataclass(frozen=True)
class Event:
    """Base class: anything with a scheduled simulated time."""

    time: float

    #: tie-break rank among events at the same time (requests use their id)
    @property
    def sort_key(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Arrival(Event):
    """A request reaching a frontier (engine queue, router, admission)."""

    request: Any = None   # TraceRequest or ServingRequest (duck-typed)

    @property
    def sort_key(self) -> float:
        return self.request.request_id

    @property
    def request_id(self) -> int:
        return self.request.request_id


@dataclass(frozen=True)
class Cancel(Event):
    """A request is withdrawn at ``time``: client cancel or deadline.

    ``reason`` is ``"cancel"`` (the client gave up — the impatient-client
    workload model, an explicit :meth:`RequestHandle.cancel`) or
    ``"deadline"`` (the request's ``deadline_s`` passed before it
    finished).  A ``Cancel`` whose target already reached a terminal
    state is *stale* and ignored wherever it surfaces.
    """

    request_id: int = -1
    reason: str = "cancel"       # "cancel" | "deadline"

    @property
    def sort_key(self) -> float:
        return self.request_id


@dataclass(frozen=True)
class IterationDone(Event):
    """One executed engine iteration (time = clock after the iteration)."""

    iter_time_s: float = 0.0
    load_time_s: float = 0.0
    n_running: int = 0
    n_admitted: int = 0
    n_finished: int = 0
    source: Optional[str] = field(default=None, compare=False)


@dataclass(frozen=True)
class BucketRefill(Event):
    """A deferred request's per-tenant token bucket refills at ``time``."""

    tenant_id: str = ""
    request_id: Optional[int] = None

    @property
    def sort_key(self) -> float:
        return -1.0 if self.request_id is None else self.request_id


@dataclass(frozen=True)
class AutoscalerTick(Event):
    """The autoscaler's next scheduled observation of the cluster."""


@dataclass(frozen=True)
class ReplicaSpawn(Event):
    """A replica joined (or was revived into) the active set."""

    replica_id: int = -1
    revived: bool = False


@dataclass(frozen=True)
class ReplicaDrain(Event):
    """A replica stopped accepting new work and will retire when idle."""

    replica_id: int = -1


@dataclass(frozen=True)
class PhaseTransition(Event):
    """A request entered lifecycle ``phase`` at ``time``.

    Phases: ``"queue"`` (arrived at an engine queue), ``"prefill"``
    (first scheduled into a batch), ``"decode"`` (first output token),
    ``"retire"`` (reached a terminal state — ``status`` carries the
    terminal :class:`~repro.serving.request.RequestState` value, e.g.
    ``"finished"`` / ``"cancelled"`` / ``"expired"``).  ``source`` names
    the emitting engine/frontier and never participates in equality, so
    replay comparisons ignore which replica happened to host the span.
    """

    request_id: int = -1
    #: "queue" | "prefill" | "transfer" | "decode" | "retire"
    #: ("transfer" appears only under disaggregated serving)
    phase: str = "queue"
    model_id: str = ""
    tenant_id: Optional[str] = None
    status: str = ""          # terminal state value, retire only
    source: Optional[str] = field(default=None, compare=False)

    @property
    def sort_key(self) -> float:
        return self.request_id

    @classmethod
    def of(cls, request: Any, phase: str, time: float,
           source: Optional[str], status: str = "") -> "PhaseTransition":
        """``request`` (anything with ``request_id`` / ``model_id`` /
        ``tenant_id``) entering ``phase`` at ``time``."""
        return cls(time=time, request_id=request.request_id, phase=phase,
                   model_id=request.model_id, tenant_id=request.tenant_id,
                   status=status, source=source)


@dataclass(frozen=True)
class KvTransfer(Event):
    """A request's KV blocks crossing the prefill→decode interconnect.

    ``time`` is when the transfer *starts* (prefill completion);
    ``transfer_s`` is the priced interconnect occupancy, so the decode
    pool sees the request arrive at ``time + transfer_s``.  ``nbytes``
    covers only the uncached KV suffix: when the prefix cache already
    holds the request's shared prefix on the decode side the cached
    blocks never cross the wire.  ``src``/``dst`` name the pool workers
    and never participate in equality, so replay comparisons ignore
    which worker pair happened to carry the request.
    """

    request_id: int = -1
    model_id: str = ""
    nbytes: int = 0
    transfer_s: float = 0.0
    tokens: int = 0           # KV token rows moved (uncached suffix)
    cached_tokens: int = 0    # prefix tokens that skipped the wire
    src: Optional[str] = field(default=None, compare=False)
    dst: Optional[str] = field(default=None, compare=False)

    @property
    def sort_key(self) -> float:
        return self.request_id


@dataclass(frozen=True)
class AdmissionDecision(Event):
    """The admission controller's verdict on one offered request.

    ``decision`` is the string value of the tenancy layer's decision
    enum: ``"admitted"`` / ``"deferred"`` / ``"shed"`` / ``"rejected"``.
    """

    request_id: int = -1
    tenant_id: str = ""
    decision: str = ""
    model_id: str = ""

    @property
    def sort_key(self) -> float:
        return self.request_id


@dataclass(frozen=True)
class TelemetryTick(Event):
    """A periodic gauge-snapshot poll on the telemetry timeline."""
