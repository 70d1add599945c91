"""Discrete-event simulation kernel shared by every serving layer.

Before this package the repo had four hand-rolled clocks: the engine's
per-iteration float, the cluster's min-scan over replica clocks, the
tenancy layer's derived admission frontier, and the token bucket's
private refill clock.  ``repro.sim`` is the single authority they now
share:

* :class:`SimClock` — a point in simulated time with monotone advance;
* :class:`EventQueue` — a deterministic min-heap of typed events with
  ``peek_time`` idle-skip and O(log n) future-event counting;
* typed events (:class:`Arrival`, :class:`IterationDone`,
  :class:`BucketRefill`, :class:`AutoscalerTick`, :class:`ReplicaSpawn`,
  :class:`ReplicaDrain`) — the simulation's shared vocabulary;
* :class:`SimKernel` — clock + event journal + subscribers for a
  timeline owner (the cluster gateway, the tenancy frontier).

Layer mapping: :class:`~repro.serving.base.ServingEngine` sources
arrivals and stall-jumps from an :class:`EventQueue` on a
:class:`SimClock`; :class:`~repro.serving.cluster.ClusterGateway` owns a
:class:`SimKernel` whose clock is the cluster frontier and schedules
:class:`AutoscalerTick` events instead of polling;
:class:`~repro.serving.tenancy.TenantGateway` queues offered requests as
:class:`Arrival` events and learns bucket wake-ups from
:class:`BucketRefill` events the admission controller emits.
"""

from .clock import SimClock
from .events import (AdmissionDecision, Arrival, AutoscalerTick, BucketRefill,
                     Cancel, Event, IterationDone, KvTransfer,
                     PhaseTransition, ReplicaDrain, ReplicaSpawn,
                     TelemetryTick)
from .kernel import ForwardingCycleError, SimKernel
from .queue import EventQueue, KeyedHeap
from .sanitizer import SimSanitizerError, new_clock
from .trace_export import chrome_trace_events, export_chrome_trace

__all__ = [
    "SimClock", "EventQueue", "KeyedHeap", "SimKernel",
    "ForwardingCycleError",
    "Event", "Arrival", "Cancel", "IterationDone", "BucketRefill",
    "AutoscalerTick", "ReplicaSpawn", "ReplicaDrain",
    "PhaseTransition", "AdmissionDecision", "TelemetryTick", "KvTransfer",
    "SimSanitizerError", "new_clock",
    "chrome_trace_events", "export_chrome_trace",
]
