"""Export a :class:`~repro.sim.SimKernel` journal as Chrome tracing JSON.

``SimKernel(journal=True)`` records every typed event that crossed a
timeline — engine iterations, replica spawns/drains, autoscaler ticks,
bucket refills, cancellations and per-request phase transitions (a
journal wants every event type, so producers build them all for it).
This module renders that journal in the Chrome ``about:tracing`` /
Perfetto JSON format, so a run's scheduling history can be opened in
``chrome://tracing`` and inspected visually.

Mapping: :class:`~repro.sim.IterationDone` becomes a complete ("X") span
on its source engine's track.  Request lifecycles are the
:class:`~repro.telemetry.spans.RequestSpan` objects a
:class:`SpanRecorder` folds out of the same journal: each closed span
draws as *nested* "X" slices — one outer request slice carrying its
status and
tenant/variant/replica/cancel-reason args, with its
``queue``/``prefill``/``transfer``/``decode`` phase bounds under it — on
a per-request track.  Everything else renders as an instant ("i") event;
cancellations are attributed to the originating tenant when the journal
identifies one.  Simulated seconds become trace microseconds.  The CLI
``cluster`` and ``tenancy`` subcommands expose this through
``--trace-out``.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Union

from ..sim.events import (AdmissionDecision, Arrival, AutoscalerTick,
                          BucketRefill, Cancel, Event, IterationDone,
                          KvTransfer, PhaseTransition, ReplicaDrain,
                          ReplicaSpawn, TelemetryTick)
from .spans import RequestSpan, SpanRecorder

__all__ = ["chrome_trace_events", "export_chrome_trace"]

_US = 1e6      # simulated seconds -> trace microseconds


def _instant(name: str, time_s: float, tid: str, **args: object) -> dict:
    return {"name": name, "ph": "i", "ts": time_s * _US, "pid": 0,
            "tid": tid, "s": "t", "args": args}


def _slice(name: str, start_s: float, end_s: float, tid: str,
           **args: object) -> dict:
    return {"name": name, "ph": "X", "ts": start_s * _US,
            "dur": max(0.0, end_s - start_s) * _US, "pid": 0,
            "tid": tid, "args": args}


def _request_slices(span: RequestSpan) -> List[dict]:
    """Nested "X" slices for one closed span (none if it never entered
    a phase)."""
    bounds = span.phase_bounds()
    if not bounds:
        return []
    rid = span.request_id
    args: Dict[str, object] = {"request_id": rid, "status": span.status}
    if span.tenant_id is not None:
        args["tenant"] = span.tenant_id
    if span.model_id:
        args["variant"] = span.model_id
    if span.source is not None:
        args["replica"] = span.source
    if span.cancel_reason is not None:
        args["cancel_reason"] = span.cancel_reason
    tid = f"req:{rid}"
    out = [_slice(span.model_id or f"request-{rid}", bounds[0][1],
                  span.retire_s, tid, **args)]
    for name, start, end in bounds:
        out.append(_slice(name, start, end, tid, request_id=rid))
    return out


def chrome_trace_events(journal: Iterable[Event]) -> List[dict]:
    """Chrome ``traceEvents`` dicts for a journal.

    Journal order is preserved for the instant/engine events; the
    request slices of every closed span follow, by request id.
    :class:`~repro.sim.PhaseTransition` events render only through those
    spans (an instant per transition would bury the trace).
    """
    journal = list(journal)
    spans = SpanRecorder().fold(journal)
    closed = sorted(spans.completed(), key=lambda span: span.request_id)
    by_id = {span.request_id: span for span in closed}
    out: List[dict] = []
    for event in journal:
        if isinstance(event, IterationDone):
            span = event.iter_time_s + event.load_time_s
            out.append({
                "name": "iteration", "ph": "X",
                "ts": (event.time - span) * _US, "dur": span * _US,
                "pid": 0, "tid": event.source or "engine",
                "args": {"iter_time_s": event.iter_time_s,
                         "load_time_s": event.load_time_s,
                         "n_running": event.n_running,
                         "n_admitted": event.n_admitted,
                         "n_finished": event.n_finished}})
        elif isinstance(event, Cancel):
            target = by_id.get(event.request_id) or \
                spans.span(event.request_id)
            extra: Dict[str, object] = {}
            if target is not None and target.tenant_id is not None:
                extra["tenant"] = target.tenant_id
            out.append(_instant(f"cancel:{event.reason}", event.time,
                                "cancel", request_id=event.request_id,
                                **extra))
        elif isinstance(event, ReplicaSpawn):
            out.append(_instant("spawn", event.time, "replicas",
                                replica_id=event.replica_id,
                                revived=event.revived))
        elif isinstance(event, ReplicaDrain):
            out.append(_instant("drain", event.time, "replicas",
                                replica_id=event.replica_id))
        elif isinstance(event, BucketRefill):
            out.append(_instant("bucket-refill", event.time,
                                f"tenant:{event.tenant_id}",
                                request_id=event.request_id))
        elif isinstance(event, KvTransfer):
            out.append(_slice("kv-transfer", event.time,
                              event.time + event.transfer_s, "kv-transfer",
                              request_id=event.request_id,
                              variant=event.model_id, nbytes=event.nbytes,
                              tokens=event.tokens,
                              cached_tokens=event.cached_tokens,
                              src=event.src, dst=event.dst))
        elif isinstance(event, AutoscalerTick):
            out.append(_instant("autoscaler-tick", event.time, "autoscaler"))
        elif isinstance(event, AdmissionDecision):
            out.append(_instant(f"admission:{event.decision}", event.time,
                                f"tenant:{event.tenant_id}",
                                request_id=event.request_id,
                                variant=event.model_id))
        elif isinstance(event, TelemetryTick):
            out.append(_instant("telemetry-tick", event.time, "telemetry"))
        elif isinstance(event, PhaseTransition):
            pass    # drawn through the closed spans below
        elif isinstance(event, Arrival):
            out.append(_instant("arrival", event.time, "arrivals",
                                request_id=event.request_id))
        else:  # future event types still land on a generic track
            out.append(_instant(type(event).__name__, event.time, "events"))
    for span in closed:
        out.extend(_request_slices(span))
    return out


def export_chrome_trace(journal: Iterable[Event],
                        path_or_file: Union[str, IO[str]]) -> int:
    """Write the journal as ``about:tracing`` JSON; returns event count."""
    events = chrome_trace_events(journal)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as f:
            json.dump(payload, f)
    else:
        json.dump(payload, path_or_file)
    return len(events)
