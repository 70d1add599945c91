"""Live ops plane: spans, gauges, and scenario drills over kernel events.

The serving stack already publishes a typed event stream through its
:class:`~repro.sim.SimKernel`\\ s; this package turns that stream into
the observability surface a production deployment would have:

* :class:`SpanRecorder` (:mod:`repro.telemetry.spans`) — per-request
  lifecycle spans (``queue → prefill → decode → retire``) with
  tenant/model/replica attributes;
* :class:`GaugeBoard` (:mod:`repro.telemetry.gauges`) — periodic gauge
  snapshots (backlog, occupancy, shed rate, per-tenant SLO attainment,
  replica count) in a bounded ring, consumable mid-run;
* :func:`export_chrome_trace` (:mod:`repro.telemetry.trace_export`) — a
  kernel journal as Chrome ``about:tracing`` JSON, its request slices the
  spans a :class:`SpanRecorder` folds out of that journal;
* :mod:`repro.telemetry.scenarios` — named stress drills (replica
  failure mid-burst, thundering herd, scale-from-zero, noisy neighbor)
  that *assert* recovery invariants instead of just plotting curves.

Wire it by passing ``telemetry=Telemetry(...)`` to the outermost
:class:`~repro.serving.gateway.Gateway` layer; :meth:`Telemetry.attach`
retrofits every layer underneath.  Telemetry is pure
observation: records and replay order are bit-identical with it on,
off, or absent — ``tests/test_telemetry.py`` pins that down.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..serving.base import ServingEngine
from ..serving.gateway import Gateway
from ..sim.events import Event, TelemetryTick
from ..sim.kernel import SimKernel
from .gauges import GaugeBoard, GaugeSnapshot
from .spans import RequestSpan, SpanRecorder
from .trace_export import chrome_trace_events, export_chrome_trace

__all__ = [
    "Telemetry", "SpanRecorder", "RequestSpan", "GaugeBoard",
    "GaugeSnapshot", "chrome_trace_events", "export_chrome_trace",
]

#: default gauge polling period (simulated seconds)
DEFAULT_INTERVAL_S = 1.0


class Telemetry:
    """The live telemetry plane for one serving stack.

    Owns a :class:`~repro.sim.SimKernel` of its own (so journaling the
    telemetry stream never perturbs the serving kernels), a
    :class:`SpanRecorder` subscribed to it, and a :class:`GaugeBoard`
    filled on a :class:`~repro.sim.TelemetryTick` cadence of
    ``interval_s`` simulated seconds (``None`` disables gauge polling;
    spans still record).  Spans are retained under the attached engines'
    ``record_policy``, so ``DROP`` stacks keep span memory O(active).

    Attach by passing the instance as the ``telemetry=`` kwarg of the
    *outermost* gateway; its constructor calls :meth:`attach`, which
    forwards each layer's kernel into this one and points the engines'
    ``on_event`` at it.
    """

    def __init__(self, interval_s: Optional[float] = DEFAULT_INTERVAL_S,
                 journal: bool = False) -> None:
        if interval_s is not None and interval_s <= 0:
            raise ValueError("interval_s must be > 0 (or None to disable)")
        self.kernel = SimKernel(journal=journal)
        self.spans = SpanRecorder()
        self.gauges = GaugeBoard()
        self.interval_s = interval_s
        #: the first ``now`` at which :meth:`advance` has a tick to fire
        self.next_tick_s = math.inf if interval_s is None else interval_s
        self._gateway: Optional[Gateway] = None     # outermost attached
        self._shed_prev: Tuple[float, float] = (0.0, 0.0)
        self.spans.subscribe(self.kernel)

    # ------------------------------------------------------------------ #
    # attachment (called from the gateways' constructors)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _wire_engine(engine: ServingEngine,
                     sink: Callable[[Event], None]) -> None:
        """Point an engine's event hook at ``sink`` (chained after any
        other pre-existing hook)."""
        prev = engine.on_event
        if prev is None or prev == sink:
            engine.on_event = sink
        else:
            chained = prev
            def fanout(event: Event) -> None:
                chained(event)
                sink(event)
            engine.on_event = fanout

    def attach(self, gateway: Gateway) -> None:
        """Wire a gateway and every layer under it (idempotent).

        A layer with a kernel of its own (cluster: spawns, drains, ticks,
        replica engine events; tenancy: admission decisions, bucket
        refills, frontier withdrawals) forwards into the telemetry
        kernel; the engine-owning layer's engines publish into that
        layer's kernel, or straight into the telemetry kernel when it has
        none.  Only event types someone subscribed to (or a journal) are
        built: ``IterationDone``, ``KvTransfer`` and ``BucketRefill`` need
        a subscriber of their own.  Spans are kept under the engines'
        record policy."""
        if gateway.telemetry is self:
            return
        kernel = gateway.kernel
        inner = getattr(gateway, "inner", None)
        if inner is not None:
            self.attach(inner)
        else:
            if self.spans.n_closed == 0:
                self.spans.policy = gateway.record_policy
            sink = self.kernel.emit if kernel is None else kernel.emit
            for engine in gateway.engines():
                self._wire_engine(engine, sink)
        gateway._telemetry = self
        self._gateway = gateway
        if kernel is not None:
            kernel.forward(self.kernel)

    # ------------------------------------------------------------------ #
    # the clock hook (driven by the innermost stepping layer)
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Advance telemetry time to ``now``, firing every due
        :class:`~repro.sim.TelemetryTick` (and gauge snapshot) on the
        way.  The telemetry clock advances *before* each tick is
        emitted, so the sanitizer's no-past-events invariant holds.
        Stepping layers call it only once ``now`` reaches
        :attr:`next_tick_s`: between ticks there is nothing to observe,
        and the telemetry clock waits for the next one."""
        interval = self.interval_s
        if interval is not None:
            while self.next_tick_s <= now:
                t = self.next_tick_s
                self.kernel.clock.advance(t)
                self.kernel.emit(TelemetryTick(time=t))
                self.gauges.record(self._snapshot(t))
                self.next_tick_s = t + interval
        self.kernel.clock.advance(now)

    # ------------------------------------------------------------------ #
    # gauge assembly
    # ------------------------------------------------------------------ #
    def _snapshot(self, t: float) -> GaugeSnapshot:
        gateway = self._gateway
        if gateway is None:
            raise RuntimeError("gauge snapshots need an attached gateway; "
                               "pass telemetry= to one or call attach()")
        engines = gateway.engines()
        backlog = gateway.backlog
        queued = 0
        shed_rate = 0.0
        attainment: Dict[str, float] = {}
        controller = gateway.controller
        if controller is not None:
            queued = controller.total_queued
            backlog += queued
            shed_total = float(sum(s.shed + s.rejected
                                   for s in controller.stats.values()))
            prev_t, prev_shed = self._shed_prev
            if t > prev_t:
                shed_rate = (shed_total - prev_shed) / (t - prev_t)
            self._shed_prev = (t, shed_total)
            for tid in sorted(controller.stats):
                stats = controller.stats[tid]
                if not stats.offered:
                    attainment[tid] = 1.0
                    continue
                slo_s = controller.tenant(tid).slo_s
                met = sum(e.metrics.tenant_ttft_met_count(tid, slo_s)
                          for e in engines)
                attainment[tid] = met / stats.offered

        batch = kv = 0.0
        if engines:
            utils = [e.utilization() for e in engines]
            batch = sum(u["batch_occupancy"] for u in utils) / len(utils)
            kv = sum(u["kv_occupancy"] for u in utils) / len(utils)
        n_retired = sum(e.metrics.n_observed for e in engines)
        lookups = sum(e.stats.prefix_lookups for e in engines)
        hits = sum(e.stats.prefix_hits for e in engines)
        saved = sum(e.stats.prefix_hit_tokens for e in engines)
        pools: Dict[str, float] = {}
        pooled = [e for e in engines if hasattr(e, "pool_gauges")]
        for engine in pooled:
            for key, value in engine.pool_gauges().items():
                pools[key] = pools.get(key, 0.0) + value
        if len(pooled) > 1:
            # occupancies are means per engine; keep them a mean overall
            for key in ("prefill_occupancy", "decode_occupancy"):
                pools[key] = pools.get(key, 0.0) / len(pooled)
        return GaugeSnapshot(
            time_s=t, backlog=backlog, unfinished=gateway.unfinished,
            queued_at_admission=queued, n_replicas=gateway.n_replicas,
            batch_occupancy=batch, kv_occupancy=kv,
            shed_rate_per_s=shed_rate, n_retired=n_retired,
            spans_active=self.spans.active_count,
            prefix_hit_rate=hits / lookups if lookups else 0.0,
            prefix_saved_tokens=saved,
            prefill_workers=pools.get("prefill_workers", 0.0),
            decode_workers=pools.get("decode_workers", 0.0),
            prefill_occupancy=pools.get("prefill_occupancy", 0.0),
            decode_occupancy=pools.get("decode_occupancy", 0.0),
            prefill_backlog=pools.get("prefill_backlog", 0.0),
            decode_backlog=pools.get("decode_backlog", 0.0),
            attainment=attainment)

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #
    def latest(self) -> Optional[GaugeSnapshot]:
        """The most recent gauge snapshot (None before the first tick)."""
        return self.gauges.latest()

    def series(self, key: Optional[str] = None) -> List[object]:
        """Retained snapshots (or one gauge's values) in time order."""
        return self.gauges.series(key)

    def summary(self) -> Dict[str, object]:
        """One dict for dashboards/tests: span + gauge state so far."""
        latest = self.latest()
        return {"spans": self.spans.summary(),
                "n_snapshots": len(self.gauges),
                "latest": None if latest is None else latest.as_dict()}

    def reset(self) -> None:
        """Fresh timeline (idempotent; every wired layer's ``reset()``
        calls this, and layers share one telemetry instance)."""
        self.kernel.reset()
        self.spans.clear()
        self.gauges.clear()
        self.next_tick_s = math.inf if self.interval_s is None \
            else self.interval_s
        self._shed_prev = (0.0, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Telemetry(interval_s={self.interval_s}, "
                f"snapshots={len(self.gauges)}, "
                f"spans_closed={self.spans.n_closed})")
