"""Layer tracer for the perf ledger: spans around the layers' public calls.

No file under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces, at class (or module) level, each function named in
:data:`TARGETS` with a wrapper that records one span per call — name,
start, end, parent span, and the ``request_id`` when the call has one —
and :meth:`Tracer.remove` puts the original objects back.  Spans are
aggregated in memory per ``(name, parent name)`` into ``[calls, busy
seconds, self seconds]``; the first :data:`RAW_SPAN_LIMIT` are also kept
raw for a Chrome trace.

*busy* is the time inside the wrapped call; *self* is busy minus the
time its child spans cover.  Every span lies inside the root span that
:meth:`Tracer.record` opens, so self times partition the root's duration
exactly: nothing is unaccounted or counted twice.  The cost of the
wrappers themselves, and of the counting probes some of them carry,
lands in the *caller's* self time; ``host.trace_overhead_ratio`` says how
much that is in total.

Install *before* the serving stack is built: several layers capture
bound methods at construction (``engine.on_event = kernel.emit``), and a
method captured before the swap would bypass its wrapper.  Recording is
off until :meth:`Tracer.record` turns it on, so construction-time calls
are not counted.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS", "ROOT", "RAW_SPAN_LIMIT"]

ROOT = "workload.replay"
RAW_SPAN_LIMIT = 10_000


def _rid_of_arg(args: tuple) -> Optional[int]:
    """``request_id`` of the first positional argument after ``self``."""
    return getattr(args[1], "request_id", None) if len(args) > 1 else None


def _rid_of_self(args: tuple) -> Optional[int]:
    return getattr(args[0], "request_id", None)


def _rid_arg(args: tuple) -> Optional[int]:
    return int(args[1]) if len(args) > 1 else None


# probes: run after the span closed, on (tracer, args, result) ----------- #
def _probe_schedule(tracer: "Tracer", args: tuple, result) -> None:
    # queue length seen by this call = still queued + just admitted
    counters = tracer.counters
    admitted = len(result.admitted)
    counters["scheduler.admitted"] += admitted
    counters["scheduler.queue_len"] += len(args[0]) + admitted


def _probe_iteration_time(tracer: "Tracer", args: tuple, result) -> None:
    batch = args[1]
    key = (id(args[0]), args[2:],
           tuple(sorted(batch.decode_per_delta.items())),
           tuple(sorted(batch.prefill_tokens_per_delta.items())),
           batch.context_tokens)
    seen = tracer.seen_batches
    if key in seen:
        tracer.counters["costs.repeat_batches"] += 1
    else:
        seen.add(key)


def _probe_choose(tracer: "Tracer", args: tuple, result) -> None:
    model_id = args[1]
    last = tracer.last_replica
    if last.get(model_id) == result.id:
        tracer.counters["cluster.sticky_routes"] += 1
    last[model_id] = result.id


def _probe_emit(tracer: "Tracer", args: tuple, result) -> None:
    by_kernel = tracer.emits_by_kernel
    key = id(args[0])
    by_kernel[key] = by_kernel.get(key, 0) + 1


def _probe_prefix_insert(tracer: "Tracer", args: tuple, result) -> None:
    blocks = args[0].n_blocks
    if blocks > tracer.counters["prefix.blocks_peak"]:
        tracer.counters["prefix.blocks_peak"] = blocks


#: (module, class or None for a module-level function, attribute, span
#: name, request-id extractor, probe).  A class entry also wraps every
#: subclass that overrides the attribute, under the same span name unless
#: a later entry names that subclass itself.
TARGETS: Tuple[tuple, ...] = (
    ("repro.sim.kernel", "SimKernel", "emit", "sim.emit", None, _probe_emit),
    ("repro.sim.queue", "EventQueue", "push", "sim.queue_push", None, None),
    ("repro.serving.gateway", "ServingGateway", "ingest",
     "gateway.ingest", _rid_of_arg, None),
    ("repro.serving.gateway", "ServingGateway", "replay",
     "gateway.replay", None, None),
    ("repro.serving.gateway", "ServingGateway", "step",
     "gateway.step", None, None),
    ("repro.serving.gateway", "ServingGateway", "result",
     "metrics.read", None, None),
    ("repro.serving.base", "ServingEngine", "step", "engine.step",
     None, None),
    ("repro.serving.base", "ServingEngine", "admit", "engine.admit",
     None, None),
    ("repro.serving.base", "ServingEngine", "iteration_cost",
     "engine.iteration_cost", None, None),
    ("repro.serving.base", "ServingEngine", "retire", "engine.retire",
     None, None),
    ("repro.serving.disagg", "DisaggregatedEngine", "step", "disagg.step",
     None, None),
    ("repro.serving.disagg", None, "plan_kv_transfer", "disagg.plan",
     None, None),
    ("repro.serving.scheduler", "ContinuousBatchScheduler", "schedule",
     "scheduler.schedule", None, _probe_schedule),
    ("repro.serving.scheduler", "ContinuousBatchScheduler", "add",
     "scheduler.add", _rid_of_arg, None),
    ("repro.serving.scheduler", "ContinuousBatchScheduler", "reinsert",
     "scheduler.reinsert", _rid_of_arg, None),
    ("repro.serving.costs", "IterationCostModel", "iteration_time",
     "costs.iteration_time", None, _probe_iteration_time),
    ("repro.serving.streaming_metrics", "StreamingMetrics", "observe",
     "metrics.observe", _rid_of_arg, None),
    ("repro.serving.request", "ServingRequest", "record",
     "metrics.record", _rid_of_self, None),
    ("repro.serving.metrics", "ServingResult", "merge", "metrics.merge",
     None, None),
    ("repro.serving.cluster", "ClusterGateway", "step", "cluster.step",
     None, None),
    ("repro.serving.cluster", "ClusterGateway", "replay", "cluster.replay",
     None, None),
    ("repro.serving.cluster", "ClusterGateway", "ingest", "cluster.ingest",
     _rid_of_arg, None),
    ("repro.serving.cluster", "ClusterGateway", "result", "metrics.read",
     None, None),
    ("repro.serving.cluster", "ClusterGateway", "spawn_replica",
     "cluster.spawn", None, None),
    ("repro.serving.cluster", "ClusterGateway", "drain_replica",
     "cluster.drain", None, None),
    ("repro.serving.cluster", "LoadBalancer", "choose", "cluster.choose",
     None, _probe_choose),
    ("repro.serving.cluster", "Autoscaler", "control",
     "cluster.autoscaler", None, None),
    ("repro.serving.tenancy", "TenantGateway", "step", "tenancy.step",
     None, None),
    ("repro.serving.tenancy", "TenantGateway", "replay", "tenancy.replay",
     None, None),
    ("repro.serving.tenancy", "TenantGateway", "result", "metrics.read",
     None, None),
    ("repro.serving.tenancy", "AdmissionController", "offer",
     "tenancy.offer", _rid_of_arg, None),
    ("repro.serving.tenancy", "AdmissionController", "pop", "tenancy.pop",
     None, None),
    ("repro.serving.tenancy", "AdmissionController", "cancel",
     "tenancy.cancel", _rid_arg, None),
    ("repro.serving.tenancy", "AdmissionController", "refund_unserved",
     "tenancy.refund", _rid_of_arg, None),
    ("repro.serving.prefix_cache", "PrefixCache", "lookup",
     "prefix.lookup", None, None),
    ("repro.serving.prefix_cache", "PrefixCache", "insert",
     "prefix.insert", None, _probe_prefix_insert),
    # imported by name into engine.py, so that binding is the one to swap
    ("repro.serving.engine", None, "prefix_block_keys",
     "prefix.block_keys", None, None),
    ("repro.telemetry", "Telemetry", "advance", "telemetry.advance",
     None, None),
    # the benchmark's own client code, so its time is not charged to the
    # engine step that calls back into it
    ("workloads", None, "read_summary", "metrics.read", None, None),
    ("workloads", "ClosedLoop", "on_complete", "workload.on_complete",
     _rid_of_arg, None),
    ("workloads", "RecordDigest", "observe", "workload.digest",
     _rid_of_arg, None),
)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder over :data:`TARGETS`; see the module docstring."""

    def __init__(self) -> None:
        self._installed: List[Tuple[object, str, object]] = []
        self._names: List[str] = [ROOT]
        self._index: Dict[str, int] = {ROOT: 0}
        self._enabled = False
        self._stack: List[list] = []
        self._reset()

    def _reset(self) -> None:
        #: (span index, parent index) -> [calls, busy_s, self_s]
        self.cells: Dict[Tuple[int, int], list] = {}
        #: first spans as (span index, start, end, parent index, request id)
        self.raw: List[tuple] = []
        self.counters: Dict[str, float] = {
            "scheduler.admitted": 0, "scheduler.queue_len": 0,
            "costs.repeat_batches": 0, "cluster.sticky_routes": 0,
            "prefix.blocks_peak": 0}
        self.seen_batches: set = set()
        self.last_replica: Dict[str, int] = {}
        self.emits_by_kernel: Dict[int, int] = {}
        self.root_s = 0.0

    # ------------------------------------------------------------------ #
    # install / remove
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        claimed = {(module, cls, attr)
                   for module, cls, attr, *_ in TARGETS if cls is not None}
        for module_name, cls_name, attr, span, rid_of, probe in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                self._swap(module, attr, span, rid_of, probe)
                continue
            cls = getattr(module, cls_name)
            owners = [cls] + [
                sub for sub in _subclasses(cls)
                if (sub.__module__, sub.__name__, attr) not in claimed]
            for owner in owners:
                if attr in vars(owner):
                    self._swap(owner, attr, span, rid_of, probe)

    def remove(self) -> None:
        """Put every original object back (identity-restoring)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._enabled = False

    def _swap(self, owner: object, attr: str, span: str,
              rid_of: Optional[Callable], probe: Optional[Callable]) -> None:
        if any(o is owner and a == attr for o, a, _ in self._installed):
            return      # reached twice through the subclass walk
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrap(original.__func__, span, rid_of, probe))
        elif callable(original) and not isinstance(original, staticmethod):
            wrapped = self._wrap(original, span, rid_of, probe)
        else:
            raise TypeError(f"{owner!r}.{attr} is not a function")
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def _span_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self._names)
            self._names.append(name)
        return idx

    def _wrap(self, fn: Callable, span: str, rid_of: Optional[Callable],
              probe: Optional[Callable]) -> Callable:
        idx = self._span_index(span)
        tracer = self
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                parent = stack[-1]
                parent[1] += busy
                key = (idx, parent[0])
                cell = tracer.cells.get(key)
                if cell is None:
                    tracer.cells[key] = [1, busy, busy - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += busy
                    cell[2] += busy - frame[1]
                if len(tracer.raw) < RAW_SPAN_LIMIT:
                    tracer.raw.append(
                        (idx, start, end, parent[0],
                         rid_of(args) if rid_of is not None else None))
            if probe is not None and parent[0] != idx:
                # outermost calls only: a balancer delegating to its
                # fallback must not count one routing decision twice
                probe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def record(self) -> Iterator[None]:
        """Open the root span; everything traced inside is recorded."""
        self._reset()
        root = [0, 0.0]
        self._stack[:] = [root]
        self._enabled = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._enabled = False
            self.root_s = end - start
            self.cells[(0, -1)] = [1, self.root_s, self.root_s - root[1]]
            if len(self._stack) != 1:
                raise RuntimeError("unbalanced spans at the end of the run")
            self.raw.insert(0, (0, start, end, -1, None))

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_s (outermost calls only, so a
        method that calls its own override is not counted twice) and
        self_s, plus calls and busy under each parent."""
        out: Dict[str, Dict[str, float]] = {}
        for (idx, parent), (calls, busy, self_s) in self.cells.items():
            name = self._names[idx]
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "nested_calls": 0})
            row["self_s"] += self_s
            if parent == idx:
                row["nested_calls"] += calls
            else:
                row["calls"] += calls
                row["busy_s"] += busy
            if parent >= 0:
                row[f"calls_under.{self._names[parent]}"] = \
                    row.get(f"calls_under.{self._names[parent]}", 0) + calls
        return out

    def chrome_trace(self) -> List[dict]:
        """The raw spans as Chrome ``traceEvents`` (microseconds from the
        root's start; the parent and request id ride in ``args``)."""
        if not self.raw:
            return []
        origin = self.raw[0][1]
        events = []
        for idx, start, end, parent, rid in self.raw:
            args = {"parent": self._names[parent] if parent >= 0 else None}
            if rid is not None:
                args["request_id"] = rid
            events.append({"name": self._names[idx], "ph": "X", "pid": 0,
                           "tid": 0, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        return events

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_trace()}, fh)
