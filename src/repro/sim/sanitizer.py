"""Runtime sim-sanitizer: dynamic determinism checks for the sim kernel.

simlint (:mod:`repro.analysis`) enforces the repo's determinism rules
*statically*; this module asserts their dynamic counterparts while a
simulation runs.  Enable it with ``REPRO_SIM_SANITIZE=1`` (read at
import; tests can toggle with the :func:`sanitized` context manager) and
every :class:`~repro.sim.SimKernel` self-installs the checks at
construction.  The switch, :class:`SanitizedClock` and :func:`new_clock`
live in :mod:`repro.sim.clock` (re-exported here), so the serving layers
load this module only once a check runs:

* **monotone clock per timeline** — a sanitized clock rejects negative
  ``tick`` durations; ``advance`` is structurally monotone and
  ``reseat`` is the one audited escape hatch (SIM004's runtime twin);
* **no event scheduled in the past** — ``kernel.emit`` rejects
  kernel-timeline events (autoscaler ticks, replica spawns/drains)
  whose time precedes the kernel clock, and requires every event time
  to be finite; events published from *replica* timelines may lag the
  ratcheted kernel clock by design, so their monotonicity is enforced
  by the sanitized per-timeline clocks instead;
* **no second terminal transition** — a :class:`Cancel` crossing the
  kernel for a request that already terminated raises, as does a
  :class:`~repro.serving.handle.RequestHandle` finishing twice;
* **token-bucket conservation** — charge/refund amounts are finite and
  non-negative, the level never exceeds ``burst``, cumulative refunds
  never exceed cumulative charges (cancel-refund symmetry), and a
  charge never yields an eligibility earlier than the charge time;
* **running-batch ledger conservation** — after every executed engine
  iteration and every cancellation, the incremental totals of the
  engine's :class:`~repro.serving.base.RunningBatch` equal a brute-force
  recomputation from its member requests;
* **release at retirement** — once the engine's own cleanup has run, a
  retired or aborted request is in no ``_live`` map, queue, batch or
  finish bucket, holds no prefix chain, and no queued cancel of its id
  would hit a live request; a cluster routes no terminal id;
* **steady-state reuse** — an engine that skips ``schedule()`` because
  neither its batch nor its queue changed, or re-prices only attention
  on the last pure-decode plan, re-derives both the slow way: the fresh
  verdict must still admit and load nothing, and the recomposed batch
  must price to the same float, exactly;
* **cluster frontier ledger** — after every ``ClusterGateway.step`` and
  routed ingest, no busy replica's key over-estimates its clock, the
  ledger's least busy replica is the brute-force ``(clock, id)``
  minimum, and the active-replica counter equals a recount;
* **replica-set node census** — after every grow / shrink / reap of a
  cluster gateway's :class:`~repro.serving.cluster.ReplicaSet`, the
  draining counter equals a recount, every live member
  holds its own allocated node, no retired member's node is still
  allocated, and the cluster's free count is its size minus the live
  members;
* **fused sink write** — after every ``StreamingMetrics.observe``, the
  latencies and bin keys it computed once and shared across sketches
  equal the record's own properties and the bin rule applied per value;
* **exact aggregates on read** — whenever a ``ServingResult`` answers
  from its sink's integer counters instead of re-summing its records,
  the re-sum gives the same integers;
* **epoch ledger** — what ``leave()`` materialises equals a shadow
  ``(generated_tokens, inference_s)`` per batch member, updated every
  iteration the way the loop the ledger replaced did;
* **coasted runs** — a stretch of iterations run without stepping is
  re-derived the slow way: a fresh ``schedule()`` admits nothing, every
  price equals the recomposed batch's at that context, no member finished
  inside it, no arrival or live cancel was due at an iteration start;
* **horizon coasting** — a member a drain loop let coast is heard by
  nobody per iteration, started every iteration before each event its
  parent acts on (an unrouted arrival, an autoscaler tick, a busy prefill
  or waiting decode worker's clock) and its cap, retired nothing, and left
  what its parent holds alone (the cluster's bookkeeping at the new
  frontier, the disagg handoffs);
* **cost-model memos** — every served per-count column equals
  ``sbmm_time`` on a one-delta batch, and every memoised pass total a
  cold model's price of the same rows;
* **prefix-cache structure** — after every mutating call, children are
  filed where their parent ends, refcounts never rise toward the tip,
  the LRU holds exactly the idle leaf segments, and the block and
  reference counters equal a walk.

CI's determinism shard re-runs the sim/serving suite with all of these
on (``REPRO_SIM_SANITIZE=1``; its test list is in
``.github/workflows/ci.yml``).

Violations raise :class:`SimSanitizerError` carrying the offending
value *and* the publishing call site (the first stack frame outside
``repro/sim``), so a stray mutation three layers up is attributed to
the line that performed it, not to the kernel that noticed.
"""

from __future__ import annotations

import math
import os
import traceback
from functools import lru_cache
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..hardware.kernels import sbmm_time
from .clock import (ENV_VAR, SanitizedClock, SimSanitizerError, enabled,
                    new_clock, sanitized)
from .events import (AutoscalerTick, Cancel, Event, IterationDone,
                     ReplicaDrain, ReplicaSpawn, TelemetryTick)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import SimKernel

__all__ = [
    "ENV_VAR", "SimSanitizerError", "enabled", "sanitized",
    "SanitizedClock", "new_clock", "install",
]

#: absolute tolerance for "in the past" time comparisons
_TIME_EPS = 1e-9
#: absolute tolerance for token-bucket conservation checks
_TOKEN_EPS = 1e-6


def _call_site() -> str:
    """The publishing call site: the innermost frame outside repro/sim."""
    here = os.path.dirname(os.path.abspath(__file__))
    for frame in reversed(traceback.extract_stack()):
        frame_dir = os.path.dirname(os.path.abspath(frame.filename))
        if frame_dir != here:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown call site>"


def _violation(message: str) -> SimSanitizerError:
    return SimSanitizerError(f"{message} [published at {_call_site()}]")


# --------------------------------------------------------------------- #
# kernel
# --------------------------------------------------------------------- #
def install(kernel: "SimKernel") -> "SimKernel":
    """Wrap one kernel's ``emit``/``reset`` with the dynamic checks.

    Called automatically from :class:`~repro.sim.SimKernel` construction
    when the sanitizer is enabled; idempotent, and callable explicitly
    on any kernel regardless of the environment flag.
    """
    if getattr(kernel, "_sanitizer_installed", False):
        return kernel
    kernel._sanitizer_installed = True
    kernel.clock = SanitizedClock(kernel.clock.now)
    terminal: Set[int] = set()
    inner_emit = kernel.emit
    inner_reset = kernel.reset

    def emit(event: Event) -> None:
        check_event(kernel, event, terminal)
        inner_emit(event)

    def reset() -> None:
        terminal.clear()
        inner_reset()
        kernel.clock = SanitizedClock(kernel.clock.now)

    # answer ``__self__`` like the bound method it replaces: a producer
    # holding ``kernel.emit`` asks that kernel what it wants
    emit.__self__ = kernel   # type: ignore[attr-defined]
    kernel.emit = emit       # type: ignore[method-assign]
    kernel.reset = reset     # type: ignore[method-assign]
    return kernel


#: event types scheduled on the kernel's *own* timeline, for which
#: "never in the past" is checkable against the kernel clock.  Events
#: published from replica timelines (IterationDone, Cancel) may
#: legitimately lag the ratcheted kernel observation clock — a
#: late-routed arrival lands on an idle replica whose own clock trails
#: the frontier — and their monotonicity is enforced per-timeline by
#: :class:`SanitizedClock`.  BucketRefill eligibility is computed at a
#: request's arrival and may already have passed when a late-offered
#: request is charged retroactively.
_KERNEL_TIMELINE_EVENTS = (AutoscalerTick, ReplicaSpawn, ReplicaDrain,
                           TelemetryTick)


def check_event(kernel: "SimKernel", event: Event,
                terminal: Set[int]) -> None:
    """The per-emit assertions: no past events, no double-terminal."""
    if event.time != event.time or event.time == float("inf"):
        raise _violation(
            f"{type(event).__name__} carries a non-finite time "
            f"{event.time!r}")
    if isinstance(event, _KERNEL_TIMELINE_EVENTS) and \
            event.time < kernel.now - _TIME_EPS:
        raise _violation(
            f"{type(event).__name__} scheduled in the past: "
            f"event.time={event.time:.9f} < kernel.now={kernel.now:.9f}")
    if isinstance(event, Cancel):
        if event.request_id in terminal:
            raise _violation(
                f"request {event.request_id} received a second terminal "
                f"transition (Cancel reason={event.reason!r} at "
                f"t={event.time:.9f})")
        terminal.add(event.request_id)


# --------------------------------------------------------------------- #
# token buckets / handles (checks invoked from the serving layer)
# --------------------------------------------------------------------- #
def check_bucket_charge(cost: float, now: float, eligible: float) -> None:
    """A charge must be finite, non-negative, and never wake in the past."""
    if not (cost >= 0.0) or cost != cost or cost == float("inf"):
        raise _violation(f"token-bucket charge of {cost!r} tokens")
    if eligible < now - _TIME_EPS:
        raise _violation(
            f"token-bucket charge became eligible in the past: "
            f"eligible={eligible:.9f} < now={now:.9f}")


def check_bucket_refund(cost: float, tokens: float, burst: float,
                        charged_total: float, refunded_total: float) -> None:
    """Refunds are bounded by prior charges and never overfill the bucket."""
    if not (cost >= 0.0) or cost != cost or cost == float("inf"):
        raise _violation(f"token-bucket refund of {cost!r} tokens")
    if tokens > burst + _TOKEN_EPS:
        raise _violation(
            f"token-bucket level {tokens:.6f} exceeds burst {burst:.6f} "
            f"after refund")
    if refunded_total > charged_total + _TOKEN_EPS:
        raise _violation(
            f"cancel-refund asymmetry: cumulative refunds "
            f"{refunded_total:.6f} exceed cumulative charges "
            f"{charged_total:.6f}")


def check_meter(tokens_charged: float, tenant_id: Optional[str]) -> None:
    """A tenant's billing meter can never go negative."""
    if tokens_charged < -_TOKEN_EPS:
        raise _violation(
            f"billing meter for tenant {tenant_id!r} went negative: "
            f"{tokens_charged:.6f} tokens")


def check_running_batch(engine: str, batch: Any) -> None:
    """The engine's incremental :class:`~repro.serving.base.RunningBatch`
    totals must equal a recomputation from the member requests."""
    requests = batch.requests
    per_model: Dict[str, int] = {}
    parents: Dict[int, int] = {}
    for req in requests:
        per_model[req.model_id] = per_model.get(req.model_id, 0) + 1
        if req.parent_id is not None:
            parents[req.parent_id] = parents.get(req.parent_id, 0) + 1
    stray = [r.request_id for r in requests if r.state.value != "running"]
    if stray or len({id(r) for r in requests}) != len(requests):
        raise _violation(
            f"running-batch ledger of engine {engine!r} drifted in "
            f"membership: duplicate members or non-running requests "
            f"{stray} in the batch")
    for name, expected in (
            ("context_tokens", sum(r.context_length for r in requests)),
            ("cached_prefix_tokens",
             sum(r.cached_prefix_tokens for r in requests)),
            ("per_model", per_model), ("parents", parents)):
        held = getattr(batch, name)
        if held != expected:
            raise _violation(
                f"running-batch ledger of engine {engine!r} drifted in "
                f"{name}: holds {held!r}, members give {expected!r}")


def check_released(engine: Any, request: Any) -> None:
    """Under every record policy a retired ``request`` leaves its record
    behind and nothing else: ``engine`` must not reach it any more."""
    rid = request.request_id
    live = engine._live.get(rid)
    scheduler = getattr(engine, "scheduler", None)
    held = [where for where, holders in (
        ("_live", [live]),
        ("the admission queue", getattr(engine, "_queue", ())
         if scheduler is None else scheduler.queued),
        ("the pending arrivals",
         [e.request for e in engine._pending.in_order()]),
        ("the running batch", engine.batch.requests),
        ("a finish bucket",
         [r for bucket in engine.batch._finish.values() for r in bucket]),
    ) if any(r is request for r in holders)]
    if rid in getattr(engine, "_prefix_refs", ()):
        held.append("_prefix_refs (a held chain)")
    # a cancel still queued for the id would abort whoever holds the id now
    if live is not None and any(e.request_id == rid
                                for e in engine._cancels.in_order()):
        held.append("a queued cancel that is still live")
    if held:
        raise _violation(
            f"request {rid!r} retired on engine {engine.name!r} "
            f"({request.state.value}) but is still held by "
            + ", ".join(held))


def check_cluster_released(gateway: Any, record: Any) -> None:
    """A cluster routes live requests only: the terminal ``record``'s id
    must have left ``_owner``, and ``_pending_cancels`` with it."""
    owner = gateway._owner.get(record.request_id)
    if owner is not None:
        raise _violation(
            f"cluster still routes request {record.request_id!r} to "
            f"{owner.name} after its {record.status} record was delivered")
    if record.request_id in gateway._pending_cancels:
        raise _violation(
            f"cluster still holds request {record.request_id!r} as unrouted "
            f"after its {record.status} record was delivered")


class EpochShadow:
    """``[generated_tokens, inference_s]`` per batch member as the loop
    the epoch ledger replaced held them: updated on every ``advance``."""

    def __init__(self) -> None:
        self._held: Dict[int, List[Any]] = {}

    def join(self, req: Any) -> None:
        self._held[id(req)] = [req.generated_tokens, req.inference_s]

    def advance(self, iter_time: float) -> None:
        for held in self._held.values():
            held[0] += 1
            held[1] += iter_time

    def leave(self, req: Any) -> None:
        check_epoch_member(req, *self._held.pop(id(req)))


def check_epoch_member(req: Any, tokens: int, inference: float) -> None:
    """A member left its batch: the values the epoch ledger materialised
    must be the eagerly-updated ones (``==``: records carry the float)."""
    for name, expected in (("generated_tokens", tokens),
                           ("inference_s", inference)):
        held = getattr(req, name)
        if held != expected:
            raise _violation(
                f"epoch ledger drifted in {name} of request "
                f"{req.request_id}: leave() materialised {held!r}, the "
                f"per-iteration loop gives {expected!r}")


def check_steady_verdict(engine: str, decision: Any) -> None:
    """An engine took "admit nothing" as its admission verdict: a fresh
    decision over the same batch and queue must agree."""
    if decision:
        raise _violation(
            f"steady-state memo of engine {engine!r} drifted in the "
            f"admission verdict: a fresh decision admits "
            f"{[r.request_id for r in decision.admitted]} and loads "
            f"{decision.new_deltas}")


def check_steady_price(engine: str, reused: float, recomposed: float) -> None:
    """An engine re-priced only attention on its last linear-pass plan:
    pricing the recomposed batch from scratch must give the same float
    (``==``, not a tolerance — records are compared bit for bit)."""
    if reused != recomposed:
        raise _violation(
            f"steady-state memo of engine {engine!r} drifted in the "
            f"linear-pass plan: the reused plan prices the iteration at "
            f"{reused!r}s, the recomposed batch at {recomposed!r}s")


def check_coast_run(engine: Any, start: float, prices: Sequence[float],
                    finished: Sequence[Any], after_finish: bool) -> None:
    """An engine coasted ``len(prices)`` iterations of one batch from
    clock ``start`` (a segment of its run), the last one finishing
    ``finished`` (none: the run stopped short of the finish bucket),
    which have not left yet; ask what a ``step()`` per iteration would
    have asked, of any engine: its fresh pure admission decision
    (``_decide``) over the unchanged batch and queue is empty, each price
    ``==`` a freshly built plan of the pure-decode composition at that
    iteration's context, the members done are ``finished``, each on its
    last token, and no event was due.  ``after_finish``: an earlier
    segment of the run finished somebody, which a run may go on past only
    while the engine has no ``on_finish`` or ``on_event`` hook."""
    if after_finish and (engine.on_finish is not None
                         or engine.on_event is not None):
        raise _violation(
            f"engine {engine.name!r} coasted on past a finish a hook "
            f"hears")
    check_steady_verdict(engine.name, engine._decide())
    batch = engine.batch
    composed = engine._compose([])
    plan = engine._linear_plan(composed)
    context = composed.context_tokens - len(prices) * len(batch.requests)
    for price in prices:
        check_steady_price(engine.name, price,
                           engine.cost.plan_time(plan, context))
        context += len(batch.requests)
        last_start, start = start, start + price
    late = [r.request_id for r in batch.requests
            if r.generated_tokens > r.output_tokens
            or (r.done and not any(r is f for f in finished))]
    if late:
        raise _violation(
            f"engine {engine.name!r} coasted past the finish of requests "
            f"{late}: they were done before the run's end")
    early = [r.request_id for r in finished if not r.done]
    if early:
        raise _violation(
            f"engine {engine.name!r} finished requests {early} inside a "
            f"coast before their last token")
    live = [e for e in engine._cancels.in_order()
            if e.request_id in engine._live]
    due = [e for e in engine._pending.in_order() + live
           if e.time <= last_start]
    if due:
        raise _violation(
            f"engine {engine.name!r} coasted through an iteration starting "
            f"at {last_start!r} with {len(due)} events due, the first a "
            f"{type(due[0]).__name__} at {due[0].time!r}")


def coast_ledger(engine: Any) -> Tuple[bool, int, int, int, int]:
    """What :func:`check_coast_bounds` reads before the run: whether
    somebody hears the engine per iteration (a completion callback at
    the run's end may start to), and what finishing members moves:
    submitted, retired and live requests, records the engine's sink
    observed (-1: no sink of its own)."""
    sink = engine.metrics
    return (engine.on_token is not None or engine._wants(IterationDone),
            engine._n_submitted, engine._n_retired, len(engine._live),
            -1 if sink is None else sink.n_observed)


def check_coast_bounds(who: str, engine: Any, start_s: float, epoch: int,
                       ledger: Tuple[bool, int, int, int, int],
                       bounds: Sequence[Tuple[str, Optional[float]]],
                       held: Sequence[Tuple[str, Any, Any]]) -> None:
    """A drain loop let member ``who`` (``engine``) coast from ``start_s``
    (batch epoch ``epoch``) and redid its parent's bookkeeping: nobody
    heard the engine per iteration as the run began (no token hook, and
    its event hook wanted no ``IterationDone``: the demand rule); every
    coasted iteration started before each of the ``bounds`` its parent
    and front act on, read before the run (an unrouted arrival, a tick,
    admission's next event, another busy member's next iteration that
    is not quiet), and the engine's cap (starts replayed from
    ``batch.times_since``); whatever retired went through the finishing
    tail: released once and observed once by the engine's sink
    (``ledger``: :func:`coast_ledger` before the run); nothing was
    submitted but by the completion callback of a run that retired; and
    each of the parent's ``held`` values (``(what, want, got)``) reads
    what it must after the run."""
    heard, submitted, retired, live, observed = ledger
    if heard:
        raise _violation(f"{who} coasted while somebody hears it per "
                         f"iteration")
    bounds = list(bounds) + [("the sim-time cap",
                              engine.config.max_sim_seconds)]
    start = start_s
    for price in engine.batch.times_since(epoch):
        for what, bound in bounds:
            if bound is not None and start >= bound:
                raise _violation(
                    f"{who} coasted through an iteration starting at "
                    f"{start!r} with {what} due at {bound!r}")
        start += price
    retired = engine._n_retired - retired
    submitted = engine._n_submitted - submitted
    if submitted and not (retired and engine.on_finish is not None):
        raise _violation(
            f"{who} took {submitted} submissions while it coasted, none "
            f"from a completion callback")
    now_observed = -1 if engine.metrics is None else engine.metrics.n_observed
    if len(engine._live) != live - retired + submitted or (
            observed >= 0 and now_observed != observed + retired):
        raise _violation(
            f"{who} retired {retired} requests while it coasted, but "
            f"released {live + submitted - len(engine._live)} and its "
            f"sink observed {now_observed - observed}: a retirement "
            f"outside the finishing tail")
    for what, want, got in held:
        if got != want:
            raise _violation(f"{what} moved while {who} coasted: {got!r}, "
                             f"not {want!r}")


def check_cluster_frontier(gateway: Any) -> None:
    """The cluster's frontier ledger and active-replica counter must
    equal a brute-force scan of the replica set."""
    busy = [r for r in gateway.replicas if r.engine.unfinished > 0]
    for r in busy:
        if r.frontier_key is None or r.frontier_key > r.engine.clock:
            raise _violation(
                f"cluster frontier ledger drifted in frontier_key of "
                f"{r.name}: holds {r.frontier_key!r}, busy at clock "
                f"{r.engine.clock!r}")
    expected = min(busy, key=lambda r: (r.engine.clock, r.id), default=None)
    reused = gateway.least_busy()
    gateway._least = None          # and what the heap itself answers
    held = gateway.least_busy()
    active = sum(1 for r in gateway.replicas if not r.draining)
    for name, got, want in (
            ("least_busy", held and held.name, expected and expected.name),
            ("least_busy (reused)", reused and reused.name,
             expected and expected.name),
            ("n_replicas", gateway.n_replicas, active)):
        if got != want:
            raise _violation(
                f"cluster frontier ledger drifted in {name}: holds "
                f"{got!r}, replicas give {want!r}")


def check_replica_set(replica_set: Any, cluster: Any) -> None:
    """A fleet's membership must agree with its own draining counter and
    with the hardware cluster's node ledger."""
    draining = sum(1 for m in replica_set.members if m.draining)
    if replica_set.n_draining != draining:
        raise _violation(
            f"replica set drifted in n_draining: holds "
            f"{replica_set.n_draining!r}, members give {draining!r}")
    if cluster is None:
        return
    live = replica_set.members
    held = {id(m.node) for m in live}
    for m in replica_set.members:
        if not cluster.is_allocated(m.node):
            raise _violation(
                f"replica set member {m.name} holds a node the cluster "
                f"does not list as allocated")
    for m in replica_set.retired:
        # a released node may have been re-issued to a live member
        if id(m.node) not in held and cluster.is_allocated(m.node):
            raise _violation(
                f"retired member {m.name}'s node is still allocated")
    if cluster.n_free != cluster.n_nodes - len(live):
        raise _violation(
            f"cluster node census drifted: {cluster.n_free!r} free of "
            f"{cluster.n_nodes!r} with {len(live)!r} live members")


def check_prefix_cache(cache: Any) -> None:
    """The span structure a :class:`~repro.serving.prefix_cache.
    PrefixCache`'s per-block answers rest on, walked from the scope
    anchors after every mutating call."""
    blocks = refs = 0
    idle_leaves: List[Any] = []
    stack = list(cache._scopes.values())
    while stack:
        seg = stack.pop()
        for (ident, start), child in seg.children.items():
            where = f"prefix segment {child.ident!r} " \
                f"[{child.start!r}, {child.end!r})"
            if child.parent is not seg or (ident, start) != \
                    (child.ident, child.start) or start != seg.end:
                raise _violation(
                    f"{where} is filed under {(ident, start)!r} of a "
                    f"parent ending at block {seg.end!r}")
            if child.end <= child.start:
                raise _violation(f"{where} is empty but still linked")
            if child.refcount < 0 or (seg.parent is not None
                                      and child.refcount > seg.refcount):
                raise _violation(
                    f"{where} holds {child.refcount!r} references under a "
                    f"parent holding {seg.refcount!r}")
            blocks += child.end - child.start
            refs += child.refcount * (child.end - child.start)
            if not child.refcount and not child.children:
                idle_leaves.append(child)
            stack.append(child)
    lru = cache._evictable
    if len(lru) != len(idle_leaves) or \
            not all(seg in lru for seg in idle_leaves):
        raise _violation(
            f"prefix LRU holds {len(lru)!r} segments but the tree has "
            f"{len(idle_leaves)!r} unreferenced leaves (a referenced or "
            f"inner segment is evictable, or an idle leaf is not)")
    if (cache.n_blocks, cache.total_refcount) != (blocks, refs):
        raise _violation(
            f"prefix cache drifted: counts {cache.n_blocks!r} blocks / "
            f"{cache.total_refcount!r} references, segments give "
            f"{blocks!r} / {refs!r}")


def check_sink_row(record: Any, values: Tuple[float, float, float, float],
                   keys: Tuple[Optional[int], ...], log_gamma: float,
                   min_trackable: float) -> None:
    """The sink folded ``values`` = (e2e, ttft, time per token, finish)
    and the bin ``keys`` of (e2e, ttft, finish), each computed once: the
    record's own properties and a log per value must agree, bit for bit."""
    slow = (record.e2e_latency_s, record.ttft_s, record.time_per_token_s,
            record.finish_s)
    slow_keys = tuple(
        None if v <= min_trackable else math.ceil(math.log(v) / log_gamma)
        for v in (slow[0], slow[1], slow[3]))
    for name, held, expected in (("values", values, slow),
                                 ("bin keys", keys, slow_keys)):
        if held != expected:
            raise _violation(
                f"fused sink write of request {record.request_id} drifted "
                f"in the {name}: folded {held!r}, the record gives "
                f"{expected!r}")


def check_exact_aggregates(stream: Any, records: Sequence[Any]) -> None:
    """A result answered from its sink's integer counters: re-summing
    the records it holds must give the same integers."""
    for name, expected in (
            ("n_finished", sum(1 for r in records if r.finished)),
            ("tokens_served", sum(r.tokens_served for r in records)),
            ("tokens_wasted", sum(r.tokens_served for r in records
                                  if not r.finished))):
        held = getattr(stream, name)
        if held != expected:
            raise _violation(
                f"sink counter {name} drifted from the records it stands "
                f"in for: holds {held!r}, {len(records)} records give "
                f"{expected!r}")


# the two oracles are pure in their (frozen, integer) arguments, so caching
# them cannot go stale; a sanitized replay asks for the same few hundred
@lru_cache(maxsize=1 << 16)
def _one_delta_time(gpu: Any, k: int, n: int, count: int,
                    *knobs: Any) -> float:
    return sbmm_time([count], k, n, gpu, *knobs).compute


@lru_cache(maxsize=1 << 16)
def _cold_total(cls: Any, knobs: Tuple[Any, ...], pass_name: str,
                key: Any) -> float:
    return float(getattr(cls(*knobs), f"_{pass_name}_pass")(key))


def check_cost_column(family: str, gpu: Any,
                      shapes: Sequence[Tuple[int, int]],
                      knobs: Tuple[str, int, float], count: int,
                      held: Sequence[float]) -> None:
    """A memoised ``count``-row column of the ``family`` SBMM (``knobs``:
    flavour, weight bits, density) was served: each entry must equal
    ``sbmm_time`` on a one-delta batch, bit for bit."""
    for (k, n), entry in zip(shapes, held):
        fresh = _one_delta_time(gpu, k, n, count, *knobs)
        if entry != fresh:
            raise _violation(
                f"cost-model column drifted in the {family} pass at shape "
                f"({k}, {n}), count {count}: the memo holds {entry!r}, "
                f"sbmm_time gives {fresh!r}")


def check_cost_total(model: Any, pass_name: str, key: Any,
                     held: float) -> None:
    """The cost model served a memoised pass total: a cold model (same
    knobs, empty memos) must price the same rows to the same float."""
    fresh = _cold_total(type(model), (
        model.spec, model.gpu, model.tp, model.delta_bits,
        model.delta_density, model.lora_rank, model.sbmm_impl), pass_name, key)
    if held != fresh:
        raise _violation(
            f"cost-model memo drifted in the {pass_name} pass for rows "
            f"{key!r}: holds {held!r}, a cold model gives {fresh!r}")


def check_handle_finish(request_id: int, already_terminal: bool) -> None:
    """A handle may reach a terminal status exactly once."""
    if already_terminal:
        raise _violation(
            f"request handle {request_id} finished twice (status "
            f"transition out of a terminal state)")
