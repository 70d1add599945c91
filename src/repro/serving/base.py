"""The unified serving-engine protocol: one iteration loop, many engines.

The paper's core claim is that a single decoupled base+delta design
subsumes FMT-delta, LoRA, and full-model serving under one scheduler.
This module makes that claim structural: every engine shares the same
arrivals → admit → execute → retire template implemented once in
:class:`ServingEngine`, and differs only in the hooks it overrides
(:meth:`~ServingEngine.admit`, :meth:`~ServingEngine.iteration_cost`,
:meth:`~ServingEngine.retire`, …).

The template is *online*: requests join through :meth:`ServingEngine.submit`
at any simulated time and the clock advances one iteration per
:meth:`ServingEngine.step`.  Offline trace replay (the legacy
``engine.run(trace)`` path) is a thin adapter — submit everything, then
:meth:`ServingEngine.run_until_drained` — so replay and live submission
share every line of scheduling code and produce identical results.

Time lives in the :mod:`repro.sim` kernel: the engine's clock is a
:class:`~repro.sim.SimClock`, not-yet-arrived submissions are
:class:`~repro.sim.Arrival` events in an :class:`~repro.sim.EventQueue`,
and idle gaps are *skipped* — the clock jumps straight to the next
event in O(log n) instead of grinding through empty iterations.  Setting
``EngineConfig.idle_quantum_s`` bounds each idle jump to a fixed quantum
(the naive activity-scanning simulator), kept as the differential
reference the idle-skip identity tests compare against: records are
identical either way.  Executed iterations are published as
:class:`~repro.sim.IterationDone` events through
:attr:`ServingEngine.on_event` so outer layers (the cluster kernel
journal, telemetry) can observe the timeline without reaching into
engine internals.  Every event an engine publishes — iterations, request
phases, cancels — is built only if the kernel behind ``on_event`` wants
it (:meth:`ServingEngine._wants`; any other callable hears everything).

Engines register themselves in the string-keyed :data:`ENGINES` registry
(via :func:`register_engine`) so the CLI, benchmarks, router, and the
:class:`~repro.serving.gateway.ServingGateway` can construct any engine —
including future ones — by name through :func:`create_engine`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Container, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Type)

from ..hardware.cluster import GPUNode
from ..sim import (Arrival, Cancel, Event, EventQueue, IterationDone,
                   PhaseTransition, SimKernel, new_clock)
from ..sim.clock import sanitizer as _sanitizer
from ..workload.spec import Trace, TraceRequest
from .costs import (BatchComposition, IterationCostModel, LinearPlan,
                    check_pricing_knobs)
from .metrics import EngineStats, ServingResult
from .model_manager import ArtifactKind, ModelManager, unknown_model
from .request import RequestState, ServingRequest
from .scheduler import SchedulerConfig
from .streaming_metrics import RecordPolicy, StreamingMetrics

__all__ = [
    "WORKSPACE_FRACTION", "PREEMPT_SWAP_S", "FULL_MODEL_LOADER_FACTOR",
    "KV_RESERVE_FRACTION", "EngineConfig", "Admission", "RunningBatch",
    "ServingEngine", "ENGINES", "register_engine", "create_engine",
]

# Shared memory/timing constants (previously duplicated privately between
# engine.py and baselines.py).
WORKSPACE_FRACTION = 0.08    # activations, CUDA context, fragmentation
PREEMPT_SWAP_S = 5e-3        # KV swap-out/in cost per preemption
# standard checkpoint loaders (deserialize + per-tensor copies) move whole
# FP16 models far below raw link bandwidth; compressed deltas use the packed
# raw-buffer path and do not pay this
FULL_MODEL_LOADER_FACTOR = 4.0
KV_RESERVE_FRACTION = 0.3    # SCB reserves a fixed KV share like vLLM


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs (scheduler limits live in SchedulerConfig).

    ``preempt_mode`` explores §5.4's open question: "swap" parks a
    preempted request's KV state in CPU memory and resumes by decoding
    (paying a fixed swap cost per preemption); "recompute" discards the KV
    state for free but must re-prefill the full context at resume time.

    ``idle_quantum_s`` selects the simulator's idle-time strategy: None
    (default) is event-driven — the clock jumps over idle gaps straight
    to the next scheduled event; a positive value bounds every idle jump
    to that quantum, i.e. the classic activity-scanning loop that steps
    through dead time.  Request records are identical in both modes (the
    quantum only subdivides jumps, never overshoots an event).  It is the
    differential reference, not a serving mode: the idle-skip identity
    tests and the golden table's ``dense`` cells replay under it and
    compare records with ``==``, and nothing else sets it.

    ``record_policy`` selects what survives a retirement (see
    :class:`~repro.serving.streaming_metrics.RecordPolicy`): ``keep_all``
    (default) every record, ``drop`` nothing — aggregates then come from
    the streaming sketches, within their documented relative error.
    Never the request: under every policy a terminal request is released
    at retirement, so live engine state is O(active) and
    :meth:`ServingEngine.lookup` answers for live requests only.

    ``prefix_cache`` enables the engine's radix prefix/KV cache (see
    :mod:`repro.serving.prefix_cache`): repeat turns of a conversation
    skip re-prefilling their cached prefix, and the block pool is
    charged against the same KV-token budget as running requests.  Off
    (the default) the engine takes the exact pre-existing code path —
    records are bit-identical to a build without the feature.
    ``prefix_block_tokens`` is the KV block granularity of that cache.
    """

    tp_degree: int = 4
    variant_kind: str = "delta"      # "delta" | "lora" | "none"
    delta_bits: int = 4
    delta_density: float = 0.5
    lora_rank: int = 16
    sbmm_impl: str = "sbmm"
    preempt_mode: str = "swap"       # "swap" | "recompute"
    max_sim_seconds: float = 36000.0
    idle_quantum_s: Optional[float] = None
    record_policy: RecordPolicy = RecordPolicy.KEEP_ALL
    prefix_cache: bool = False
    prefix_block_tokens: int = 32

    def __post_init__(self):
        if self.preempt_mode not in ("swap", "recompute"):
            raise ValueError(f"unknown preempt_mode {self.preempt_mode!r}")
        if self.variant_kind not in ("delta", "lora", "none"):
            raise ValueError(f"unknown variant_kind {self.variant_kind!r}")
        check_pricing_knobs(self.sbmm_impl, self.delta_bits,
                            self.delta_density, self.lora_rank)
        if self.idle_quantum_s is not None and self.idle_quantum_s <= 0:
            raise ValueError("idle_quantum_s must be > 0 when set")
        if not isinstance(self.record_policy, RecordPolicy):
            # accept the plain string spelling ("keep_all", "drop")
            object.__setattr__(self, "record_policy",
                               RecordPolicy(self.record_policy))
        if self.prefix_block_tokens < 1:
            raise ValueError("prefix_block_tokens must be >= 1")


@dataclass
class Admission:
    """What one engine iteration admits, and the load time it paid."""

    admitted: List[ServingRequest] = field(default_factory=list)
    load_time_s: float = 0.0


#: every this many epochs the log drops what no member's join epoch still
#: needs, so it stays O(longest-lived member), not O(iterations)
_LOG = 1024


class RunningBatch:
    """The running batch: the integer totals every iteration asks of it,
    and the epoch ledger its members' token and time accounts hang off.

    Continuous batching is lockstep: an executed iteration gives *every*
    running request one token and the same ``iter_time``.  So
    :meth:`advance` touches no member — it grows the KV footprint by
    ``len(requests)``, bumps ``epoch`` and logs ``iter_time`` — and a
    member's ``generated_tokens`` / ``inference_s`` are derived from what
    it joined with plus the epochs since (see
    :class:`~repro.serving.request.ServingRequest`) until :meth:`leave`
    writes them back.  When a member finishes is known at its join, so
    members wait in buckets keyed by finish epoch, each in batch order.

    The ledger is the single owner of membership — nothing else appends
    to, removes from or rebuilds ``requests`` — which is what lets
    admission, batch composition and the scheduler read totals instead
    of rescanning the batch; the totals are integers, so reading one is
    bit-identical to re-summing it.  ``per_model`` counts running
    requests per variant in the order each variant (re)entered the batch
    and ``parents`` members per skip-the-line parent id (a zero count is
    deleted in both).  ``version`` moves on every membership change,
    ``epoch`` on every iteration.
    """

    __slots__ = ("requests", "context_tokens", "cached_prefix_tokens",
                 "per_model", "parents", "version", "epoch", "_log",
                 "_log_base", "_finish", "_shadow")

    def __init__(self, requests: Iterable[ServingRequest] = ()):
        self.requests: List[ServingRequest] = []
        self.context_tokens = 0          # sum of context_length
        self.cached_prefix_tokens = 0    # sum of cached_prefix_tokens
        self.per_model: Dict[str, int] = {}
        self.parents: Dict[int, int] = {}
        self.version = 0
        self.epoch = 0                   # iterations executed so far
        self._log: List[float] = []      # iter_time of epochs _log_base..
        self._log_base = 0
        self._finish: Dict[int, List[ServingRequest]] = {}
        self._shadow = _sanitizer.EpochShadow() \
            if _sanitizer.enabled() else None
        for req in requests:
            self.join(req)

    def __len__(self) -> int:
        return len(self.requests)

    def join(self, req: ServingRequest) -> None:
        self.requests.append(req)
        self.context_tokens += req.context_length
        self.cached_prefix_tokens += req.cached_prefix_tokens
        per_model = self.per_model
        per_model[req.model_id] = per_model.get(req.model_id, 0) + 1
        parent = req.parent_id
        if parent is not None:
            self.parents[parent] = self.parents.get(parent, 0) + 1
        self.version += 1
        # the epoch of its last token: a member always gets at least one
        req._due = self.epoch + max(1, req.remaining_tokens)
        req._ledger = self
        req._join_epoch = self.epoch
        self._finish.setdefault(req._due, []).append(req)
        if self._shadow is not None:
            self._shadow.join(req)

    def leave(self, req: ServingRequest) -> None:
        self.requests.remove(req)        # identity: requests are eq=False
        if req._due > self.epoch:        # else advance() handed it out
            self._finish[req._due].remove(req)
            if not self._finish[req._due]:
                del self._finish[req._due]
        req._tokens, req._inference = req.generated_tokens, req.inference_s
        req._ledger = None
        if self._shadow is not None:
            self._shadow.leave(req)
        self.context_tokens -= req.context_length
        self.cached_prefix_tokens -= req.cached_prefix_tokens
        left = self.per_model[req.model_id] - 1
        if left:
            self.per_model[req.model_id] = left
        else:
            del self.per_model[req.model_id]
        if req.parent_id is not None:
            left = self.parents.pop(req.parent_id) - 1
            if left:
                self.parents[req.parent_id] = left
        self.version += 1

    def advance(self, iter_time: float = 0.0) -> List[ServingRequest]:
        """One lockstep iteration of ``iter_time`` seconds: every member
        generated one token.  O(1).  Returns the members it finished, still
        in the batch: old ones in batch order, then those done on their
        first token in admission order."""
        self.context_tokens += len(self.requests)
        self.epoch += 1
        self._log.append(iter_time)
        if not self.epoch % _LOG:
            keep = min((r._join_epoch for r in self.requests),
                       default=self.epoch)
            del self._log[:keep - self._log_base]
            self._log_base = keep
        if self._shadow is not None:
            self._shadow.advance(iter_time)
        return self._finish.pop(self.epoch, None) or []

    def advance_run(self, times: List[float]) -> List[ServingRequest]:
        """``advance(t)`` for each ``t`` of ``times`` in one call: the same
        epoch, context, log, trims and finish buckets.  Returns the members
        the run finished, epoch by epoch, each epoch as :meth:`advance`
        orders it."""
        start = self.epoch
        end = self.epoch = start + len(times)
        self.context_tokens += len(times) * len(self.requests)
        self._log.extend(times)
        if end // _LOG > start // _LOG:
            # membership is fixed over the run, so every trim it crosses
            # keeps the same epoch, or the last trim's when it is empty
            keep = min((r._join_epoch for r in self.requests),
                       default=end - end % _LOG)
            del self._log[:keep - self._log_base]
            self._log_base = keep
        if self._shadow is not None:
            for iter_time in times:
                self._shadow.advance(iter_time)
        finish = self._finish
        done: List[ServingRequest] = []
        if finish and min(finish) <= end:
            for epoch in sorted(e for e in finish if e <= end):
                done.extend(finish.pop(epoch))
        return done

    def next_finish_epoch(self) -> int:
        """The first epoch that finishes a member (there must be one)."""
        return min(self._finish)

    def times_since(self, epoch: int) -> List[float]:
        """``iter_time`` of every iteration since ``epoch``, in order."""
        return self._log[epoch - self._log_base:]


# callback signatures: (request, clock_s)
TokenCallback = Callable[[ServingRequest, float], None]
FinishCallback = Callable[[ServingRequest, float], None]
#: cross-layer instrumentation: typed sim events (IterationDone, ...)
EventCallback = Callable[[Event], None]


#: a member's quiet bound stays this factor below its clock plus the
#: quiet iterations' time: their float sum may round below the product
_QUIET_MARGIN = 1.0 - 1e-9


class DrainLoop:
    """The one coast-first drain loop.  A *parent* steps *members* that
    meet on timelines of their own: a leaf engine is its own one member,
    disagg its pool workers (the handoff), a cluster its replicas
    (routing, ticks, listeners); never a dedicated engine's groups, which
    never meet.  A parent of other members states

    * :meth:`_least_member`: its least busy member below the sim-time
      cap, once whatever it does before a step is done (the cluster
      routes); None: nothing below can move;
    * :meth:`_horizon`: the time no coasted iteration of ``member`` may
      start at or after (the member's own next arrival and live cancel
      are inside :meth:`ServingEngine._coast`), and :meth:`_finish_bound`
      the time no coasted iteration that finishes somebody may;
    * :meth:`_step_from`: one step given the least busy member, returning
      the member it advanced (None: nothing moved).

    The drain runs under a *front*: the outermost gateway, whose
    ``step()`` is one member iteration at every layer, else the parent.
    The front states

    * ``observed``: True while somebody hears the members per iteration
      (a token listener or handle, an ``IterationDone`` subscriber or a
      journal: the demand rule of :meth:`ServingEngine._wants`), or
      steps them its own way;
    * :meth:`_turn`: before each move, what the layers above the parent
      act on (a gauge tick a coast crossed, admission work now due) is
      done; it returns the time no coasted iteration may start at or
      after (the next tick, admission's next event);
    * :meth:`_resume`: nothing below could move; the front's own idle
      path (admission jumps to its next event): did anything move?

    An observed drain calls the front's ``step()``.  Any other turn lets
    the least busy member coast through the iterations that admit
    nothing, then the next least while they move, and steps the least
    busy one: a step only admits (ingests, loads, cancels).  A coast that
    finished somebody ends the turn as a step that retired would, and a
    turn whose coasts brought the frontier to the front's bound ends
    there, so the front acts before the step.  ``observed`` is re-read
    after every step, every coast that finished somebody and every fired
    gauge tick, the places where a callback runs mid-drain.  For the sanitizer,
    :meth:`_coast_watch` names what a coast must leave alone, on the
    parent and on the front."""

    #: the parent is its own one member (a leaf engine)
    _leaf = False
    #: the front of the drain running now (None: the parent itself)
    _front: Any = None

    def _least_member(self) -> Any:
        raise NotImplementedError

    def _horizon(self, member: Any) -> float:
        return self.config.max_sim_seconds

    def _finish_bound(self, member: Any) -> float:
        """The time no coasted iteration of ``member`` that finishes
        somebody may start at or after: where the parent hears the
        finish in an order across members or reads the others' clocks,
        the least clock of its other busy members (the finish then runs
        where a step would have run it, its member the least busy)."""
        return math.inf

    def _step_from(self, member: Any) -> Any:
        raise NotImplementedError

    def _sync_hooks(self) -> None:
        """Wire the members to this parent's hooks (the loop steps them):
        disagg's workers; a cluster wires each replica itself."""

    def _coast_watch(self, member: Any) -> Tuple[
            Sequence[Tuple[str, Optional[float]]], Sequence[Tuple[str, Any]]]:
        """The events this layer acts on between steps (``(what, time)``:
        a coasted iteration starts before each) and the values a coast may
        not move (``(what, value)``), read from its own queues and pools."""
        return (), ()

    def _turn(self) -> float:
        return math.inf

    def _resume(self) -> bool:
        return False

    def _drain(self, front: Any = None) -> None:
        """Serve until every member drained or reached its cap, and the
        front holds nothing more.  ``front`` is the gateway that owns this
        parent (its ``step()`` steps the whole stack), else this parent."""
        front = self if front is None else front
        self._front = front
        self._sync_hooks()
        telemetry = getattr(front, "telemetry", None)
        tick = -math.inf if telemetry is None else telemetry.next_tick_s
        observed = front.observed
        tried: Tuple[Any, float] = (None, 0.0)    # last coast: who, to
        while not observed:
            bound = front._turn()
            if telemetry is not None and telemetry.next_tick_s > tick:
                # a gauge tick fired: a subscriber may listen per
                # iteration from now on
                tick = telemetry.next_tick_s
                observed = front.observed
                if observed:
                    break
            if self._leaf:
                cap = self.config.max_sim_seconds
                if self._n_retired < self._n_submitted and \
                        self._sim.now < cap:
                    horizon = bound if bound < cap else cap
                    retired = self._n_retired
                    moved = self._coast_member(self, horizon) \
                        if self._sanitize else self._coast(horizon)
                    if self._n_retired != retired:
                        # a completion callback may have begun to listen
                        # per iteration (a handle, a token listener)
                        observed = front.observed
                        continue
                    if moved and self._sim.now >= horizon:
                        continue      # past the bound: the front acts first
                    if self.step():
                        if self._n_retired != retired:
                            observed = front.observed
                        continue
            else:
                # coast the least busy member, then the next least, while
                # they move: below the front's bound nothing it reads moves
                moved = finished = False
                member = self._least_member()
                while member is not None:
                    running = member.running
                    if not running:
                        break         # its coast would not move it: step it
                    horizon = self._horizon(member)
                    if bound < horizon:
                        horizon = bound
                    # coasted to a horizon and not stepped since, a member
                    # moves no further to no later one: skip asking
                    if member is tried[0] and horizon <= tried[1]:
                        break
                    tried = (member, horizon)
                    size = len(running)
                    if not self._coast_member(member, horizon):
                        break
                    moved = True
                    if len(running) != size:
                        finished = True   # a finish left the batch
                        break
                    member = self._least_member()
                if finished:
                    # as after a step that retired: a completion callback
                    # may listen per iteration now, and the run stopped
                    # short of its horizon (it may move on to the same)
                    tried = (None, 0.0)
                    observed = front.observed
                    continue
                if moved and member is not None and member.clock >= bound:
                    continue          # the frontier reached it: front first
                if self._step_from(member) is not None:
                    tried = (None, 0.0)
                    observed = front.observed
                    continue
            if not front._resume():
                break
            tried = (None, 0.0)
            observed = front.observed
        while front.unfinished > 0 and not front.at_horizon and front.step():
            pass
        self._front = None            # no parent <-> gateway cycle left

    def _coast_member(self, member: Any, horizon: float) -> bool:
        """Let ``member`` coast to ``horizon``.  Did it move?"""
        watch = (member.clock, member.batch.epoch,
                 _sanitizer.coast_ledger(member)) + \
            self._watch(member) if self._sanitize else None
        moved = member._coast(horizon, self._finish_bound(member))
        if watch is None:
            return moved
        start_s, epoch, ledger, bounds, held = watch
        if member.clock <= start_s:   # the check reads the clock itself
            return False
        _sanitizer.check_coast_bounds(
            member.name, member, start_s, epoch, ledger, bounds,
            [(what, before, after) for (what, before), (_, after)
             in zip(held, self._coast_watch(member)[1])])
        return True

    def _watch(self, member: Any) -> Tuple[
            List[Tuple[str, Optional[float]]], Sequence[Tuple[str, Any]]]:
        """:meth:`_coast_watch` with the front's bounds added."""
        bounds, held = self._coast_watch(member)
        front = self._front
        if front is not None and front is not self:
            bounds = [*bounds, *front._coast_watch(member)[0]]
        return list(bounds), held


class ServingEngine(DrainLoop):
    """Template-method base for every discrete-event serving engine.

    Subclasses override the hooks marked "hook:" below; the iteration
    loop itself — arrival ingestion, admitted-request bookkeeping, clock
    advance, token accounting, retirement — lives only here.

    Online protocol::

        engine.submit(TraceRequest(...))   # any time, any arrival_s
        engine.step()                      # one scheduling iteration
        engine.run_until_drained()         # loop until idle / time limit
        engine.build_result()              # ServingResult so far

    Offline replay (``run(trace)``) is submit-everything + drain, so the
    two paths are the same code and produce identical records.
    """

    name: str = "abstract"
    _leaf = True
    #: how the CLI/benchmarks should register trace variants for this engine
    variant_artifact: str = ArtifactKind.DELTA
    #: whether build_result attaches the EngineStats counters
    include_stats: bool = False
    cost: IterationCostModel      # engines that step a batch of their own

    def __init__(self, manager: ModelManager, node: GPUNode,
                 engine_config: EngineConfig = EngineConfig()):
        self.manager = manager
        self.node = node
        self.config = engine_config
        self.on_token: Optional[TokenCallback] = None
        self.on_finish: Optional[FinishCallback] = None
        self.on_event: Optional[EventCallback] = None
        self.reset()

    # ------------------------------------------------------------------ #
    # registry construction protocol
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, manager: ModelManager, node: GPUNode,
              scheduler_config: Optional[SchedulerConfig] = None,
              engine_config: Optional[EngineConfig] = None,
              **kwargs) -> "ServingEngine":
        """Uniform constructor used by :func:`create_engine`.

        Engines that have no scheduler of their own map the relevant
        ``SchedulerConfig`` fields onto their keyword arguments.
        """
        raise NotImplementedError

    @classmethod
    def register_variant(cls, manager: ModelManager, model_id: str,
                         base_model_id: str, ratio: float,
                         config=None) -> None:
        """Register a variant the way this engine consumes it.

        Delta engines size the artifact from its compression ``ratio``;
        full-model engines (the baselines) swap whole FP16 checkpoints.
        """
        if cls.variant_artifact == ArtifactKind.DELTA:
            manager.register_delta(model_id, base_model_id, ratio,
                                   config=config)
        else:
            manager.register_full(model_id, base_model_id)

    # ------------------------------------------------------------------ #
    # online protocol
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear all serving state (a fresh simulated timeline)."""
        self._sim = new_clock()           # SanitizedClock when enabled
        self._pending = EventQueue()      # Arrival events on the sim clock
        self._cancels = EventQueue()      # scheduled Cancel events
        self._live: Dict[int, ServingRequest] = {}
        self._n_submitted = 0
        self._n_retired = 0
        self.batch = RunningBatch()
        self._lru_version = -1            # batch.version at the last LRU touch
        self._quiet_at: Optional[float] = None    # _quiet_until's answer
        self._sanitize = _sanitizer.enabled()
        self.stats = EngineStats()
        # retire-time streaming sink: sketches/counters always on, record
        # retention per policy (the request itself is always released)
        self.metrics = StreamingMetrics(policy=self.config.record_policy)
        self._reset_engine()

    @property
    def running(self) -> Sequence[ServingRequest]:
        """The running batch in admission order.  Read-only: membership
        changes only through :attr:`batch` (join / leave)."""
        return self.batch.requests

    @property
    def clock(self) -> float:
        """This engine's simulated time (a :class:`~repro.sim.SimClock`)."""
        return self._sim.now

    @clock.setter
    def clock(self, value: float) -> None:
        # outer layers legitimately re-seat an idle engine's timeline
        # (replica spawn at the cluster frontier, admission-floor bumps)
        self._sim.reseat(value)
        self._quiet_at = None

    def submit(self, request: TraceRequest) -> ServingRequest:
        """Enqueue one request; it joins the queue once the clock reaches
        its ``arrival_s`` (which may be in the past: it joins immediately,
        at the next :meth:`step`).  A request carrying a ``deadline_s``
        schedules its own expiry as a :class:`~repro.sim.Cancel` event.
        An id still live here, or a model the manager does not register,
        is rejected."""
        rid = request.request_id
        if rid in self._live:
            raise ValueError(f"request id {rid!r} is already live")
        if request.model_id not in self.manager:
            raise unknown_model(request)
        req = ServingRequest(trace=request)
        self._pending.push(Arrival(time=request.arrival_s, request=req))
        self._quiet_at = None
        self._n_submitted += 1
        self._live[rid] = req
        if request.deadline_s is not None:
            self.schedule_cancel(request.request_id, request.deadline_s,
                                 reason="deadline")
        return req

    def lookup(self, request_id: int) -> Optional[ServingRequest]:
        """The serving state of a live request; None once it retired
        (its record is in the sink and on its handle) or if unknown."""
        return self._live.get(request_id)

    def schedule_cancel(self, request_id: int, at_s: float,
                        reason: str = "cancel") -> None:
        """Schedule a cancellation at simulated time ``at_s``.

        The cancel applies at the first iteration boundary at or after
        ``at_s`` (an in-flight iteration always completes); idle engines
        wake at ``at_s`` exactly, so application time is deterministic
        and identical across idle-skip modes.  A cancel whose target has
        already finished is stale and ignored.
        """
        self._cancels.push(Cancel(time=float(at_s), request_id=request_id,
                                  reason=reason))
        self._quiet_at = None

    def abort(self, request_id: int,
              reason: str = "cancel") -> Optional[ServingRequest]:
        """Remove a request *now* (at the current clock), wherever it is:
        mid-batch (freeing its scheduler slot and KV share), queued, or
        not yet arrived.  Only tokens actually generated are charged —
        the request's record carries ``served_tokens`` and a
        ``cancelled``/``expired`` status.  Returns the aborted request,
        or None when the id is unknown or already terminal."""
        req = self._apply_cancel(request_id, reason)
        if req is not None and self._sanitize:
            _sanitizer.check_released(self, req)
        return req

    @property
    def unfinished(self) -> int:
        """Submitted requests that have not finished yet."""
        return self._n_submitted - self._n_retired

    @property
    def backlog(self) -> int:
        """Arrived-but-unfinished requests: the queue pressure an
        autoscaler should react to.  Unlike :attr:`unfinished`, requests
        replayed ahead of time with future arrivals don't count until the
        clock reaches them (an O(log n) kernel count, not a heap scan)."""
        return self.unfinished - self._pending.count_after(self.clock)

    @property
    def batch_limit(self) -> Optional[int]:
        """The most requests one iteration may batch: the scheduler's
        limit, or the engine's own; None when it has neither."""
        sched = getattr(self, "scheduler_config", None)
        if sched is not None:
            return sched.max_batch_requests
        return getattr(self, "max_batch_requests", None)

    def utilization(self) -> Dict[str, float]:
        """Instantaneous occupancy gauges for the telemetry layer.

        ``batch_occupancy`` is running requests over :attr:`batch_limit`
        (0.0 without one); ``kv_occupancy`` is engine-specific — 0.0
        here, overridden by engines that track a KV-token budget.
        """
        cap = self.batch_limit
        occupancy = len(self.batch) / cap if cap else 0.0
        return {"batch_occupancy": occupancy, "kv_occupancy": 0.0}

    def step(self) -> bool:
        """Run one scheduling iteration.

        Returns False when there is nothing left to do (no queued, running,
        or future-pending work) — the engine is drained.
        """
        self._quiet_at = None
        self._before_step()

        # 0. due cancellations/deadline expiries apply at the boundary
        #    (nothing due: no pop_due generator is built, here or in 1.)
        now = self._sim.now
        if self._cancels.due(now):
            for event in self._cancels.pop_due(now):
                self.abort(event.request_id, event.reason)

        # 1. arrivals up to the clock join the engine's queue
        if self._pending.due(now):
            phases = self._wants(PhaseTransition)
            for event in self._pending.pop_due(now):
                req = event.request
                self.on_arrival(req)
                if phases:
                    self._phase(req, "queue", req.arrival_s)

        batch = self.batch
        if not batch.requests and not self.has_queued():
            wake = self._next_wake()
            if wake is None:
                return False
            # idle-skip: jump to the next scheduled arrival or cancel
            # (bounded to a quantum when dense activity-scanning is on)
            self.clock = self._bounded_jump(max(now, wake))
            return True

        # 2-3. engine-specific admission (scheduling, swaps, KV control)
        admission = self.admit()
        admitted = admission.admitted
        load_time = admission.load_time_s
        clock = self._sim.now
        phases = bool(admitted) and self._wants(PhaseTransition)
        for req in admitted:
            req.state = RequestState.RUNNING
            if req.first_scheduled_s is None:
                req.first_scheduled_s = clock
                req.queue_wait_s = clock - req.arrival_s
                if phases:
                    self._phase(req, "prefill", clock)
            req.loading_s += load_time

        # 4. execute one fused prefill+decode iteration
        cost = self.iteration_cost(admitted)
        if cost is None:
            # nothing executable: either we only paid a load, or we stall
            if load_time == 0.0:
                return self._stall()
            executed, iter_time = False, 0.0
        else:
            executed, iter_time = True, cost
        self._sim.tick(iter_time + load_time)
        if executed:
            self.stats.total_load_s += load_time
            n_models = len(batch.per_model)
            if admitted:                 # variants admitted alongside
                n_models = len(batch.per_model.keys()
                               | {r.model_id for r in admitted})
            self._count_iterations(1, len(batch) + len(admitted), n_models)

        # token accounting is the batch's: the admitted requests join
        # (their first token lands this iteration), then one epoch gives
        # every member its token and iter_time and hands back the finished
        now = self._sim.now
        n_old = len(batch.requests)
        for req in admitted:
            req.prefilled = True
            if req.first_token_s is None:
                req.first_token_s = now
                if phases:
                    self._phase(req, "decode", now)
            batch.join(req)
        newly_done = batch.advance(iter_time)
        if self.on_token is not None:
            # the newly admitted first, then the older members
            for req in batch.requests[n_old:] + batch.requests[:n_old]:
                self.on_token(req, now)

        # 5. retire finished requests; engine-specific cleanup (preemption)
        self._finish(newly_done, now, iter_time if executed else None,
                     load_time, len(admitted))
        return True

    def _finish(self, done: List[ServingRequest], now: float,
                iter_time: Optional[float], load_time: float = 0.0,
                n_admitted: int = 0) -> None:
        """The finishing tail of an iteration, :meth:`step`'s and
        :meth:`_coast`'s alike: ``done`` (what the batch's ``advance``
        handed back) leaves the batch finished at ``now`` and retires,
        the :meth:`retire` hook's cleanup moves the clock, the iteration
        is published where wanted (``iter_time`` None: none executed),
        the sanitizer checks the batch and each release, and
        ``on_finish`` hears each finish."""
        batch = self.batch
        if done:
            for req in done:
                batch.leave(req)
                req.state = RequestState.FINISHED
                req.finish_s = now
            self._retire(done)
        self._sim.tick(self.retire(done))
        if iter_time is not None and self._wants(IterationDone):
            self.on_event(IterationDone(
                time=self._sim.now, iter_time_s=iter_time,
                load_time_s=load_time, n_running=len(batch.requests),
                n_admitted=n_admitted, n_finished=len(done),
                source=self.name))
        if self._sanitize:
            _sanitizer.check_running_batch(self.name, batch)
            for req in done:             # retire() has run: chains are back
                _sanitizer.check_released(self, req)
        if self.on_finish is not None:
            for req in done:
                self.on_finish(req, self._sim.now)

    def run_until_drained(self) -> None:
        """Step until every submitted request finished (or the engine is
        stuck / past ``max_sim_seconds``), through :meth:`_drain`."""
        self._drain()

    @property
    def observed(self) -> bool:
        """Somebody hears this engine per iteration: a token hook, or an
        event hook that wants ``IterationDone`` (the demand rule).  Heard
        only on completion, a leaf engine still coasts: work a callback
        submits "now" is its own next arrival, which bounds the coast."""
        return self.on_token is not None or self._wants(IterationDone)

    @property
    def at_horizon(self) -> bool:
        """True when ``step()`` would simulate past ``max_sim_seconds``."""
        return self.clock >= self.config.max_sim_seconds

    def build_result(self) -> ServingResult:
        """Snapshot the retired requests as a :class:`ServingResult`.

        The result carries a copy of the streaming sink; under
        ``KEEP_ALL`` its record list is identical (same memoized record
        objects, same retirement order) to the pre-streaming snapshot,
        under ``DROP`` the sink's sketches stand in for the missing
        records.
        """
        stream = self.metrics.copy()
        records = stream.records
        if stream.n_observed:
            # sink min/max are exact; same arithmetic as the old
            # max(finish) - min(arrival) over the record list
            makespan = stream.max_finish_s - stream.min_arrival_s
        else:
            makespan = self.clock
        return ServingResult(
            engine=self.name, records=records,
            makespan_s=max(makespan, 1e-9),
            stats=self.stats if self.include_stats else None,
            config=self.result_config(), stream=stream)

    # ------------------------------------------------------------------ #
    # offline replay (the legacy entry point)
    # ------------------------------------------------------------------ #
    def run(self, trace: Trace) -> ServingResult:
        """Replay a pre-materialized trace: submit everything, drain."""
        self.reset()
        for t in trace:
            self.submit(t)
        self.run_until_drained()
        return self.build_result()

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _reset_engine(self) -> None:
        """hook: clear engine-specific state (queues, residency, caches)."""

    def _before_step(self) -> None:
        """hook: runs before arrival ingestion (e.g. warm-up staging)."""

    def on_arrival(self, request: ServingRequest) -> None:
        """hook: an arrived request joins the engine's queue."""
        raise NotImplementedError

    def has_queued(self) -> bool:
        """hook: is there work waiting for admission?"""
        raise NotImplementedError

    def admit(self) -> Admission:
        """Apply :meth:`_decide`: admissions, swaps, critical-path load."""
        return self._apply(self._decide())

    def _decide(self) -> Any:
        """hook: what :meth:`admit` would do, moving nothing; falsy
        exactly when it would admit, load and evict nothing."""
        raise NotImplementedError

    def _apply(self, decision: Any) -> Admission:
        """hook: carry out a :meth:`_decide` decision."""
        raise NotImplementedError

    def iteration_cost(self, admitted: List[ServingRequest]) -> Optional[float]:
        """Compose the batch and price it; None if nothing runs."""
        if admitted:
            batch = self._compose(admitted)
            plan, context = self._linear_plan(batch), batch.context_tokens
        else:
            plan, context = self._decode_plan(), self.batch.context_tokens
        return self.cost.plan_time(plan, context) or None

    def _compose(self, admitted: List[ServingRequest]) -> BatchComposition:
        """hook: what an iteration admitting ``admitted`` executes."""
        raise NotImplementedError

    def _linear_plan(self, batch: BatchComposition) -> LinearPlan:
        """hook: the price of ``batch`` but for its attention context."""
        raise NotImplementedError

    def _decode_plan(self) -> LinearPlan:
        """The plan of an iteration that admits nothing (an engine may
        keep it while the batch's rows stand)."""
        return self._linear_plan(self._compose([]))

    def retire(self, newly_done: List[ServingRequest]) -> float:
        """hook: post-retirement cleanup (preemption); returns extra
        seconds to advance the clock."""
        return 0.0

    def _coast(self, limit_s: float, finish_s: float = math.inf) -> bool:
        """Execute, exactly as :meth:`step` would have, every upcoming
        iteration that provably ingests and admits nothing, each starting
        before ``limit_s`` (the drain loop's horizon: this engine's cap, a
        cluster's or a disagg owner's next event).  While :meth:`_decide`
        is empty (applied as each skipped :meth:`admit` would), an
        iteration prices as :meth:`_decode_plan` at a context grown by
        ``len(batch)`` and ingests nothing if it starts before the next
        arrival or live cancel; up to the first finish bucket only the
        clock, the epoch ledger and ``stats`` move, and the iteration that
        finishes members goes through :meth:`_finish`, as in
        :meth:`step` if it starts before ``finish_s`` too (the parent's
        :meth:`~DrainLoop._finish_bound`).  With an ``on_finish`` or
        ``on_event`` hook the run ends there (a callback may act, or start
        to listen, before the next iteration); without one the decision
        is asked again and the run goes on.  Only the drain loop calls it
        (:class:`DrainLoop`), for a parent nobody observes, so nobody
        listens per iteration.  Did it move?"""
        batch = self.batch
        start_s = self._sim.now
        if not batch.requests or start_s >= limit_s:
            return False
        wake = self._next_wake()
        if wake is not None and wake < limit_s:
            if start_s >= wake:
                return False
            limit_s = wake
        moved = False
        while True:
            decision = self._decide()
            if decision:
                break                 # the next iteration admits or loads
            self._apply(decision)
            start_s = self._sim.now
            # the iterations up to and including the next finish
            n = batch.next_finish_epoch() - batch.epoch
            cost, plan = self.cost, self._decode_plan()
            context, growth = batch.context_tokens, len(batch.requests)
            times, now = cost.plan_run(plan, context, growth, n - 1,
                                       start_s, limit_s)
            if len(times) == n - 1 and now < limit_s and now < finish_s:
                times.append(cost.plan_time(plan, context + (n - 1) * growth))
                now += times[-1]
            if not times:
                break
            done = batch.advance_run(times)
            self._sim.advance(now)
            self._count_iterations(len(times), len(batch.requests),
                                   len(batch.per_model))
            if self._sanitize:
                _sanitizer.check_coast_run(self, start_s, times, done, moved)
            moved = True
            if not done:
                # stopped at the limit: _quiet_until's answer, known here:
                # each quiet iteration left takes at least as long as the
                # last one run; never below the clock (the run used them
                # all up, or crossed the wake)
                quiet = (now + (n - 1 - len(times)) * times[-1]) \
                    * _QUIET_MARGIN
                self._quiet_at = max(now, quiet if wake is None
                                     or wake > quiet else wake)
                break
            self._quiet_at = None
            self._finish(done, now, times[-1])
            if self.on_finish is not None or self.on_event is not None \
                    or not batch.requests:
                break
        return moved

    def _quiet_until(self) -> float:
        """The earliest time this engine could start an iteration that is
        not provably quiet: one that ingests, admits, cancels or finishes,
        which a completion listener may hear.  While the batch stands each
        quiet iteration left takes at least as long as the next (the
        attention context only grows): the clock plus that many, less a
        rounding margin, up to the next arrival or live cancel.  With
        nothing running, an admission or an event due: the clock (a
        composite engine's own clock never moves: never quiet); never
        below it.  Kept until the engine moves or takes work."""
        until = self._quiet_at
        if until is None:
            until = self._sim.now
            batch = self.batch
            n = batch.next_finish_epoch() - 1 - batch.epoch \
                if batch.requests else 0
            if n > 0 and not (self.has_queued() and self._decide()):
                wake = self._next_wake()
                if wake is None or wake > until:
                    iter_s = self.cost.plan_time(self._decode_plan(),
                                                 batch.context_tokens)
                    quiet = (until + n * iter_s) * _QUIET_MARGIN
                    until = max(until, quiet if wake is None
                                or wake > quiet else wake)
            self._quiet_at = until
        return until

    def _count_iterations(self, n: int, batch_size: int,
                          n_models: int) -> None:
        """Count ``n`` iterations of ``batch_size`` requests."""
        stats = self.stats
        stats.iterations += n
        stats.batched_requests += n * batch_size
        stats.batched_deltas += n * n_models

    def _touch_active(self, resident: "OrderedDict[str, Any]",
                      admitted: List[ServingRequest],
                      resident_changed: bool) -> None:
        """Move every active model to the recent end of ``resident``, in
        batch order then admission order (a hash-ordered set here would
        make later evictions depend on PYTHONHASHSEED).  Touching again
        with the same batch, nothing admitted and ``resident`` unchanged
        would reproduce the same order, so that case is skipped."""
        batch = self.batch
        if not admitted and not resident_changed \
                and batch.version == self._lru_version:
            return
        self._lru_version = batch.version
        for model_id in batch.per_model:
            if model_id in resident:
                resident.move_to_end(model_id)
        for req in admitted:
            if req.model_id in resident:
                resident.move_to_end(req.model_id)

    @staticmethod
    def _evict_lru(resident: "OrderedDict[str, Any]",
                   active: Container[str]) -> Optional[Any]:
        """Pop the least-recently-used inactive model; its entry, or None
        when every resident model is active."""
        for model_id in resident:
            if model_id not in active:
                return resident.pop(model_id)
        return None

    def _stall_clock(self, next_arrival_s: float) -> float:
        """hook: where the clock jumps when nothing was runnable."""
        return max(self.clock, next_arrival_s)

    def _next_wake(self) -> Optional[float]:
        """The earliest scheduled event: an arrival or a *live* cancel.
        A pending deadline can therefore unwedge an engine stuck on an
        inadmissible request — its expiry frees the queue slot.  Stale
        cancels (target already released) are discarded here rather than
        waited on: jumping an idle clock to a dead event's time would
        perturb the frontier for no simulated effect."""
        cancels = self._cancels
        while cancels and cancels.peek().request_id not in self._live:
            cancels.pop()
        arrival, cancel = self._pending.peek_time(), cancels.peek_time()
        if cancel is None or (arrival is not None and arrival < cancel):
            return arrival
        return cancel

    def _stall(self) -> bool:
        wake = self._next_wake()
        if wake is not None:
            self.clock = self._bounded_jump(self._stall_clock(wake))
            return True
        return False

    def _bounded_jump(self, target: float) -> float:
        """An idle jump to ``target``, quantized when dense stepping is
        on.  The quantum subdivides the gap but never overshoots the
        target, so both modes ingest every arrival at the same clock."""
        quantum = self.config.idle_quantum_s
        if quantum is None:
            return target
        return min(target, self.clock + quantum)

    def result_config(self) -> Dict[str, object]:
        """hook: the ``config`` dict attached to results."""
        return {"tp_degree": self.config.tp_degree}

    def remove_queued(self, request_id: int) -> Optional[ServingRequest]:
        """hook: withdraw a request from the engine's admission queue
        (returns it), or None when it is not queued there."""
        return None

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #
    def _wants(self, event_type: Type[Event]) -> bool:
        """Would an ``event_type`` published now be observed?  The one
        demand rule: build an event only if this is True.  No hook: no.
        A hook bound to a kernel (``kernel.emit``, or the sanitizer's
        closure standing in for it): whatever that kernel wants, asked at
        publish time so a later subscriber counts at once.  Any other
        callable hears everything."""
        hook = self.on_event
        if hook is None:
            return False
        kernel = getattr(hook, "__self__", None)
        return not isinstance(kernel, SimKernel) or kernel.wants(event_type)

    def _phase(self, req: ServingRequest, phase: str, time: float,
               status: str = "") -> None:
        """Publish ``req`` entering lifecycle ``phase`` (the caller asked
        :meth:`_wants` first)."""
        self.on_event(PhaseTransition.of(req, phase, time, self.name, status))

    # ------------------------------------------------------------------ #
    # retirement
    # ------------------------------------------------------------------ #
    def _retire(self, requests: List[ServingRequest]) -> None:
        """Account terminal requests, in order — the one retire body:
        :meth:`step` passes its finished partition, a cancel, a deadline
        expiry or a disagg finalize a one-element list.  Each record is
        folded into the streaming sink (which keeps it or not, per
        policy), then the request is released, so live state stays
        O(active).  The memoized record is the same object the gateway
        finish hooks will see.  A released request drops out of
        :meth:`lookup`; late cancels against it are discarded as stale."""
        # bound per call, never at construction: a profiler may swap
        # StreamingMetrics.observe on the class after the engine exists
        observe = self.metrics.observe
        phases = self._wants(PhaseTransition)
        live = self._live
        for req in requests:
            self._n_retired += 1
            observe(req.record())
            if phases:
                self._phase(req, "retire", req.finish_s, req.state.value)
            live.pop(req.request_id, None)

    # ------------------------------------------------------------------ #
    # cancellation mechanics
    # ------------------------------------------------------------------ #
    def _apply_cancel(self, request_id: int,
                      reason: str) -> Optional[ServingRequest]:
        req = self._live.get(request_id)
        if req is None:
            return None              # unknown, or stale: already released
        self._quiet_at = None
        if req in self.batch.requests:
            # frees the batch slot and the KV share immediately: the next
            # admit() sees one fewer running request
            self.batch.leave(req)
        elif self.remove_queued(request_id) is None:
            # not queued either: still a pending (future) arrival
            self._pending.remove_request(request_id)
        req.state = RequestState.EXPIRED if reason == "deadline" \
            else RequestState.CANCELLED
        req.finish_s = max(self.clock, req.arrival_s)
        if self._wants(Cancel):
            # before the retire transition closes the request's span, so
            # a span recorder can annotate it with the reason
            self.on_event(Cancel(time=req.finish_s, request_id=request_id,
                                 reason=reason))
        self._retire([req])
        self.stats.aborts += 1
        if self.on_finish is not None:
            self.on_finish(req, self.clock)
        if self._sanitize:
            _sanitizer.check_running_batch(self.name, self.batch)
        return req


# ------------------------------------------------------------------ #
# registry
# ------------------------------------------------------------------ #
ENGINES: Dict[str, Type[ServingEngine]] = {}


def register_engine(cls: Type[ServingEngine]) -> Type[ServingEngine]:
    """Class decorator: make an engine constructible by name."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"engine class {cls.__name__} needs a name")
    if cls.name in ENGINES:
        raise ValueError(f"duplicate engine name {cls.name!r}")
    ENGINES[cls.name] = cls
    return cls


def create_engine(name: str, manager: ModelManager, node: GPUNode,
                  scheduler_config: Optional[SchedulerConfig] = None,
                  engine_config: Optional[EngineConfig] = None,
                  **kwargs) -> ServingEngine:
    """Construct a registered engine by name with uniform arguments."""
    if name not in ENGINES:
        raise KeyError(f"unknown engine {name!r}; "
                       f"registered: {sorted(ENGINES)}")
    return ENGINES[name].build(manager, node,
                               scheduler_config=scheduler_config,
                               engine_config=engine_config, **kwargs)
