"""Continuous-batching scheduler with skip-the-line and preemption (§5.4).

Per iteration the scheduler admits up to ``max_batch_requests`` requests
FCFS, spanning at most ``max_concurrent_deltas`` distinct variants.  Once a
variant is selected, *later* requests for it may jump over earlier-queued
requests of unselected variants ("skip-the-line") — that is what builds
batches despite sporadic per-variant traffic.  Each skipping request records
its *parent* (the earliest admitted request of the same variant); when the
parent finishes, its children are preempted and reinserted at their original
queue position, bounding starvation of the passed-over variants.
"""

from __future__ import annotations

from bisect import insort_right
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Container, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .request import RequestState, ServingRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import RunningBatch

__all__ = ["SchedulerConfig", "SchedulingDecision", "ContinuousBatchScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of §5.4: K (batch), N (concurrent deltas), preemption policy.

    ``preempt_min_remaining`` implements the paper's §8 refinement: a
    skip-the-line request within that many tokens of finishing is *not*
    preempted when its parent completes (preempting nearly-done work only
    creates more starvation).  The engine supplies the remaining-token
    estimate — an oracle here, an output-length predictor in a real
    deployment.

    ``model_priorities`` implements §8's "prioritize models based on their
    constraints": per-variant integer priorities (higher = served first);
    admission considers the queue in (priority, arrival) order instead of
    pure FCFS.  Variants without an entry default to priority 0.
    """

    max_batch_requests: int = 32
    max_concurrent_deltas: int = 8
    preemption: bool = True
    preempt_min_remaining: int = 0
    model_priorities: Optional[Mapping[str, int]] = None

    def __post_init__(self):
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if self.max_concurrent_deltas < 1:
            raise ValueError("max_concurrent_deltas must be >= 1")
        if self.preempt_min_remaining < 0:
            raise ValueError("preempt_min_remaining must be >= 0")

    def priority_of(self, model_id: str) -> int:
        if self.model_priorities is None:
            return 0
        return self.model_priorities.get(model_id, 0)


@dataclass
class SchedulingDecision:
    """What to admit this iteration; falsy when it admits and loads
    nothing.  The commit names each ``skipped`` (skip-the-line) request's
    parent (None: none) and leaves ``queue`` queued (None: the queue
    minus its admitted head)."""

    admitted: List[ServingRequest] = field(default_factory=list)
    selected_deltas: Set[str] = field(default_factory=set)
    new_deltas: List[str] = field(default_factory=list)  # need loading
    skipped: List[Tuple[ServingRequest, Optional[int]]] = \
        field(default_factory=list)
    queue: Optional[List[ServingRequest]] = None

    def __bool__(self) -> bool:
        return bool(self.admitted or self.new_deltas)


class ContinuousBatchScheduler:
    """FCFS queue + per-iteration admission under (K, N) limits.

    ``version`` moves on every queue mutation (an insert, a ``remove``
    that hits, a ``schedule`` that admits) — the twin of
    :attr:`RunningBatch.version <repro.serving.base.RunningBatch>`.
    :meth:`schedule` commits what :meth:`decide` returns; the decision
    is a pure function of the config, the queue, the running batch's
    per-variant counts and size, and the resident set, so a caller that
    saw it admit nothing may skip it while both versions (and the
    resident set) stand.
    """

    def __init__(self, config: SchedulerConfig):
        self.config = config
        self._queue: List[ServingRequest] = []
        self.version = 0

    # ------------------------------------------------------------------ #
    # queue maintenance
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fcfs_key(request: ServingRequest):
        # arrival-ordered FCFS; request_id only breaks simultaneous-arrival
        # ties.  Offline traces assign ids in arrival order so the two
        # coincide, but online gateway submissions may carry explicit
        # arrival times that do not follow id order.
        return (request.arrival_s, request.request_id)

    def _insert(self, request: ServingRequest) -> None:
        # the queue is maintained in FCFS order as an invariant; arrivals
        # are usually in order (append), out-of-order joins (explicit
        # arrival times, preemption reinserts) binary-insert after any
        # equal keys — identical placement to the old append+stable-sort,
        # without the O(n log n) per-add that dominated overload runs
        queue = self._queue
        if not queue or self._fcfs_key(queue[-1]) <= self._fcfs_key(request):
            queue.append(request)
        else:
            insort_right(queue, request, key=self._fcfs_key)
        self.version += 1

    def add(self, request: ServingRequest) -> None:
        request.state = RequestState.QUEUED
        self._insert(request)

    def reinsert(self, request: ServingRequest) -> None:
        """Return a preempted request to its original FCFS position."""
        request.state = RequestState.PREEMPTED
        request.parent_id = None
        self._insert(request)

    def remove(self, request_id: int) -> Optional[ServingRequest]:
        """Withdraw a queued request (cancellation); None if not queued."""
        for i, req in enumerate(self._queue):
            if req.request_id == request_id:
                self.version += 1
                return self._queue.pop(i)
        return None

    @property
    def queued(self) -> List[ServingRequest]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def schedule(self, running: "RunningBatch",
                 resident_deltas: Container[str]) -> SchedulingDecision:
        """Admit queued requests alongside the already-running batch:
        :meth:`decide`, then mark the skip-the-line admissions and take
        the admitted out of the queue."""
        decision = self.decide(running, resident_deltas)
        if decision.admitted:
            for req, parent_id in decision.skipped:
                req.skipped_line = True
                if parent_id is not None:
                    req.parent_id = parent_id
            if decision.queue is None:
                del self._queue[:len(decision.admitted)]
            else:
                self._queue = decision.queue
            self.version += 1
        return decision

    def decide(self, running: "RunningBatch",
               resident_deltas: Container[str]) -> SchedulingDecision:
        """What :meth:`schedule` would admit and load, moving nothing.

        ``running`` requests keep their slots; their variants count toward
        N.  ``resident_deltas`` is used only to report which selected
        variants still need loading.
        """
        cfg = self.config
        selected: Set[str] = set(running.per_model)
        decision = SchedulingDecision(selected_deltas=selected)
        capacity = cfg.max_batch_requests - len(running.requests)
        if capacity <= 0:
            return decision
        admitted = decision.admitted
        # admission order: FCFS, or (priority desc, arrival) when the
        # operator configured per-model priorities (§8)
        if cfg.model_priorities is None:
            order = self._queue
        else:
            order = sorted(self._queue,
                           key=lambda r: (-cfg.priority_of(r.model_id),)
                           + self._fcfs_key(r))

        # earliest in-flight/admitted request per variant, for parent
        # links; built on the first skip-the-line admission that needs it
        parent_of: Optional[Dict[str, ServingRequest]] = None
        # queued requests passed over; None while the admitted requests
        # are exactly the head of ``order``
        kept: Optional[List[ServingRequest]] = None
        n_walked = len(order)
        for i, req in enumerate(order):
            if capacity <= 0:
                n_walked = i
                break
            delta = req.model_id
            if delta not in selected:
                if len(selected) >= cfg.max_concurrent_deltas:
                    if kept is None:
                        kept = []
                    kept.append(req)
                    continue
                selected.add(delta)
            if kept is not None:
                parent_id = None
                if cfg.preemption:
                    if parent_of is None:
                        parent_of = self._earliest_per_model(
                            running.requests, admitted)
                    parent = parent_of.get(delta)
                    if parent is not None:
                        parent_id = parent.request_id
                    else:
                        parent_of[delta] = req
                decision.skipped.append((req, parent_id))
            admitted.append(req)
            capacity -= 1
        # only the head of the FCFS queue admitted: the commit pops it in
        # place (no O(queue) copy per admission); else the queue to keep
        if admitted and (kept is not None or order is not self._queue):
            if kept is None:
                kept = order             # a private priority-ordered copy
                del kept[:n_walked]
            else:
                kept.extend(order[n_walked:])
            if cfg.model_priorities is not None:
                # priority order interleaves arrivals; restore FCFS.  In
                # the plain-FCFS path kept is a subsequence of the already
                # FCFS-ordered queue, so it is sorted by construction.
                kept.sort(key=self._fcfs_key)
            decision.queue = kept
        decision.new_deltas = sorted(
            d for d in selected if d not in resident_deltas)
        return decision

    def _earliest_per_model(
            self, running: Sequence[ServingRequest],
            admitted: Sequence[ServingRequest]) -> Dict[str, ServingRequest]:
        """Earliest running request per variant, else the first request
        of that variant admitted so far this iteration."""
        parent_of: Dict[str, ServingRequest] = {}
        for req in running:
            cur = parent_of.get(req.model_id)
            if cur is None or self._fcfs_key(req) < self._fcfs_key(cur):
                parent_of[req.model_id] = req
        for req in admitted:
            parent_of.setdefault(req.model_id, req)
        return parent_of

    # ------------------------------------------------------------------ #
    # preemption
    # ------------------------------------------------------------------ #
    def children_to_preempt(self, finished: ServingRequest,
                            running: "RunningBatch") -> List[ServingRequest]:
        """Running skip-the-line requests whose parent just finished, in
        batch order; no scan when no member names it (``parents``).

        Children predicted to finish within ``preempt_min_remaining``
        tokens are spared (§8's output-length-prediction refinement).
        """
        if not self.config.preemption or \
                finished.request_id not in running.parents:
            return []
        return [r for r in running.requests
                if r.parent_id == finished.request_id and not r.done
                and r.remaining_tokens > self.config.preempt_min_remaining]
