"""Multi-tenant admission control at the cluster frontier.

The paper's multi-variant serving story assumes many tenants sharing one
deployment; this module adds the control layer that makes sharing safe:

* :class:`Tenant` — one tenant's contract: fair-share ``weight``, SLO
  class (or an explicit TTFT SLO), a token-bucket rate limit
  (``rate_tokens_per_s`` / ``burst_tokens``), and an outstanding-request
  quota (``max_outstanding``);
* :class:`TokenBucket` — the classic leaky/token bucket on the simulated
  clock, with borrow-ahead semantics so deferred requests serialize on a
  per-tenant virtual timeline;
* :class:`AdmissionController` — decides, per offered request:
  **reject** (quota exceeded), **shed** (predicted TTFT
  under the current backlog breaches the tenant's SLO), **defer**
  (queue until the bucket refills), or **admit**; admitted work queues at
  the frontier in either FCFS arrival order or VTC fair order
  (per-tenant virtual token counters with counter-lift, after Sheng et
  al.'s Virtual Token Counter and the FairServe family);
* :class:`TenantGateway` — wraps any engine-owning
  :class:`~repro.serving.gateway.Gateway` (a single engine or a cluster)
  behind the same ``submit`` / ``step`` / ``run_until_drained`` /
  ``replay`` surface, holding requests at the frontier and releasing
  them through ``inner.ingest`` in admission order while keeping the
  engine-side queue shallow enough (``engine_queue_depth``) for the fair
  order to survive the engines' internal FCFS scheduling.

With the default tenant, FCFS order, and no limits the layer is a pure
pass-through: replaying an untenanted trace produces records identical to
``gateway.replay(trace)`` without admission control.

Cancellation is first-class: ``submit`` returns a
:class:`~repro.serving.handle.RequestHandle`, and a request withdrawn
(or deadline-expired) at any point gets its un-served token-bucket
charge refunded, its quota slot released, its VTC counter lifted back
down by the un-served weighted work, and a ``cancelled``/``expired``
count in its tenant's :class:`TenantAdmissionStats` — abandoning work
never costs a tenant future admission capacity or scheduling priority.

Time comes from the :mod:`repro.sim` kernel: the admission clock is
*derived* from the wrapped gateway's frontier (``inner.frontier`` — the
single clock authority, owned by the cluster kernel or the engine's
:class:`~repro.sim.SimClock`) rather than maintained here; offered
requests queue as :class:`~repro.sim.Arrival` events, and the controller
publishes a :class:`~repro.sim.BucketRefill` event whenever a token
bucket defers a request and a journal or subscriber wants one
(instrumentation only — the authoritative wake-up time remains
:meth:`AdmissionController.next_eligible_s`, which the frontier polls).
The tenancy layer also feeds :attr:`AdmissionController.total_queued`
back into the cluster autoscaler
(:meth:`~repro.serving.gateway.Gateway.set_admission_probe`), so
frontier-held requests count as offered load and the cluster scales
before shedding starts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..sim import (Arrival, BucketRefill, Cancel, EventQueue, KeyedHeap,
                   SimKernel)
from ..sim import events as sim_events
from ..sim.clock import sanitizer as _sanitizer
from ..workload.spec import Trace, TraceRequest
from .gateway import CancelSchedule, Gateway
from .handle import HandleStatus
from .metrics import ServingResult
from .model_manager import unknown_model
from .request import (DEFAULT_TENANT, RequestRecord,
                      synthesized_abort_record)

__all__ = [
    "DEFAULT_TENANT", "SLO_CLASSES", "Tenant", "TokenBucket",
    "AdmissionDecision", "TenantAdmissionStats", "AdmissionController",
    "TenantGateway",
]

#: SLO classes and their default TTFT targets (seconds)
SLO_CLASSES: Dict[str, float] = {
    "interactive": 10.0,
    "standard": 30.0,
    "batch": 120.0,
}

#: completions needed before the shed predictor trusts its rate estimate
_MIN_COMPLETIONS_FOR_PREDICTION = 8

#: fallback frontier-queue depth (per replica) when VTC is on, no depth was
#: given, and the engine's batch size cannot be inferred
_DEFAULT_VTC_DEPTH = 4


@dataclass(frozen=True)
class Tenant:
    """One tenant's serving contract.

    ``weight`` scales the tenant's fair share under VTC scheduling.
    ``slo_class`` picks a default TTFT SLO from :data:`SLO_CLASSES`;
    ``ttft_slo_s`` overrides it.  ``rate_tokens_per_s`` meters admission
    in model tokens (prompt + output) through a token bucket of capacity
    ``burst_tokens`` (default: four seconds of rate); ``max_outstanding``
    caps the tenant's in-system requests (queued at the frontier plus
    dispatched-but-unfinished).  A tenant with neither a rate nor a quota
    is unthrottled.

    ``patience_s`` models the tenant's *clients*: how long they actually
    wait for a first token before abandoning.  When set, the shed policy
    trips at ``min(slo_s, patience_s)`` — work predicted to outlast the
    clients' patience is shed preemptively even when it would technically
    meet the SLO, because its tokens would be wasted on an abandoned
    request anyway.  ``None`` (default) keeps the SLO-only behavior.
    """

    tenant_id: str
    weight: float = 1.0
    slo_class: str = "standard"
    ttft_slo_s: Optional[float] = None
    rate_tokens_per_s: Optional[float] = None
    burst_tokens: Optional[float] = None
    max_outstanding: Optional[int] = None
    patience_s: Optional[float] = None

    def __post_init__(self):
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(f"unknown slo_class {self.slo_class!r}; "
                             f"known: {sorted(SLO_CLASSES)}")
        if self.rate_tokens_per_s is not None and self.rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be > 0 when set")
        if self.burst_tokens is not None:
            if self.rate_tokens_per_s is None:
                raise ValueError("burst_tokens needs rate_tokens_per_s")
            if self.burst_tokens <= 0:
                raise ValueError("burst_tokens must be > 0")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1 when set")
        if self.patience_s is not None and self.patience_s <= 0:
            raise ValueError("patience_s must be > 0 when set")

    @property
    def slo_s(self) -> float:
        """The TTFT SLO the shed policy enforces for this tenant."""
        if self.ttft_slo_s is not None:
            return self.ttft_slo_s
        return SLO_CLASSES[self.slo_class]

    @property
    def shed_threshold_s(self) -> float:
        """The predicted-TTFT level the shed policy trips at: the SLO,
        tightened to the clients' abandonment patience when that is the
        binding constraint."""
        if self.patience_s is not None:
            return min(self.slo_s, self.patience_s)
        return self.slo_s

    @property
    def unthrottled(self) -> bool:
        return self.rate_tokens_per_s is None and self.max_outstanding is None

    def resolved_burst(self) -> Optional[float]:
        if self.rate_tokens_per_s is None:
            return None
        return self.burst_tokens if self.burst_tokens is not None \
            else 4.0 * self.rate_tokens_per_s


class TokenBucket:
    """Token bucket on the simulated clock, with borrow-ahead.

    ``charge`` always succeeds and returns the time the charged request
    becomes eligible; when the bucket lacks tokens the balance goes
    negative, so successive deferred requests serialize at ``1/rate``
    spacing on the tenant's virtual timeline (a virtual-finish-time rate
    limiter, not a drop-tail one).

    The bucket holds no clock of its own: ``_refilled_s`` is merely the
    kernel time of its last refill (state, like the token balance), and
    every ``now`` it sees comes from the caller's timeline — ultimately
    :attr:`TenantGateway._frontier`, i.e. the one :mod:`repro.sim`
    clock.  When a charge defers, the controller publishes the wake-up
    as a :class:`~repro.sim.BucketRefill` event for the journal and any
    subscribers; the frontier's actual idle-skip target comes from
    :meth:`AdmissionController.next_eligible_s`.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst <= 0:
            raise ValueError("burst must be > 0")
        self.rate = rate
        self.burst = burst
        self.reset()

    def reset(self) -> None:
        self._tokens = self.burst
        self._refilled_s = 0.0        # kernel time of the last refill
        # conservation meters for the runtime sanitizer (cancel-refund
        # symmetry is checked against these when REPRO_SIM_SANITIZE=1)
        self._charged_total = 0.0
        self._refunded_total = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def _advance(self, now: float) -> None:
        now = max(now, self._refilled_s)   # simulated time never rewinds
        self._tokens = min(self.burst,
                           self._tokens + (now - self._refilled_s) * self.rate)
        self._refilled_s = now

    def eligible_at(self, cost: float, now: float) -> float:
        """When a charge of ``cost`` would become eligible (no mutation)."""
        now = max(now, self._refilled_s)
        tokens = min(self.burst,
                     self._tokens + (now - self._refilled_s) * self.rate)
        if tokens >= cost:
            return now
        return now + (cost - tokens) / self.rate

    def charge(self, cost: float, now: float) -> float:
        """Consume ``cost`` tokens at ``now``; returns the eligible time."""
        self._advance(now)
        if self._tokens >= cost:
            eligible = self._refilled_s
        else:
            eligible = self._refilled_s + (cost - self._tokens) / self.rate
        self._tokens -= cost
        self._charged_total += cost
        if _sanitizer.enabled():
            _sanitizer.check_bucket_charge(cost, now, eligible)
        return eligible

    def refund(self, cost: float) -> None:
        """Return tokens from a charge that was ultimately not admitted."""
        before = self._tokens
        self._tokens = min(self.burst, self._tokens + cost)
        # symmetry is metered on tokens actually restored: the burst cap
        # may absorb part of a refund by contract (see the unit tests)
        self._refunded_total += self._tokens - before
        if _sanitizer.enabled():
            _sanitizer.check_bucket_refund(cost, self._tokens, self.burst,
                                           self._charged_total,
                                           self._refunded_total)


class AdmissionDecision(str, Enum):
    ADMITTED = "admitted"    # eligible immediately
    DEFERRED = "deferred"    # queued until its token bucket refills
    SHED = "shed"            # dropped: predicted TTFT breaches the SLO
    REJECTED = "rejected"    # dropped: quota or deferral bound exceeded


@dataclass
class TenantAdmissionStats:
    """Per-tenant admission counters (the denominator SLO math needs).

    ``cancelled`` / ``expired`` count requests the tenant's clients
    withdrew (or whose deadlines passed) after acceptance — at the
    frontier or mid-batch; their un-served token charge is refunded, so
    ``tokens_charged`` meters only work actually performed.
    """

    tenant_id: str
    offered: int = 0
    admitted: int = 0
    deferred: int = 0
    shed: int = 0
    rejected: int = 0
    cancelled: int = 0
    expired: int = 0
    tokens_charged: float = 0.0

    @property
    def accepted(self) -> int:
        """Requests that entered the system (admitted or deferred)."""
        return self.admitted + self.deferred

    @property
    def dropped(self) -> int:
        return self.shed + self.rejected

    @property
    def withdrawn(self) -> int:
        """Accepted requests that did not run to completion."""
        return self.cancelled + self.expired


class AdmissionController:
    """Decides and orders what crosses the cluster frontier.

    ``policy`` picks the frontier-queue order: ``"fcfs"`` (arrival order,
    the legacy behavior) or ``"vtc"`` (per-tenant virtual token counters:
    the queued tenant with the smallest counter goes next, counters are
    charged ``(prefill_weight·prompt + decode_weight·output) / weight``
    per dispatched request, and an idle tenant's counter is lifted to the
    smallest known counter on re-arrival so sleeping never banks
    unbounded credit).  ``shed=True`` drops a request at offer time when
    the predicted TTFT under the current backlog exceeds its tenant's
    SLO.  Unknown tenant ids auto-register as unthrottled best-effort
    contracts.
    """

    def __init__(self, tenants: Sequence[Tenant] = (),
                 policy: str = "fcfs", shed: bool = False,
                 engine_queue_depth: Optional[int] = None,
                 prefill_weight: float = 1.0, decode_weight: float = 1.0):
        if policy not in ("fcfs", "vtc"):
            raise ValueError(f"unknown admission policy {policy!r}")
        if engine_queue_depth is not None and engine_queue_depth < 1:
            raise ValueError("engine_queue_depth must be >= 1 when set")
        self.policy = policy
        self.shed = shed
        self.engine_queue_depth = engine_queue_depth
        self.prefill_weight = prefill_weight
        self.decode_weight = decode_weight
        self._kernel: Optional[SimKernel] = None
        self.tenants: Dict[str, Tenant] = {}
        for tenant in tenants:
            self.register(tenant)
        self.reset()

    def bind(self, kernel: SimKernel) -> None:
        """Attach the timeline this controller emits events into.

        :class:`TenantGateway` binds its kernel here so bucket
        deferrals surface as :class:`~repro.sim.BucketRefill` events
        (journaled and subscribable) instead of staying private bucket
        state.  The events are observability, not control flow: release
        timing is still computed by :meth:`next_eligible_s`.
        """
        self._kernel = kernel

    # ------------------------------------------------------------------ #
    # tenant registry
    # ------------------------------------------------------------------ #
    def register(self, tenant: Tenant) -> Tenant:
        if tenant.tenant_id in self.tenants:
            raise ValueError(f"duplicate tenant {tenant.tenant_id!r}")
        self.tenants[tenant.tenant_id] = tenant
        return tenant

    def tenant(self, tenant_id: Optional[str]) -> Tenant:
        """The (auto-registering) contract for a request's tenant id."""
        tid = tenant_id or DEFAULT_TENANT
        existing = self.tenants.get(tid)
        if existing is not None:
            return existing
        return self.register(Tenant(tid))

    @property
    def passthrough(self) -> bool:
        """True when admission cannot change any outcome: FCFS order, no
        shedding, unbounded dispatch, and every contract unthrottled —
        the configuration under which replay stays bit-identical to the
        wrapped gateway."""
        return (self.policy == "fcfs" and not self.shed
                and self.engine_queue_depth is None
                and all(t.unthrottled for t in self.tenants.values()))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        # FCFS admission order: a deterministic keyed heap on
        # (eligible_s, arrival_s, request_id) — the sim kernel's heap
        # primitive, so no layer-private heapq survives here (SIM005)
        self._fcfs: KeyedHeap[TraceRequest] = KeyedHeap()
        self._vtc: Dict[str, Deque[Tuple[float, TraceRequest]]] = {}
        self._vtc_next: Optional[float] = math.inf  # None: re-derive
        self._counters: Dict[str, float] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._queued: Dict[str, int] = {}
        self._inflight: Dict[str, int] = {}
        self.stats: Dict[str, TenantAdmissionStats] = {}
        # the one per-request map the admission layer keeps past a
        # request's end: TenantGateway.decision(id) is read after a drain
        self.decisions: Dict[int, AdmissionDecision] = {}
        for tid, tenant in self.tenants.items():
            self._init_tenant_state(tid, tenant)

    def _init_tenant_state(self, tid: str, tenant: Tenant) -> None:
        self._counters.setdefault(tid, 0.0)
        self._queued.setdefault(tid, 0)
        self._inflight.setdefault(tid, 0)
        self._vtc.setdefault(tid, deque())
        self.stats.setdefault(tid, TenantAdmissionStats(tid))
        if tenant.rate_tokens_per_s is not None and tid not in self._buckets:
            self._buckets[tid] = TokenBucket(tenant.rate_tokens_per_s,
                                             tenant.resolved_burst())

    # ------------------------------------------------------------------ #
    # queue state
    # ------------------------------------------------------------------ #
    @property
    def total_queued(self) -> int:
        return sum(self._queued.values())

    def queued_for(self, tenant_id: Optional[str]) -> int:
        return self._queued.get(tenant_id or DEFAULT_TENANT, 0)

    def inflight_for(self, tenant_id: Optional[str]) -> int:
        return self._inflight.get(tenant_id or DEFAULT_TENANT, 0)

    def load_of(self, tenant_id: Optional[str]) -> int:
        """Queued-at-frontier plus dispatched-but-unfinished."""
        tid = tenant_id or DEFAULT_TENANT
        return self._queued.get(tid, 0) + self._inflight.get(tid, 0)

    def active_tenants(self) -> List[str]:
        """Tenants with work in the system right now."""
        return [tid for tid in self._counters if self.load_of(tid) > 0]

    # ------------------------------------------------------------------ #
    # the decision point
    # ------------------------------------------------------------------ #
    def offer(self, request: TraceRequest,
              predicted_ttft_s: Optional[float] = None) -> AdmissionDecision:
        """Decide one request's fate as it reaches the frontier.

        Decisions are made *at the request's arrival time*: the token
        bucket refills to ``request.arrival_s`` before being charged.
        Accepted requests queue inside the controller until
        :meth:`pop` releases them.
        """
        tenant = self.tenant(request.tenant_id)
        tid = tenant.tenant_id
        self._init_tenant_state(tid, tenant)
        stats = self.stats[tid]
        stats.offered += 1

        if tenant.max_outstanding is not None and \
                self.load_of(tid) >= tenant.max_outstanding:
            stats.rejected += 1
            self.decisions[request.request_id] = AdmissionDecision.REJECTED
            self._emit_decision(request, tid, AdmissionDecision.REJECTED)
            return AdmissionDecision.REJECTED

        if self.shed and predicted_ttft_s is not None and \
                predicted_ttft_s > tenant.shed_threshold_s:
            stats.shed += 1
            self.decisions[request.request_id] = AdmissionDecision.SHED
            self._emit_decision(request, tid, AdmissionDecision.SHED)
            return AdmissionDecision.SHED

        arrival = request.arrival_s
        eligible = arrival
        cost = float(request.prompt_tokens + request.output_tokens)
        bucket = self._buckets.get(tid)
        if bucket is not None:
            eligible = bucket.charge(cost, arrival)
        # the billing meter: every accepted request's tokens are charged
        # to its tenant (metered or not) — serving.economics prices them
        stats.tokens_charged += cost
        kernel = self._kernel
        if eligible > arrival and kernel is not None and \
                kernel.wants(BucketRefill):
            kernel.emit(BucketRefill(time=eligible, tenant_id=tid,
                                     request_id=request.request_id))

        if self.policy == "vtc" and self.load_of(tid) == 0:
            # counter-lift: a returning tenant re-enters at the floor of
            # the *active* tenants' counters — at parity, not with the
            # absolute priority its banked idle credit would buy (the
            # tenant itself has no work yet, so it is never in `active`)
            active = [self._counters[t] for t in self._counters
                      if self.load_of(t) > 0]
            if active:
                self._counters[tid] = max(self._counters[tid], min(active))

        if self.policy == "vtc":
            self._vtc[tid].append((eligible, request))
            self._vtc_next = None
        else:
            self._fcfs.push((eligible, arrival, request.request_id), request)
        self._queued[tid] = self._queued.get(tid, 0) + 1

        decision = AdmissionDecision.ADMITTED if eligible <= arrival \
            else AdmissionDecision.DEFERRED
        if decision is AdmissionDecision.ADMITTED:
            stats.admitted += 1
        else:
            stats.deferred += 1
        self.decisions[request.request_id] = decision
        self._emit_decision(request, tid, decision)
        return decision

    def _emit_decision(self, request: TraceRequest, tid: str,
                       decision: AdmissionDecision) -> None:
        """Publish the verdict as a typed sim event (telemetry/journal).

        Gated on :meth:`SimKernel.wants` so the no-listeners path
        constructs nothing — admission stays allocation-free when
        neither a journal nor a telemetry layer is attached.
        """
        kernel = self._kernel
        if kernel is not None and \
                kernel.wants(sim_events.AdmissionDecision):
            kernel.emit(sim_events.AdmissionDecision(
                time=request.arrival_s, request_id=request.request_id,
                tenant_id=tid, decision=decision.value,
                model_id=request.model_id))

    # ------------------------------------------------------------------ #
    # the release point
    # ------------------------------------------------------------------ #
    def has_eligible(self, now: float) -> bool:
        eligible = self.next_eligible_s()
        return eligible is not None and eligible <= now

    def next_eligible_s(self) -> Optional[float]:
        """Earliest time any queued request becomes releasable."""
        if self.policy == "vtc":
            # the tenant queues' least head, re-derived once one moved
            if self._vtc_next is None:
                self._vtc_next = min((q[0][0] for q in self._vtc.values()
                                      if q), default=math.inf)
            return self._vtc_next if self._vtc_next < math.inf else None
        return self._fcfs.peek_key()[0] if self._fcfs else None

    def pop(self, now: float) -> Optional[TraceRequest]:
        """Release the next request in admission order (or None).

        FCFS releases by (eligibility, arrival); VTC releases the
        eligible tenant with the smallest virtual token counter and
        charges the counter for the released request's work.
        """
        if self.policy == "fcfs":
            if not self._fcfs or self._fcfs.peek_key()[0] > now:
                return None
            request = self._fcfs.pop()
            tid = request.tenant_id or DEFAULT_TENANT
        else:
            candidates = [tid for tid, q in self._vtc.items()
                          if q and q[0][0] <= now]
            if not candidates:
                return None
            tid = min(candidates, key=lambda t: (self._counters[t], t))
            _, request = self._vtc[tid].popleft()
            self._vtc_next = None
            tenant = self.tenant(tid)
            work = self.prefill_weight * request.prompt_tokens + \
                self.decode_weight * request.output_tokens
            self._counters[tid] += work / tenant.weight
        self._queued[tid] -= 1
        self._inflight[tid] = self._inflight.get(tid, 0) + 1
        return request

    def on_complete(self, record: RequestRecord) -> None:
        """A dispatched request finished; its tenant's slot frees up."""
        tid = record.tenant_id or DEFAULT_TENANT
        if self._inflight.get(tid, 0) > 0:
            self._inflight[tid] -= 1

    # ------------------------------------------------------------------ #
    # cancellation: withdrawals and refunds
    # ------------------------------------------------------------------ #
    def cancel(self, request_id: int,
               reason: str = "cancel") -> Optional[TraceRequest]:
        """Withdraw a frontier-queued request before dispatch.

        Removes it from the admission order (FCFS heap or its tenant's
        VTC queue), refunds its full token-bucket charge and billing
        meter (no work was performed), and counts the withdrawal in the
        tenant's stats.  The VTC counter needs no lift: counters are
        charged at :meth:`pop`, which this request never reached.
        Returns the withdrawn request, or None if it is not queued here.
        """
        request = self._fcfs.remove_where(
            lambda r: r.request_id == request_id)
        if request is None:
            for queue in self._vtc.values():
                for i, (_, queued) in enumerate(queue):
                    if queued.request_id == request_id:
                        request = queued
                        del queue[i]
                        self._vtc_next = None
                        break
                if request is not None:
                    break
        if request is None:
            return None
        tid = request.tenant_id or DEFAULT_TENANT
        self._queued[tid] -= 1
        cost = float(request.prompt_tokens + request.output_tokens)
        bucket = self._buckets.get(tid)
        if bucket is not None:
            bucket.refund(cost)
        self.stats[tid].tokens_charged -= cost
        if _sanitizer.enabled():
            _sanitizer.check_meter(self.stats[tid].tokens_charged, tid)
        self.note_withdrawn(tid, reason)
        return request

    def refund_unserved(self, record: RequestRecord) -> float:
        """Refund the un-served share of a dispatched request's charge.

        Called when a dispatched request aborts (``cancelled`` /
        ``expired``): the tokens never generated — the whole prompt if
        prefill never ran, plus the un-generated output — flow back into
        the tenant's token bucket and off its billing meter, and under
        VTC the tenant's fair-share counter is lifted back down by the
        weighted un-served work, so abandoning work never costs future
        scheduling priority.  Returns the refunded token count.
        """
        tid = record.tenant_id or DEFAULT_TENANT
        self.tenant(tid)                      # auto-register if needed
        unserved_prompt = record.prompt_tokens \
            if record.first_token_s is None else 0
        unserved_output = max(0, record.output_tokens - record.tokens_served)
        refund = float(unserved_prompt + unserved_output)
        if refund > 0:
            bucket = self._buckets.get(tid)
            if bucket is not None:
                bucket.refund(refund)
            self.stats[tid].tokens_charged -= refund
            if _sanitizer.enabled():
                _sanitizer.check_meter(self.stats[tid].tokens_charged, tid)
            if self.policy == "vtc":
                lift = (self.prefill_weight * unserved_prompt +
                        self.decode_weight * unserved_output) / \
                    self.tenant(tid).weight
                self._counters[tid] = max(0.0, self._counters[tid] - lift)
        self.note_withdrawn(tid, "deadline" if record.status == "expired"
                            else "cancel")
        return refund

    def note_withdrawn(self, tenant_id: Optional[str], reason: str) -> None:
        """Count one cancellation/expiry in the tenant's stats."""
        tid = tenant_id or DEFAULT_TENANT
        self._init_tenant_state(tid, self.tenant(tid))
        if reason == "deadline":
            self.stats[tid].expired += 1
        else:
            self.stats[tid].cancelled += 1

    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, float]:
        """Current VTC counters (per tenant; monotone except for
        cancellation refunds — for tests/plots)."""
        return dict(self._counters)

    def summary(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "shed": self.shed,
            "engine_queue_depth": self.engine_queue_depth,
            "prefill_weight": self.prefill_weight,
            "decode_weight": self.decode_weight,
            "tenants": sorted(self.tenants),
            "offered": sum(s.offered for s in self.stats.values()),
            "admitted": sum(s.admitted for s in self.stats.values()),
            "deferred": sum(s.deferred for s in self.stats.values()),
            "shed_requests": sum(s.shed for s in self.stats.values()),
            "rejected": sum(s.rejected for s in self.stats.values()),
            "cancelled": sum(s.cancelled for s in self.stats.values()),
            "expired": sum(s.expired for s in self.stats.values()),
        }


class TenantGateway(Gateway):
    """Admission-controlled frontend over a serving or cluster gateway.

    The :class:`~repro.serving.gateway.Gateway` surface again — ``submit``
    / ``step`` / ``run_until_drained`` / ``replay`` / ``result``.
    Requests first pass the :class:`AdmissionController`; accepted ones
    queue *at the frontier* and are released into the wrapped gateway in
    admission order, at most ``engine_queue_depth`` per active replica
    outstanding, so the fair order is preserved through the engines'
    internal FCFS scheduling.
    Rejected and shed requests never reach an engine; they are visible in
    :attr:`AdmissionController.stats` and ``result().config["admission"]``.

    The shed predictor estimates TTFT from the recent completion rate:
    under FCFS every queued request is ahead of a newcomer; under VTC a
    tenant's expected wait scales with its *own* backlog over its
    weighted fair share.
    """

    def __init__(self, gateway: Gateway,
                 tenants: Sequence[Tenant] = (), journal: bool = False,
                 telemetry=None, **controller_kwargs):
        super().__init__()
        self.inner = gateway
        self.controller = AdmissionController(tenants=tenants,
                                              **controller_kwargs)
        # the admission timeline: a separate journal from the cluster's
        # (frontier events here, replica events there) on a clock that
        # shadows the inner gateway's frontier; the controller publishes
        # BucketRefill wake-ups into it
        self.kernel = SimKernel(journal=journal)
        self.controller.bind(self.kernel)
        gateway.add_completion_listener(self._completion_hook)
        # admission-aware autoscaling: frontier-held requests count as
        # offered load in the watermark signal of an autoscaler below
        gateway.set_admission_probe(lambda: self.controller.total_queued)
        self._pending = EventQueue()      # offered-but-not-due Arrivals
        self._cancels = EventQueue()      # frontier-level Cancel events
        #: reason="cancel" schedules to forward when a request dispatches
        self._scheduled_cancels: Dict[int, Tuple[float, str]] = {}
        self._held: Set[int] = set()      # pending or queued at admission
        self._dispatched_ids: Set[int] = set()   # dispatched, unfinished
        self._floor = 0.0                 # admission-time frontier floor
        self._recent_finish: Deque[float] = deque(
            maxlen=8 * _MIN_COMPLETIONS_FOR_PREDICTION)
        if telemetry is not None:
            telemetry.attach(self)

    # ------------------------------------------------------------------ #
    # the single-gateway surface
    # ------------------------------------------------------------------ #
    @property
    def unfinished(self) -> int:
        """In-system requests: frontier-queued plus dispatched-unfinished
        (rejected and shed requests are gone, not unfinished)."""
        return len(self._pending) + self.controller.total_queued + \
            len(self._dispatched_ids)

    def _now(self) -> float:
        return max(self.inner.clock, self._floor)

    def _accept(self, request: TraceRequest) -> None:
        """A submitted request faces admission as soon as the frontier
        reaches its arrival — immediately when it arrives "now", in which
        case the decision is readable via :meth:`decision` on return (a
        shed or rejected request's handle is terminal at once, status
        ``SHED``).  A request still held at the admission frontier when
        its deadline passes expires there — its bucket charge refunded,
        its quota slot released — and a dispatched one is aborted
        mid-batch by the owning engine."""
        self._admit_request(request)
        self._release(self._frontier())

    def ingest(self, request: TraceRequest) -> int:
        """Queue a fully-formed request (verbatim id and arrival); an id
        still held here, or dispatched and unfinished, or a model no
        manager below registers, is rejected."""
        rid = request.request_id
        if rid in self._held or rid in self._dispatched_ids:
            raise ValueError(f"request id {rid!r} is already live")
        if not self._serves(request.model_id):
            raise unknown_model(request)
        self._admit_request(request)
        self._next_id = max(self._next_id, request.request_id + 1)
        return request.request_id

    def _admit_request(self, request: TraceRequest) -> None:
        self._pending.push(Arrival(time=request.arrival_s, request=request))
        self._held.add(request.request_id)
        if request.deadline_s is not None:
            # frontier-side expiry watch; once dispatched, the owning
            # engine schedules its own deadline Cancel from the trace
            self._cancels.push(Cancel(time=request.deadline_s,
                                      request_id=request.request_id,
                                      reason="deadline"))

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        """Cancel one request at simulated time ``at_s`` (default: now).

        Wherever the request currently is: still pending (not yet
        offered), queued at the admission frontier (it is withdrawn with
        a full bucket/billing refund), or dispatched (the cancel is
        forwarded to the wrapped gateway and the un-served charge is
        refunded when the abort record comes back).  A cancel for a
        request that is neither — terminal, or never submitted — is stale
        and ignored."""
        rid = int(request_id)
        if rid not in self._held and rid not in self._dispatched_ids:
            return
        if at_s is None:
            at_s = self._frontier()
        if rid in self._dispatched_ids:
            self.inner.cancel(rid, at_s=at_s, reason=reason)
            return
        self._cancels.push(Cancel(time=float(at_s), request_id=rid,
                                  reason=reason))
        # every *explicit* cancel is forwarded if the request dispatches
        # first (earliest wins); only the implicit trace-deadline watch
        # stays behind, because the owning engine re-derives it from
        # ``TraceRequest.deadline_s`` at submit
        existing = self._scheduled_cancels.get(rid)
        if existing is None or at_s < existing[0]:
            self._scheduled_cancels[rid] = (float(at_s), reason)

    def decision(self, request_id: int) -> Optional[AdmissionDecision]:
        """The admission decision for a request (None while pending)."""
        return self.controller.decisions.get(request_id)

    def step(self) -> bool:
        """Advance the system one scheduling event.

        Applies due cancellations/expiries, offers arrivals the frontier
        has reached, releases eligible queued work in admission order,
        then steps the wrapped gateway; when that moves nothing,
        :meth:`_resume`.
        """
        inner = self.inner
        if inner.at_horizon:
            return False
        self._release(self._frontier())
        return inner.step() or self._resume()

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished: the
        wrapped layers' drain loop with this gateway its front.  Its
        members coast between admission events, which it releases as
        the frontier reaches them."""
        self._drain(self)
        return self.result()

    def _drain(self, front: Gateway) -> None:
        self.inner._drain(front)

    # the front of the drain loop below (:class:`~repro.serving.base.
    # DrainLoop`): the wrapped gateway's listeners, plus admission events
    @property
    def observed(self) -> bool:
        return self.inner.observed

    def _turn(self) -> float:
        """Release what is due at the frontier (as :meth:`step` does first);
        the next admission event bounds a coast."""
        inner = self.inner
        bound = inner._turn()
        if inner.at_horizon:
            return bound
        now = self._frontier()
        nxt = self._next_event_s(self._depth_open())
        if nxt is not None and nxt <= now:
            self._release(now)
            nxt = self._next_event_s(self._depth_open())
        return bound if nxt is None or nxt > bound else nxt

    def _resume(self) -> bool:
        """The wrapped gateway moved nothing.  When admission still holds
        future work (a deferred request waiting on its bucket, a future
        arrival, a scheduled cancel or deadline), the frontier jumps to
        the next admission event."""
        inner = self.inner
        if inner.at_horizon:
            return False
        nxt = self._next_event_s()
        if nxt is None or nxt <= self._frontier():
            # nothing new can become actionable (wedged or fully drained)
            return False
        self._floor = max(self._floor, nxt)
        moved = self._release(self._frontier())
        if inner.step():
            return True
        return bool(moved) and self._next_event_s() is not None

    def _coast_watch(self, member: object) -> Tuple[
            List[Tuple[str, Optional[float]]], List[Tuple[str, object]]]:
        bounds = [("an admission arrival", self._pending.peek_time()),
                  ("an admission cancel", self._cancels.peek_time())]
        if self._depth_open():
            bounds.append(("an admission eligibility",
                           self.controller.next_eligible_s()))
        return bounds + self.inner._coast_watch(member)[0], []

    def result(self) -> ServingResult:
        """The wrapped gateway's result plus admission telemetry.

        Requests cancelled or expired while still held at the admission
        frontier appear as ``cancelled``/``expired`` records alongside
        the engine-side ones; shed and rejected requests stay out (they
        are visible through handles and the admission stats)."""
        result = self.inner.result()
        if self._withdrawn:
            merged = ServingResult.merge(
                [result, ServingResult(engine=result.engine, makespan_s=1e-9,
                                       records=list(self._withdrawn))],
                engine=result.engine, config=result.config)
            merged.stats = result.stats
            result = merged
        result.config["admission"] = self.controller.summary()
        return result

    def slo_attainment(self,
                       result: Optional[ServingResult] = None
                       ) -> Dict[str, float]:
        """Per-tenant fraction of *offered* requests that finished within
        the tenant's TTFT SLO — shed and rejected requests count as
        misses, which is what makes shedding a trade and not a cheat.
        Cancelled/expired requests meet the SLO only if their first
        token actually arrived in time before the abort.  A tenant that
        was never offered anything attains trivially (1.0).
        """
        result = result if result is not None else self.result()
        out: Dict[str, float] = {}
        for tid, stats in sorted(self.controller.stats.items()):
            tenant = self.controller.tenant(tid)
            sliced = result.for_tenant(tid)
            sketch = sliced.stream
            if sketch is not None and not sketch.complete:
                # streaming fallback (records dropped): finished
                # requests meeting the TTFT SLO, sketch-approximate
                # within the relative error around the threshold.
                # Aborted requests whose first token still arrived in
                # time are not individually tracked without records, so
                # this bound is slightly conservative under abandonment.
                met = sketch.slo_met_count(tenant.slo_s, metric="ttft")
            else:
                met = sum(1 for r in sliced.records
                          if (r.finished or r.first_token_s is not None)
                          and r.ttft_s <= tenant.slo_s)
            out[tid] = met / stats.offered if stats.offered else 1.0
        return out

    def billing(self, gpu, n_gpus: int,
                system: Optional[str] = None) -> Dict[str, float]:
        """Per-tenant showback for the run so far: the deployment's bill
        (:func:`~repro.serving.economics.deployment_cost`) split by each
        tenant's metered ``tokens_charged``.  Returns tenant id → USD."""
        from .economics import cost_per_tenant, deployment_cost
        cost = deployment_cost(self.inner.result(), gpu, n_gpus,
                               system=system)
        return cost_per_tenant(cost, self.controller.stats)

    def replay(self, trace: Trace,
               cancels: Optional[CancelSchedule] = None) -> ServingResult:
        """Serve a pre-materialized (optionally tenant-tagged) trace.

        Every request faces admission when the simulation frontier
        reaches its arrival.  In the pass-through configuration (default
        tenant, FCFS, no limits) the records are identical to replaying
        the trace on the wrapped gateway directly.  ``cancels`` schedules
        client cancellations as ``(request_id, at_s)`` pairs — the
        impatient-client model; ``None`` replays bit-identically to a
        pre-cancellation run.
        """
        return self._replay(trace, cancels)

    def reset(self) -> None:
        self.inner.reset()
        self.controller.reset()
        self.kernel.reset()
        self._pending.clear()
        self._cancels.clear()
        self._scheduled_cancels.clear()
        self._held.clear()
        self._dispatched_ids.clear()
        self._recent_finish.clear()
        self._floor = 0.0
        super().reset()

    # ------------------------------------------------------------------ #
    # handle plumbing
    # ------------------------------------------------------------------ #
    def _status_of(self, request_id: int) -> HandleStatus:
        """Live status for a handle: QUEUED before admission, ADMITTED
        while accepted-and-waiting at the frontier, then the wrapped
        gateway's view once dispatched."""
        if request_id in self._dispatched_ids:
            return self.inner._status_of(request_id)
        decision = self.controller.decisions.get(request_id)
        if decision in (AdmissionDecision.ADMITTED,
                        AdmissionDecision.DEFERRED):
            return HandleStatus.ADMITTED
        if decision in (AdmissionDecision.SHED, AdmissionDecision.REJECTED):
            return HandleStatus.SHED
        return HandleStatus.QUEUED

    # ------------------------------------------------------------------ #
    # frontier mechanics
    # ------------------------------------------------------------------ #
    def _frontier(self) -> float:
        """The admission clock: the wrapped gateway's kernel frontier
        (the point the simulation cannot retreat behind), floored by
        explicit frontier jumps taken while everything was idle.  The
        inner gateway owns the clock; this layer only derives from it —
        the admission kernel's own clock just ratchets along as the
        monotone envelope, timestamping the journal."""
        now = max(self.inner.frontier, self._floor)
        self.kernel.clock.advance(now)
        return now

    def _next_event_s(self, eligible: bool = True) -> Optional[float]:
        """Earliest future admission event: a queued arrival, a scheduled
        cancel/deadline for frontier-held work, or (with ``eligible``) a
        token bucket refill (the BucketRefill wake-ups the controller
        tracks).  The drain loop asks for refills only while the dispatch
        depth has room: at full depth only a completion frees a slot, and
        it steps every completion."""
        nxt = self._pending.peek_time()
        for t in (self._cancels.peek_time(),
                  self.controller.next_eligible_s() if eligible else None):
            if t is not None and (nxt is None or t < nxt):
                nxt = t
        return nxt

    def _depth_open(self) -> bool:
        depth = self._effective_depth()
        return depth is None or len(self._dispatched_ids) < depth

    def _release(self, now: float) -> int:
        """Apply the due cancels, offer the due arrivals, dispatch what
        is eligible at ``now``; returns how many events moved."""
        return self._apply_due_cancels(now) + self._offer_due(now) + \
            self._dispatch(now)

    def _apply_due_cancels(self, now: float) -> int:
        """Apply cancels/expiries whose time the frontier has reached to
        requests still held at this layer.  Cancels targeting dispatched
        or already-terminal requests are stale here: dispatched ones are
        handled by the owning engine (deadlines) or were forwarded at
        dispatch (client cancels).  Returns the number of events popped
        (stale included — popping one is frontier progress)."""
        if not self._cancels.due(now):
            return 0                  # the quiet step: no generator built
        count = 0
        for event in self._cancels.pop_due(now):
            count += 1
            rid = event.request_id
            if rid not in self._held:
                continue              # dispatched or terminal: stale here
            self._held.discard(rid)
            self._scheduled_cancels.pop(rid, None)
            request = self.controller.cancel(rid, reason=event.reason)
            if request is None:
                # held but not queued: withdrawn before it was even
                # offered, so no charge to refund, but it counts in stats
                request = self._pending.remove_request(rid).request
                self.controller.note_withdrawn(request.tenant_id,
                                               event.reason)
            self._complete(self._withdraw(request, event.time, event.reason))
        return count

    def _offer_due(self, now: float) -> int:
        if not self._pending.due(now):
            return 0
        count = 0
        for event in self._pending.pop_due(now):
            request = event.request
            predicted = self._predicted_ttft_s(request.tenant_id)
            decision = self.controller.offer(request,
                                             predicted_ttft_s=predicted)
            if decision in (AdmissionDecision.SHED,
                            AdmissionDecision.REJECTED):
                self._resolve_dropped(request)
            count += 1
        return count

    def _resolve_dropped(self, request: TraceRequest) -> None:
        """A shed/rejected request is terminal immediately: its handle
        (if any) gets a synthesized ``shed`` record.  Dropped requests
        never enter :meth:`result` — they are visible through handles
        and :attr:`AdmissionController.stats`, keeping served-side
        metrics identical to the pre-handle behavior."""
        rid = request.request_id
        self._held.discard(rid)
        self._scheduled_cancels.pop(rid, None)
        while self._cancels.remove_request(rid) is not None:
            pass                      # nothing left to cancel at the frontier
        handle = self._handles.get(rid)
        if handle is not None:
            handle._finish(synthesized_abort_record(
                request, request.arrival_s, "shed"))

    def _dispatch(self, now: float) -> int:
        controller = self.controller
        if not controller.has_eligible(now):
            return 0      # the quiet step: nothing to release, ask no depth
        depth = self._effective_depth()
        count = 0
        bumped = False
        while controller.has_eligible(now) and \
                (depth is None or len(self._dispatched_ids) < depth):
            request = controller.pop(now)
            if request is None:      # pragma: no cover - has_eligible guard
                break
            if not bumped and not controller.passthrough:
                # the released request physically reaches the engine at
                # `now`; idle engines must not serve it in their past
                self.inner.lift_idle_clocks(now)
                bumped = True
            rid = request.request_id
            self.inner.ingest(request)
            self._held.discard(rid)
            self._dispatched_ids.add(rid)
            # the request left the frontier: its deadline watch moves to
            # the owning engine (scheduled from the trace at submit), and
            # a pending client cancel is forwarded to the wrapped gateway
            while self._cancels.remove_request(rid) is not None:
                pass
            scheduled = self._scheduled_cancels.pop(rid, None)
            if scheduled is not None:
                self.inner.cancel(rid, at_s=scheduled[0],
                                  reason=scheduled[1])
            count += 1
        return count

    def _effective_depth(self) -> Optional[int]:
        depth = self.controller.engine_queue_depth
        if depth is None:
            if self.controller.policy == "fcfs":
                return None
            # auto depth: one full batch per replica keeps the engines
            # saturated while every excess request waits at the frontier
            # in fair order (deeper engine queues would re-serialize the
            # backlog FCFS inside the engine)
            engine = self.inner.lead_engine()
            depth = (engine is not None and engine.batch_limit) \
                or _DEFAULT_VTC_DEPTH
        return depth * max(1, self.inner.n_replicas)

    # ------------------------------------------------------------------ #
    # shed prediction
    # ------------------------------------------------------------------ #
    def _service_rate(self) -> Optional[float]:
        """Completions per second over the recent window (None = cold)."""
        if len(self._recent_finish) < _MIN_COMPLETIONS_FOR_PREDICTION:
            return None
        span = self._recent_finish[-1] - self._recent_finish[0]
        if span <= 0:
            return None
        return (len(self._recent_finish) - 1) / span

    def _predicted_ttft_s(self, tenant_id: Optional[str]) -> Optional[float]:
        """Expected TTFT for one more request from this tenant, under the
        current backlog and admission order."""
        rate = self._service_rate()
        if rate is None:
            return None
        controller = self.controller
        if controller.policy == "fcfs":
            ahead = len(self._dispatched_ids) + controller.total_queued
            return (ahead + 1) / rate
        tenant = controller.tenant(tenant_id)
        active = set(controller.active_tenants()) | {tenant.tenant_id}
        total_weight = sum(controller.tenant(t).weight for t in active)
        share = tenant.weight / total_weight
        own = controller.load_of(tenant.tenant_id)
        return (own + 1) / (rate * share)

    def _completion_hook(self, record: RequestRecord) -> None:
        self._dispatched_ids.discard(record.request_id)
        if record.finished:
            # aborted completions are excluded from the service-rate
            # window: they did not finish a unit of work
            self._recent_finish.append(record.finish_s)
        self.controller.on_complete(record)
        if not record.finished:
            self.controller.refund_unserved(record)
        self._complete(record)
