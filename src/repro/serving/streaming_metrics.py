"""Streaming metrics: quantile sketches, counters, and record retention.

At million-request scale the classic metrics plane — keep every
:class:`~repro.serving.request.RequestRecord` in a Python list, rebuild
latency arrays on every percentile call — costs O(total) memory and
O(total) work per dashboard refresh.  This module is the streaming
replacement, in the spirit of MetaSys-style always-on low-overhead
measurement: engines feed each record exactly once, *at retire time*,
into a :class:`StreamingMetrics` sink, and every aggregate that
``summarize()``/``summarize_by_tenant()``/SLO attainment needs is
maintained incrementally:

* **Quantile sketches** (:class:`QuantileSketch`) — DDSketch-style
  logarithmic fixed-ratio bins at one fixed *relative* accuracy
  (:data:`SKETCH_RELATIVE_ERROR`, 1 %).  Deterministic: no RNG, no wall
  clock, bin arithmetic only; mergeable by bin-count addition.
* **Per-tenant counters** — finished/cancelled/expired/shed, tokens
  served/wasted, arrival/finish span — exact, O(tenants) memory.
* **A record-retention policy** (:class:`RecordPolicy`) — ``KEEP_ALL``
  (exact records) or ``DROP`` (sketches and counters only).  The
  serving stack releases terminal per-request state under both, so
  under ``DROP`` live memory is O(active requests) instead of O(total).

Always-on is only true if the write is cheap: :meth:`StreamingMetrics.
observe` derives each latency once, takes one ``math.log`` per distinct
value (:meth:`QuantileSketch.bin_key`, the only definition of the bin
rule) and bins each record once, into one (tenant, status) cell: three
sketch writes (e2e, TTFT, finish time).  Every other view merges cells
at read time (bins, counts, min and max merge exactly): a stream's
all-status sketches and the whole sink, kept until the next write, and
``finished_view()`` / ``for_tenant()``, fresh sinks over copied cells.
A merged float total would round differently, so each tenant and the
sink keep their float sums as scalars added in retirement order, and
every view takes its totals from them.  The integer counters are exact,
so a complete sink may answer ``ServingResult`` reads (summed over
tenants, no sketch merged); the float sums are only read as themselves.

Error bounds
------------
With ``alpha`` = :data:`SKETCH_RELATIVE_ERROR`, a sketch stores a value
``v`` in the bin ``ceil(log_gamma(v))`` with ``gamma =
(1+alpha)/(1-alpha)``; the
bin's representative value ``2*gamma**i/(gamma+1)`` is within ``alpha``
relative error of every value in the bin.  ``quantile(q)`` locates the
bin containing the order statistic of index ``floor(q/100*(n-1))`` (the
lower neighbour of numpy's linearly-interpolated percentile), so the
returned estimate ``s`` satisfies ``lo*(1-alpha) <= s <= hi*(1+alpha)``
where ``lo``/``hi`` are the order statistics bracketing the exact
percentile.  Counts, sums, min and max are exact.  ``count_leq`` (SLO
attainment) is exact except for values within ``alpha`` of the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from ..sim.clock import sanitizer as _sanitizer
from .request import DEFAULT_TENANT, RequestRecord

__all__ = ["RecordPolicy", "SKETCH_RELATIVE_ERROR", "QuantileSketch",
           "TenantCounters", "StreamingMetrics"]

#: the relative-error guarantee of every quantile sketch (1%), and the
#: bin ratio it gives: every sketch bins alike, so any two merge
SKETCH_RELATIVE_ERROR = 0.01
_GAMMA = (1.0 + SKETCH_RELATIVE_ERROR) / (1.0 - SKETCH_RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)

#: values at or below this are lumped into the sketch's "zero" bin —
#: relative error is meaningless at 0, and no simulated latency the
#: engines produce is meaningfully below a nanosecond
_MIN_TRACKABLE = 1e-9


class RecordPolicy(str, Enum):
    """How much per-request state a run retains after retirement."""

    KEEP_ALL = "keep_all"    # every RequestRecord kept (exact)
    DROP = "drop"            # sketches/counters only: O(active) memory

    @classmethod
    def _missing_(cls, value: object) -> "RecordPolicy":
        raise ValueError(f"unknown record policy {value!r}: expected one "
                         f"of {', '.join(p.value for p in cls)}")


class QuantileSketch:
    """A deterministic fixed-ratio log-binned quantile sketch.

    DDSketch-style: bin ``i`` covers ``(gamma**(i-1), gamma**i]`` and is
    represented by ``2*gamma**i/(gamma+1)``, giving a guaranteed
    relative error of :data:`SKETCH_RELATIVE_ERROR` per value (see the module
    docstring for the quantile-level bound).  Memory is O(distinct
    bins) — for latencies spanning 1 ms to 10 h at 1% accuracy, under
    ~900 bins.  Merging adds bin counts, so sketches aggregate across
    replicas exactly like record lists concatenate.
    """

    __slots__ = ("_bins", "_n_small", "count", "total", "min_value",
                 "max_value")

    def __init__(self) -> None:
        self._bins: Dict[int, int] = {}
        self._n_small = 0            # values <= _MIN_TRACKABLE
        self.count = 0
        self.total = 0.0             # exact running sum
        self.min_value = math.inf
        self.max_value = -math.inf

    # ------------------------------------------------------------------ #
    def bin_key(self, value: float) -> Optional[int]:
        """The log bin ``value`` falls in (None: the "zero" bin) — the
        one definition of the bin rule, shared by every sketch."""
        if value <= _MIN_TRACKABLE:
            return None
        return math.ceil(math.log(value) / _LOG_GAMMA)

    def add_binned(self, value: float, key: Optional[int]) -> None:
        """Fold in one observation whose :meth:`bin_key` is ``key``."""
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if key is None:
            self._n_small += 1
        else:
            bins = self._bins
            bins[key] = bins.get(key, 0) + 1

    def add(self, value: float) -> None:
        """Fold one observation in (O(1), pure bin arithmetic)."""
        self.add_binned(value, self.bin_key(value))

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (bin-count addition; exact)."""
        for key, n in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + n
        self._n_small += other._n_small
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch()
        out._bins = dict(self._bins)
        out._n_small = self._n_small
        out.count = self.count
        out.total = self.total
        out.min_value = self.min_value
        out.max_value = self.max_value
        return out

    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """Exact mean of the observed values (sum and count are exact)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) within the
        documented relative error; 0.0 on an empty sketch."""
        return self.quantiles((q,))[0]

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Several percentiles in one pass over the sorted bins (ranks
        walked ascending, answers in ``qs``' order; 0.0 when empty)."""
        if self.count == 0:
            return [0.0 for _ in qs]
        ranks = []
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError("q must be in [0, 100]")
            # index of the lower bracketing order statistic of the exact
            # (linearly interpolated) percentile
            ranks.append(int(math.floor(q / 100.0 * (self.count - 1))))
        out = [0.0] * len(ranks)
        keys = sorted(self._bins)
        cum, taken = self._n_small, 0      # cum covers keys[:taken]
        for i in sorted(range(len(ranks)), key=ranks.__getitem__):
            rank = ranks[i]
            if rank < self._n_small:
                out[i] = max(self.min_value, 0.0)
                continue
            while cum <= rank and taken < len(keys):
                cum += self._bins[keys[taken]]
                taken += 1
            estimate = 2.0 * _GAMMA ** keys[taken - 1] \
                / (_GAMMA + 1.0) if cum > rank else self.max_value
            # min/max are exact: clamping only ever tightens the estimate
            out[i] = min(max(estimate, self.min_value), self.max_value)
        return out

    def count_leq(self, threshold: float) -> int:
        """How many observed values are <= ``threshold`` (exact except
        for values within the relative error of the threshold)."""
        if threshold < 0.0:
            return 0
        n = self._n_small
        for key in sorted(self._bins):
            if 2.0 * _GAMMA ** key / (_GAMMA + 1.0) <= threshold:
                n += self._bins[key]
            else:
                break
        return n

    @property
    def n_bins(self) -> int:
        return len(self._bins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(n={self.count}, bins={len(self._bins)})"


@dataclass
class TenantCounters:
    """Exact incremental per-tenant counters (O(1) per retirement)."""

    finished: int = 0
    cancelled: int = 0
    expired: int = 0
    shed: int = 0                  # shed/rejected at an admission frontier
    tokens_served: int = 0         # output tokens actually generated
    tokens_wasted: int = 0         # of those, spent on non-finished requests
    prefix_hits: int = 0           # requests that reused a cached prefix
    prefix_saved_tokens: int = 0   # prefill tokens skipped via that reuse

    @property
    def n(self) -> int:
        return self.finished + self.cancelled + self.expired + self.shed

    def as_dict(self) -> Dict[str, int]:
        return {"finished": self.finished, "cancelled": self.cancelled,
                "expired": self.expired, "shed": self.shed,
                "tokens_served": self.tokens_served,
                "tokens_wasted": self.tokens_wasted,
                "prefix_hits": self.prefix_hits,
                "prefix_saved_tokens": self.prefix_saved_tokens}

    def merge(self, other: "TenantCounters") -> None:
        for name, n in vars(other).items():
            setattr(self, name, getattr(self, name) + n)


class _Sums:
    """One scope's float sums (a tenant's, or the whole sink's), each
    added in retirement order: all statuses, then finished only."""

    __slots__ = ("e2e", "ttft", "finish", "tpt",
                 "fin_e2e", "fin_ttft", "fin_finish", "fin_tpt")

    def __init__(self, values: Sequence[float] = (0.0,) * 8) -> None:
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def values(self) -> List[float]:
        return [getattr(self, name) for name in self.__slots__]

    def merge(self, other: "_Sums") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def finished(self) -> "_Sums":
        """The finished-only sums, as all-status ones (a finished view)."""
        return _Sums(self.values()[4:] * 2)


#: a cell's sketches, by position: e2e latency, TTFT, finish time
_E2E, _TTFT, _FINISH = range(3)


class _TenantStream:
    """One tenant's stored state, or a view merged from several: exact
    counters, the arrival/finish span, a ``fin`` and an ``aborted`` cell
    (by the record's status) and ``sums``, whose floats every merged
    sketch takes its total from (see the module docstring)."""

    __slots__ = ("counters", "fin", "aborted", "sums", "min_arrival_s",
                 "max_finish_s", "_all")

    def __init__(self) -> None:
        self.counters = TenantCounters()
        self.fin = [QuantileSketch() for _ in range(3)]
        self.aborted = [QuantileSketch() for _ in range(3)]
        self.sums = _Sums()
        self.min_arrival_s = math.inf
        self.max_finish_s = -math.inf
        self._all: Optional[List[QuantileSketch]] = None

    def merge(self, other: "_TenantStream") -> None:
        self.counters.merge(other.counters)
        for mine, theirs in zip(self.fin + self.aborted,
                                other.fin + other.aborted):
            mine.merge(theirs)
        self.sums.merge(other.sums)
        self.min_arrival_s = min(self.min_arrival_s, other.min_arrival_s)
        self.max_finish_s = max(self.max_finish_s, other.max_finish_s)
        self._all = None

    def copy(self) -> "_TenantStream":
        out = _TenantStream()
        out.merge(self)
        return out

    def all_status(self) -> List[QuantileSketch]:
        """The (e2e, TTFT, finish) sketches over both cells."""
        if self._all is None:
            self._all = [sketch.copy() for sketch in self.fin]
            for sketch, aborted, total in zip(self._all, self.aborted,
                                              self.sums.values()):
                sketch.merge(aborted)
                sketch.total = total
        return self._all

    e2e = property(lambda self: self.all_status()[_E2E])
    ttft = property(lambda self: self.all_status()[_TTFT])
    finish = property(lambda self: self.all_status()[_FINISH])
    fin_e2e = property(lambda self: self.fin[_E2E])
    fin_ttft = property(lambda self: self.fin[_TTFT])
    tpt_sum = property(lambda self: self.sums.tpt)
    fin_tpt_sum = property(lambda self: self.sums.fin_tpt)

    def finished_view(self) -> "_TenantStream":
        """This stream restricted to finished requests (the sketch-side
        twin of ``ServingResult.finished_only``).  The arrival/finish
        span is the all-statuses span — per-status spans are not
        tracked, and the difference only shifts the *view's* makespan."""
        out = _TenantStream()
        c = self.counters
        # prefix counters stay all-statuses: a hit saved prefill work
        # whether or not the request ultimately finished
        out.counters = TenantCounters(
            finished=c.finished,
            tokens_served=c.tokens_served - c.tokens_wasted,
            prefix_hits=c.prefix_hits,
            prefix_saved_tokens=c.prefix_saved_tokens)
        out.fin = [sketch.copy() for sketch in self.fin]
        out.sums = self.sums.finished()
        out.min_arrival_s = self.min_arrival_s
        out.max_finish_s = self.max_finish_s
        return out


class StreamingMetrics:
    """The retire-time metrics sink: sketches + counters + records.

    One sink per engine timeline; :meth:`observe` is called exactly once
    per retired request (finished *or* aborted).  ``complete`` reports
    whether the retained ``records`` list is the full population
    (``KEEP_ALL``) — when it is not, :class:`~repro.serving.metrics.
    ServingResult` routes every aggregate through the sketches instead.
    """

    def __init__(self,
                 policy: "RecordPolicy | str" = RecordPolicy.KEEP_ALL) -> None:
        self.policy = RecordPolicy(policy)
        self.complete = self.policy is RecordPolicy.KEEP_ALL
        self._tenants: Dict[str, _TenantStream] = {}
        self._sums = _Sums()
        # whose bin rule (the one every sketch shares) bins each write
        self._binner = QuantileSketch()
        # the tenants merged (``_overall``), until the next write
        self._whole: Optional[_TenantStream] = None
        self._sanitize = _sanitizer.enabled()
        self._kept: List[RequestRecord] = []

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def observe(self, record: RequestRecord) -> None:
        """Fold one retired request in (sketches, counters, retention).

        One fused pass: each latency and bin key is computed once from
        the record's plain fields and binned once, into the tenant's cell
        for the record's status; the tenant's and the sink's float sums
        each see the additions a per-value ``add`` would give them."""
        arrival = record.arrival_s
        finish = record.finish_s
        first = record.first_token_s
        e2e = finish - arrival
        ttft = e2e if first is None else first - arrival
        output = record.output_tokens
        tpt = e2e / (output if output > 1 else 1)
        served = record.served_tokens
        if served is None:
            served = output
        cached = record.cached_prefix_tokens
        status = record.status
        bin_key = self._binner.bin_key
        e2e_key = bin_key(e2e)
        ttft_key = bin_key(ttft)
        finish_key = bin_key(finish)
        tenant = record.tenant_id or DEFAULT_TENANT
        stream = self._tenants.get(tenant)
        if stream is None:
            stream = self._tenants[tenant] = _TenantStream()
        c = stream.counters
        mine, whole = stream.sums, self._sums
        if status == "finished":
            c.finished += 1
            cell = stream.fin
            mine.fin_e2e += e2e
            mine.fin_ttft += ttft
            mine.fin_finish += finish
            mine.fin_tpt += tpt
            whole.fin_e2e += e2e
            whole.fin_ttft += ttft
            whole.fin_finish += finish
            whole.fin_tpt += tpt
        else:
            if status == "cancelled":
                c.cancelled += 1
            elif status == "expired":
                c.expired += 1
            else:                       # "shed"/"rejected": frontier drops
                c.shed += 1
            c.tokens_wasted += served
            cell = stream.aborted
        c.tokens_served += served
        if cached > 0:
            c.prefix_hits += 1
            c.prefix_saved_tokens += cached
        cell[_E2E].add_binned(e2e, e2e_key)
        cell[_TTFT].add_binned(ttft, ttft_key)
        cell[_FINISH].add_binned(finish, finish_key)
        mine.e2e += e2e
        mine.ttft += ttft
        mine.finish += finish
        mine.tpt += tpt
        whole.e2e += e2e
        whole.ttft += ttft
        whole.finish += finish
        whole.tpt += tpt
        if arrival < stream.min_arrival_s:
            stream.min_arrival_s = arrival
        if finish > stream.max_finish_s:
            stream.max_finish_s = finish
        stream._all = None
        self._whole = None
        if self._sanitize:
            _sanitizer.check_sink_row(
                record, (e2e, ttft, tpt, finish),
                (e2e_key, ttft_key, finish_key), _LOG_GAMMA, _MIN_TRACKABLE)
        if self.policy is RecordPolicy.KEEP_ALL:
            self._kept.append(record)

    def observe_all(self, records: Iterable[RequestRecord]) -> None:
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def merge_from(self, other: "StreamingMetrics") -> None:
        """Fold another sink in (cluster/replica aggregation).

        Sketches and counters merge exactly; retained records are *not*
        carried over (the record plane concatenates separately in
        ``ServingResult.merge``, and double-holding them would defeat the
        memory bound).  The merged sink is ``complete`` only if both
        sides were.
        """
        for tenant, stream in other._tenants.items():
            mine = self._tenants.get(tenant)
            if mine is None:
                self._tenants[tenant] = stream.copy()
            else:
                mine.merge(stream)
        self._sums.merge(other._sums)
        self._whole = None
        self.complete = self.complete and other.complete

    def _view(self, tenants: Dict[str, _TenantStream],
              sums: _Sums) -> "StreamingMetrics":
        """A record-less sink over ``tenants``, whose whole sums ``sums``."""
        out = StreamingMetrics(policy=RecordPolicy.DROP)
        out._tenants = tenants
        out._sums = sums
        return out

    def copy(self) -> "StreamingMetrics":
        out = self._view({t: s.copy() for t, s in self._tenants.items()},
                         _Sums(self._sums.values()))
        out.policy = self.policy
        out.complete = self.complete
        out._kept = list(self._kept)
        return out

    def finished_view(self) -> "StreamingMetrics":
        """Sketch-side ``finished_only``: finished requests only."""
        return self._view(
            {t: s.finished_view() for t, s in self._tenants.items()},
            self._sums.finished())

    def for_tenant(self, tenant_id: Optional[str]) -> "StreamingMetrics":
        """Sketch-side per-tenant slice (empty sink for idle tenants)."""
        key = tenant_id or DEFAULT_TENANT
        stream = self._tenants.get(key)
        if stream is None:
            return self._view({}, _Sums())
        return self._view({key: stream.copy()}, _Sums(stream.sums.values()))

    @property
    def _overall(self) -> _TenantStream:
        """Every tenant's cells merged, with the sink's own float sums;
        built at read time and kept until the next write."""
        whole = self._whole
        if whole is None:
            whole = _TenantStream()
            for stream in self._tenants.values():
                whole.merge(stream)
            whole.sums = _Sums(self._sums.values())
            for sketch, total in zip(whole.fin, whole.sums.values()[4:]):
                sketch.total = total
            self._whole = whole
        return whole

    def _counters(self) -> TenantCounters:
        """The whole's counters: the tenants' summed, no sketch merged."""
        out = TenantCounters()
        for stream in self._tenants.values():
            out.merge(stream.counters)
        return out

    # ------------------------------------------------------------------ #
    # accessors (the surface ServingResult gates onto)
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[RequestRecord]:
        """Retained records: all (KEEP_ALL) or none (DROP)."""
        return list(self._kept)

    @property
    def n_observed(self) -> int:
        return sum(stream.counters.n for stream in self._tenants.values())

    n_finished = property(lambda self: self._counters().finished)
    tokens_served = property(lambda self: self._counters().tokens_served)
    tokens_wasted = property(lambda self: self._counters().tokens_wasted)
    # observed requests that reused a cached KV prefix, and the prefill
    # tokens that reuse skipped
    prefix_hits = property(lambda self: self._counters().prefix_hits)
    prefix_saved_tokens = property(
        lambda self: self._counters().prefix_saved_tokens)

    @property
    def min_arrival_s(self) -> float:
        return min((s.min_arrival_s for s in self._tenants.values()),
                   default=math.inf)

    @property
    def max_finish_s(self) -> float:
        return max((s.max_finish_s for s in self._tenants.values()),
                   default=-math.inf)

    @property
    def makespan_s(self) -> float:
        """Earliest-arrival → latest-finish span over observed records
        (0.0 before anything retired)."""
        if self.n_observed == 0:
            return 0.0
        return self.max_finish_s - self.min_arrival_s

    def status_counts(self) -> Dict[str, int]:
        c = self._counters()
        return {status: n for status, n in (
            ("finished", c.finished), ("cancelled", c.cancelled),
            ("expired", c.expired), ("shed", c.shed)) if n}

    @property
    def tenant_ids(self) -> List[str]:
        return sorted(self._tenants)

    def tenant_counters(self, tenant_id: Optional[str]) -> TenantCounters:
        key = tenant_id or DEFAULT_TENANT
        stream = self._tenants.get(key)
        return stream.counters if stream is not None else TenantCounters()

    def mean_e2e_s(self) -> float:
        return self._overall.e2e.mean

    def mean_ttft_s(self) -> float:
        return self._overall.ttft.mean

    def mean_time_per_token_s(self) -> float:
        n = self.n_observed
        return self._sums.tpt / n if n else 0.0

    def percentile_e2e_s(self, q: float) -> float:
        return self._overall.e2e.quantile(q)

    def percentile_ttft_s(self, q: float) -> float:
        return self._overall.ttft.quantile(q)

    def percentiles_e2e_s(self, qs: Sequence[float]) -> List[float]:
        return self._overall.e2e.quantiles(qs)

    def percentiles_ttft_s(self, qs: Sequence[float]) -> List[float]:
        return self._overall.ttft.quantiles(qs)

    def count_finished_by(self, horizon_s: float) -> int:
        """Observed requests whose finish time is <= ``horizon_s``
        (sketch-approximate around the threshold) — the streaming twin
        of ``ServingResult.throughput_within``'s numerator."""
        return self._overall.finish.count_leq(horizon_s)

    def _latency_sketch(self, metric: str, prefix: str = "") -> QuantileSketch:
        """The overall ``e2e``/``ttft`` sketch (``prefix="fin_"``: its
        finished-only twin); any other metric name is a caller typo."""
        if metric not in ("e2e", "ttft"):
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self._overall, prefix + metric)

    def slo_met_count(self, slo_s: float, metric: str = "ttft") -> int:
        """Finished requests meeting the SLO (sketch-approximate within
        the relative error around the threshold)."""
        return self._latency_sketch(metric, "fin_").count_leq(slo_s)

    def tenant_ttft_met_count(self, tenant_id: Optional[str],
                              slo_s: float) -> int:
        """``for_tenant(tenant_id).slo_met_count(slo_s)``, read in place:
        no slice of the sink is copied (a gauge asks at every tick)."""
        stream = self._tenants.get(tenant_id or DEFAULT_TENANT)
        return 0 if stream is None else stream.fin_ttft.count_leq(slo_s)

    def slo_attainment(self, slo_s: float, metric: str = "e2e") -> float:
        """Fraction of *observed* requests whose latency meets the SLO —
        the sketch twin of :func:`repro.serving.metrics.slo_attainment`."""
        sketch = self._latency_sketch(metric)
        if self.n_observed == 0:
            return 0.0
        return sketch.count_leq(slo_s) / self.n_observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamingMetrics(policy={self.policy.value}, "
                f"n={self.n_observed}, tenants={len(self._tenants)})")


def merged_streams(parts: Sequence[Optional[StreamingMetrics]],
                   extra_records: Sequence[Sequence[RequestRecord]] = ()
                   ) -> Optional[StreamingMetrics]:
    """Merge per-part sinks for ``ServingResult.merge``.

    ``parts`` may contain ``None`` for results that predate streaming
    metrics; their records are folded in via ``extra_records`` (the
    caller passes each stream-less part's record list) so the merged
    sketch still covers the whole population.  Returns ``None`` when no
    part carries a sink (pure-legacy merge: nothing to build).
    """
    live = [p for p in parts if p is not None]
    if not live:
        return None
    out = StreamingMetrics(policy=RecordPolicy.DROP)
    out.complete = True
    for part in live:
        out.merge_from(part)
    for records in extra_records:
        for record in records:
            out.observe(record)
    return out


__all__.append("merged_streams")
