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
  logarithmic fixed-ratio bins with a documented *relative* error bound
  (:data:`SKETCH_RELATIVE_ERROR`).  Deterministic: no RNG, no wall
  clock, bin arithmetic only; mergeable by bin-count addition.
* **Per-tenant counters** — finished/cancelled/expired/shed, tokens
  served/wasted, arrival/finish span — exact, O(tenants) memory.
* **A record-retention policy** (:class:`RecordPolicy`) — ``KEEP_ALL``
  (legacy exact records), ``SAMPLE_K`` (a deterministic Algorithm-R
  reservoir of K records for debugging/inspection), or ``DROP``
  (sketches and counters only).  Under ``SAMPLE_K``/``DROP`` the
  serving stack releases terminal per-request state, so live memory is
  O(active requests) instead of O(total).

Always-on is only true if the write is cheap: :meth:`StreamingMetrics.
observe` derives each latency once, takes one ``math.log`` per distinct
value (:meth:`QuantileSketch.bin_key`, the only definition of the bin
rule) and feeds the same ``(value, key)`` to every sketch that wants it,
which requires all sketches of one sink to share its ``relative_error``.
The integer counters are exact, so a complete sink may answer
``ServingResult`` reads; the float sums are sequential in retirement
order and are only ever read as themselves.

Error bounds
------------
A sketch with relative accuracy ``alpha`` stores a value ``v`` in the
bin ``ceil(log_gamma(v))`` with ``gamma = (1+alpha)/(1-alpha)``; the
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import sanitizer as _sanitizer
from .request import DEFAULT_TENANT, RequestRecord

__all__ = ["RecordPolicy", "SKETCH_RELATIVE_ERROR", "QuantileSketch",
           "ReservoirSampler", "TenantCounters", "StreamingMetrics"]

#: default relative-error guarantee of every quantile sketch (1%)
SKETCH_RELATIVE_ERROR = 0.01

#: values at or below this are lumped into the sketch's "zero" bin —
#: relative error is meaningless at 0, and no simulated latency the
#: engines produce is meaningfully below a nanosecond
_MIN_TRACKABLE = 1e-9

#: SeedSequence root entropy for reservoir sampling; combined with the
#: caller's ``sample_seed`` spawn key so reservoirs are deterministic
#: run-to-run yet decorrelated across sinks
_RESERVOIR_ENTROPY = 0x5EED_CAFE


class RecordPolicy(str, Enum):
    """How much per-request state a run retains after retirement."""

    KEEP_ALL = "keep_all"    # every RequestRecord kept (legacy, exact)
    SAMPLE_K = "sample_k"    # deterministic reservoir of K records
    DROP = "drop"            # sketches/counters only: O(active) memory


class QuantileSketch:
    """A deterministic fixed-ratio log-binned quantile sketch.

    DDSketch-style: bin ``i`` covers ``(gamma**(i-1), gamma**i]`` and is
    represented by ``2*gamma**i/(gamma+1)``, giving a guaranteed
    relative error of ``relative_error`` per value (see the module
    docstring for the quantile-level bound).  Memory is O(distinct
    bins) — for latencies spanning 1 ms to 10 h at 1% accuracy, under
    ~900 bins.  Merging adds bin counts, so sketches aggregate across
    replicas exactly like record lists concatenate.
    """

    __slots__ = ("relative_error", "_gamma", "_log_gamma", "_bins",
                 "_n_small", "count", "total", "min_value", "max_value")

    def __init__(self, relative_error: float = SKETCH_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self._n_small = 0            # values <= _MIN_TRACKABLE
        self.count = 0
        self.total = 0.0             # exact running sum
        self.min_value = math.inf
        self.max_value = -math.inf

    # ------------------------------------------------------------------ #
    def bin_key(self, value: float) -> Optional[int]:
        """The log bin ``value`` falls in (None: the "zero" bin) — the
        one definition of the bin rule.  Sketches of equal
        ``relative_error`` agree on every key."""
        if value <= _MIN_TRACKABLE:
            return None
        return math.ceil(math.log(value) / self._log_gamma)

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
        if not math.isclose(other._gamma, self._gamma, rel_tol=1e-12):
            raise ValueError("cannot merge sketches with different accuracy")
        for key, n in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + n
        self._n_small += other._n_small
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.relative_error)
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
            estimate = 2.0 * self._gamma ** keys[taken - 1] \
                / (self._gamma + 1.0) if cum > rank else self.max_value
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
            if 2.0 * self._gamma ** key / (self._gamma + 1.0) <= threshold:
                n += self._bins[key]
            else:
                break
        return n

    @property
    def n_bins(self) -> int:
        return len(self._bins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch(n={self.count}, bins={len(self._bins)}, "
                f"alpha={self.relative_error})")


class ReservoirSampler:
    """Algorithm-R reservoir of up to ``k`` records, spawn-key seeded.

    Selection is a pure function of ``(sample_seed, offer order)``: the
    generator derives from a fixed root :class:`numpy.random.SeedSequence`
    via the ``sample_seed`` spawn key, so two runs offering the same
    record stream retain the *identical* sample — the determinism the
    sketch tests pin down.  No wall clock, no global RNG.
    """

    __slots__ = ("k", "sample_seed", "_rng", "_samples", "_offered")

    def __init__(self, k: int, sample_seed: int = 0) -> None:
        if k < 1:
            raise ValueError("reservoir size k must be >= 1")
        self.k = k
        self.sample_seed = sample_seed
        seq = np.random.SeedSequence(_RESERVOIR_ENTROPY,
                                     spawn_key=(sample_seed,))
        self._rng = np.random.default_rng(seq)
        self._samples: List[RequestRecord] = []
        self._offered = 0

    def offer(self, record: RequestRecord) -> None:
        self._offered += 1
        if len(self._samples) < self.k:
            self._samples.append(record)
            return
        j = int(self._rng.integers(0, self._offered))
        if j < self.k:
            self._samples[j] = record

    @property
    def n_offered(self) -> int:
        return self._offered

    @property
    def samples(self) -> List[RequestRecord]:
        return list(self._samples)


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


class _TenantStream:
    """One tenant's (or the overall) incremental aggregate state."""

    __slots__ = ("counters", "e2e", "ttft", "fin_e2e", "fin_ttft",
                 "tpt_sum", "fin_tpt_sum", "min_arrival_s", "max_finish_s")

    def __init__(self, relative_error: float) -> None:
        self.counters = TenantCounters()
        self.e2e = QuantileSketch(relative_error)
        self.ttft = QuantileSketch(relative_error)
        # finished-only twins, for finished_only()/SLO views under DROP
        self.fin_e2e = QuantileSketch(relative_error)
        self.fin_ttft = QuantileSketch(relative_error)
        self.tpt_sum = 0.0
        self.fin_tpt_sum = 0.0
        self.min_arrival_s = math.inf
        self.max_finish_s = -math.inf

    def merge(self, other: "_TenantStream") -> None:
        c, o = self.counters, other.counters
        c.finished += o.finished
        c.cancelled += o.cancelled
        c.expired += o.expired
        c.shed += o.shed
        c.tokens_served += o.tokens_served
        c.tokens_wasted += o.tokens_wasted
        c.prefix_hits += o.prefix_hits
        c.prefix_saved_tokens += o.prefix_saved_tokens
        self.e2e.merge(other.e2e)
        self.ttft.merge(other.ttft)
        self.fin_e2e.merge(other.fin_e2e)
        self.fin_ttft.merge(other.fin_ttft)
        self.tpt_sum += other.tpt_sum
        self.fin_tpt_sum += other.fin_tpt_sum
        self.min_arrival_s = min(self.min_arrival_s, other.min_arrival_s)
        self.max_finish_s = max(self.max_finish_s, other.max_finish_s)

    def copy(self) -> "_TenantStream":
        out = _TenantStream(self.e2e.relative_error)
        out.counters = TenantCounters(**vars(self.counters))
        out.e2e = self.e2e.copy()
        out.ttft = self.ttft.copy()
        out.fin_e2e = self.fin_e2e.copy()
        out.fin_ttft = self.fin_ttft.copy()
        out.tpt_sum = self.tpt_sum
        out.fin_tpt_sum = self.fin_tpt_sum
        out.min_arrival_s = self.min_arrival_s
        out.max_finish_s = self.max_finish_s
        return out

    def finished_view(self) -> "_TenantStream":
        """This stream restricted to finished requests (the sketch-side
        twin of ``ServingResult.finished_only``).  The arrival/finish
        span is the all-statuses span — per-status spans are not
        tracked, and the difference only shifts the *view's* makespan."""
        out = _TenantStream(self.e2e.relative_error)
        c = self.counters
        # prefix counters stay all-statuses: a hit saved prefill work
        # whether or not the request ultimately finished
        out.counters = TenantCounters(
            finished=c.finished,
            tokens_served=c.tokens_served - c.tokens_wasted,
            prefix_hits=c.prefix_hits,
            prefix_saved_tokens=c.prefix_saved_tokens)
        out.e2e = self.fin_e2e.copy()
        out.ttft = self.fin_ttft.copy()
        out.fin_e2e = self.fin_e2e.copy()
        out.fin_ttft = self.fin_ttft.copy()
        out.tpt_sum = self.fin_tpt_sum
        out.fin_tpt_sum = self.fin_tpt_sum
        out.min_arrival_s = self.min_arrival_s
        out.max_finish_s = self.max_finish_s
        return out


class StreamingMetrics:
    """The retire-time metrics sink: sketches + counters + retention.

    One sink per engine timeline; :meth:`observe` is called exactly once
    per retired request (finished *or* aborted).  ``complete`` reports
    whether the retained ``records`` list is the full population
    (``KEEP_ALL``) — when it is not, :class:`~repro.serving.metrics.
    ServingResult` routes every aggregate through the sketches instead.
    """

    def __init__(self, policy: "RecordPolicy | str" = RecordPolicy.KEEP_ALL,
                 sample_k: int = 1024,
                 relative_error: float = SKETCH_RELATIVE_ERROR,
                 sample_seed: int = 0) -> None:
        self.policy = RecordPolicy(policy)
        self.sample_k = sample_k
        self.relative_error = relative_error
        self.sample_seed = sample_seed
        self.complete = self.policy is RecordPolicy.KEEP_ALL
        self._overall = _TenantStream(relative_error)
        self._tenants: Dict[str, _TenantStream] = {}
        # finish-time sketch for throughput_within (overall only)
        self._finish = QuantileSketch(relative_error)
        self._sanitize = _sanitizer.enabled()
        self._kept: List[RequestRecord] = []
        self._reservoir: Optional[ReservoirSampler] = \
            ReservoirSampler(sample_k, sample_seed) \
            if self.policy is RecordPolicy.SAMPLE_K else None

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def observe(self, record: RequestRecord) -> None:
        """Fold one retired request in (sketches, counters, retention).

        One fused pass: each latency and bin key is computed once from
        the record's plain fields and shared by the overall and the
        tenant stream; every float sum sees the additions, and the
        order, a per-stream ``add`` of each value would give it."""
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
        finished = status == "finished"
        bin_key = self._finish.bin_key
        e2e_key = bin_key(e2e)
        ttft_key = bin_key(ttft)
        finish_key = bin_key(finish)
        tenant = record.tenant_id or DEFAULT_TENANT
        stream = self._tenants.get(tenant)
        if stream is None:
            if self.relative_error != self._finish.relative_error:
                raise ValueError(
                    "every sketch of one sink shares its bin keys: tenant "
                    f"{tenant!r} would bin at {self.relative_error!r}, "
                    f"the sink at {self._finish.relative_error!r}")
            stream = self._tenants[tenant] = \
                _TenantStream(self.relative_error)
        for part in (self._overall, stream):
            c = part.counters
            if finished:
                c.finished += 1
            elif status == "cancelled":
                c.cancelled += 1
            elif status == "expired":
                c.expired += 1
            else:                       # "shed"/"rejected": frontier drops
                c.shed += 1
            c.tokens_served += served
            if cached > 0:
                c.prefix_hits += 1
                c.prefix_saved_tokens += cached
            part.e2e.add_binned(e2e, e2e_key)
            part.ttft.add_binned(ttft, ttft_key)
            part.tpt_sum += tpt
            if finished:
                part.fin_e2e.add_binned(e2e, e2e_key)
                part.fin_ttft.add_binned(ttft, ttft_key)
                part.fin_tpt_sum += tpt
            else:
                c.tokens_wasted += served
            if arrival < part.min_arrival_s:
                part.min_arrival_s = arrival
            if finish > part.max_finish_s:
                part.max_finish_s = finish
        self._finish.add_binned(finish, finish_key)
        if self._sanitize:
            _sanitizer.check_sink_row(
                record, (e2e, ttft, tpt, finish),
                (e2e_key, ttft_key, finish_key), self._finish._log_gamma,
                _MIN_TRACKABLE)
        if self.policy is RecordPolicy.KEEP_ALL:
            self._kept.append(record)
        elif self._reservoir is not None:
            self._reservoir.offer(record)

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
        self._overall.merge(other._overall)
        for tenant, stream in other._tenants.items():
            mine = self._tenants.get(tenant)
            if mine is None:
                self._tenants[tenant] = stream.copy()
            else:
                mine.merge(stream)
        self._finish.merge(other._finish)
        self.complete = self.complete and other.complete

    def copy(self) -> "StreamingMetrics":
        out = StreamingMetrics(policy=RecordPolicy.DROP,
                               sample_k=self.sample_k,
                               relative_error=self.relative_error,
                               sample_seed=self.sample_seed)
        out.policy = self.policy
        out.complete = self.complete
        out._overall = self._overall.copy()
        out._tenants = {t: s.copy() for t, s in self._tenants.items()}
        out._finish = self._finish.copy()
        out._kept = list(self._kept)
        if self._reservoir is not None:
            res = ReservoirSampler(self.sample_k, self.sample_seed)
            res._samples = list(self._reservoir._samples)
            res._offered = self._reservoir._offered
            res._rng.bit_generator.state = \
                self._reservoir._rng.bit_generator.state
            out._reservoir = res
        return out

    def finished_view(self) -> "StreamingMetrics":
        """Sketch-side ``finished_only``: finished requests only."""
        out = StreamingMetrics(policy=RecordPolicy.DROP,
                               sample_k=self.sample_k,
                               relative_error=self.relative_error,
                               sample_seed=self.sample_seed)
        out.complete = False
        out._overall = self._overall.finished_view()
        out._tenants = {t: s.finished_view()
                        for t, s in self._tenants.items()}
        return out

    def for_tenant(self, tenant_id: Optional[str]) -> "StreamingMetrics":
        """Sketch-side per-tenant slice (empty sink for idle tenants)."""
        key = tenant_id or DEFAULT_TENANT
        out = StreamingMetrics(policy=RecordPolicy.DROP,
                               sample_k=self.sample_k,
                               relative_error=self.relative_error,
                               sample_seed=self.sample_seed)
        out.complete = False
        stream = self._tenants.get(key)
        if stream is not None:
            out._overall = stream.copy()
            out._tenants = {key: stream.copy()}
        return out

    # ------------------------------------------------------------------ #
    # accessors (the surface ServingResult gates onto)
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[RequestRecord]:
        """Retained records: all (KEEP_ALL), a deterministic sample
        (SAMPLE_K), or none (DROP)."""
        if self.policy is RecordPolicy.KEEP_ALL:
            return list(self._kept)
        if self._reservoir is not None:
            return self._reservoir.samples
        return []

    @property
    def n_observed(self) -> int:
        return self._overall.counters.n

    @property
    def n_finished(self) -> int:
        return self._overall.counters.finished

    @property
    def tokens_served(self) -> int:
        return self._overall.counters.tokens_served

    @property
    def tokens_wasted(self) -> int:
        return self._overall.counters.tokens_wasted

    @property
    def prefix_hits(self) -> int:
        """Observed requests that reused a cached KV prefix."""
        return self._overall.counters.prefix_hits

    @property
    def prefix_saved_tokens(self) -> int:
        """Prefill tokens skipped across observed requests via reuse."""
        return self._overall.counters.prefix_saved_tokens

    @property
    def min_arrival_s(self) -> float:
        return self._overall.min_arrival_s

    @property
    def max_finish_s(self) -> float:
        return self._overall.max_finish_s

    @property
    def makespan_s(self) -> float:
        """Earliest-arrival → latest-finish span over observed records
        (0.0 before anything retired)."""
        if self.n_observed == 0:
            return 0.0
        return self._overall.max_finish_s - self._overall.min_arrival_s

    def status_counts(self) -> Dict[str, int]:
        c = self._overall.counters
        out: Dict[str, int] = {}
        if c.finished:
            out["finished"] = c.finished
        if c.cancelled:
            out["cancelled"] = c.cancelled
        if c.expired:
            out["expired"] = c.expired
        if c.shed:
            out["shed"] = c.shed
        return out

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
        return self._overall.tpt_sum / n if n else 0.0

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
        return self._finish.count_leq(horizon_s)

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
    out = StreamingMetrics(policy=RecordPolicy.DROP,
                           sample_k=live[0].sample_k,
                           relative_error=live[0].relative_error,
                           sample_seed=live[0].sample_seed)
    out.complete = True
    for part in live:
        out.merge_from(part)
    for records in extra_records:
        for record in records:
            out.observe(record)
    return out


__all__.append("merged_streams")
