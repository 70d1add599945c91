"""Serving metrics: throughput, latency, TTFT, SLO attainment (§6.1).

Per-tenant views (``ServingResult.for_tenant`` / ``by_tenant``,
:func:`summarize_by_tenant`, :func:`slo_attainment_by_tenant`,
:func:`jain_fairness_index`) slice the same records by the ``tenant_id``
the admission layer (:mod:`repro.serving.tenancy`) threads through them.
Every accessor is total on empty/degenerate record lists — slicing an
idle tenant returns zeros, never raises.

Scale: a :class:`ServingResult` optionally carries a
:class:`~repro.serving.streaming_metrics.StreamingMetrics` sink
(``result.stream``).  When the run's
:class:`~repro.serving.streaming_metrics.RecordPolicy` retained every
record (``KEEP_ALL``) the exact record-based math runs as always —
with the latency arrays built and sorted *once* and cached (percentiles
and SLO attainment both read them), and with the integer aggregates
(``n_finished``, served and wasted tokens) read from the sink's exact
counters whenever it observed exactly the records held, instead of one
Python pass over the records per question.  When records were sampled
or dropped, every aggregate routes through the sink's quantile sketches
and counters instead, within the sketch's documented relative error
(see :data:`~repro.serving.streaming_metrics.SKETCH_RELATIVE_ERROR`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import sanitizer as _sanitizer
from .request import DEFAULT_TENANT, RequestRecord
from .streaming_metrics import StreamingMetrics, merged_streams

__all__ = ["EngineStats", "ServingResult", "slo_attainment", "summarize",
           "summarize_by_tenant", "slo_attainment_by_tenant",
           "jain_fairness_index", "UNTENANTED"]

#: key used for records with no tenant tag in per-tenant groupings
UNTENANTED = DEFAULT_TENANT


@dataclass
class EngineStats:
    """Per-run engine telemetry (iteration-level counters)."""

    iterations: int = 0
    total_load_s: float = 0.0
    swap_ins: int = 0
    evictions: int = 0
    preemptions: int = 0
    batched_requests: int = 0       # sum of batch sizes over iterations
    batched_deltas: int = 0         # sum of distinct variants per iteration
    blocked_admissions: int = 0     # KV/memory admission rejections
    aborts: int = 0                 # cancelled/expired requests removed
    prefix_lookups: int = 0         # prefix-cache-eligible fresh prefills
    prefix_hits: int = 0            # lookups that reused >= 1 block
    prefix_hit_tokens: int = 0      # prompt tokens served from the pool
    prefix_evictions: int = 0       # pool blocks dropped for KV pressure
    kv_transfers: int = 0           # prefill→decode KV moves (disagg)
    kv_transfer_bytes: int = 0      # bytes that crossed the pool link
    kv_transfer_s: float = 0.0      # priced interconnect occupancy

    @property
    def prefix_hit_rate(self) -> float:
        return self.prefix_hits / self.prefix_lookups \
            if self.prefix_lookups else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.iterations if self.iterations \
            else 0.0

    @property
    def mean_deltas_per_batch(self) -> float:
        return self.batched_deltas / self.iterations if self.iterations \
            else 0.0


@dataclass
class ServingResult:
    """Output of one engine run over a trace."""

    engine: str
    records: List[RequestRecord]
    makespan_s: float
    config: Dict[str, object] = field(default_factory=dict)
    stats: Optional["EngineStats"] = None
    #: retire-time streaming sink (sketches + counters); None on results
    #: assembled by hand from bare record lists
    stream: Optional[StreamingMetrics] = None
    # cached (sorted e2e, sorted ttft, time-per-token) arrays; built on
    # first percentile/mean call, never mutated.  merge/for_tenant/
    # finished_only return fresh objects, which is what invalidates it.
    _lat_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, results: Sequence["ServingResult"],
              engine: str = "merged",
              config: Optional[Dict[str, object]] = None) -> "ServingResult":
        """Cluster-level aggregation: concatenate per-group records.

        The merged makespan spans the earliest arrival to the latest
        finish across every record, so percentile/SLO/throughput math on
        the merged result stays consistent with the per-group results.
        Streaming sinks merge alongside (bin-count addition); parts
        without a sink contribute their records, so the merged sketches
        cover the whole population even in mixed merges.

        Merging nothing (no results, or only empty ones) is well-defined:
        an empty result with zero makespan whose rate/latency/percentile
        accessors and :func:`summarize` all return 0.0 instead of tripping
        percentile or division math.
        """
        records = [r for res in results for r in res.records]
        stream = merged_streams(
            [res.stream for res in results],
            extra_records=[res.records for res in results
                           if res.stream is None])
        n_observed = stream.n_observed if stream is not None else 0
        if not records and n_observed == 0:
            return cls(engine=engine, records=[], makespan_s=0.0,
                       config=dict(config) if config else {}, stream=stream)
        if n_observed:
            # sink min/max are exact, and the sink covers every part
            makespan = stream.makespan_s
        else:
            makespan = max(r.finish_s for r in records) - \
                min(r.arrival_s for r in records)
        return cls(engine=engine, records=records,
                   makespan_s=max(makespan, 1e-9),
                   config=dict(config) if config else {}, stream=stream)

    # ------------------------------------------------------------------ #
    @property
    def _sketch(self) -> Optional[StreamingMetrics]:
        """The sink, when it must stand in for the records (records were
        sampled or dropped); None when records are the full population."""
        if self.stream is not None and not self.stream.complete:
            return self.stream
        return None

    @property
    def _counters(self) -> Optional[StreamingMetrics]:
        """The sink, when its exact integer counters answer for this
        result: always when it stands in for dropped records, and under
        ``KEEP_ALL`` only if it observed exactly the records held here
        (a record list assembled some other way is re-summed).  Integers
        only — the sink's float sums are sequential, and a re-sum over
        the records is not the same float."""
        stream = self.stream
        if stream is None:
            return None
        if stream.complete:
            if stream.n_observed != len(self.records):
                return None
            if _sanitizer.enabled():
                _sanitizer.check_exact_aggregates(stream, self.records)
        return stream

    def _lat_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (sorted e2e, sorted ttft, per-token) latency arrays."""
        cache = self._lat_cache
        if cache is None:
            n = len(self.records)
            e2e = np.fromiter((r.finish_s - r.arrival_s
                               for r in self.records),
                              dtype=np.float64, count=n)
            ttft = np.fromiter(
                ((r.first_token_s - r.arrival_s
                  if r.first_token_s is not None
                  else r.finish_s - r.arrival_s) for r in self.records),
                dtype=np.float64, count=n)
            tpt = np.fromiter((r.e2e_latency_s / max(r.output_tokens, 1)
                               for r in self.records),
                              dtype=np.float64, count=n)
            e2e.sort()
            ttft.sort()
            cache = (e2e, ttft, tpt)
            self._lat_cache = cache
        return cache

    # ------------------------------------------------------------------ #
    @property
    def n_requests(self) -> int:
        sketch = self._sketch
        if sketch is not None:
            return sketch.n_observed
        return len(self.records)

    @property
    def tenant_ids(self) -> List[str]:
        """Distinct tenants across records (untagged maps to UNTENANTED)."""
        sketch = self._sketch
        if sketch is not None:
            return sketch.tenant_ids
        return sorted({r.tenant_id or UNTENANTED for r in self.records})

    def for_tenant(self, tenant_id: Optional[str]) -> "ServingResult":
        """This result restricted to one tenant's records.

        ``tenant_id=None`` (or ``UNTENANTED``) selects untagged records.
        An idle tenant yields a well-defined empty result whose latency
        and throughput accessors all return 0.0.
        """
        key = tenant_id or UNTENANTED
        sketch = self._sketch
        if sketch is not None:
            sub = sketch.for_tenant(key)
            records = [r for r in self.records
                       if (r.tenant_id or UNTENANTED) == key]
            makespan = max(sub.makespan_s, 1e-9) if sub.n_observed else 0.0
            sliced = ServingResult(engine=self.engine, records=records,
                                   makespan_s=makespan,
                                   config=dict(self.config), stream=sub)
            sliced.config["tenant_id"] = key
            return sliced
        records = [r for r in self.records
                   if (r.tenant_id or UNTENANTED) == key]
        sliced = ServingResult.merge(
            [ServingResult(engine=self.engine, records=records,
                           makespan_s=self.makespan_s)],
            engine=self.engine, config=dict(self.config))
        sliced.config["tenant_id"] = key
        return sliced

    def by_tenant(self) -> Dict[str, "ServingResult"]:
        """Per-tenant slices keyed by tenant id."""
        return {t: self.for_tenant(t) for t in self.tenant_ids}

    # ------------------------------------------------------------------ #
    # terminal-status views (cancellation/deadline runs)
    # ------------------------------------------------------------------ #
    def status_counts(self) -> Dict[str, int]:
        """Records per terminal status (``finished`` / ``cancelled`` /
        ``expired``; pre-cancellation runs are all ``finished``)."""
        sketch = self._sketch
        if sketch is not None:
            return sketch.status_counts()
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec.status] = counts.get(rec.status, 0) + 1
        return counts

    @property
    def n_finished(self) -> int:
        counters = self._counters
        if counters is not None:
            return counters.n_finished
        return sum(1 for r in self.records if r.finished)

    def finished_only(self) -> "ServingResult":
        """This result restricted to requests that ran to completion —
        the slice latency/SLO math should usually see under abandonment."""
        sketch = self._sketch
        if sketch is not None:
            view = sketch.finished_view()
            records = [r for r in self.records if r.finished]
            makespan = max(view.makespan_s, 1e-9) if view.n_observed \
                else self.makespan_s
            return ServingResult(engine=self.engine, records=records,
                                 makespan_s=makespan,
                                 config=dict(self.config), stream=view)
        sliced = ServingResult.merge(
            [ServingResult(engine=self.engine,
                           records=[r for r in self.records if r.finished],
                           makespan_s=self.makespan_s)],
            engine=self.engine, config=dict(self.config))
        if not sliced.records:
            sliced.makespan_s = self.makespan_s
        return sliced

    def goodput_rps(self) -> float:
        """*Finished* requests per second of makespan: throughput that
        excludes work clients abandoned (cancelled/expired)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.n_finished / self.makespan_s

    def wasted_token_fraction(self) -> float:
        """Share of generated output tokens spent on requests that never
        finished — the capacity impatient clients burn."""
        counters = self._counters
        if counters is not None:
            served = counters.tokens_served
            return counters.tokens_wasted / served if served else 0.0
        served = sum(r.tokens_served for r in self.records)
        if served == 0:
            return 0.0
        wasted = sum(r.tokens_served for r in self.records if not r.finished)
        return wasted / served

    def throughput_rps(self) -> float:
        """Completed requests per second of makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.n_requests / self.makespan_s

    def throughput_within(self, horizon_s: float) -> float:
        """Requests completed by ``horizon_s``, per second (Fig 11's metric).

        A saturated engine keeps serving long after the trace window ends;
        the paper's throughput credits only work finished inside the
        measurement window, which is what separates the systems at high
        load.
        """
        if horizon_s <= 0:
            return 0.0
        sketch = self._sketch
        if sketch is not None:
            return sketch.count_finished_by(horizon_s) / horizon_s
        done = sum(1 for r in self.records if r.finish_s <= horizon_s)
        return done / horizon_s

    def token_throughput(self) -> float:
        """Output tokens actually generated per second of makespan
        (identical to the requested-token rate when nothing aborted)."""
        if self.makespan_s <= 0:
            return 0.0
        counters = self._counters
        if counters is not None:
            return counters.tokens_served / self.makespan_s
        return sum(r.tokens_served for r in self.records) / self.makespan_s

    def mean_e2e_latency_s(self) -> float:
        sketch = self._sketch
        if sketch is not None:
            return sketch.mean_e2e_s()
        if not self.records:
            return 0.0
        return float(np.mean(self._lat_arrays()[0]))

    def mean_ttft_s(self) -> float:
        sketch = self._sketch
        if sketch is not None:
            return sketch.mean_ttft_s()
        if not self.records:
            return 0.0
        return float(np.mean(self._lat_arrays()[1]))

    def percentile_e2e_s(self, q: float) -> float:
        sketch = self._sketch
        if sketch is not None:
            return sketch.percentile_e2e_s(q)
        if not self.records:
            return 0.0
        return float(np.percentile(self._lat_arrays()[0], q))

    def percentile_ttft_s(self, q: float) -> float:
        sketch = self._sketch
        if sketch is not None:
            return sketch.percentile_ttft_s(q)
        if not self.records:
            return 0.0
        return float(np.percentile(self._lat_arrays()[1], q))

    def percentiles_e2e_s(self, qs: Sequence[float]) -> List[float]:
        """Several e2e percentiles in one pass over the cached array."""
        sketch = self._sketch
        if sketch is not None:
            return sketch.percentiles_e2e_s(qs)
        if not self.records:
            return [0.0 for _ in qs]
        return [float(v) for v in np.percentile(self._lat_arrays()[0],
                                                list(qs))]

    def percentiles_ttft_s(self, qs: Sequence[float]) -> List[float]:
        """Several TTFT percentiles in one pass over the cached array."""
        sketch = self._sketch
        if sketch is not None:
            return sketch.percentiles_ttft_s(qs)
        if not self.records:
            return [0.0 for _ in qs]
        return [float(v) for v in np.percentile(self._lat_arrays()[1],
                                                list(qs))]

    def mean_time_per_token_s(self) -> float:
        sketch = self._sketch
        if sketch is not None:
            return sketch.mean_time_per_token_s()
        if not self.records:
            return 0.0
        return float(np.mean(self._lat_arrays()[2]))

    def slo_attainment(self, slo_s: float, metric: str = "e2e") -> float:
        """Fraction of requests meeting an SLO threshold; exact on
        retained records (a binary search of the cached sorted column),
        sketch-approximate (within the relative error around the
        threshold) when records were dropped."""
        sketch = self._sketch
        if sketch is not None:
            return sketch.slo_attainment(slo_s, metric=metric)
        if metric not in ("e2e", "ttft"):
            raise ValueError(f"unknown metric {metric!r}")
        if not self.records:
            return 0.0
        values = self._lat_arrays()[0 if metric == "e2e" else 1]
        # count / n is the float np.mean of the boolean list gives
        met = int(np.searchsorted(values, slo_s, side="right"))
        return met / len(values)

    def summary(self) -> Dict[str, float]:
        return summarize(self)


def slo_attainment(records: Sequence[RequestRecord], slo_s: float,
                   metric: str = "e2e") -> float:
    """Fraction of requests meeting an SLO threshold (Fig 13/19)."""
    if metric not in ("e2e", "ttft"):
        raise ValueError(f"unknown metric {metric!r}")
    if not records:
        return 0.0
    if metric == "e2e":
        values = [r.e2e_latency_s for r in records]
    else:
        values = [r.ttft_s for r in records]
    return float(np.mean([v <= slo_s for v in values]))


def summarize(result: ServingResult) -> Dict[str, float]:
    p50_e2e, p90_e2e, p99_e2e = result.percentiles_e2e_s((50, 90, 99))
    p50_ttft, p90_ttft, p99_ttft = result.percentiles_ttft_s((50, 90, 99))
    return {
        "n_requests": float(result.n_requests),
        "n_finished": float(result.n_finished),
        "throughput_rps": result.throughput_rps(),
        "goodput_rps": result.goodput_rps(),
        "wasted_token_fraction": result.wasted_token_fraction(),
        "token_throughput": result.token_throughput(),
        "mean_e2e_s": result.mean_e2e_latency_s(),
        "p50_e2e_s": p50_e2e,
        "p90_e2e_s": p90_e2e,
        "p99_e2e_s": p99_e2e,
        "mean_ttft_s": result.mean_ttft_s(),
        "p50_ttft_s": p50_ttft,
        "p90_ttft_s": p90_ttft,
        "p99_ttft_s": p99_ttft,
        "mean_time_per_token_s": result.mean_time_per_token_s(),
        "makespan_s": result.makespan_s,
    }


def summarize_by_tenant(result: ServingResult) -> Dict[str, Dict[str, float]]:
    """Per-tenant summary rows keyed by tenant id."""
    return {tenant: summarize(sliced)
            for tenant, sliced in result.by_tenant().items()}


def slo_attainment_by_tenant(records: Sequence[RequestRecord], slo_s: float,
                             metric: str = "ttft") -> Dict[str, float]:
    """Per-tenant fraction of requests meeting one shared SLO threshold."""
    groups: Dict[str, List[RequestRecord]] = {}
    for rec in records:
        groups.setdefault(rec.tenant_id or UNTENANTED, []).append(rec)
    return {tenant: slo_attainment(group, slo_s, metric=metric)
            for tenant, group in sorted(groups.items())}


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    1.0 when every tenant gets the same share, 1/n under total capture by
    one tenant.  Empty or all-zero inputs are defined as perfectly fair
    (nothing was allocated unevenly).
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("allocations must be non-negative")
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom
