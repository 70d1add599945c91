"""The six replay workloads of the perf ledger.

Each workload fixes one serving stack, one traffic shape and one offered
rate; its request count is a literal of this file (open-loop traces are
generated a little dense and thinned to exactly N arrivals over a fixed
window), never adapted to the machine and the same for every seed, so two
commits — and two seeds — do the same amount of work.  ``prepare(seed, scale)``
does everything a user pays before the first request is sent (trace
generation, manager/engine/gateway construction) and returns a
:class:`Replay` whose ``run()`` is the timed region: ingest of every
request, drain, and one ``result()`` + ``summarize()``.

Why these six — each exists because it makes a different set of layers
own the wall time (see README.md for the measured shares):

* ``decode_long``   per-iteration layers (scheduler, ``_compose``, cost
  model, engine step); the per-request retire path does almost nothing.
* ``churn_short``   per-request layers (event queue, ``scheduler.add``,
  record build, metrics sink) weigh most; write-only use of the sink.
* ``dashboard_keepall``  the same sink read beside written, with
  O(total) record arrays; guards reads and memory.
* ``cluster_bursty``  cluster routing, frontier scans, idle-skips.
* ``tenants_overload``  admission, token buckets, cancel/refund path,
  admission-aware autoscaling, telemetry.
* ``sessions_disagg_prefix``  radix prefix lookup/commit, KV-transfer
  planning, prefill/decode pool handoff.

Compression (``repro.compression``, ``packed_compute``) is deliberately
outside this benchmark until an issue targets it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (Autoscaler, ClusterGateway, EngineConfig,
                           LLAMA_13B, LLAMA_7B, ModelManager, RecordPolicy,
                           SchedulerConfig, ServingGateway, Tenant,
                           TenantGateway, create_engine, summarize)
from repro.serving.metrics import ServingResult
from repro.telemetry import Telemetry
from repro.workload import (LengthSampler, PatienceModel, TenantWorkload,
                            azure_like_trace, impatient_cancel_schedule,
                            multi_tenant_trace, session_trace)
from repro.workload.spec import Trace, TraceRequest

#: requests of the throw-away replay that warms imports and numpy
WARM_REQUESTS = 200

#: requests per replay: about 2 host seconds each at the commit that
#: introduced the benchmark, so one 15 s run repeats a replay seven times
DECODE_LONG_REQUESTS = 4_000
CHURN_SHORT_REQUESTS = 33_000
DASHBOARD_REQUESTS = 24_000
CLUSTER_BURSTY_REQUESTS = 1_600
TENANTS_OVERLOAD_REQUESTS = 1_200
SESSIONS_REQUESTS = 2_000


def sub_seed(seed: int, stream: int) -> int:
    """An independent child seed: every random input of a workload
    (trace, patience draws, output lengths) derives from ``--seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def delta_manager(spec, n_models: int, ratio: float) -> ModelManager:
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_delta(f"variant-{i:02d}", "base", ratio)
    return mgr


def fixed_window(make_trace: Callable[[float], Trace], n: int,
                 seed: int) -> Trace:
    """Exactly ``n`` requests of an open-loop trace, over its whole window.

    ``make_trace(oversample)`` generates the window at ``oversample`` times
    the workload's rate; a seed-derived uniform subsample then keeps ``n``
    arrivals.  Bursty generators miss their nominal count by up to a tenth
    from seed to seed; thinning keeps the bursts and gives every seed the
    same number of requests over the same simulated window, hence the
    same offered rate and the same amount of host work."""
    oversample = 1.2
    trace = make_trace(oversample)
    while len(trace) < n:
        oversample *= 1.5
        trace = make_trace(oversample)
    keep = np.sort(np.random.default_rng(seed).choice(
        len(trace), size=n, replace=False))
    requests = [trace.requests[i] for i in keep]
    for request_id, request in enumerate(requests):
        request.request_id = request_id
    return Trace(requests=requests, model_ids=trace.model_ids,
                 duration_s=trace.duration_s)


class RecordDigest:
    """sha256 over every terminal record in retirement order, taken
    through a completion listener; also counts records per request."""

    FIELDS = ("request_id", "model_id", "arrival_s", "first_token_s",
              "finish_s", "queue_wait_s", "loading_s", "inference_s",
              "status", "served_tokens", "cached_prefix_tokens",
              "transfer_s")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.seen: set = set()
        self.duplicates = 0

    def observe(self, record) -> None:
        if record.request_id in self.seen:
            self.duplicates += 1
        self.seen.add(record.request_id)
        self._hash.update(repr(tuple(
            getattr(record, name) for name in self.FIELDS)).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class Replay:
    """One prepared run: the stack, its inputs, and the timed region."""

    gateway: object
    attempted: int                       # requests that will be sent
    drive: Callable[[], ServingResult]   # ingest + drain + result()
    generate_s: float                    # host time spent making inputs
    prompt_tokens: int                   # sum over the inputs
    telemetry: Optional[Telemetry] = None
    summary: Dict[str, float] = field(default_factory=dict)

    def run(self) -> ServingResult:
        """The timed region: everything ``drive`` does plus one read."""
        result = self.drive()
        self.summary = read_summary(result)
        return result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slo_ttft_s: float
    nominal_requests: int
    prepare: Callable[[int, float], Replay]


#: the latency threshold the dashboard poll asks about (bench_scale.py's)
DASHBOARD_SLO_S = 0.5


def read_summary(result: ServingResult) -> Dict[str, float]:
    """The read side of the metrics layer: one ``summarize()`` plus an
    SLO query, as an operator dashboard issues them."""
    summary = summarize(result)
    summary["slo_attainment"] = result.slo_attainment(DASHBOARD_SLO_S)
    return summary


def open_loop(gateway, trace, generate_s: float, cancels=None,
              telemetry=None) -> Replay:
    """A trace replayed open loop through ``gateway.replay``."""
    return Replay(gateway=gateway, attempted=len(trace),
                  drive=lambda: gateway.replay(trace, cancels=cancels),
                  generate_s=generate_s, telemetry=telemetry,
                  prompt_tokens=sum(r.prompt_tokens for r in trace))


# ------------------------------------------------------------------ #
# decode_long / cluster_bursty: the paper's engine
# ------------------------------------------------------------------ #
def paper_engine(mgr: ModelManager, node: Optional[GPUNode] = None):
    """32 delta variants of Llama-13B on 4xA800, TP=4, K=32, N=8."""
    return create_engine(
        "deltazip", mgr, node or GPUNode(node_from_name("a800", 4)),
        scheduler_config=SchedulerConfig(max_batch_requests=32,
                                         max_concurrent_deltas=8),
        engine_config=EngineConfig(tp_degree=4))


def prepare_decode_long(seed: int, scale: float) -> Replay:
    start = time.perf_counter()
    n = max(1, int(DECODE_LONG_REQUESTS * scale))
    trace = fixed_window(
        lambda oversample: azure_like_trace(
            32, rate=12.0 * oversample, duration_s=n / 12.0,
            seed=sub_seed(seed, 0)),
        n, sub_seed(seed, 1))
    generate_s = time.perf_counter() - start
    gateway = ServingGateway(paper_engine(delta_manager(LLAMA_13B, 32, 10.0)))
    return open_loop(gateway, trace, generate_s)


def prepare_cluster_bursty(seed: int, scale: float) -> Replay:
    start = time.perf_counter()
    n = max(1, int(CLUSTER_BURSTY_REQUESTS * scale))
    trace = fixed_window(
        lambda oversample: azure_like_trace(
            32, rate=32.0 * oversample, duration_s=n / 32.0,
            seed=sub_seed(seed, 0)),
        n, sub_seed(seed, 1))
    generate_s = time.perf_counter() - start
    mgr = delta_manager(LLAMA_13B, 32, 10.0)
    gateway = ClusterGateway(
        engine_factory=lambda node: paper_engine(mgr, node),
        cluster=Cluster.from_name("a800", 8, 4), n_replicas=8,
        balancer="lineage")
    return open_loop(gateway, trace, generate_s)


# ------------------------------------------------------------------ #
# churn_short / dashboard_keepall: the closed loop of bench_scale.py
# ------------------------------------------------------------------ #
CLIENTS = 2048
POLL_EVERY = 2500


class ClosedLoop:
    """``CLIENTS`` callers that each wait for a reply before sending
    again: an always-busy engine with a bounded in-flight population."""

    def __init__(self, gateway, outputs: List[int],
                 poll_every: Optional[int]):
        self.gateway = gateway
        self.outputs = outputs
        self.poll_every = poll_every
        self.retired = 0
        gateway.add_completion_listener(self.on_complete)

    def on_complete(self, record) -> None:
        self.retired += 1

    def run(self) -> ServingResult:
        gateway, outputs = self.gateway, self.outputs
        total = len(outputs)
        submitted = 0
        next_poll = self.poll_every or total + 1
        while self.retired < total:
            while submitted < total and submitted - self.retired < CLIENTS:
                gateway.ingest(TraceRequest(
                    request_id=submitted,
                    model_id=f"variant-{submitted % 8:02d}",
                    arrival_s=gateway.clock, prompt_tokens=64,
                    output_tokens=outputs[submitted],
                    tenant_id=f"tenant-{submitted % 4}"))
                submitted += 1
            if not gateway.step():
                break
            if self.retired >= next_poll:
                read_summary(gateway.result())
                next_poll += self.poll_every
        return gateway.result()


def _closed_loop(seed: int, n_requests: int, policy: RecordPolicy,
                 poll_every: Optional[int]) -> Replay:
    start = time.perf_counter()
    rng = np.random.default_rng(sub_seed(seed, 0))
    outputs = [int(v) for v in rng.integers(4, 12, size=n_requests)]
    generate_s = time.perf_counter() - start
    engine = create_engine(
        "deltazip", delta_manager(LLAMA_7B, 8, 8.0),
        GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=32,
                                         max_concurrent_deltas=8),
        engine_config=EngineConfig(tp_degree=1, record_policy=policy))
    gateway = ServingGateway(engine)
    return Replay(gateway=gateway, attempted=n_requests,
                  drive=ClosedLoop(gateway, outputs, poll_every).run,
                  generate_s=generate_s, prompt_tokens=64 * n_requests)


def prepare_churn_short(seed: int, scale: float) -> Replay:
    return _closed_loop(seed, max(1, int(CHURN_SHORT_REQUESTS * scale)),
                        RecordPolicy.DROP, None)


def prepare_dashboard_keepall(seed: int, scale: float) -> Replay:
    return _closed_loop(seed, max(1, int(DASHBOARD_REQUESTS * scale)),
                        RecordPolicy.KEEP_ALL, POLL_EVERY)


# ------------------------------------------------------------------ #
# tenants_overload
# ------------------------------------------------------------------ #
def prepare_tenants_overload(seed: int, scale: float) -> Replay:
    pool = [f"variant-{i:02d}" for i in range(8)]
    start = time.perf_counter()
    n = max(1, int(TENANTS_OVERLOAD_REQUESTS * scale))
    trace = fixed_window(
        lambda oversample: multi_tenant_trace(
            (TenantWorkload("aggressor", rate=12.0 * oversample, cv=2.0,
                            model_ids=pool),
             TenantWorkload("gold", rate=1.0 * oversample,
                            model_ids=pool[:4]),
             TenantWorkload("silver", rate=1.0 * oversample,
                            model_ids=pool[4:])),
            duration_s=n / 14.0, seed=sub_seed(seed, 0)),
        n, sub_seed(seed, 1))
    cancels = impatient_cancel_schedule(trace, PatienceModel(mean_s=20.0),
                                        seed=sub_seed(seed, 2))
    generate_s = time.perf_counter() - start
    mgr = delta_manager(LLAMA_7B, 8, 8.0)

    def factory(node):
        return create_engine(
            "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1))

    telemetry = Telemetry(interval_s=2.0)
    cluster = ClusterGateway(
        engine_factory=factory, cluster=Cluster.from_name("a800", 4, 1),
        n_replicas=2, balancer="lineage",
        autoscaler=Autoscaler(min_replicas=2, max_replicas=4,
                              high_queue_per_replica=8.0,
                              low_queue_per_replica=1.0,
                              check_interval_s=2.0,
                              scale_up_cooldown_s=5.0,
                              scale_down_cooldown_s=30.0))
    gateway = TenantGateway(
        cluster, policy="vtc", shed=True, telemetry=telemetry,
        tenants=(Tenant("aggressor", weight=1.0, slo_class="standard",
                        rate_tokens_per_s=2000.0, burst_tokens=8000.0,
                        patience_s=20.0),
                 Tenant("gold", weight=2.0, slo_class="interactive"),
                 Tenant("silver", weight=1.0, slo_class="standard",
                        max_outstanding=4)))
    return open_loop(gateway, trace, generate_s, cancels=cancels,
                     telemetry=telemetry)


# ------------------------------------------------------------------ #
# sessions_disagg_prefix
# ------------------------------------------------------------------ #
#: the prefill-heavy regime of bench_disagg.py
PREFILL_HEAVY = LengthSampler(prompt_log_mean=6.3, prompt_log_sigma=0.4,
                              output_mean=200.0, max_prompt=2048,
                              max_output=512)


def prepare_sessions_disagg_prefix(seed: int, scale: float) -> Replay:
    start = time.perf_counter()
    # 8 conversations/s of mean 3 turns arrive as ~17 requests/s
    n = max(1, int(SESSIONS_REQUESTS * scale))
    trace = fixed_window(
        lambda oversample: session_trace(
            4, rate=8.0 * oversample, duration_s=n / 17.0,
            seed=sub_seed(seed, 0), mean_turns=3.0,
            shared_prefix_tokens=128, length_sampler=PREFILL_HEAVY),
        n, sub_seed(seed, 1))
    generate_s = time.perf_counter() - start
    engine = create_engine(
        "disagg", delta_manager(LLAMA_7B, 4, 8.0),
        GPUNode(node_from_name("a800", 1)),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=1, prefix_cache=True),
        prefill_workers=2, decode_workers=2)
    return open_loop(ServingGateway(engine), trace, generate_s)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("decode_long",
             "paper-shaped long decodes on one engine: per-iteration layers "
             "(scheduler, compose, cost model, engine step) own the wall",
             5.0, DECODE_LONG_REQUESTS, prepare_decode_long),
    Workload("churn_short",
             "4-11 token outputs, closed loop, records dropped: "
             "per-request layers (event queue, record build, metrics sink "
             "writes) weigh most here; the sink's write-only use",
             10.0, CHURN_SHORT_REQUESTS, prepare_churn_short),
    Workload("dashboard_keepall",
             "same short requests with records kept and a dashboard poll "
             "every 2500 retirements: metrics reads, merges and memory",
             10.0, DASHBOARD_REQUESTS, prepare_dashboard_keepall),
    Workload("cluster_bursty",
             "8 lightly loaded replicas behind the lineage balancer: "
             "cluster routing, frontier scans and idle-skips, which "
             "single-engine workloads never run",
             5.0, CLUSTER_BURSTY_REQUESTS, prepare_cluster_bursty),
    Workload("tenants_overload",
             "three tenants over an autoscaled cluster with impatient "
             "clients and telemetry: admission, buckets, cancel/refund, "
             "autoscaler and telemetry run only here",
             5.0, TENANTS_OVERLOAD_REQUESTS, prepare_tenants_overload),
    Workload("sessions_disagg_prefix",
             "multi-turn sessions on a disaggregated engine with the prefix "
             "cache on: radix lookup/commit, KV-transfer planning, handoff",
             5.0, SESSIONS_REQUESTS, prepare_sessions_disagg_prefix),
)}
