"""The shape each post-paper serving feature exists for — cancellation,
disaggregation, streaming metrics, idle-skip — in simulated time and
exact counts only, on the golden table's builders.  No wall clock is
read here: host time and resident memory are the perf ledger's to
measure (``benchmarks/perf``), and a gate on two ``perf_counter``
readings flakes on a shared box.  The prefix cache's shape, the repeat-
turn TTFT floor, is in ``test_prefix_cache.py``.
"""

import tracemalloc
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.serving import RecordPolicy, StackSpec, build, summarize
from repro.workload import (LengthSampler, PatienceModel,
                            impatient_cancel_schedule, session_trace,
                            synthetic_trace)
from repro.workload.spec import Trace, TraceRequest

from test_coasting import CountingSteps
from test_golden_digests import MODELS, N_MODELS, SCENARIOS, make_manager

#: the golden table's colocated engine, cache off
DELTAZIP = SCENARIOS["deltazip"].spec


def deltazip(**config: object) -> StackSpec:
    """:data:`DELTAZIP` with further ``EngineConfig`` fields."""
    return replace(DELTAZIP, config=replace(DELTAZIP.config, **config))


# --------------------------------------------------------------------- #
# cancellation: aborts free batch slots, so impatience trades waste for
# the survivors' latency
# --------------------------------------------------------------------- #
def test_impatience_wastes_more_tokens_and_speeds_up_the_survivors() -> None:
    # 3 req/s is far past one small replica's capacity, so queues build
    trace = synthetic_trace(N_MODELS, rate=3.0, duration_s=60.0, seed=11)
    cells = []
    for patience_s in (None, 60.0, 20.0, 5.0):
        schedule = None if patience_s is None else impatient_cancel_schedule(
            trace, PatienceModel(mean_s=patience_s), seed=5)
        gateway = build(DELTAZIP, make_manager("deltazip"))
        cells.append(gateway.replay(trace, cancels=schedule))
    waste = [cell.wasted_token_fraction() for cell in cells]
    assert waste == sorted(waste) and waste[0] == 0.0 < waste[-1]
    patient, impatient = cells[0], cells[-1]
    assert impatient.status_counts()["cancelled"] > 0
    assert patient.finished_only().mean_e2e_latency_s() >= \
        1.05 * impatient.finished_only().mean_e2e_latency_s()


# --------------------------------------------------------------------- #
# disaggregation: dedicated prefill workers never stall a prompt behind
# another request's decode iterations
# --------------------------------------------------------------------- #
def test_disagg_beats_colocated_ttft_on_prefill_heavy_sessions() -> None:
    # long prompts (median ~550 tokens, ~2.7x the output) at a rate that
    # keeps colocated batch slots pinned by in-flight decodes
    sampler = LengthSampler(prompt_log_mean=6.3, prompt_log_sigma=0.4,
                            output_mean=200.0, max_prompt=2048,
                            max_output=512)
    trace = session_trace(N_MODELS, 8.0, 60.0, seed=31, mean_turns=3.0,
                          shared_prefix_tokens=128, length_sampler=sampler)
    # the same four GPUs either way
    colocated = build(replace(DELTAZIP, replicas=4),
                      make_manager("deltazip")).replay(trace)
    disagg = build(SCENARIOS["disagg-2p2d"].spec,
                   make_manager("disagg")).replay(trace)
    assert colocated.n_finished == disagg.n_finished == len(trace)
    assert disagg.percentile_ttft_s(50) < colocated.percentile_ttft_s(50)


# --------------------------------------------------------------------- #
# streaming metrics: DROP is O(active), KEEP_ALL is O(total)
# --------------------------------------------------------------------- #
def dashboard_peak_bytes(policy: RecordPolicy, n_requests: int) -> int:
    """Peak traced allocation of an always-busy closed loop (a bounded
    in-flight population) that retires ``n_requests`` while a dashboard
    polls ``summarize`` + ``slo_attainment`` every 1 000 retirements."""
    gateway = build(deltazip(record_policy=policy), make_manager("deltazip"))
    retired = 0

    def on_complete(record: object) -> None:    # keeps no record itself
        nonlocal retired
        retired += 1
    gateway.add_completion_listener(on_complete)
    submitted, next_poll = 0, 1_000
    tracemalloc.start()
    try:
        while retired < n_requests:
            while submitted < n_requests and submitted - retired < 256:
                gateway.ingest(TraceRequest(
                    request_id=submitted,
                    model_id=MODELS[submitted % N_MODELS],
                    arrival_s=gateway.clock, prompt_tokens=64,
                    output_tokens=4 + (submitted * 7) % 8,
                    tenant_id=f"tenant-{submitted % 4}"))
                submitted += 1
            assert gateway.step()
            if retired >= next_poll:
                snapshot = gateway.result()
                summarize(snapshot)
                snapshot.slo_attainment(0.5)
                next_poll += 1_000
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_drop_memory_is_flat_in_requests_and_keep_all_grows() -> None:
    drop_small = dashboard_peak_bytes(RecordPolicy.DROP, 2_000)
    drop_large = dashboard_peak_bytes(RecordPolicy.DROP, 8_000)
    keep_large = dashboard_peak_bytes(RecordPolicy.KEEP_ALL, 8_000)
    assert drop_large <= 1.5 * drop_small
    assert keep_large >= 1.5 * drop_large


# --------------------------------------------------------------------- #
# idle-skip: the count gate that replaces the wall-clock speedup gate
# --------------------------------------------------------------------- #
def sparse_trace(duration_s: float = 1200.0, rate: float = 0.1) -> Trace:
    """The overnight regime: short requests separated by long gaps."""
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.exponential(1.0 / rate,
                                      size=int(rate * duration_s)))
    requests = [TraceRequest(request_id=i, model_id=MODELS[i % N_MODELS],
                             arrival_s=float(t), prompt_tokens=64,
                             output_tokens=8)
                for i, t in enumerate(times[times < duration_s])]
    return Trace(requests=requests, model_ids=list(MODELS),
                 duration_s=duration_s)


def test_idle_skip_halves_engine_steps_on_sparse_traffic() -> None:
    trace = sparse_trace()
    steps: Dict[Optional[float], int] = {}
    records: Dict[Optional[float], List[tuple]] = {}
    for quantum in (None, 0.05):
        gateway = build(replace(deltazip(idle_quantum_s=quantum),
                                replicas=4), make_manager("deltazip"))
        counters = [CountingSteps(engine) for engine in gateway.engines()]
        records[quantum] = [tuple(r) for r in gateway.replay(trace).records]
        steps[quantum] = sum(c.calls for c in counters)
    assert records[None] == records[0.05] and len(records[None]) == len(trace)
    assert 0 < 2 * steps[None] <= steps[0.05]
