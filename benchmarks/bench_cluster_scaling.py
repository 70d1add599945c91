"""Cluster scaling: replica sweep, balancer policies, and autoscaler ramps.

Beyond the paper: §5.1 fixes one engine per base model, but the ROADMAP's
production north-star needs horizontal scale *within* a base.  This driver
sweeps replica count x load-balancing policy over a bursty trace (the
regime where join-shortest-queue should beat blind rotation), then drives
a queue-watermark autoscaler with a triangular arrival-rate ramp and
records how the replica count tracks offered load.
"""

import numpy as np

from conftest import run_once, save_table
from repro.serving import AutoscalerConfig, summarize
from repro.workload import ramp_trace, trace_from_distribution
from serving_common import (N_VARIANTS, TRACE_SECONDS, delta_manager,
                            deltazip_cluster)

REPLICA_COUNTS = (1, 2, 4)
BALANCER_POLICIES = ("round-robin", "least-outstanding", "lineage")
BURSTY_RATE = 2.0
RAMP_PEAK_RATE = 3.0


def _experiment():
    trace = trace_from_distribution("azure", N_VARIANTS, rate=BURSTY_RATE,
                                    duration_s=TRACE_SECONDS, seed=1)
    mgr = delta_manager()
    sweep = {}
    for policy in BALANCER_POLICIES:
        for n in REPLICA_COUNTS:
            gateway = deltazip_cluster(n_replicas=n, mgr=mgr,
                                       balancer=policy)
            res = gateway.replay(trace)
            s = summarize(res)
            sweep[(policy, n)] = {
                "makespan_s": s["makespan_s"],
                "thr_rps": res.throughput_within(trace.duration_s),
                "p50_e2e_s": s["p50_e2e_s"],
                "p99_e2e_s": s["p99_e2e_s"],
                "p99_ttft_s": s["p99_ttft_s"],
            }

    ramp = ramp_trace(N_VARIANTS, peak_rate=RAMP_PEAK_RATE,
                      duration_s=2 * TRACE_SECONDS, base_rate=0.2,
                      cv=2.0, seed=2)
    autoscaler = AutoscalerConfig(min_replicas=1, max_replicas=4,
                                  high_queue_per_replica=6.0,
                                  low_queue_per_replica=1.0,
                                  check_interval_s=5.0,
                                  scale_up_cooldown_s=10.0,
                                  scale_down_cooldown_s=30.0)
    gateway = deltazip_cluster(n_replicas=1, mgr=mgr, autoscaler=autoscaler)
    auto_res = gateway.replay(ramp)
    samples = [(s.clock_s, s.n_replicas, s.queue_per_replica)
               for s in gateway.autoscaler.history]
    return {"sweep": sweep, "auto_summary": summarize(auto_res),
            "auto_samples": samples, "n_ramp_requests": len(ramp)}


def test_cluster_scaling(benchmark):
    out = run_once(benchmark, _experiment)
    sweep = out["sweep"]

    lines = [f"{'balancer':18s} {'replicas':>8s} {'thr(rps)':>9s} "
             f"{'makespan':>9s} {'p50_e2e':>8s} {'p99_e2e':>8s} "
             f"{'p99_ttft':>9s}"]
    for (policy, n), row in sweep.items():
        lines.append(f"{policy:18s} {n:8d} {row['thr_rps']:9.3f} "
                     f"{row['makespan_s']:9.1f} {row['p50_e2e_s']:8.2f} "
                     f"{row['p99_e2e_s']:8.2f} {row['p99_ttft_s']:9.2f}")

    counts = [n for _, n, _ in out["auto_samples"]]
    lines.append("")
    lines.append(f"autoscaler ramp: {out['n_ramp_requests']} requests, "
                 f"replicas min={min(counts)} max={max(counts)} "
                 f"final={counts[-1]}")
    step = max(1, len(out["auto_samples"]) // 20)
    for clock, n, queue in out["auto_samples"][::step]:
        lines.append(f"  t={clock:7.1f}s replicas={n} queue/rep={queue:6.2f}")
    save_table("cluster_scaling", lines)

    # more replicas must cut tail latency under load, for every policy
    for policy in BALANCER_POLICIES:
        assert sweep[(policy, 4)]["p99_e2e_s"] < \
            sweep[(policy, 1)]["p99_e2e_s"]
        assert sweep[(policy, 4)]["makespan_s"] <= \
            sweep[(policy, 1)]["makespan_s"] * 1.001
    # lineage affinity's residency win shows up in TTFT (no delta swap)
    assert sweep[("lineage", 4)]["p99_ttft_s"] < \
        sweep[("round-robin", 4)]["p99_ttft_s"]
    # the controller followed the ramp up and back down
    assert max(counts) > 1
    assert counts[-1] < max(counts)
