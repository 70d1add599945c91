"""Step overhead: event-driven idle-skip vs dense activity scanning.

The :mod:`repro.sim` kernel advances every timeline by jumping straight
to the next scheduled event (O(log n) heap ops); the pre-kernel
architecture's cost model was a loop that kept stepping through idle
time at iteration granularity.  ``EngineConfig.idle_quantum_s`` preserves
that dense mode, so this benchmark can price both strategies on the same
traces — and assert that the request records are identical, which is the
kernel's correctness contract.

Grid: {dense, sparse} arrivals x {1, 4, 16} replicas x {event, quantum}
stepping.  Dense traces keep every replica busy (idle-skip is moot);
sparse traces are the overnight regime — short requests separated by
long gaps — where event-driven stepping wins big.  Results land in
``BENCH_step.json`` so successive PRs can track the perf trajectory.

A final section prices the live ops plane (:mod:`repro.telemetry`):
with telemetry off the engine hot path must carry zero observability
state (asserted structurally), and with telemetry on the records must
stay bit-identical — telemetry is pure observation.  The measured
telemetry-on/off wall ratio lands in the JSON alongside the step cells.

Run: ``PYTHONPATH=src python benchmarks/bench_step_overhead.py [--quick]``
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           create_engine)
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 8
#: the dense-mode idle quantum: one typical iteration of simulated time,
#: i.e. "step every iteration" instead of jumping the gap
IDLE_QUANTUM_S = 0.05
#: acceptance floor for the headline case (sparse arrivals, most replicas)
MIN_SPARSE_CLUSTER_SPEEDUP = 2.0


def make_manager() -> ModelManager:
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 8.0)
    return mgr


def make_trace(kind: str, duration_s: float, seed: int = 7) -> Trace:
    """Short interactive requests; only the arrival process differs.

    ``dense`` packs arrivals so replicas always have a batch to run;
    ``sparse`` spreads the same request shape over long idle gaps (the
    overnight trace the idle-skip exists for).
    """
    rate = 4.0 if kind == "dense" else 0.1
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate,
                                      size=max(1, int(rate * duration_s))))
    times = times[times < duration_s]
    requests = [
        TraceRequest(request_id=i, model_id=f"variant-{i % N_MODELS:02d}",
                     arrival_s=float(t), prompt_tokens=64, output_tokens=8)
        for i, t in enumerate(times)
    ]
    return Trace(requests=requests,
                 model_ids=[f"variant-{i:02d}" for i in range(N_MODELS)],
                 duration_s=duration_s)


def build_gateway(mgr: ModelManager, n_replicas: int,
                  idle_quantum_s):
    config = EngineConfig(tp_degree=1, idle_quantum_s=idle_quantum_s)

    def factory(node):
        return create_engine(
            "deltazip", mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=config)

    if n_replicas == 1:
        return ServingGateway(factory(None))
    return ClusterGateway(engine_factory=factory,
                          cluster=Cluster.from_name("a800", n_replicas, 1),
                          n_replicas=n_replicas)


def record_key(rec):
    return (rec.request_id, rec.model_id, rec.finish_s, rec.first_token_s,
            rec.queue_wait_s, rec.loading_s, rec.inference_s)


def run_cell(mgr, trace, n_replicas, idle_quantum_s):
    gateway = build_gateway(mgr, n_replicas, idle_quantum_s)
    start = time.perf_counter()
    result = gateway.replay(trace)
    wall_s = time.perf_counter() - start
    return wall_s, result


def bench_telemetry(mgr, trace, n_replicas):
    """Price the ops plane: off must be untouched, on must be identical."""
    from repro.telemetry import Telemetry

    bare = build_gateway(mgr, n_replicas, None)
    for engine in bare.engines():
        # zero-overhead-when-disabled is structural: no hook, no phase
        # emission, so the step loop never even branches into telemetry
        assert engine.on_event is None, "telemetry-off engine has a hook"
        assert engine.emit_phases is False, \
            "telemetry-off engine emits phases"
    start = time.perf_counter()
    bare_res = bare.replay(trace)
    bare_wall = time.perf_counter() - start

    telemetry = Telemetry(interval_s=1.0)
    wired = build_gateway(mgr, n_replicas, None)
    telemetry.attach(wired)
    start = time.perf_counter()
    wired_res = wired.replay(trace)
    wired_wall = time.perf_counter() - start

    identical = [record_key(r) for r in bare_res.records] == \
        [record_key(r) for r in wired_res.records]
    ratio = wired_wall / max(bare_wall, 1e-9)
    return {
        "n_replicas": n_replicas,
        "wall_s_telemetry_off": bare_wall,
        "wall_s_telemetry_on": wired_wall,
        "telemetry_overhead_ratio": ratio,
        "records_identical": identical,
        "spans_closed": telemetry.spans.n_closed,
        "gauge_snapshots": len(telemetry.gauges),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid for CI smoke runs")
    parser.add_argument("--out", default="BENCH_step.json",
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    replica_counts = (1, 4) if args.quick else (1, 4, 16)
    durations = {"dense": 30.0 if args.quick else 60.0,
                 "sparse": 1200.0 if args.quick else 3600.0}

    mgr = make_manager()
    cells = []
    speedups = {}
    print(f"{'arrivals':8s} {'replicas':>8s} {'n_req':>6s} "
          f"{'skip_s':>8s} {'dense_s':>8s} {'speedup':>8s}  identical")
    for kind in ("dense", "sparse"):
        trace = make_trace(kind, durations[kind])
        for n in replica_counts:
            skip_wall, skip_res = run_cell(mgr, trace, n, None)
            dense_wall, dense_res = run_cell(mgr, trace, n, IDLE_QUANTUM_S)
            identical = [record_key(r) for r in skip_res.records] == \
                [record_key(r) for r in dense_res.records]
            speedup = dense_wall / max(skip_wall, 1e-9)
            speedups[(kind, n)] = speedup
            print(f"{kind:8s} {n:8d} {len(trace):6d} "
                  f"{skip_wall:8.3f} {dense_wall:8.3f} {speedup:7.1f}x  "
                  f"{identical}")
            if not identical:
                print(f"FAIL: records differ for {kind} x{n} "
                      "(idle-skip must be record-identical)")
                return 1
            cells.append({
                "arrivals": kind, "n_replicas": n,
                "n_requests": len(trace),
                "wall_s_idle_skip": skip_wall,
                "wall_s_dense_quantum": dense_wall,
                "speedup": speedup,
                "records_identical": identical,
                "makespan_s": skip_res.makespan_s,
            })

    print("\ntelemetry plane (dense arrivals):")
    print(f"{'replicas':>8s} {'off_s':>8s} {'on_s':>8s} {'ratio':>6s}  "
          "identical")
    telemetry_cells = []
    dense_trace = make_trace("dense", durations["dense"])
    for n in replica_counts:
        cell = bench_telemetry(mgr, dense_trace, n)
        telemetry_cells.append(cell)
        print(f"{n:8d} {cell['wall_s_telemetry_off']:8.3f} "
              f"{cell['wall_s_telemetry_on']:8.3f} "
              f"{cell['telemetry_overhead_ratio']:5.2f}x  "
              f"{cell['records_identical']}")
        if not cell["records_identical"]:
            print(f"FAIL: telemetry changed records at x{n} "
                  "(the ops plane must be pure observation)")
            return 1

    headline = speedups[("sparse", max(replica_counts))]
    payload = {
        "benchmark": "step_overhead",
        "idle_quantum_s": IDLE_QUANTUM_S,
        "quick": args.quick,
        "cells": cells,
        "telemetry_cells": telemetry_cells,
        "headline_sparse_cluster_speedup": headline,
        "min_required_speedup": MIN_SPARSE_CLUSTER_SPEEDUP,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
    print(f"\nwrote {args.out}; sparse x{max(replica_counts)} idle-skip "
          f"speedup: {headline:.1f}x (floor {MIN_SPARSE_CLUSTER_SPEEDUP}x)")
    if headline < MIN_SPARSE_CLUSTER_SPEEDUP:
        print("FAIL: idle-skip speedup below the acceptance floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
