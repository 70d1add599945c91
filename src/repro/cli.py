"""Command-line interface for the DeltaZip reproduction.

Mirrors the paper artifact's script workflow::

    repro pretrain  --size small --out base.ckpt
    repro finetune  --base base.ckpt --task math --out math.ckpt
    repro compress  --base base.ckpt --finetuned math.ckpt \\
                    --preset deltazip-4bit --out math.dzip
    repro evaluate  --model math.ckpt --task math
    repro trace     --distribution azure --rate 0.5 --out azure.jsonl
    repro simulate  --trace azure.jsonl --model llama-13b --systems both
    repro tenancy   --tenants "agg:3.0:1.0:batch,gold:0.3:2.0:interactive" \\
                    --policy both --shed
    repro scenarios all --quick --gauges-out gauges.json

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

_PRESETS = {
    "deltazip-4bit": "deltazip_4bit",
    "deltazip-2bit": "deltazip_2bit",
    "sparsegpt-4bit": "sparsegpt_4bit",
    "awq-4bit": "awq_4bit",
}


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_pretrain(args) -> int:
    from repro.evaluation import pretrain_base_model
    from repro.nn import TransformerConfig
    from repro.nn.checkpoint import save_model

    factory = getattr(TransformerConfig, args.size.replace("-", "_"))
    config = factory()
    model = pretrain_base_model(config, n_sequences=args.sequences,
                                epochs=args.epochs, seed=args.seed)
    save_model(model, args.out)
    print(f"pretrained {config.name} base "
          f"({model.num_parameters():,} params) -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    from repro.evaluation import make_task, run_fmt, run_lora
    from repro.nn.checkpoint import load_model, save_model

    base = load_model(args.base)
    task = make_task(args.task)
    if args.method == "fmt":
        result = run_fmt(base, task, n_train=args.samples,
                         epochs=args.epochs, lr=args.lr, seed=args.seed)
    else:
        result = run_lora(base, task, rank=args.lora_rank,
                          n_train=args.samples, epochs=args.epochs,
                          lr=args.lr * 5, seed=args.seed)
    save_model(result.model, args.out)
    if args.calibration_out:
        np.save(args.calibration_out, result.calibration_tokens)
    print(f"fine-tuned ({args.method}) on {args.task} -> {args.out}")
    return 0


def _cmd_compress(args) -> int:
    from repro.compression import (CompressionConfig, DeltaCompressor,
                                   save_compressed_delta)
    from repro.nn.checkpoint import load_model

    base = load_model(args.base)
    finetuned = load_model(args.finetuned)
    config = getattr(CompressionConfig, _PRESETS[args.preset])()
    calib = np.load(args.calibration) if args.calibration else None
    compressor = DeltaCompressor(config)
    artifact = compressor.compress(finetuned, base.state_dict(), calib,
                                   model_id=args.model_id)
    save_compressed_delta(artifact, args.out)
    report = compressor.last_report
    print(f"compressed {args.model_id!r} with {args.preset} in "
          f"{report.seconds:.1f}s")
    print(f"  ratio: {artifact.compression_ratio():.2f}x end-to-end, "
          f"{artifact.linear_compression_ratio():.2f}x on linear weights")
    print(f"  bytes: {artifact.nbytes():,} "
          f"(FP16: {artifact.nbytes_uncompressed():,})")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.evaluation import evaluate_task, make_task
    from repro.nn.checkpoint import load_model

    task = make_task(args.task)
    model = load_model(args.model)
    if args.delta:
        from repro.compression import load_compressed_delta
        artifact = load_compressed_delta(args.delta)
        model.load_state_dict(artifact.to_state_dict(model.state_dict()))
        label = f"{args.model} + {args.delta}"
    else:
        label = args.model
    result = evaluate_task(model, task, args.examples, seed=args.seed)
    print(f"{label}: {args.task} accuracy "
          f"{result.percent:.1f}% ({result.n_examples} examples)")
    return 0


def _cmd_trace(args) -> int:
    from repro.workload import trace_from_distribution
    from repro.workload.io import save_trace

    trace = trace_from_distribution(args.distribution, args.models,
                                    rate=args.rate, duration_s=args.duration,
                                    seed=args.seed)
    save_trace(trace, args.out)
    print(f"{len(trace)} requests over {args.duration:.0f}s "
          f"({args.distribution}, λ={args.rate}) -> {args.out}")
    return 0


def _manager(args, name, trace):
    """The ``--model`` registry, holding the trace's variants the way
    engine ``name`` consumes them (sized by ``--ratio``)."""
    from repro.serving import ENGINES, MODEL_SPECS, ModelManager

    mgr = ModelManager(MODEL_SPECS[args.model])
    mgr.register_base("base")
    for m in trace.model_ids:
        ENGINES[name].register_variant(mgr, m, "base", args.ratio)
    return mgr


def _spec(args, name, **fields):
    """The stack of engine ``name`` sized by the shared serving flags,
    plus the prefix-cache flags in the modes that declare them."""
    from repro.hardware import node_from_name
    from repro.serving import EngineConfig, SchedulerConfig, StackSpec

    cache = {"prefix_cache": args.prefix_cache,
             "prefix_block_tokens": args.prefix_block} \
        if "prefix_cache" in args else {}
    return StackSpec(
        name, node=node_from_name(args.gpu, args.gpus),
        scheduler=SchedulerConfig(max_batch_requests=args.batch,
                                  max_concurrent_deltas=args.deltas),
        config=EngineConfig(tp_degree=args.tp, **cache), **fields)


def _ttft_decomposition(res):
    """Mean (prefill_s, transfer_s, decode_s) over finished records.

    TTFT = queue wait + prefill compute + (disagg only) KV transfer;
    everything after the first token is decode.
    """
    recs = [r for r in res.records
            if r.finished and r.first_token_s is not None]
    if not recs:
        return 0.0, 0.0, 0.0
    n = len(recs)
    xfer = sum(r.transfer_s for r in recs) / n
    prefill = sum(max(0.0, (r.first_token_s - r.arrival_s)
                      - r.queue_wait_s - r.transfer_s) for r in recs) / n
    decode = sum(r.finish_s - r.first_token_s for r in recs) / n
    return prefill, xfer, decode


def _cmd_simulate(args) -> int:
    from repro.serving import ENGINES, build_engine
    from repro.workload.io import load_trace

    trace = load_trace(args.trace)
    names = {"all": sorted(ENGINES),
             "both": ["deltazip", "vllm-scb"]}.get(args.systems,
                                                   [args.systems])

    results = {}
    for name in names:
        # pool/shard sizing only applies to the engines that have pools
        extra = {}
        if name == "disagg":
            extra = {"prefill_workers": args.prefill_workers,
                     "decode_workers": args.decode_workers}
        elif name == "sharded" and args.tp_degree is not None:
            extra = {"tp_degree": args.tp_degree}
        engine = build_engine(_spec(args, name, engine_kwargs=extra),
                              _manager(args, name, trace))
        results[name] = engine.run(trace)

    print(f"{'system':10s} {'thr(rps)':>9s} {'p50_e2e':>8s} "
          f"{'p99_e2e':>8s} {'mean_ttft':>10s} {'p50_ttft':>9s} "
          f"{'p99_ttft':>9s} {'prefill':>8s} {'xfer':>7s} "
          f"{'decode':>8s} {'pfx_hit':>8s}")
    for name, res in results.items():
        prefill_s, xfer_s, decode_s = _ttft_decomposition(res)
        stats = res.stats
        hit = stats.prefix_hit_rate if stats is not None else 0.0
        print(f"{name:10s} {res.throughput_within(trace.duration_s):9.3f} "
              f"{res.percentile_e2e_s(50):8.2f} "
              f"{res.percentile_e2e_s(99):8.2f} "
              f"{res.mean_ttft_s():10.3f} "
              f"{res.percentile_ttft_s(50):9.3f} "
              f"{res.percentile_ttft_s(99):9.3f} "
              f"{prefill_s:8.3f} {xfer_s:7.3f} {decode_s:8.3f} "
              f"{hit:8.2f}")
        if args.verbose and res.stats is not None:
            s = res.stats
            print(f"  iterations={s.iterations} swap_ins={s.swap_ins} "
                  f"evictions={s.evictions} preemptions={s.preemptions} "
                  f"mean_batch={s.mean_batch_size:.1f} "
                  f"mean_deltas={s.mean_deltas_per_batch:.1f}")
            if s.prefix_lookups:
                print(f"  prefix: hit_rate={s.prefix_hit_rate:.2f} "
                      f"saved_tokens={s.prefix_hit_tokens} "
                      f"evictions={s.prefix_evictions}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.serving import AutoscalerConfig, build, summarize
    from repro.workload.io import load_trace

    trace = load_trace(args.trace)
    replica_counts = [int(n) for n in args.replicas.split(",")]
    # engines never mutate the registry, so the sweep shares one manager
    mgr = _manager(args, args.engine, trace)
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=args.min_replicas, max_replicas=args.max_replicas,
            high_queue_per_replica=args.high_queue,
            low_queue_per_replica=args.low_queue)

    print(f"{'replicas':>8s} {'thr(rps)':>9s} {'makespan':>9s} "
          f"{'p50_e2e':>8s} {'p99_e2e':>8s} {'p50_ttft':>9s} "
          f"{'p99_ttft':>9s} {'peak':>5s}")
    for n in replica_counts:
        spec = _spec(args, args.engine, replicas=n, balancer=args.balancer,
                     autoscaler=autoscaler)
        gateway = build(spec, mgr, journal=bool(args.trace_out))
        telemetry = None
        if args.telemetry_interval is not None:
            from repro.telemetry import Telemetry
            telemetry = Telemetry(interval_s=args.telemetry_interval)
            telemetry.attach(gateway)
        res = gateway.replay(trace)
        # one trace per swept replica count: spawn/drain/tick/cancel and
        # per-iteration spans, viewable in chrome://tracing
        _report_observers(args, telemetry, gateway.kernel.journal,
                          None if len(replica_counts) == 1 else f"r{n}")
        s = summarize(res)
        peak = res.config.get("max_replicas_seen", n)
        print(f"{n:8d} {res.throughput_within(trace.duration_s):9.3f} "
              f"{s['makespan_s']:9.1f} {s['p50_e2e_s']:8.2f} "
              f"{s['p99_e2e_s']:8.2f} {s['p50_ttft_s']:9.3f} "
              f"{s['p99_ttft_s']:9.3f} {peak:5d}")
        if args.verbose and gateway.autoscaler is not None:
            for sample in gateway.autoscaler.history:
                if sample.action:
                    print(f"  t={sample.clock_s:8.1f}s {sample.action} -> "
                          f"{sample.n_replicas} replicas "
                          f"(queue/replica {sample.queue_per_replica:.1f})")
    return 0


def _report_observers(args, telemetry, journal, tag) -> None:
    """The tail of a run with observers: the telemetry digest, then
    ``journal`` as Chrome trace JSON to ``--trace-out`` (or to
    ``<path>.<tag>.json`` when a sweep writes one file per run)."""
    if telemetry is not None:
        _print_telemetry(telemetry)
    if args.trace_out:
        from repro.telemetry import export_chrome_trace
        out = args.trace_out if tag is None else \
            f"{args.trace_out}.{tag}.json"
        n_events = export_chrome_trace(journal, out)
        print(f"  wrote {n_events} trace events -> {out}")


def _print_telemetry(telemetry) -> None:
    """One-paragraph gauge/span digest of a telemetry-wired run."""
    spans = telemetry.spans.summary()
    latest = telemetry.latest()
    print(f"  telemetry: {len(telemetry.gauges)} gauge snapshots, "
          f"{spans['n_closed']} spans closed "
          f"({spans['n_active']} still open)")
    phases = spans["phases"]
    xfer = ""
    if phases.get("transfer", {}).get("p95_s"):
        xfer = f"transfer {phases['transfer']['p95_s']:.2f}s  "
    print(f"    p95 queue {phases['queue']['p95_s']:.2f}s  "
          f"prefill {phases['prefill']['p95_s']:.2f}s  "
          f"{xfer}decode {phases['decode']['p95_s']:.2f}s  "
          f"e2e {phases['e2e']['p95_s']:.2f}s")
    if latest is not None:
        print(f"    last tick t={latest.time_s:.0f}s: "
              f"backlog={latest.backlog} replicas={latest.n_replicas} "
              f"batch_occ={latest.batch_occupancy:.2f} "
              f"shed/s={latest.shed_rate_per_s:.2f}")


def _parse_tenant_specs(text: str):
    """``name:rate[:weight[:slo_class]]`` comma-separated → tenant specs."""
    from repro.serving.tenancy import SLO_CLASSES, Tenant
    from repro.workload import TenantWorkload

    contracts, workloads = [], []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if not 2 <= len(parts) <= 4 or not parts[0]:
            raise ValueError(
                f"bad tenant spec {chunk!r}; want name:rate[:weight[:slo]]")
        name, rate = parts[0], float(parts[1])
        weight = float(parts[2]) if len(parts) > 2 else 1.0
        slo_class = parts[3] if len(parts) > 3 else "standard"
        if slo_class not in SLO_CLASSES:
            raise ValueError(f"unknown slo class {slo_class!r}; "
                             f"known: {sorted(SLO_CLASSES)}")
        contracts.append(Tenant(name, weight=weight, slo_class=slo_class))
        workloads.append(TenantWorkload(name, rate=rate))
    return contracts, workloads


def _cmd_tenancy(args) -> int:
    from repro.serving import build, jain_fairness_index
    from repro.workload import multi_tenant_trace

    contracts, workloads = _parse_tenant_specs(args.tenants)
    trace = multi_tenant_trace(workloads, duration_s=args.duration,
                               seed=args.seed)
    mgr = _manager(args, args.engine, trace)
    policies = ["fcfs", "vtc"] if args.policy == "both" else [args.policy]

    for policy in policies:
        gateway = build(_spec(args, args.engine, admission=policy,
                              tenants=tuple(contracts), shed=args.shed,
                              engine_queue_depth=args.depth), mgr)
        telemetry = None
        if args.telemetry_interval is not None or args.trace_out:
            from repro.telemetry import Telemetry
            telemetry = Telemetry(
                interval_s=args.telemetry_interval
                if args.telemetry_interval is not None else 1.0,
                journal=bool(args.trace_out))
            telemetry.attach(gateway)
        result = gateway.replay(trace)
        # one trace per policy: admission verdicts, cancels (tenant-
        # attributed), and nested request/phase lifecycle slices
        _report_observers(
            args, telemetry,
            None if telemetry is None else telemetry.kernel.journal,
            None if len(policies) == 1 else policy)

        attainment = gateway.slo_attainment(result)
        print(f"\n=== policy: {policy}"
              f"{' + shed' if args.shed else ''}  "
              f"({result.n_requests}/{len(trace)} served) ===")
        print(f"{'tenant':12s} {'offered':>7s} {'done':>6s} {'shed':>5s} "
              f"{'rej':>4s} {'p50_ttft':>9s} {'p99_ttft':>9s} "
              f"{'slo':>6s} {'attain':>7s}")
        for contract in contracts:
            stats = gateway.controller.stats[contract.tenant_id]
            sliced = result.for_tenant(contract.tenant_id)
            print(f"{contract.tenant_id:12s} {stats.offered:7d} "
                  f"{sliced.n_requests:6d} {stats.shed:5d} "
                  f"{stats.rejected:4d} "
                  f"{sliced.percentile_ttft_s(50):9.2f} "
                  f"{sliced.percentile_ttft_s(99):9.2f} "
                  f"{contract.slo_s:6.0f} "
                  f"{attainment[contract.tenant_id]:7.1%}")
        print(f"Jain fairness (SLO attainment): "
              f"{jain_fairness_index(list(attainment.values())):.3f}")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.telemetry.scenarios import run_all, run_scenario

    if args.name == "all":
        reports = run_all(quick=args.quick, seed=args.seed)
    else:
        reports = [run_scenario(args.name, quick=args.quick,
                                seed=args.seed)]
    all_ok = True
    for report in reports:
        print(f"=== {report.name}: "
              f"{'PASS' if report.ok else 'FAIL'} ===")
        print(f"    {report.description}")
        for inv in report.invariants:
            mark = "ok " if inv.passed else "FAIL"
            print(f"  [{mark}] {inv.name}: {inv.detail}")
        all_ok = all_ok and report.ok
    if args.gauges_out:
        import json
        payload = {r.name: r.as_dict() for r in reports}
        with open(args.gauges_out, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote gauge series for {len(reports)} scenario(s) "
              f"-> {args.gauges_out}")
    return 0 if all_ok else 1


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeltaZip reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pre-train a base model")
    p.add_argument("--size", default="tiny",
                   choices=["tiny", "small", "medium", "tiny-gqa"])
    p.add_argument("--sequences", type=int, default=192)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a base checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--method", default="fmt", choices=["fmt", "lora"])
    p.add_argument("--lora-rank", type=int, default=4)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--calibration-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("compress", help="ΔCompress a fine-tuned checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument("--preset", default="deltazip-4bit",
                   choices=sorted(_PRESETS))
    p.add_argument("--calibration", default=None,
                   help=".npy of calibration token ids")
    p.add_argument("--model-id", default="variant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("evaluate", help="task accuracy of a checkpoint")
    p.add_argument("--model", required=True,
                   help="base (with --delta) or standalone checkpoint")
    p.add_argument("--delta", default=None,
                   help="optional .dzip applied on top of --model")
    p.add_argument("--task", required=True)
    p.add_argument("--examples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("trace", help="generate a workload trace")
    p.add_argument("--distribution", default="azure",
                   help="uniform | zipf:<alpha> | azure | session "
                        "(multi-turn conversations with a shared "
                        "system prompt)")
    p.add_argument("--models", type=int, default=32)
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trace)

    # importing the package (not just .base) registers the engine classes
    from repro.serving import BALANCERS, ENGINES
    # the flags simulate, cluster and tenancy share (read by _manager and
    # _spec), and the prefix-cache pair simulate and cluster add
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--model", default="llama-13b",
                         choices=["llama-7b", "llama-13b", "llama-70b",
                                  "pythia-2.8b"])
    serving.add_argument("--gpu", default="a800")
    serving.add_argument("--gpus", type=int, default=4)
    serving.add_argument("--tp", type=int, default=4)
    serving.add_argument("--batch", type=int, default=32)
    serving.add_argument("--deltas", type=int, default=8)
    serving.add_argument("--ratio", type=float, default=10.0,
                         help="assumed delta compression ratio")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--prefix-cache", action="store_true",
                       help="enable prefix/KV-cache reuse for conversation "
                            "and shared-system-prompt traffic")
    cache.add_argument("--prefix-block", type=int, default=32,
                       help="KV block size (tokens) for the prefix cache")

    p = sub.add_parser("simulate", parents=[serving, cache],
                       help="serve a trace in simulation")
    p.add_argument("--trace", required=True)
    p.add_argument("--prefill-workers", type=int, default=1,
                   help="disagg: prefill pool size (workers)")
    p.add_argument("--decode-workers", type=int, default=1,
                   help="disagg: decode pool size (workers)")
    p.add_argument("--tp-degree", type=int, default=None,
                   help="sharded: total tensor-parallel degree across "
                        "nodes (default: --tp, i.e. single node)")
    p.add_argument("--systems", default="both",
                   choices=sorted(ENGINES) + ["all", "both"],
                   help="one registered engine, 'all' of them, or 'both' "
                        "(deltazip + vllm-scb)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cluster", parents=[serving, cache],
                       help="serve a trace on a multi-replica cluster")
    p.add_argument("--trace", required=True)
    p.add_argument("--engine", default="deltazip",
                   choices=sorted(ENGINES))
    p.add_argument("--replicas", default="1,2,4",
                   help="comma-separated replica counts to sweep")
    p.add_argument("--balancer", default="least-outstanding",
                   choices=sorted(BALANCERS))
    p.add_argument("--autoscale", action="store_true",
                   help="let a queue-driven controller resize the set")
    p.add_argument("--min-replicas", type=int, default=1)
    p.add_argument("--max-replicas", type=int, default=8)
    p.add_argument("--high-queue", type=float, default=8.0,
                   help="scale-up watermark (outstanding per replica)")
    p.add_argument("--low-queue", type=float, default=1.0,
                   help="scale-down watermark (outstanding per replica)")
    p.add_argument("--trace-out", default=None,
                   help="write the run's kernel journal as Chrome "
                        "about:tracing JSON (one file per replica count)")
    p.add_argument("--telemetry-interval", type=float, default=None,
                   help="wire the live ops plane and poll gauges every "
                        "N simulated seconds")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("tenancy", parents=[serving],
                       help="multi-tenant admission control study")
    p.add_argument("--tenants",
                   default="agg:3.0:1.0:batch,"
                           "gold:0.3:2.0:interactive,"
                           "silver:0.3:1.0:standard",
                   help="comma-separated name:rate[:weight[:slo_class]]")
    p.add_argument("--policy", default="both",
                   choices=["fcfs", "vtc", "both"])
    p.add_argument("--shed", action="store_true",
                   help="drop requests whose predicted TTFT breaches "
                        "their tenant's SLO")
    p.add_argument("--depth", type=int, default=None,
                   help="frontier queue depth (engine-side admits per "
                        "replica); default: unbounded for fcfs, one "
                        "engine batch (--batch) for vtc")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="deltazip", choices=sorted(ENGINES))
    p.add_argument("--telemetry-interval", type=float, default=None,
                   help="wire the live ops plane and poll gauges every "
                        "N simulated seconds")
    p.add_argument("--trace-out", default=None,
                   help="write the telemetry journal (admission verdicts, "
                        "tenant-attributed cancels, nested request/phase "
                        "spans) as Chrome about:tracing JSON; one file "
                        "per policy")
    p.set_defaults(func=_cmd_tenancy)

    from repro.telemetry.scenarios import SCENARIO_NAMES
    p = sub.add_parser("scenarios",
                       help="run named stress drills with asserted "
                            "recovery invariants")
    p.add_argument("name", choices=SCENARIO_NAMES + ("all",),
                   help="which drill to run (or 'all')")
    p.add_argument("--quick", action="store_true",
                   help="shorter traces (CI smoke mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gauges-out", default=None,
                   help="write each scenario's gauge series + invariant "
                        "verdicts as JSON")
    p.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
