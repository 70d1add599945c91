"""The perf ledger's harness: repetitions, output checks, result files.

``run.py`` is the command; this module holds what it does, importable
without side effects (the tier-1 harness test imports it).  See
``run.py`` for what is timed and README.md for the metric tables.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_UNTRACED_REPS = 3
MIN_TRACED_REPS = 2
#: traced layer self times must add up to the traced wall within this
SELF_SUM_TOLERANCE = 0.02
DIGESTS_PATH = HERE / "digests.json"


class CheckFailed(Exception):
    """An output check failed; the run reports every request as failed."""


# ------------------------------------------------------------------ #
# output checks
# ------------------------------------------------------------------ #
def check_conservation(replay, result) -> Dict[str, int]:
    """ops_attempted = finished + cancelled + expired + shed, and prefix
    refcounts are zero at drain.  Returns the terminal-status counts."""
    counts = dict(result.status_counts())
    admission = layers.admission_counts(replay.gateway)
    counts["shed"] = admission["shed"] + admission["rejected"]
    terminal = sum(counts.values())
    if terminal != replay.attempted:
        raise CheckFailed(f"conservation: {replay.attempted} sent but "
                          f"{terminal} terminal ({counts})")
    if result.stream is not None and result.stream.complete:
        ids = [r.request_id for r in result.records]
        if len(ids) != len(set(ids)):
            raise CheckFailed("a request has more than one record")
    for cache in layers.prefix_caches(replay.gateway):
        if cache.total_refcount != 0:
            raise CheckFailed(f"prefix refcounts not drained: "
                              f"{cache.total_refcount}")
    return counts


def sim_metrics(workload, replay, result) -> Dict[str, float]:
    summary = replay.summary
    stream = result.stream
    if stream is not None and not stream.complete:
        met = stream.slo_met_count(workload.slo_ttft_s, "ttft")
    else:
        met = sum(1 for r in result.records
                  if r.finished and r.ttft_s <= workload.slo_ttft_s)
    return {
        "sim_ttft_p50_s": summary["p50_ttft_s"],
        "sim_ttft_p99_s": summary["p99_ttft_s"],
        "sim_e2e_p50_s": summary["p50_e2e_s"],
        "sim_time_per_token_mean_s": summary["mean_time_per_token_s"],
        "sim_token_throughput": summary["token_throughput"],
        "sim_goodput_rps": summary["goodput_rps"],
        # of requests *sent*: shed, cancelled and expired requests miss
        "sim_slo_attainment": met / replay.attempted,
    }


def sim_digest(metrics: Dict[str, float]) -> str:
    return hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode()).hexdigest()


def check_digest(kind: str, workload: str, seed: int, got: str) -> str:
    """Compare with the committed digest for this seed; an unknown seed
    skips the comparison."""
    with open(DIGESTS_PATH) as fh:
        known = json.load(fh)
    want = known.get(str(seed), {}).get(workload, {}).get(kind)
    if want is None:
        return "unknown-seed"
    if want != got:
        raise CheckFailed(f"{kind} digest of {workload} seed {seed} is "
                          f"{got}, digests.json has {want}")
    return "match"


# ------------------------------------------------------------------ #
# repetitions
# ------------------------------------------------------------------ #
def prepare_with_warmup(workload, seed: int, scale: float):
    """Everything before the first request: the measured stack plus a
    throw-away replay on a separate one.  Returns (replay, seconds)."""
    start = perf_counter()
    warm = workload.prepare(
        seed, scale * workloads.WARM_REQUESTS / workload.nominal_requests)
    warm.run()
    replay = workload.prepare(seed, scale)
    return replay, perf_counter() - start


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def untraced_rep(workload, seed: int, scale: float = 1.0) -> dict:
    replay, setup_s = prepare_with_warmup(workload, seed, scale)
    gc.collect()
    start = perf_counter()
    result = replay.run()
    wall_s = perf_counter() - start
    counts = check_conservation(replay, result)
    return {"setup_s": setup_s, "wall_s": wall_s, "counts": counts,
            "attempted": replay.attempted,
            "sim": sim_metrics(workload, replay, result)}


def traced_rep(workload, seed: int, tracer: Tracer,
               scale: float = 1.0) -> dict:
    replay, _ = prepare_with_warmup(workload, seed, scale)
    digest = workloads.RecordDigest()
    layers.serving_gateway(replay.gateway).add_completion_listener(
        digest.observe)
    gc.collect()
    collections = gc_collections()
    with tracer.record():
        result = replay.run()
    collections = gc_collections() - collections
    counts = check_conservation(replay, result)
    # exactly one terminal record per request: the listener saw every
    # record an engine retired; the admission layer's own retirements
    # (cancelled while held at the frontier) appear only in the result
    seen = digest.seen
    for record in result.records:
        if record.request_id not in seen:
            digest.observe(record)
    if len(seen) + counts["shed"] != replay.attempted or digest.duplicates:
        raise CheckFailed(
            f"{len(seen)} requests with a record, {counts['shed']} shed, "
            f"{digest.duplicates} duplicate records, "
            f"{replay.attempted} sent")
    spans = tracer.spans()
    metrics = layers.per_layer_metrics(spans, tracer, replay, result)
    metrics["workload.generate_s"] = replay.generate_s
    metrics["host.gc_collections"] = collections
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    if abs(self_sum - tracer.root_s) > SELF_SUM_TOLERANCE * tracer.root_s:
        raise CheckFailed(f"layer self times sum to {self_sum:.4f} s but "
                          f"the traced replay took {tracer.root_s:.4f} s")
    return {"wall_s": tracer.root_s, "metrics": metrics,
            "attempted": replay.attempted, "counts": counts,
            "records_digest": digest.hexdigest(),
            "sim": sim_metrics(workload, replay, result)}


def calibration_s() -> float:
    """A fixed pure-Python + numpy loop, so result files from different
    machines can be told apart; reported, never divided in."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) % 7
        arr = np.arange(200_000, dtype=np.float64)
        for _ in range(20):
            arr = np.sqrt(arr * 1.0001 + 1.0)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def same_everywhere(reps: List[dict], key: str, what: str) -> None:
    for rep in reps[1:]:
        if rep[key] != reps[0][key]:
            raise CheckFailed(f"{what} differ between repetitions of one "
                              f"input: {reps[0][key]} vs {rep[key]}")


def run_untraced(workload, seed: int, seconds: float,
                 import_s: float) -> dict:
    start = perf_counter()
    reps: List[dict] = []
    while len(reps) < MIN_UNTRACED_REPS or perf_counter() - start < seconds:
        reps.append(untraced_rep(workload, seed))
    same_everywhere(reps, "sim", "simulated metrics")
    sim = reps[0]["sim"]
    digest_state = check_digest("sim", workload.name, seed, sim_digest(sim))
    walls = [rep["wall_s"] for rep in reps]
    setups = [import_s + rep["setup_s"] for rep in reps]
    # the fastest repetition: the inputs are identical and interference on
    # a shared box only ever adds time, so the minimum is the steadiest
    # estimate of what the code costs (ten runs: spread 0.03-0.05 against
    # 0.05-0.09 for the median)
    wall = min(walls)
    attempted = reps[0]["attempted"]
    values = {
        "setup_s": statistics.median(setups),
        "replay_wall_s": wall,
        "requests_per_host_s": attempted / wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim,
    }
    return {"values": values, "attempted": attempted,
            "counts": reps[0]["counts"], "reps": len(reps),
            "samples": {"setup_s": setups, "replay_wall_s": walls,
                        "requests_per_host_s":
                            [attempted / w for w in walls]},
            "ttft_samples": attempted - reps[0]["counts"]["shed"],
            "digests": {"sim": sim_digest(sim)}, "digest_check": digest_state}


def run_traced(workload, seed: int, seconds: float,
               chrome_path: Optional[Path]) -> dict:
    start = perf_counter()
    host_calibration = calibration_s()
    plain = [untraced_rep(workload, seed) for _ in range(2)]
    tracer = Tracer()
    tracer.install()
    try:
        reps: List[dict] = []
        while len(reps) < MIN_TRACED_REPS or \
                perf_counter() - start < seconds:
            reps.append(traced_rep(workload, seed, tracer))
            if chrome_path is not None and len(reps) == 1:
                tracer.write_chrome_trace(str(chrome_path))
    finally:
        tracer.remove()
    # tracing is pure observation: same simulated history with it on
    same_everywhere(plain + reps, "sim", "simulated metrics")
    same_everywhere(reps, "records_digest", "record digests")
    exact = [{k: v for k, v in rep["metrics"].items() if layers.is_exact(k)}
             for rep in reps]
    for other in exact[1:]:
        if other != exact[0]:
            raise CheckFailed("exact per-layer counts differ between "
                              "traced repetitions of one input")
    sim = reps[0]["sim"]
    records_digest = reps[0]["records_digest"]
    check_digest("sim", workload.name, seed, sim_digest(sim))
    digest_state = check_digest("records", workload.name, seed,
                                records_digest)
    values = {name: statistics.median(rep["metrics"][name] for rep in reps)
              for name in reps[0]["metrics"]}
    values["host.calibration_s"] = host_calibration
    traced_wall = statistics.median(rep["wall_s"] for rep in reps)
    values["host.trace_overhead_ratio"] = \
        min(rep["wall_s"] for rep in reps) / \
        min(rep["wall_s"] for rep in plain)
    return {"values": {name: values[name]
                       for name in layers.PER_LAYER_NAMES},
            "attempted": reps[0]["attempted"], "counts": reps[0]["counts"],
            "reps": len(reps), "traced_replay_wall_s": traced_wall,
            "sim": sim,
            "digests": {"sim": sim_digest(sim), "records": records_digest},
            "digest_check": digest_state}


# ------------------------------------------------------------------ #
# one workload in this process (the driver's contract)
# ------------------------------------------------------------------ #
def run_one(name: str, seed: int, seconds: float, trace: int,
            out: Optional[Path], import_s: float) -> int:
    workload = workloads.WORKLOADS[name]
    units = {row.name: row.unit for row in layers.END_TO_END}
    units.update({row.name: row.unit for row in layers.PER_LAYER})
    try:
        if trace:
            chrome = out.with_suffix(".trace.json") if out else None
            detail = run_traced(workload, seed, seconds, chrome)
            reported = layers.PER_LAYER_NAMES
        else:
            detail = run_untraced(workload, seed, seconds, import_s)
            reported = [row.name for row in layers.END_TO_END
                        if row.driver_bound is not None]
    except CheckFailed as failure:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": workload.nominal_requests,
                          "failed": workload.nominal_requests,
                          "metrics": {}}))
        return 1
    values = detail["values"]
    print(f"# {name} seed={seed} trace={trace} reps={detail['reps']} "
          f"sent={detail['attempted']} outcomes={detail['counts']} "
          f"digests={detail['digest_check']}")
    for metric, value in values.items():
        note = ""
        if metric in ("sim_ttft_p50_s", "sim_ttft_p99_s"):
            note = f"  (n={detail['ttft_samples']})"
        print(f"{metric:34s} {value:16.6f} {units[metric]}{note}")
    if out is not None:
        detail["workload"] = name
        detail["units"] = {metric: units[metric] for metric in values}
        with open(out, "w") as fh:
            json.dump(detail, fh, indent=1)
    print(json.dumps({
        "correct": True, "attempted": detail["attempted"], "failed": 0,
        "metrics": {metric: {"value": values[metric],
                             "unit": units[metric]}
                    for metric in reported}}))
    return 0


# ------------------------------------------------------------------ #
# the whole ledger, one child process per run
# ------------------------------------------------------------------ #
def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_sha": sha}


def run_ledger(seed: int, seconds: float, out: Path) -> int:
    ledger = {"schema": 1, "seed": seed, "seconds": seconds,
              "environment": environment(), "workloads": {}}
    failed = False
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        for name in workloads.WORKLOADS:
            entry: dict = {}
            for trace in (0, 1):
                part = Path(tmp) / f"{name}.{trace}.json"
                code = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--out", str(part)]).returncode
                if code != 0 or not part.is_file():
                    failed = True
                    entry["correct"] = False
                    continue
                with open(part) as fh:
                    entry["traced" if trace else "untraced"] = json.load(fh)
                chrome = part.with_suffix(".trace.json")
                if chrome.is_file():
                    chrome.replace(out.with_name(
                        f"{out.stem}.{name}.trace.json"))
            entry.setdefault("correct", True)
            attempted = entry.get("untraced", {}).get("attempted", 0)
            entry["ops_attempted"] = attempted
            entry["ops_failed"] = 0 if entry["correct"] else attempted
            ledger["workloads"][name] = entry
    with open(out, "w") as fh:
        json.dump(ledger, fh, indent=1)
    print(f"wrote {out}")
    return 1 if failed else 0


def record_digests() -> int:
    """Re-record digests.json for seeds 0, 1 and 2 (one traced replay
    each, nothing timed).  Only a change that alters modelled behaviour
    on purpose runs this, and says so."""
    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    tracer = Tracer()
    tracer.install()
    try:
        for seed in (0, 1, 2):
            for name, workload in workloads.WORKLOADS.items():
                rep = traced_rep(workload, seed, tracer)
                digests.setdefault(str(seed), {})[name] = {
                    "records": rep["records_digest"],
                    "sim": sim_digest(rep["sim"])}
                print(f"seed {seed} {name}: {rep['records_digest'][:16]}")
    finally:
        tracer.remove()
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None, import_s: float = 0.0) -> int:
    """``import_s`` is what the caller measured around importing this
    module (numpy, repro and the benchmark's own files): part of
    ``setup_s``, and only the process entry point can time it."""
    parser = argparse.ArgumentParser(
        description="Perf ledger: six replay workloads, end to end and "
                    "layer by layer (see run.py's docstring).")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload in this process; without it "
                             "the whole ledger runs and --out is required")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long each run keeps repeating the replay")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="result file (ledger mode) or detail file")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for seeds 0, 1, 2")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, args.trace,
                       args.out, import_s)
    if args.out is None:
        parser.error("--out is required when no --workload is given")
    return run_ledger(args.seed, args.seconds, args.out)

