#!/usr/bin/env python3
"""Perf ledger: six replay workloads, end to end and layer by layer.

Two ways to run it, both from the repository root:

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload in this process.  ``--trace 0`` repeats the untraced
    replay for ``T`` seconds (at least three times) and reports the
    end-to-end metrics; ``--trace 1`` runs it untraced twice, then traced
    for the rest of ``T`` (at least twice), and reports the per-layer
    metrics.  Every metric is printed by name with its unit; the last
    line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
    when an output check fails.

``python3 benchmarks/perf/run.py --seed S --out FILE``
    The whole ledger: each workload untraced then traced, one fresh
    single-threaded child process at a time, merged into ``FILE`` (what
    ``compare.py`` reads and ``results/`` archives).  The first
    10k raw spans of each traced run are written next to ``FILE`` as
    Chrome traces.

What is timed.  ``setup_s`` = ``import repro`` (once per process) plus
the median over repetitions of: trace generation, manager/engine/gateway
construction, and a 200-request throw-away replay on a *separate* stack
(it warms imports and numpy only; the measured engine's cost-model memos
stay cold, because a user pays them on every run).  ``replay_wall_s`` =
ingest of every request + drain + one ``result()``/``summarize()``,
the fastest of the repetitions of identical inputs.  Arrival schedules are in
simulated time, so the host never sleeps and generator lateness does not
apply.  Host-time metrics are noisy; simulated metrics repeat exactly
for a fixed seed, which the run checks between repetitions.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

# before numpy loads: one BLAS thread, the box has two cores
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perf ledger: no src/repro under {ROOT}; run it from a full "
             "checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

_start = perf_counter()
import harness                                          # noqa: E402
IMPORT_S = perf_counter() - _start

if __name__ == "__main__":
    sys.exit(harness.main(import_s=IMPORT_S))
