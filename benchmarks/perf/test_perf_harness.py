"""Tier-1 check of the perf ledger's harness (not of anyone's speed).

Runs all six workloads at 1/50 size through the same repetition
functions ``run.py`` uses and pins what later PRs rely on: the result
schema and name rules of BENCHMARK.json, run-to-run identity of every
simulated metric (with and without the tracer), the self-time partition,
and that removing the tracer puts every wrapped object back.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare                                          # noqa: E402
import harness                                          # noqa: E402
import layers                                           # noqa: E402
import workloads                                        # noqa: E402
from tracer import TARGETS, Tracer                      # noqa: E402

SCALE = 1 / 50
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def small_runs():
    """Two untraced and two traced repetitions of every workload."""
    runs = {}
    tracer = Tracer()
    for name, workload in workloads.WORKLOADS.items():
        plain = [harness.untraced_rep(workload, 0, SCALE) for _ in range(2)]
        tracer.install()
        try:
            traced = [harness.traced_rep(workload, 0, tracer, SCALE)
                      for _ in range(2)]
        finally:
            tracer.remove()
        runs[name] = (plain, traced)
    return runs


def test_benchmark_json_matches_the_tables():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    driver = [(row.name, row.unit, row.better, row.driver_bound)
              for row in layers.END_TO_END if row.driver_bound is not None]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == driver
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(row.name, row.unit, row.better) for row in layers.PER_LAYER]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_all_eleven_end_to_end_metrics_are_defined():
    assert len(layers.END_TO_END) == 11
    assert len(layers.PER_LAYER_NAMES) == len(set(layers.PER_LAYER_NAMES))
    for row in layers.END_TO_END:
        assert NAME.match(row.name) and UNIT.match(row.unit)


def test_result_schema(small_runs):
    for name, (plain, traced) in small_runs.items():
        rep = plain[0]
        assert rep["attempted"] >= 1
        assert sum(rep["counts"].values()) == rep["attempted"]
        assert set(rep["sim"]) == {row.name for row in layers.END_TO_END
                                   if row.name.startswith("sim_")}
        assert rep["wall_s"] > 0 and rep["setup_s"] > 0
        metrics = traced[0]["metrics"]
        missing = set(layers.PER_LAYER_NAMES) - set(metrics) - {
            "host.calibration_s", "host.trace_overhead_ratio"}
        assert not missing, (name, missing)
        assert len(traced[0]["records_digest"]) == 64


def test_simulated_metrics_repeat_exactly(small_runs):
    for name, (plain, traced) in small_runs.items():
        sims = [rep["sim"] for rep in plain + traced]
        assert all(sim == sims[0] for sim in sims), name
        assert traced[0]["records_digest"] == traced[1]["records_digest"]
        exact = [{k: v for k, v in rep["metrics"].items()
                  if layers.is_exact(k)} for rep in traced]
        assert exact[0] == exact[1], name


def test_every_layer_runs_somewhere_and_only_there(small_runs):
    def value(workload, metric):
        return small_runs[workload][1][0]["metrics"][metric]

    for single in ("decode_long", "churn_short", "dashboard_keepall"):
        assert value(single, "cluster.steps") == 0
        assert value(single, "tenancy.offer_calls") == 0
        assert value(single, "prefix.lookup_calls") == 0
    assert value("cluster_bursty", "cluster.choose_calls") > 0
    assert value("tenants_overload", "tenancy.offer_calls") > 0
    assert value("tenants_overload", "telemetry.advance_calls") > 0
    assert value("sessions_disagg_prefix", "prefix.lookup_calls") > 0
    assert value("sessions_disagg_prefix", "disagg.worker_steps") > 0
    assert value("dashboard_keepall", "metrics.read_calls") >= 1


def test_removing_the_tracer_restores_every_wrapped_object():
    import importlib

    def current():
        found = {}
        for module_name, cls_name, attr, *_ in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            found[(module_name, cls_name, attr)] = vars(owner)[attr]
        return found

    before = current()
    tracer = Tracer()
    tracer.install()
    during = current()
    tracer.remove()
    after = current()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)
    with pytest.raises(RuntimeError):
        tracer.install()
        tracer.install()
    tracer.remove()
    assert all(current()[key] is before[key] for key in before)


def test_compare_verdicts():
    assert compare.verdict("replay_wall_s", "lower", 0.10, 2.0, 2.1,
                           0.01, 0.01) == "same"
    assert compare.verdict("replay_wall_s", "lower", 0.10, 2.0, 2.5,
                           0.01, 0.01) == "worse"
    assert compare.verdict("replay_wall_s", "lower", 0.10, 2.0, 1.5,
                           0.01, 0.01) == "better"
    assert compare.verdict("replay_wall_s", "lower", 0.10, 2.0, 2.5,
                           0.20, 0.01) == "unresolved"
    assert compare.verdict("setup_s", "lower", 0.15, 0.2, 0.28,
                           0.0, 0.0) == "same"      # under the 0.1 s floor
    assert compare.verdict("sim_ttft_p50_s", "lower", None, 1.0, 1.0,
                           0.0, 0.0) == "same"
    assert compare.verdict("sim_goodput_rps", "higher", None, 1.0,
                           1.0000001, 0.0, 0.0) == "better"
