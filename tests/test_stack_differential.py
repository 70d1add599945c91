"""Record and output digests of the serving stacks, pinned before the
stack builder replaced the fluent session layer.

Each stack here is assembled from the public layer constructors
(``create_engine``, ``ServingGateway``, ``ClusterGateway``,
``TenantGateway``) the way the session builder assembled it: a single
engine, two replicas behind the lineage balancer, an autoscaled cluster,
VTC tenants over one engine and over two replicas, a 2p2d disaggregated
engine and a two-node sharded engine.  The CLI modes that assemble
stacks from flags (``simulate``, ``cluster``, ``tenancy``) and the
scenario drills are pinned by the sha256 of what they print and write.
A refactor of how stacks are built must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ENGINES, Autoscaler, ClusterGateway, EngineConfig,
                           LLAMA_7B, ModelManager, SchedulerConfig,
                           ServingGateway, Tenant, TenantGateway,
                           create_engine)
from repro.workload import synthetic_trace, trace_from_distribution
from repro.workload.io import save_trace
from repro.workload.spec import Trace

TENANTS = (Tenant("gold", weight=2.0), Tenant("free", max_outstanding=2))


def stack_trace() -> Trace:
    trace = synthetic_trace(3, rate=2.0, duration_s=30.0, seed=5)
    for i, request in enumerate(trace.requests):
        request.tenant_id = TENANTS[i % 2].tenant_id
    return trace


def stack_manager(engine: str, trace: Trace) -> ModelManager:
    """The base plus every trace model at ratio 8, registered the way
    ``engine`` consumes variants."""
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in trace.model_ids:
        ENGINES[engine].register_variant(mgr, model_id, "base", 8.0)
    return mgr


def one_gpu() -> GPUNode:
    return GPUNode(node_from_name("a800", 1))


def small_engine(mgr, node=None):
    return create_engine(
        "deltazip", mgr, node or one_gpu(),
        scheduler_config=SchedulerConfig(max_batch_requests=8,
                                         max_concurrent_deltas=2),
        engine_config=EngineConfig(tp_degree=1))


def small_cluster(mgr, n_replicas, ceiling=None, **kwargs):
    return ClusterGateway(
        engine_factory=lambda node: small_engine(mgr, node),
        cluster=Cluster(node_from_name("a800", 1),
                        n_nodes=ceiling or n_replicas),
        n_replicas=n_replicas, **kwargs)


def constructed(name: str, trace: Trace):
    """Stack ``name`` from the layer constructors."""
    engine = {"disagg-2p2d": "disagg", "sharded-tp2": "sharded"}.get(
        name, "deltazip")
    mgr = stack_manager(engine, trace)
    if name == "single":
        return ServingGateway(small_engine(mgr))
    if name == "replicas2-lineage":
        return small_cluster(mgr, 2, balancer="lineage")
    if name == "autoscaler":
        return small_cluster(
            mgr, 1, ceiling=3,
            autoscaler=Autoscaler(max_replicas=3, high_queue_per_replica=2.0))
    if name == "vtc-tenants":
        return TenantGateway(ServingGateway(small_engine(mgr)),
                             tenants=TENANTS, policy="vtc")
    if name == "vtc-tenants-replicas2":
        return TenantGateway(small_cluster(mgr, 2), tenants=TENANTS,
                             policy="vtc")
    if name == "disagg-2p2d":
        return ServingGateway(create_engine(
            "disagg", mgr, one_gpu(), prefill_workers=2, decode_workers=2))
    assert name == "sharded-tp2"
    return ServingGateway(create_engine("sharded", mgr, one_gpu(),
                                        tp_degree=2))


def records_digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(tuple(record)).encode())
    return h.hexdigest()


#: sha256 over ``repr(tuple(record))`` of each stack's replay
STACK_DIGESTS = {
    "single":
        "2a60ffc19c34535a58b2e9706a2726f7abdcc1b2ebee7eba4e1e09ad50ce2090",
    "replicas2-lineage":
        "feefbe2a72f263ef820eeda29e38bcb0cde9c6870301261fa5a33469cd1fbfea",
    "autoscaler":
        "15096f6c4a089ab8e7cbf409cdfb54d4ee3c972e2d552e5e1bb3d4d475ce4e03",
    "vtc-tenants":
        "fd5d439f6f241c45b7d10aaa2cf37c2e2b58d502d7baf7b888b6367206637a2e",
    "vtc-tenants-replicas2":
        "b9138460ed35675bdba14b453838be5aed98243ab7f7f53dfb051e36fea283b1",
    "disagg-2p2d":
        "90cd73f76c68edd1ddf0be6b064f35de1a82e314cf4d9d20a1bc278b75d69955",
    "sharded-tp2":
        "ec27ac2537afca676ec0dd88f3df0e7079ec30ceb3e25d5d3661825763735417",
}


@pytest.mark.parametrize("name", sorted(STACK_DIGESTS))
def test_constructed_stack_records_are_pinned(name):
    trace = stack_trace()
    result = constructed(name, trace).replay(trace)
    assert result.records
    assert records_digest(result.records) == STACK_DIGESTS[name]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stack") / "azure.jsonl"
    save_trace(trace_from_distribution("azure", 4, rate=0.5, duration_s=40.0,
                                       seed=0), str(path))
    return str(path)


def digest_of_stdout(capsys, argv, tmp=None) -> str:
    assert main(argv) == 0
    out = capsys.readouterr().out
    if tmp is not None:
        out = out.replace(str(tmp), "<tmp>")
    return hashlib.sha256(out.encode()).hexdigest()


#: sha256 of each CLI mode's stdout on the fixed trace
CLI_DIGESTS = {
    "simulate":
        "4b8bc6afe432f84daeb7322437f52021f4506ec25158b1ccba9b518785bf6f59",
    "cluster":
        "bbd6dd9ea50c09973616ab7d85ad3d41a67d7653669e1b5e5caa3145a5c62e30",
    "tenancy":
        "1fd8928993439078462ed97d3ec47fb7be271903f1326e0d1a34cab6d1f2f847",
}
CLI_ARGS = {
    "simulate": ["simulate", "--systems", "all", "--model", "llama-7b",
                 "--verbose"],
    "cluster": ["cluster", "--replicas", "1,2", "--autoscale",
                "--max-replicas", "3", "--model", "llama-7b", "--verbose",
                "--telemetry-interval", "5"],
    "tenancy": ["tenancy", "--policy", "both", "--shed", "--duration", "30",
                "--tenants", "agg:6.0:1.0:batch,gold:0.4:2.0:interactive,"
                             "silver:0.4:1.0:standard",
                "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                "--batch", "8", "--deltas", "4", "--telemetry-interval", "5"],
}


@pytest.mark.parametrize("mode", sorted(CLI_DIGESTS))
def test_cli_stdout_is_pinned(mode, trace_file, capsys):
    argv = list(CLI_ARGS[mode])
    if mode != "tenancy":
        argv += ["--trace", trace_file]
    assert digest_of_stdout(capsys, argv) == CLI_DIGESTS[mode]


SCENARIOS_STDOUT_DIGEST = \
    "73624e27a9658d66f49e67b4c8c600656bc80fe343f7a526ed2b957d19ea1c20"
SCENARIOS_GAUGES_DIGEST = \
    "05edee93aa0acdaeac0046cda8a50e7c245c5920ad4d427d3d860c59484af47d"


def test_scenario_drills_are_pinned(tmp_path, capsys):
    out = tmp_path / "gauges.json"
    stdout = digest_of_stdout(
        capsys, ["scenarios", "all", "--quick", "--gauges-out", str(out)],
        tmp=tmp_path)
    gauges = json.loads(out.read_text())
    assert all(report["ok"] for report in gauges.values())
    assert stdout == SCENARIOS_STDOUT_DIGEST
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SCENARIOS_GAUGES_DIGEST
