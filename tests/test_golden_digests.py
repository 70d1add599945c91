"""Golden record digests for every registered engine: ``disagg``,
``sharded``, ``deltazip`` with its prefix cache on and off, and the two
baselines ``vllm-scb`` and ``dedicated`` — bare, behind the serving and
cluster gateways, and behind a :class:`TenantGateway` whose admission
path decides things (the ``tenant-vtc`` column).

Records are the contract: a refactor of the fleet mechanism under these
engines, or of the prefix cache inside them, must leave every record of
every cell below bit-identical.  A cell is one scenario (pool sizes,
prefix cache, node, trace shape) served through one wrapper (bare
engine, :class:`ServingGateway`, the replicas of a 2-replica
:class:`ClusterGateway`) in one stepping mode (idle-skip,
``idle_quantum_s=0.05``); its digest is the sha256 of the record stream
over :func:`record_digest`'s field list.

Each block of the table at the bottom was recorded on the commit
*before* the refactor it guards (the ``disagg`` / ``sharded`` cells
before the one-fleet refactor, the ``deltazip-cache`` cells before the
span-compressed prefix cache, the cache-off ``deltazip`` / ``vllm-scb`` /
``dedicated`` cells before terminal requests were released under every
record policy, the ``tenant-vtc`` cells before a cluster replica stopped
wrapping a private gateway — except their ``dedicated`` rows, which no
earlier commit could serve: those were recorded on the commit that let a
``DedicatedEngine``'s clock be re-seated; the ``drop-`` cells, which
digest what a ``DROP`` replay's sink answers, before the settings no
caller set were deleted from the metrics plane).  Regenerate it only on
purpose::

    PYTHONPATH=src python -m pytest tests/test_golden_digests.py --regen

which rewrites the block between the two ``GOLDEN`` markers in this file
and skips the comparisons; without the flag nothing is ever written.
"""

import hashlib
import re
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from repro.hardware import node_from_name
from repro.hardware.specs import A800, NodeSpec
from repro.serving import (ENGINES, EngineConfig, LLAMA_7B, ModelManager,
                           RecordPolicy, SchedulerConfig, ServingResult,
                           StackSpec, Tenant, build, build_engine, summarize)
from repro.workload import LengthSampler, session_trace, synthetic_trace
from repro.workload.spec import Trace, TraceRequest

N_MODELS = 4
MODELS = [f"variant-{i:02d}" for i in range(N_MODELS)]
WRAPPERS = ("bare", "gateway", "cluster2")
STEPPING = {"skip": None, "dense": 0.05}


# --------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------- #
def sessions():
    return session_trace(N_MODELS, rate=0.5, duration_s=60.0, seed=7), None


def long_prompts():
    # prompts well past the 512-token chunk: every prefill is slabbed
    sampler = LengthSampler(prompt_log_mean=6.8, prompt_log_sigma=0.3,
                            output_mean=24.0, max_prompt=2048,
                            max_output=64)
    return synthetic_trace(N_MODELS, rate=1.5, duration_s=20.0, seed=5,
                           length_sampler=sampler), None


def cancels_and_deadlines():
    # 400-token decodes (~seconds) behind ~0.1 s prefills: every deadline
    # and every cancel below is scheduled while its request is still on
    # the prefill side and lands after the KV handoff, or inside it
    requests = [TraceRequest(
        request_id=i, model_id=MODELS[i % N_MODELS], arrival_s=0.2 * i,
        prompt_tokens=128 + 16 * i, output_tokens=400,
        deadline_s=0.2 * i + 1.5 if i % 4 == 1 else None)   # 1, 5, (9)
        for i in range(12)]
    cancels = [(i, 0.2 * i + 0.1 + 0.3 * j)
               for j, i in enumerate(range(0, 12, 3))]
    return Trace(requests=requests, model_ids=list(MODELS),
                 duration_s=3.0), cancels


def traffic():
    return synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=9), None


def pressured_sessions():
    # test_prefix_cache's eviction trace (two variants, 256-token system
    # prompts, six turns a conversation) plus a cancel a second into
    # every fifth request.  On an 18 GB node the pool is evicted under
    # most commits, admissions bounce at the KV check while holding block
    # references, and half the cancels land on requests that hold them
    # (at that test's 17 GB, with this table's scheduler and 32-token
    # blocks, the second delta never fits and nothing reaches the KV check)
    trace = session_trace(2, rate=0.2, duration_s=120.0, seed=3,
                          shared_prefix_tokens=256, mean_turns=6.0)
    cancels = [(r.request_id, r.arrival_s + 1.0)
               for r in trace.requests[::5]]
    return trace, cancels


#: every cell's engine: one A800 GPU, K=8 and N=4
ONE_GPU = StackSpec(node=node_from_name("a800", 1),
                    scheduler=SchedulerConfig(max_batch_requests=8,
                                              max_concurrent_deltas=4),
                    config=EngineConfig(tp_degree=1))


def stack(engine: str, prefix_cache: bool = False,
          memory_gb: Optional[float] = None, **engine_kwargs) -> StackSpec:
    """``engine`` on :data:`ONE_GPU` (with ``memory_gb`` of GPU memory
    when set), its TP degree taken from a sharded ``tp_degree``."""
    node = ONE_GPU.node if memory_gb is None else \
        NodeSpec(gpu=replace(A800, memory_gb=memory_gb), n_gpus=1)
    config = replace(ONE_GPU.config, prefix_cache=prefix_cache,
                     tp_degree=engine_kwargs.get("tp_degree", 1))
    return replace(ONE_GPU, engine=engine, node=node, config=config,
                   engine_kwargs=engine_kwargs)


class Scenario(NamedTuple):
    spec: StackSpec
    trace: Callable
    #: who routes under the ``cluster2`` wrapper
    balancer: str = "least-outstanding"


SCENARIOS = {
    "disagg-1p1d": Scenario(
        stack("disagg", prefill_workers=1, decode_workers=1), sessions),
    "disagg-1p1d-cache": Scenario(
        stack("disagg", True, prefill_workers=1, decode_workers=1),
        sessions),
    "disagg-2p2d": Scenario(
        stack("disagg", prefill_workers=2, decode_workers=2), sessions),
    "disagg-2p2d-cache": Scenario(
        stack("disagg", True, prefill_workers=2, decode_workers=2),
        sessions),
    "disagg-chunked": Scenario(
        stack("disagg", prefill_workers=2, decode_workers=2),
        long_prompts),
    "disagg-cancels": Scenario(
        stack("disagg", prefill_workers=1, decode_workers=2),
        cancels_and_deadlines),
    "sharded-1node": Scenario(
        stack("sharded", tp_degree=1, n_nodes=1), traffic),
    "sharded-2node": Scenario(
        stack("sharded", tp_degree=2, n_nodes=2), traffic),
    # the prefix-on cells of ROADMAP 3(a): sessions pinned to the replica
    # that holds their history, then the same cache under KV pressure
    "deltazip-cache": Scenario(
        stack("deltazip", True), sessions, balancer="conversation"),
    "deltazip-cache-tight": Scenario(
        stack("deltazip", True, memory_gb=18.0), pressured_sessions,
        balancer="conversation"),
    # the remaining cells of ROADMAP 3(a): the colocated engine with the
    # cache off and the two full-model baselines (``dedicated`` is the one
    # engine that routes cancels through a request -> group map), on plain
    # traffic and with cancels and deadlines landing mid-decode
    "deltazip": Scenario(stack("deltazip"), traffic),
    "deltazip-cancels": Scenario(stack("deltazip"), cancels_and_deadlines),
    "vllm-scb": Scenario(stack("vllm-scb"), traffic),
    "vllm-scb-cancels": Scenario(stack("vllm-scb"), cancels_and_deadlines),
    "dedicated": Scenario(stack("dedicated"), traffic),
    "dedicated-cancels": Scenario(stack("dedicated"), cancels_and_deadlines),
}


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
def make_manager(name):
    # each engine's own artifact kind: deltas, or whole FP16 checkpoints
    # for the two baselines
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in MODELS:
        ENGINES[name].register_variant(mgr, model_id, "base", 8.0)
    return mgr


def record_digest(records):
    """Stable content hash of a replay's full record stream."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.request_id, r.model_id, r.arrival_s, r.finish_s,
                       r.first_token_s, r.queue_wait_s, r.loading_s,
                       r.inference_s, r.status)).encode())
    return h.hexdigest()


def spec_of(scenario: str, wrapper: str, stepping: str) -> StackSpec:
    """The scenario's stack in one stepping mode: one engine (``bare`` /
    ``gateway``) or the two replicas of ``cluster2``."""
    spec, _, balancer = SCENARIOS[scenario]
    spec = replace(spec, config=replace(spec.config,
                                        idle_quantum_s=STEPPING[stepping]))
    if wrapper == "cluster2":
        return replace(spec, replicas=2, balancer=balancer)
    return spec


def serve(scenario, wrapper, stepping):
    trace, cancels = SCENARIOS[scenario].trace()
    spec = spec_of(scenario, wrapper, stepping)
    mgr = make_manager(spec.engine)
    if wrapper != "bare":
        return build(spec, mgr).replay(trace, cancels=cancels)
    engine = build_engine(spec, mgr)
    for request in trace:
        engine.submit(request)
    for request_id, at_s in cancels or ():
        engine.schedule_cancel(request_id, at_s)
    engine.run_until_drained()
    return engine.build_result()


def tenant_stack(balancer):
    """The composition the fleet refactor must not disturb: disagg
    engines as the replicas of a cluster behind an admission frontier,
    with nothing disagg-specific in either outer layer."""
    spec = replace(SCENARIOS["disagg-1p1d-cache"].spec, replicas=2,
                   balancer=balancer, admission="fcfs",
                   tenants=(Tenant("default"),))
    gateway = build(spec, make_manager("disagg"))
    trace, _ = sessions()
    result = gateway.replay(trace)
    assert len(result.records) == len(trace)
    assert all(r.finished for r in result.records)
    return result


#: the tenants of the ``tenant-vtc`` column: requests are tagged
#: round-robin, and ``metered``'s bucket refills at about two thirds of
#: its offered token rate on the ``traffic`` trace with a burst smaller
#: than a typical request, so every one of its requests defers
VTC_TENANTS = (Tenant("free"),
               Tenant("metered", rate_tokens_per_s=150.0, burst_tokens=300.0))
VTC_SCENARIOS = ("deltazip", "deltazip-cancels", "vllm-scb",
                 "vllm-scb-cancels", "dedicated", "dedicated-cancels")


def tenant_vtc_stack(scenario: str, wrapper: str, stepping: str,
                     tenants: Tuple[Tenant, Tenant] = VTC_TENANTS,
                     policy: str = "vtc",
                     engine_queue_depth: Optional[int] = 4) -> ServingResult:
    """The admission path that decides things, over the non-disagg
    engines: VTC order between two tenants, a bucket that defers, four
    dispatched requests per replica at most (so the rest wait at the
    frontier in fair order), idle engines lifted to each release, and —
    on the cancel scenarios — deadlines expiring and cancels withdrawing
    requests the frontier still holds."""
    trace, cancels = SCENARIOS[scenario].trace()
    tagged = Trace(requests=[replace(r, tenant_id=tenants[i % 2].tenant_id)
                             for i, r in enumerate(trace.requests)],
                   model_ids=trace.model_ids, duration_s=trace.duration_s)
    spec = replace(spec_of(scenario, wrapper, stepping), admission=policy,
                   tenants=tenants, engine_queue_depth=engine_queue_depth)
    result = build(spec, make_manager(spec.engine)).replay(tagged,
                                                           cancels=cancels)
    assert len(result.records) == len(trace)
    return result


#: one scenario per registered engine, replayed under ``DROP``: no record
#: survives, so the cell pins what the metrics sink answers instead
DROP_SCENARIOS = ("disagg-cancels", "sharded-1node", "deltazip-cache",
                  "vllm-scb-cancels", "dedicated-cancels")


def drop_digest(scenario: str, wrapper: str, stepping: str) -> str:
    """sha256 of ``summarize(result)``, ``status_counts()`` and
    ``n_requests`` of a ``DROP`` replay, every float at full precision."""
    trace, cancels = SCENARIOS[scenario].trace()
    spec = spec_of(scenario, wrapper, stepping)
    spec = replace(spec, config=replace(spec.config,
                                        record_policy=RecordPolicy.DROP))
    result = build(spec, make_manager(spec.engine)).replay(trace,
                                                           cancels=cancels)
    assert not result.records and result.n_requests == len(trace)
    return hashlib.sha256(repr((
        sorted(summarize(result).items()),
        sorted(result.status_counts().items()),
        result.n_requests)).encode()).hexdigest()


CELLS = [f"{scenario}/{wrapper}/{stepping}" for scenario in SCENARIOS
         for wrapper in WRAPPERS for stepping in STEPPING]
TENANT_CELLS = [f"tenant-cluster2-disagg/{balancer}"
                for balancer in ("lineage", "conversation")]
VTC_CELLS = [f"tenant-vtc-{scenario}/{wrapper}/{stepping}"
             for scenario in VTC_SCENARIOS
             for wrapper in ("gateway", "cluster2") for stepping in STEPPING]
DROP_CELLS = [f"drop-{scenario}/{wrapper}/{stepping}"
              for scenario in DROP_SCENARIOS
              for wrapper in ("gateway", "cluster2") for stepping in STEPPING]
ALL_CELLS = CELLS + TENANT_CELLS + VTC_CELLS + DROP_CELLS


def digest_of(cell):
    if cell in TENANT_CELLS:
        return record_digest(tenant_stack(cell.split("/")[1]).records)
    if cell in VTC_CELLS:
        return record_digest(tenant_vtc_stack(
            *cell[len("tenant-vtc-"):].split("/")).records)
    if cell in DROP_CELLS:
        return drop_digest(*cell[len("drop-"):].split("/"))
    result = serve(*cell.split("/"))
    assert result.records, "an empty replay pins nothing"
    return record_digest(result.records)


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("cell", ALL_CELLS)
def test_records_match_the_golden_digest(cell, request):
    if request.config.getoption("--regen"):
        pytest.skip("--regen: the table is being rewritten")
    assert cell in GOLDEN, f"no golden digest for {cell}; run --regen"
    assert digest_of(cell) == GOLDEN[cell]


def test_the_cancel_scenario_crosses_a_handoff():
    """The scenario is only worth a digest while its cancels and
    deadlines really land on the decode side of a handoff."""
    result = serve("disagg-cancels", "gateway", "skip")
    counts = result.status_counts()
    assert counts["cancelled"] == 4 and counts["expired"] == 2
    withdrawn = [r for r in result.records if not r.finished]
    assert any(r.transfer_s > 0.0 for r in withdrawn)


def test_the_tight_scenario_is_under_pressure():
    """Likewise: the cell pins eviction, bounce and mid-flight release
    only while all three happen."""
    result = serve("deltazip-cache-tight", "gateway", "skip")
    stats = result.stats
    assert stats.prefix_evictions > 500 and stats.blocked_admissions > 100
    assert result.status_counts()["cancelled"] >= 5
    hit = [r for r in result.records if r.cached_prefix_tokens]
    assert len(hit) > 30 and any(not r.finished for r in hit)


def test_the_tenant_cells_decide_things() -> None:
    """Likewise: the column pins VTC order, bucket deferral and
    depth-limited dispatch only while each of them moves a record."""
    def digest(**changed: object) -> str:
        return record_digest(tenant_vtc_stack(
            "deltazip", "gateway", "skip", **changed).records)

    pinned = digest()
    assert pinned != GOLDEN["deltazip/gateway/skip"]
    assert pinned != digest(policy="fcfs")
    assert pinned != digest(engine_queue_depth=None)
    assert pinned != digest(tenants=(Tenant("free"), Tenant("metered")))


def test_the_table_has_no_stale_cells(request):
    if request.config.getoption("--regen"):
        pytest.skip("--regen: the table is being rewritten")
    assert sorted(GOLDEN) == sorted(ALL_CELLS)


def test_regen_rewrites_the_table(request):
    if not request.config.getoption("--regen"):
        pytest.skip("pass --regen to rewrite the golden table")
    rows = [f'    "{cell}":\n        "{digest_of(cell)}",\n'
            for cell in ALL_CELLS]
    block = "# GOLDEN-BEGIN\nGOLDEN = {\n" + "".join(rows) + \
        "}\n# GOLDEN-END\n"
    path = Path(__file__)
    source = path.read_text()
    rewritten, n = re.subn(r"# GOLDEN-BEGIN\n.*?# GOLDEN-END\n",
                           lambda _: block, source, flags=re.S)
    assert n == 1, "GOLDEN markers missing"
    path.write_text(rewritten)


# GOLDEN-BEGIN
GOLDEN = {
    "disagg-1p1d/bare/skip":
        "291fb83afd346b57508d84e1f1bd0d1e447122ced0cce892c6d6a589855bb493",
    "disagg-1p1d/bare/dense":
        "291fb83afd346b57508d84e1f1bd0d1e447122ced0cce892c6d6a589855bb493",
    "disagg-1p1d/gateway/skip":
        "291fb83afd346b57508d84e1f1bd0d1e447122ced0cce892c6d6a589855bb493",
    "disagg-1p1d/gateway/dense":
        "291fb83afd346b57508d84e1f1bd0d1e447122ced0cce892c6d6a589855bb493",
    "disagg-1p1d/cluster2/skip":
        "4f1d097d90d5f06cee60543cbd167faaabb779c7a0d18642ea8a96e52820f5cb",
    "disagg-1p1d/cluster2/dense":
        "4f1d097d90d5f06cee60543cbd167faaabb779c7a0d18642ea8a96e52820f5cb",
    "disagg-1p1d-cache/bare/skip":
        "8e9456de172bf57ba24b3e21200da003233ee86b389915b29b8dc988528e3e65",
    "disagg-1p1d-cache/bare/dense":
        "8e9456de172bf57ba24b3e21200da003233ee86b389915b29b8dc988528e3e65",
    "disagg-1p1d-cache/gateway/skip":
        "8e9456de172bf57ba24b3e21200da003233ee86b389915b29b8dc988528e3e65",
    "disagg-1p1d-cache/gateway/dense":
        "8e9456de172bf57ba24b3e21200da003233ee86b389915b29b8dc988528e3e65",
    "disagg-1p1d-cache/cluster2/skip":
        "dd6d860ed9f768842d336feb79c41aa81be78a33a3931979f2608c9b1012651c",
    "disagg-1p1d-cache/cluster2/dense":
        "dd6d860ed9f768842d336feb79c41aa81be78a33a3931979f2608c9b1012651c",
    "disagg-2p2d/bare/skip":
        "15ed9666a078340bf638980fc6bd5a40a7f466468daccaf27daa0ac700d681ba",
    "disagg-2p2d/bare/dense":
        "15ed9666a078340bf638980fc6bd5a40a7f466468daccaf27daa0ac700d681ba",
    "disagg-2p2d/gateway/skip":
        "15ed9666a078340bf638980fc6bd5a40a7f466468daccaf27daa0ac700d681ba",
    "disagg-2p2d/gateway/dense":
        "15ed9666a078340bf638980fc6bd5a40a7f466468daccaf27daa0ac700d681ba",
    "disagg-2p2d/cluster2/skip":
        "3b7453a3af658c050ee3ba1bc24d063de94e04d7004669d46d579fe90ef3e0a7",
    "disagg-2p2d/cluster2/dense":
        "3b7453a3af658c050ee3ba1bc24d063de94e04d7004669d46d579fe90ef3e0a7",
    "disagg-2p2d-cache/bare/skip":
        "3de41d974ddb53357a4463a615815ca98d76fba7115de94c1dbef98fa433d597",
    "disagg-2p2d-cache/bare/dense":
        "3de41d974ddb53357a4463a615815ca98d76fba7115de94c1dbef98fa433d597",
    "disagg-2p2d-cache/gateway/skip":
        "3de41d974ddb53357a4463a615815ca98d76fba7115de94c1dbef98fa433d597",
    "disagg-2p2d-cache/gateway/dense":
        "3de41d974ddb53357a4463a615815ca98d76fba7115de94c1dbef98fa433d597",
    "disagg-2p2d-cache/cluster2/skip":
        "b230944c1fe8c6dea0cb254d96e0d0a2644e58701241441a6afe88d55c22ca75",
    "disagg-2p2d-cache/cluster2/dense":
        "b230944c1fe8c6dea0cb254d96e0d0a2644e58701241441a6afe88d55c22ca75",
    "disagg-chunked/bare/skip":
        "0041a8c2f5eca623fc78f6a1796f10202b679d1a7d7d5bf60fc728fc03f3fc46",
    "disagg-chunked/bare/dense":
        "0041a8c2f5eca623fc78f6a1796f10202b679d1a7d7d5bf60fc728fc03f3fc46",
    "disagg-chunked/gateway/skip":
        "0041a8c2f5eca623fc78f6a1796f10202b679d1a7d7d5bf60fc728fc03f3fc46",
    "disagg-chunked/gateway/dense":
        "0041a8c2f5eca623fc78f6a1796f10202b679d1a7d7d5bf60fc728fc03f3fc46",
    "disagg-chunked/cluster2/skip":
        "f39fb1ab2ab5afca9b6ef86d9919e255d963c6f4303dfad88c4348726b38c996",
    "disagg-chunked/cluster2/dense":
        "f39fb1ab2ab5afca9b6ef86d9919e255d963c6f4303dfad88c4348726b38c996",
    "disagg-cancels/bare/skip":
        "25ca6d9b4288a66b446a5d5feb844a6c97f31db5dc50264082ed57b49c46af72",
    "disagg-cancels/bare/dense":
        "25ca6d9b4288a66b446a5d5feb844a6c97f31db5dc50264082ed57b49c46af72",
    "disagg-cancels/gateway/skip":
        "25ca6d9b4288a66b446a5d5feb844a6c97f31db5dc50264082ed57b49c46af72",
    "disagg-cancels/gateway/dense":
        "25ca6d9b4288a66b446a5d5feb844a6c97f31db5dc50264082ed57b49c46af72",
    "disagg-cancels/cluster2/skip":
        "61fbc8e491eee6d88a149a9e2339a240e7b115ffac38692e3f347634741cf1a2",
    "disagg-cancels/cluster2/dense":
        "61fbc8e491eee6d88a149a9e2339a240e7b115ffac38692e3f347634741cf1a2",
    "sharded-1node/bare/skip":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "sharded-1node/bare/dense":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "sharded-1node/gateway/skip":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "sharded-1node/gateway/dense":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "sharded-1node/cluster2/skip":
        "421d9ee037215e49d26094b91b053584c49673080075de6f984ed9a69d0f0fe7",
    "sharded-1node/cluster2/dense":
        "421d9ee037215e49d26094b91b053584c49673080075de6f984ed9a69d0f0fe7",
    "sharded-2node/bare/skip":
        "8fdc018d88f3110d05fda531fcd99f90d6e817b45c1e438bdc3d11869cd1261d",
    "sharded-2node/bare/dense":
        "8fdc018d88f3110d05fda531fcd99f90d6e817b45c1e438bdc3d11869cd1261d",
    "sharded-2node/gateway/skip":
        "8fdc018d88f3110d05fda531fcd99f90d6e817b45c1e438bdc3d11869cd1261d",
    "sharded-2node/gateway/dense":
        "8fdc018d88f3110d05fda531fcd99f90d6e817b45c1e438bdc3d11869cd1261d",
    "sharded-2node/cluster2/skip":
        "74103c8083b4f0938c3e60f8ee96d51f2dcf856539b2cca37aae9343b064b4cb",
    "sharded-2node/cluster2/dense":
        "74103c8083b4f0938c3e60f8ee96d51f2dcf856539b2cca37aae9343b064b4cb",
    "deltazip-cache/bare/skip":
        "3645f3c477fce8b313daf164e40d95d2d75b8427fac264e4ec46d3f124a70518",
    "deltazip-cache/bare/dense":
        "3645f3c477fce8b313daf164e40d95d2d75b8427fac264e4ec46d3f124a70518",
    "deltazip-cache/gateway/skip":
        "3645f3c477fce8b313daf164e40d95d2d75b8427fac264e4ec46d3f124a70518",
    "deltazip-cache/gateway/dense":
        "3645f3c477fce8b313daf164e40d95d2d75b8427fac264e4ec46d3f124a70518",
    "deltazip-cache/cluster2/skip":
        "b81d9a85f4c29789ceb031d79fb2088aaa2d89320b413e3f4f46e92c04eb7187",
    "deltazip-cache/cluster2/dense":
        "b81d9a85f4c29789ceb031d79fb2088aaa2d89320b413e3f4f46e92c04eb7187",
    "deltazip-cache-tight/bare/skip":
        "814a9cfd050f8b6178ef3c6913b915ec1359b856796488ffe6c98b04d9a8ba44",
    "deltazip-cache-tight/bare/dense":
        "814a9cfd050f8b6178ef3c6913b915ec1359b856796488ffe6c98b04d9a8ba44",
    "deltazip-cache-tight/gateway/skip":
        "814a9cfd050f8b6178ef3c6913b915ec1359b856796488ffe6c98b04d9a8ba44",
    "deltazip-cache-tight/gateway/dense":
        "814a9cfd050f8b6178ef3c6913b915ec1359b856796488ffe6c98b04d9a8ba44",
    "deltazip-cache-tight/cluster2/skip":
        "944a335c62e8cbf51209bc3f255ccc3325ded5b6ee866448a47df12d9b724883",
    "deltazip-cache-tight/cluster2/dense":
        "944a335c62e8cbf51209bc3f255ccc3325ded5b6ee866448a47df12d9b724883",
    "deltazip/bare/skip":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "deltazip/bare/dense":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "deltazip/gateway/skip":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "deltazip/gateway/dense":
        "5eeb8f486c85b884618e32d08007b675d5cf2d8dba1d20b2d9c8a914e2d0f462",
    "deltazip/cluster2/skip":
        "421d9ee037215e49d26094b91b053584c49673080075de6f984ed9a69d0f0fe7",
    "deltazip/cluster2/dense":
        "421d9ee037215e49d26094b91b053584c49673080075de6f984ed9a69d0f0fe7",
    "deltazip-cancels/bare/skip":
        "b95be1f6ced6bc50b7b2d142ffc90c86d0d36ff64a2fec380ed32ffae88e838d",
    "deltazip-cancels/bare/dense":
        "b95be1f6ced6bc50b7b2d142ffc90c86d0d36ff64a2fec380ed32ffae88e838d",
    "deltazip-cancels/gateway/skip":
        "b95be1f6ced6bc50b7b2d142ffc90c86d0d36ff64a2fec380ed32ffae88e838d",
    "deltazip-cancels/gateway/dense":
        "b95be1f6ced6bc50b7b2d142ffc90c86d0d36ff64a2fec380ed32ffae88e838d",
    "deltazip-cancels/cluster2/skip":
        "79d9d658bdc54d14e7a73e65910b31ebc4b7274a7fef0a297047ca9d6fa1bec4",
    "deltazip-cancels/cluster2/dense":
        "79d9d658bdc54d14e7a73e65910b31ebc4b7274a7fef0a297047ca9d6fa1bec4",
    "vllm-scb/bare/skip":
        "e0d508394c8f565c395685ddb25e2e39922a851875d7eeada96a2b24846e759f",
    "vllm-scb/bare/dense":
        "e0d508394c8f565c395685ddb25e2e39922a851875d7eeada96a2b24846e759f",
    "vllm-scb/gateway/skip":
        "e0d508394c8f565c395685ddb25e2e39922a851875d7eeada96a2b24846e759f",
    "vllm-scb/gateway/dense":
        "e0d508394c8f565c395685ddb25e2e39922a851875d7eeada96a2b24846e759f",
    "vllm-scb/cluster2/skip":
        "1b8115fef32f8a309d37059b0d5cc012fe8a2f9d239314e3d8ae809cf72385f4",
    "vllm-scb/cluster2/dense":
        "1b8115fef32f8a309d37059b0d5cc012fe8a2f9d239314e3d8ae809cf72385f4",
    "vllm-scb-cancels/bare/skip":
        "c4edda79d08a3e493a26321c98199fde7db8d499a09af92791d5ea4dd74ab3b9",
    "vllm-scb-cancels/bare/dense":
        "c4edda79d08a3e493a26321c98199fde7db8d499a09af92791d5ea4dd74ab3b9",
    "vllm-scb-cancels/gateway/skip":
        "c4edda79d08a3e493a26321c98199fde7db8d499a09af92791d5ea4dd74ab3b9",
    "vllm-scb-cancels/gateway/dense":
        "c4edda79d08a3e493a26321c98199fde7db8d499a09af92791d5ea4dd74ab3b9",
    "vllm-scb-cancels/cluster2/skip":
        "c2ade2a59693a41660228e7b08169f229abdee602681b76766135b0cb5f23495",
    "vllm-scb-cancels/cluster2/dense":
        "c2ade2a59693a41660228e7b08169f229abdee602681b76766135b0cb5f23495",
    "dedicated/bare/skip":
        "37ad1bb7b10531b3681b93f4840cd8b783a3e2c54d9aaca6e236d15cb3a5faed",
    "dedicated/bare/dense":
        "37ad1bb7b10531b3681b93f4840cd8b783a3e2c54d9aaca6e236d15cb3a5faed",
    "dedicated/gateway/skip":
        "37ad1bb7b10531b3681b93f4840cd8b783a3e2c54d9aaca6e236d15cb3a5faed",
    "dedicated/gateway/dense":
        "37ad1bb7b10531b3681b93f4840cd8b783a3e2c54d9aaca6e236d15cb3a5faed",
    "dedicated/cluster2/skip":
        "bc81c2d87f09b75f735f0e96a8399039b5e6d1326c8f987bb5c780d2363fbd8e",
    "dedicated/cluster2/dense":
        "9f363d07623ab191ecb1ecbb93d3f245fa7a5fb54eaeadc0a51484d2584bd3d1",
    "dedicated-cancels/bare/skip":
        "d90e5de6c284a292ee531517fa765ee8c0c0c70abc8f2d97f0bf0cfcc6d87869",
    "dedicated-cancels/bare/dense":
        "d90e5de6c284a292ee531517fa765ee8c0c0c70abc8f2d97f0bf0cfcc6d87869",
    "dedicated-cancels/gateway/skip":
        "d90e5de6c284a292ee531517fa765ee8c0c0c70abc8f2d97f0bf0cfcc6d87869",
    "dedicated-cancels/gateway/dense":
        "d90e5de6c284a292ee531517fa765ee8c0c0c70abc8f2d97f0bf0cfcc6d87869",
    "dedicated-cancels/cluster2/skip":
        "32c8f7208c3eaa7bb717614fec15e16baa7a2381ce74511527637a5754f5f7a6",
    "dedicated-cancels/cluster2/dense":
        "ccf10813831c6b10839e5158c94028d4244f6f16009300658ca42b3164eb841d",
    "tenant-cluster2-disagg/lineage":
        "5fd9eff086e63d318445282c90a9aae5b3e843f95c77e385ebe2ecbfba93b58f",
    "tenant-cluster2-disagg/conversation":
        "d993dac20f21c5bfd66344339e2ba12a6bdb1b1aabb931ae6f974ff477c4d88c",
    "tenant-vtc-deltazip/gateway/skip":
        "64c9ae7ddf193156a211934aa6a238d6113dfc8cd4a4a5bac577a07c3efda846",
    "tenant-vtc-deltazip/gateway/dense":
        "64c9ae7ddf193156a211934aa6a238d6113dfc8cd4a4a5bac577a07c3efda846",
    "tenant-vtc-deltazip/cluster2/skip":
        "8de61c44ad2e2f13faf23e9a30e2ef7b3d6fe2f4e1237846c4c0fa904b7cf736",
    "tenant-vtc-deltazip/cluster2/dense":
        "8de61c44ad2e2f13faf23e9a30e2ef7b3d6fe2f4e1237846c4c0fa904b7cf736",
    "tenant-vtc-deltazip-cancels/gateway/skip":
        "b20b1d0548281b588f8fadef95c511f794240dea62dc23aaea0e7acb853676c5",
    "tenant-vtc-deltazip-cancels/gateway/dense":
        "b20b1d0548281b588f8fadef95c511f794240dea62dc23aaea0e7acb853676c5",
    "tenant-vtc-deltazip-cancels/cluster2/skip":
        "d6d9e04bb934b8787242e8d43a797f4c3dfa8358f2a88235a0248c1ca5f2b53c",
    "tenant-vtc-deltazip-cancels/cluster2/dense":
        "d6d9e04bb934b8787242e8d43a797f4c3dfa8358f2a88235a0248c1ca5f2b53c",
    "tenant-vtc-vllm-scb/gateway/skip":
        "0cd4465d1e7a5c4cc6e0ef60228337b5d3173a6a3c2764f5fb9150ea07d37e5d",
    "tenant-vtc-vllm-scb/gateway/dense":
        "0cd4465d1e7a5c4cc6e0ef60228337b5d3173a6a3c2764f5fb9150ea07d37e5d",
    "tenant-vtc-vllm-scb/cluster2/skip":
        "9f5fc757d91d30245f597b3aa5c566f6d916b57a73af9edc58c8e5f390cf37b1",
    "tenant-vtc-vllm-scb/cluster2/dense":
        "9f5fc757d91d30245f597b3aa5c566f6d916b57a73af9edc58c8e5f390cf37b1",
    "tenant-vtc-vllm-scb-cancels/gateway/skip":
        "f90c4ef83a6d8f5bd16dbfcc837d437c249c91a9627e0c5ccec5ffc475c0ff9b",
    "tenant-vtc-vllm-scb-cancels/gateway/dense":
        "f90c4ef83a6d8f5bd16dbfcc837d437c249c91a9627e0c5ccec5ffc475c0ff9b",
    "tenant-vtc-vllm-scb-cancels/cluster2/skip":
        "b78489ffa7a775bcdb23f33ec2139d5516c463a8375e2500f20c05deb0f4f171",
    "tenant-vtc-vllm-scb-cancels/cluster2/dense":
        "b78489ffa7a775bcdb23f33ec2139d5516c463a8375e2500f20c05deb0f4f171",
    "tenant-vtc-dedicated/gateway/skip":
        "9b9de6480c7a5727eb020f196d86f501dba4475a5ffcde4589143297b95f50e5",
    "tenant-vtc-dedicated/gateway/dense":
        "1db9fcc9ff9bbe482b88a6220d8f7de932cdd150d99695cfb798aab8b0bbadbe",
    "tenant-vtc-dedicated/cluster2/skip":
        "95e94ae2d35c5e7f8df6008cd062da7698a456321552297102dd2e39667b986f",
    "tenant-vtc-dedicated/cluster2/dense":
        "196f9af9c3a7a3e252b9fcdd4e146a2f6f66cbeb158931520ddd566d6f12612c",
    "tenant-vtc-dedicated-cancels/gateway/skip":
        "b08c2dda41c1a10e5dfc65f33af733918ed7108f12c251a7c49a28daafcb7566",
    "tenant-vtc-dedicated-cancels/gateway/dense":
        "b08c2dda41c1a10e5dfc65f33af733918ed7108f12c251a7c49a28daafcb7566",
    "tenant-vtc-dedicated-cancels/cluster2/skip":
        "7e4c52abdbc0acd6deee53e32cf1d7dc3fbac661cf438a95e33656f1617f6c94",
    "tenant-vtc-dedicated-cancels/cluster2/dense":
        "7e4c52abdbc0acd6deee53e32cf1d7dc3fbac661cf438a95e33656f1617f6c94",
    "drop-disagg-cancels/gateway/skip":
        "59b3a7519f699aa6e6e4d56c5db53a8e08461ff0154bb33e9bb5f7cb65b1a6e8",
    "drop-disagg-cancels/gateway/dense":
        "59b3a7519f699aa6e6e4d56c5db53a8e08461ff0154bb33e9bb5f7cb65b1a6e8",
    "drop-disagg-cancels/cluster2/skip":
        "c3422b994f71bc665dcca496918dc23d0bee48c797d2a343f331e6fc9ea282e6",
    "drop-disagg-cancels/cluster2/dense":
        "c3422b994f71bc665dcca496918dc23d0bee48c797d2a343f331e6fc9ea282e6",
    "drop-sharded-1node/gateway/skip":
        "85b6b99f55b703b0a2cf2c5ee87bf9566d00214b3f4b54826d82aa589cade6ed",
    "drop-sharded-1node/gateway/dense":
        "85b6b99f55b703b0a2cf2c5ee87bf9566d00214b3f4b54826d82aa589cade6ed",
    "drop-sharded-1node/cluster2/skip":
        "d08f609a0fc80e68d8b3326be7f141992f5cae8c66b35ca750f7742e7b3205e9",
    "drop-sharded-1node/cluster2/dense":
        "d08f609a0fc80e68d8b3326be7f141992f5cae8c66b35ca750f7742e7b3205e9",
    "drop-deltazip-cache/gateway/skip":
        "331ab19ef535b349b2ff3b0b0f821f27f643a7f85afa64cb22e3c56989c1909e",
    "drop-deltazip-cache/gateway/dense":
        "331ab19ef535b349b2ff3b0b0f821f27f643a7f85afa64cb22e3c56989c1909e",
    "drop-deltazip-cache/cluster2/skip":
        "39bac1f3f0a428a8175922a68f3baa6d5cb17b8027d80d143d959ea4cb55801e",
    "drop-deltazip-cache/cluster2/dense":
        "39bac1f3f0a428a8175922a68f3baa6d5cb17b8027d80d143d959ea4cb55801e",
    "drop-vllm-scb-cancels/gateway/skip":
        "eef4b508d2f1705e95d7b6cc342b7d9f0f9dbbd244a62befad11877375975c6b",
    "drop-vllm-scb-cancels/gateway/dense":
        "eef4b508d2f1705e95d7b6cc342b7d9f0f9dbbd244a62befad11877375975c6b",
    "drop-vllm-scb-cancels/cluster2/skip":
        "fbcf9a60a94be0b248b1be972c13a3fa0ecfeadac23054713e2cfafd3e9abbcb",
    "drop-vllm-scb-cancels/cluster2/dense":
        "fbcf9a60a94be0b248b1be972c13a3fa0ecfeadac23054713e2cfafd3e9abbcb",
    "drop-dedicated-cancels/gateway/skip":
        "c78126e0b72d70bf2e9f2c297e46a23abd68896d87ee6e3f495f637af1f08c35",
    "drop-dedicated-cancels/gateway/dense":
        "c78126e0b72d70bf2e9f2c297e46a23abd68896d87ee6e3f495f637af1f08c35",
    "drop-dedicated-cancels/cluster2/skip":
        "eca436b2956dd9e78c3a297481f82e8f7a370716987e6f365a7838d38f1cfe4d",
    "drop-dedicated-cancels/cluster2/dense":
        "50fc2c6c71a245dbfc28c5d60cf5effb89cb5c893f0e05398ca840a0c9cba8c5",
}
# GOLDEN-END
