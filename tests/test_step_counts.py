"""How many ``step()`` calls and coasted runs a drain makes, counted.

Two paper-shaped stacks over 32 Llama-13B delta variants on TP=4 A800
groups: one engine behind a :class:`ServingGateway` (the shape of the
perf ledger's ``decode_long``) and an 8-replica lineage
:class:`ClusterGateway` (the shape of ``cluster_bursty``), the cluster
with and without a completion listener.  Each cell pins the records and
``EngineStats`` (one sha256 over both) and, per engine, the ``step()``
calls and the ``_coast`` calls that moved it.

The records-and-stats half is the contract every change to the drain or
the pricing must keep; the counts are what such a change is *for*, so a
change that moves them says so here, with the old and the new values
side by side in CHANGES.md.
"""

import hashlib
from collections import Counter
from dataclasses import asdict

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ClusterGateway, EngineConfig, LLAMA_13B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           create_engine)
from repro.serving.base import ServingEngine
from repro.workload import azure_like_trace

N_MODELS = 32
REQUESTS = 300


def manager() -> ModelManager:
    mgr = ModelManager(LLAMA_13B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        mgr.register_delta(f"variant-{i:02d}", "base", 10.0)
    return mgr


def paper_engine(mgr, node=None):
    """K=32 requests of N=8 deltas on a 4-GPU TP group."""
    return create_engine(
        "deltazip", mgr, node or GPUNode(node_from_name("a800", 4)),
        scheduler_config=SchedulerConfig(max_batch_requests=32,
                                         max_concurrent_deltas=8),
        engine_config=EngineConfig(tp_degree=4))


def leaf(seed):
    trace = azure_like_trace(N_MODELS, rate=12.0, duration_s=REQUESTS / 12.0,
                             seed=seed)
    gateway = ServingGateway(paper_engine(manager()))
    return gateway, [gateway.engine], trace


def cluster(seed, listener):
    trace = azure_like_trace(N_MODELS, rate=32.0, duration_s=REQUESTS / 32.0,
                             seed=seed)
    mgr = manager()
    gateway = ClusterGateway(
        engine_factory=lambda node: paper_engine(mgr, node),
        cluster=Cluster.from_name("a800", 8, 4), n_replicas=8,
        balancer="lineage")
    if listener:
        gateway.add_completion_listener(lambda record: None)
    return gateway, [r.engine for r in gateway.replicas], trace


def counted_replay(monkeypatch, stack):
    """Replay one stack; its request count, the sha256 of its records
    and summed stats, and each engine's ``step()`` calls and moving
    ``_coast`` calls, engines in replica order."""
    steps, coasts = Counter(), Counter()
    step, coast = ServingEngine.step, ServingEngine._coast

    def counted_step(engine):
        steps[id(engine)] += 1
        return step(engine)

    def counted_coast(engine, *bounds):
        moved = coast(engine, *bounds)
        coasts[id(engine)] += moved
        return moved

    monkeypatch.setattr(ServingEngine, "step", counted_step)
    monkeypatch.setattr(ServingEngine, "_coast", counted_coast)
    gateway, engines, trace = stack
    result = gateway.replay(trace)
    digest = hashlib.sha256(repr((
        sorted(tuple(r) for r in result.records),
        [sorted(asdict(e.stats).items()) for e in engines])).encode())
    return (len(result.records), digest.hexdigest()[:16],
            tuple(steps[id(e)] for e in engines),
            tuple(coasts[id(e)] for e in engines))


STACKS = {
    "leaf": leaf,
    "cluster": lambda seed: cluster(seed, listener=False),
    "cluster-heard": lambda seed: cluster(seed, listener=True),
}

#: (stack, seed) -> (records, sha256 of records and stats, step() calls
#: per engine, coasted runs per engine)
COUNTED = {
    ("leaf", 0): (678, '54fb4538aec8d374', (712,), (577,)),
    ("leaf", 1): (530, '48666e2d4a31f0d7', (570,), (431,)),
    ("leaf", 2): (535, 'd67bafa5fbd8e71f', (576,), (444,)),
    ("cluster", 0): (678, '7e9bf0ea5b1d9603',
                     (50, 63, 48, 45, 59, 56, 54, 41),
                     (138, 156, 158, 134, 159, 141, 150, 126)),
    ("cluster", 1): (530, 'fdb66c6ea3543dc0',
                     (29, 31, 23, 29, 29, 30, 26, 19),
                     (137, 123, 123, 131, 137, 128, 120, 121)),
    ("cluster", 2): (535, 'b9d56b5fa10705b8',
                     (28, 21, 31, 38, 19, 38, 22, 26),
                     (133, 126, 128, 161, 127, 144, 116, 116)),
    ("cluster-heard", 0): (678, '7e9bf0ea5b1d9603',
                           (50, 63, 48, 45, 59, 56, 54, 41),
                           (490, 483, 480, 457, 474, 443, 495, 426)),
    ("cluster-heard", 1): (530, 'fdb66c6ea3543dc0',
                           (29, 31, 23, 29, 29, 30, 26, 19),
                           (460, 430, 398, 428, 432, 409, 412, 420)),
    ("cluster-heard", 2): (535, 'b9d56b5fa10705b8',
                           (28, 21, 31, 38, 19, 38, 22, 26),
                           (447, 412, 406, 459, 399, 449, 405, 380)),
}


@pytest.mark.parametrize("shape", sorted(COUNTED))
def test_records_stats_and_drain_counts(shape, monkeypatch):
    name, seed = shape
    assert counted_replay(monkeypatch, STACKS[name](seed)) == COUNTED[shape]


def test_the_table_covers_every_stack_and_seed():
    assert sorted(COUNTED) == sorted(
        (name, seed) for name in STACKS for seed in range(3))
