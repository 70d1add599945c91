"""Differential: the shipped prefix cache against the per-block oracle.

``tests/reference_prefix_cache.py`` is the per-block cache (one node per
32-token block) copied verbatim; ``repro.serving.prefix_cache`` is
whatever ships.  Both are driven through the same sequence of ``lookup``
/ ``acquire`` / ``release`` / ``insert`` / ``evict(n)`` / ``evict_to(n)``
calls, each side deriving its own keys from the same ``(trace request,
n_tokens)`` pair through its own ``prefix_block_keys``, and after
*every* operation the two must agree, with ``==``, on

* the blocks the call hit (or evicted),
* ``n_blocks``, ``n_evictable``, ``total_refcount``,
* the set of resident blocks, each with its refcount — a block is named
  by its scope and the per-block keys on the path from the scope down,
* the **order** in which a draining ``evict(1)`` loop removes them
  (run on a deep copy), which is the whole LRU state.

Records are a function of exactly these (hit lengths and which blocks
eviction drops), so a cache that passes this keeps every digest.

The sequences cover several scopes, conversations and shared-prefix ids,
**one shared id used with different ``shared_prefix_tokens``** (two
chains that diverge inside a run of shared blocks), block sizes 1 / 16 /
32, concurrent requests of one conversation (a hit that ends in the
middle of another request's chain) and releases in any order.

This file was first committed against the per-block module itself, where
both sides are the same code and every comparison holds trivially; the
parts written with the span cache are :func:`resident`'s walk over its
segments and the split-path tests at the bottom, neither of which could
exist before segments did.
"""

import copy
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

import reference_prefix_cache as oracle
from repro.serving import prefix_cache as shipped
from repro.workload.spec import TraceRequest

BLOCK_SIZES = (1, 16, 32)
MAX_BLOCKS = 10          # per chain: the drain-order check is quadratic


# --------------------------------------------------------------------- #
# the two sides
# --------------------------------------------------------------------- #
def hit_blocks(chain):
    """Blocks covered by what ``lookup`` / ``insert`` returned: the
    per-block cache returns one node id per block, the span cache
    ``(deepest segment, blocks)`` or ``None`` for a miss."""
    if chain is None:
        return 0
    return len(chain) if isinstance(chain, list) else chain[1]


def resident(cache):
    """``{block: refcount}`` over the resident blocks, a block being
    ``(scope, key of block 0, ..., key of this block)`` in the per-block
    key vocabulary."""
    blocks = {}
    if hasattr(cache, "_nodes"):                    # the oracle's nodes
        paths = {}
        for nid, node in cache._nodes.items():      # parents come first
            if node.depth == 0:
                paths[nid] = (cache._scope_of[nid],)
            else:
                paths[nid] = paths[node.parent_id] + (node.key,)
                blocks[paths[nid]] = node.refcount
        return blocks
    stack = [(anchor, (anchor.ident[1:],))          # the span cache's
             for anchor in cache._scopes.values()]  # segments
    while stack:
        seg, path = stack.pop()
        for b in range(seg.start, seg.end):
            path += (seg.ident + (b,),)
            blocks[path] = seg.refcount
        stack.extend((child, path) for child in seg.children.values())
    return blocks


class Side:
    """One implementation, its cache and the chains the test holds."""

    def __init__(self, module, block_tokens, cache_cls=None):
        self.module = module
        self.cache = (cache_cls or module.PrefixCache)(block_tokens)
        self.held = []

    def keys(self, request, n_tokens):
        return self.module.prefix_block_keys(request, n_tokens,
                                             self.cache.block_tokens)

    def apply(self, op):
        """Run one operation; returns the number it reports."""
        cache, kind = self.cache, op[0]
        if kind in ("lookup", "acquire"):
            _, request, n_tokens = op
            chain = cache.lookup(scope_of(request),
                                 self.keys(request, n_tokens))
            if kind == "acquire" and hit_blocks(chain):
                cache.acquire(chain)
                self.held.append(chain)
            return hit_blocks(chain)
        if kind in ("insert", "insert_hold"):
            _, request, n_tokens = op
            chain = cache.insert(scope_of(request),
                                 self.keys(request, n_tokens))
            if kind == "insert_hold" and hit_blocks(chain):
                cache.acquire(chain)
                self.held.append(chain)
            return hit_blocks(chain)
        if kind == "release":
            if not self.held:
                return 0
            chain = self.held.pop(op[1] % len(self.held))
            cache.release(chain)
            return hit_blocks(chain)
        if kind == "evict":
            return cache.evict(op[1])
        assert kind == "evict_to", kind
        return cache.evict_to(op[1])

    def state(self):
        cache = self.cache
        blocks = resident(cache)
        assert cache.n_blocks == len(blocks)
        assert cache.total_refcount == sum(blocks.values())
        return (cache.n_blocks, cache.n_evictable, cache.total_refcount,
                cache.evictions, blocks, self.drain_order(blocks))

    def drain_order(self, blocks):
        """The blocks in the order ``evict(1)`` calls would drop them."""
        cache = copy.deepcopy(self.cache)
        left, order = set(blocks), []
        while cache.evict(1):
            now = set(resident(cache))
            (gone,) = left - now
            order.append(gone)
            left = now
        # refcounts never rise from parent to child: what survives is held
        assert all(blocks[b] > 0 for b in left), "an idle block survived"
        return order


def scope_of(request):
    return ("llama-7b", request.model_id)


def run(block_tokens, ops, shipped_cache=None):
    """Drive both sides through ``ops``, comparing after every one."""
    ours = Side(shipped, block_tokens, shipped_cache)
    theirs = Side(oracle, block_tokens)
    assert ours.state() == theirs.state()
    for op in ops:
        assert ours.apply(op) == theirs.apply(op), op
        assert ours.state() == theirs.state(), op
    while ours.held:                 # whatever is still pinned comes back
        assert ours.apply(("release", 0)) == theirs.apply(("release", 0))
        assert ours.state() == theirs.state()
    assert ours.cache.total_refcount == 0
    for side in (ours, theirs):
        side.cache.evict_to(0)
    assert ours.state() == theirs.state()
    assert ours.cache.n_blocks == 0 and resident(ours.cache) == {}
    return ours


# --------------------------------------------------------------------- #
# generated sequences
# --------------------------------------------------------------------- #
def request(block_tokens, variant, conv, shared, rid=0):
    """``shared`` is ``(id, extent in half blocks)`` or None: one id at
    different extents is how two chains fork inside a shared run."""
    shared_id, half_blocks = shared or (None, 0)
    return TraceRequest(
        request_id=rid, model_id=f"variant-{variant:02d}", arrival_s=0.0,
        prompt_tokens=MAX_BLOCKS * block_tokens, output_tokens=8,
        conversation_id=conv, shared_prefix_id=shared_id,
        shared_prefix_tokens=half_blocks * block_tokens // 2)


@st.composite
def cases(draw, min_ops=1):
    block_tokens = draw(st.sampled_from(BLOCK_SIZES))
    # few enough chains that most operations land on one already there
    requests = st.builds(
        request, st.just(block_tokens), st.sampled_from([0, 0, 0, 1]),
        st.sampled_from([None, "conv-a", "conv-a", "conv-b"]),
        st.sampled_from([None, ("sys", 3), ("sys", 4), ("sys", 7),
                         ("sys", 8), ("other", 4)]),
        st.integers(0, 1))
    most = (MAX_BLOCKS + 1) * block_tokens - 1
    n_tokens = st.one_of(st.integers(0, most), st.integers(most // 2, most))
    chain_op = st.tuples(
        st.sampled_from(["lookup", "acquire", "acquire", "insert", "insert",
                         "insert_hold"]), requests, n_tokens)
    op = st.one_of(
        chain_op, chain_op,
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("evict"), st.integers(0, 6)),
        st.tuples(st.just("evict_to"), st.integers(0, 3 * MAX_BLOCKS)))
    return block_tokens, draw(st.lists(op, min_size=min_ops, max_size=30))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_operation_leaves_both_caches_in_the_same_state(case):
    run(*case)


# --------------------------------------------------------------------- #
# the shapes the generator must not be trusted to find
# --------------------------------------------------------------------- #
def conv(n_blocks, conv="conv-a", shared=None, variant=0, rid=0):
    return (request(16, variant, conv, shared, rid), n_blocks * 16)


def test_a_concurrent_turn_hits_inside_another_turns_chain():
    # turn k committed 8 blocks; a request of the same conversation whose
    # prompt covers 3 of them pins those, and releases come in any order
    run(16, [("insert",) + conv(8), ("acquire",) + conv(3),
             ("acquire",) + conv(8), ("evict", 9), ("acquire",) + conv(5),
             ("release", 1), ("evict", 2), ("release", 0), ("evict", 1),
             ("lookup",) + conv(8), ("release", 0), ("evict", 4)])


def test_one_shared_id_at_two_extents_forks_inside_the_shared_run():
    long_sys, short_sys = ("sys", 8), ("sys", 4)      # 4 and 2 blocks
    run(16, [("insert",) + conv(7, shared=long_sys),
             ("insert",) + conv(6, "conv-b", shared=short_sys),
             ("lookup",) + conv(7, shared=long_sys),
             ("evict", 3),
             ("acquire",) + conv(7, "conv-c", shared=short_sys),
             ("insert",) + conv(5, "conv-c", shared=("sys", 5)),
             ("evict", 20), ("release", 0), ("evict", 20)])


def test_a_pinned_tip_is_extended_by_a_new_segment_and_an_idle_one_in_place():
    run(16, [("insert_hold",) + conv(4), ("insert",) + conv(7),
             ("insert",) + conv(9), ("lookup",) + conv(10),
             ("release", 0), ("evict", 3), ("insert",) + conv(8),
             ("evict", 20)])


def test_round_robin_eviction_across_chains_of_unequal_length():
    run(1, [("insert",) + (request(1, 0, "conv-a", None), 6),
            ("insert",) + (request(1, 0, "conv-b", None), 2),
            ("insert",) + (request(1, 1, "conv-a", None), 4),
            ("lookup",) + (request(1, 0, "conv-b", None), 1),
            ("lookup",) + (request(1, 0, "conv-a", None), 6),
            ("evict", 5), ("evict", 1), ("evict_to", 2), ("evict", 9)])


def test_private_and_untagged_requests_never_share_blocks():
    a = (request(32, 0, None, None, rid=1), 5 * 32)
    b = (request(32, 0, None, None, rid=2), 5 * 32)
    side = run(32, [("insert",) + a, ("lookup",) + b, ("acquire",) + a,
                    ("insert",) + b, ("evict", 3), ("release", 0)])
    assert side.cache.evictions == 10


# --------------------------------------------------------------------- #
# both split paths are inside what the generator reaches
# --------------------------------------------------------------------- #
class Recording(shipped.PrefixCache):
    """The shipped cache, noting which call each split came from."""

    def __init__(self, block_tokens):
        super().__init__(block_tokens)
        self.caller, self.splits = None, []

    def acquire(self, chain):
        self.caller = "acquire"
        super().acquire(chain)

    def insert(self, scope, runs):
        self.caller = "insert"
        return super().insert(scope, runs)

    def _split(self, seg, at):
        self.splits.append(self.caller)
        return super()._split(seg, at)


def test_generated_cases_reach_both_split_paths():
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cases(min_ops=12))
    def sweep(case):
        seen.update(run(*case, Recording).cache.splits)

    sweep()
    assert seen["acquire"] >= 3 and seen["insert"] >= 3, seen


def test_the_hand_written_shapes_split_where_they_say():
    splits = run(16, [("insert",) + conv(8), ("acquire",) + conv(3),
                      ("insert",) + conv(7, "conv-b", shared=("sys", 8)),
                      ("insert",) + conv(6, "conv-c", shared=("sys", 4)),
                      ("insert",) + conv(2, "conv-b", shared=("sys", 8)),
                      ], Recording).cache.splits
    assert splits == ["acquire", "insert"]
