"""Span-compressed radix prefix index + refcounted KV block pool.

Multi-turn session traffic re-prefills the whole conversation history
(system prompt + prior turns) on every turn; vLLM-style serving stacks
avoid that with *prefix caching*: the KV cache is carved into
fixed-size token blocks, each block is keyed by the hash chain of its
content, and a new prompt reuses the longest chain of already-resident
blocks instead of recomputing them.  This module is that subsystem for
the simulator, deterministic by construction:

* **Token identity, not token text.**  The simulator has no real token
  ids, so position *i* of a request's context maps to a namespace
  tuple — ``("s", shared_prefix_id, …)`` inside the shared
  system-prompt region, a conversation namespace for session turns,
  and a request-private namespace otherwise (private blocks can never
  be hit by another request).  Because the identity is positional,
  turn *k+1*'s prompt blocks are exactly turn *k*'s committed context
  blocks followed by the new user tokens.
* **Radix chain of block spans.**  A chain is a handful of *segments*:
  a maximal run ``[start, end)`` of consecutive blocks of one namespace
  (``ident``) with one refcount and children only at its end, filed
  under its parent as ``children[(ident, start)]``.  Block ``b`` of a
  segment is the block the per-block key ``ident + (b,)`` names, so the
  longest cached prefix is a walk over a few dict entries — plain
  tuples, no Python ``hash()`` randomization — and every operation
  costs O(runs + segments touched), not O(blocks).  Eviction and hits
  stay *per block*; five rules keep them what a node per block gives:

  1. the LRU holds refcount-0 *leaf segments*, each standing for its
     tip block;
  2. ``evict`` pops the coldest, drops its tip block and re-appends the
     segment at the hot end while blocks remain (where a per-block LRU
     appends the exposed parent); an emptied segment exposes its
     parent: an empty scope anchor is dropped, a refcount-0 parent goes
     to the hot end;
  3. ``lookup`` touches only a segment whose tip it matched; a match
     ending inside a segment touches and splits nothing;
  4. ``acquire`` of a chain ending inside a segment splits it there:
     the tail keeps the object identity (its LRU position, the chains
     that end in it), the head is new.  A chain is ``(deepest segment,
     hit blocks)`` and ``release`` walks parent links, so a later split
     above it needs no fix-up;
  5. ``insert`` extends a refcount-0 leaf segment of the same ident in
     place (popped from the LRU, re-appended when the insert ends),
     otherwise hangs one new segment; a run that ends inside a segment
     and is followed by a run of another ident splits there.
* **Scope = (base model, variant).**  Every chain hangs off a scope
  node keyed by the engine's base model and the request's variant
  (delta/LoRA), so cross-variant hits are impossible even when two
  variants share a conversation id.
* **Refcounted pool + LRU of unreferenced leaves.**  Running requests
  hold references on the blocks they reuse; only refcount-0 *leaf*
  blocks are evictable, in strict least-recently-used order kept by
  an ordered dict (never the wall clock).  Evicting a leaf may expose
  its parent as the next evictable leaf, so chains drain from the tip
  backwards.

The cache is policy-free about capacity: the owning engine charges the
pool against its KV-token budget and calls :meth:`evict` /
:meth:`evict_to` to make room.  See
:class:`repro.serving.engine.DeltaZipEngine` for the integration,
``tests/test_prefix_cache.py`` for the invariants pinned down and
``tests/test_prefix_cache_spans.py`` for the differential against a
node per block (``==`` after every call, eviction order included).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import sanitizer as _sanitizer
from ..workload.spec import TraceRequest

__all__ = ["BlockKey", "BlockRun", "Chain", "ScopeKey", "PrefixCache",
           "prefix_block_keys"]

#: a run's namespace (``ident``) — with a block index appended, one
#: block's content key; a plain tuple, usable directly in a dict key
BlockKey = Tuple[object, ...]
#: ``(ident, start_block, end_block)``: consecutive blocks of one ident
BlockRun = Tuple[BlockKey, int, int]
#: chain scope: (base model name, variant/model id)
ScopeKey = Tuple[str, str]


def prefix_block_keys(trace: TraceRequest, n_tokens: int,
                      block_tokens: int) -> List[BlockRun]:
    """The complete blocks covering ``trace``'s first ``n_tokens``
    context tokens (prompt first, then generated tokens), as at most
    three consecutive runs from block 0: shared, straddling, private.

    Position ``i`` belongs to the shared-prefix namespace while
    ``i < shared_prefix_tokens`` (when a ``shared_prefix_id`` is set),
    to the conversation namespace when the request carries a
    ``conversation_id``, and to a request-private namespace otherwise.
    Only *complete* blocks are covered — a partial tail block is never
    cacheable.  The block index is part of a block's key, so the same
    namespace at a different depth can never collide.
    """
    if block_tokens < 1:
        raise ValueError("block_tokens must be >= 1")
    n_blocks = max(0, n_tokens) // block_tokens
    shared_id = trace.shared_prefix_id
    shared_tokens = max(0, trace.shared_prefix_tokens) \
        if shared_id is not None else 0
    tail: object = trace.conversation_id if trace.conversation_id is not None \
        else ("req", trace.request_id)
    runs: List[BlockRun] = []
    pos = min(shared_tokens // block_tokens, n_blocks)
    if pos:
        runs.append((("s", shared_id), 0, pos))
    in_shared = shared_tokens - pos * block_tokens
    if pos < n_blocks and in_shared > 0:
        runs.append((("m", shared_id, tail, in_shared), pos, pos + 1))
        pos += 1
    if pos < n_blocks:
        runs.append((("c", tail), pos, n_blocks))
    return runs


@dataclass(eq=False, slots=True)        # identity hash: an LRU key
class _Segment:
    """Blocks ``[start, end)`` of one ident under one refcount (or a
    scope anchor: no parent, no blocks, ``ident = ("scope",) + scope``)."""

    parent: Optional["_Segment"]
    ident: BlockKey
    start: int              # absolute block index = chain depth
    end: int
    refcount: int = 0
    children: Dict[Tuple[BlockKey, int], "_Segment"] = \
        field(default_factory=dict)


#: ``(deepest segment, blocks from the scope down)``
Chain = Tuple[_Segment, int]


class PrefixCache:
    """Radix prefix index over refcounted KV blocks for one replica.

    All mutation is through :meth:`lookup` / :meth:`acquire` /
    :meth:`release` / :meth:`insert` / :meth:`evict`; iteration order
    everywhere is insertion order of plain dicts, so two identical call
    sequences produce identical states (run-to-run determinism).
    """

    def __init__(self, block_tokens: int) -> None:
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.block_tokens = int(block_tokens)
        #: scope anchors by ident, ``("scope",) + scope``
        self._scopes: Dict[BlockKey, _Segment] = {}
        #: refcount-0 leaf segments, LRU order of their tips (front = coldest)
        self._evictable: "OrderedDict[_Segment, None]" = OrderedDict()
        self.n_blocks = 0           # resident blocks
        #: outstanding references across all blocks (0 when drained — the
        #: conservation invariant the cancel tests pin down)
        self.total_refcount = 0
        self.evictions = 0
        self._sanitize = _sanitizer.enabled()

    @property
    def n_tokens(self) -> int:
        """KV tokens held by the pool (charged against the KV budget)."""
        return self.n_blocks * self.block_tokens

    @property
    def n_evictable(self) -> int:
        """Blocks evictable right now: one tip per idle leaf segment."""
        return len(self._evictable)

    # ------------------------------------------------------------------ #
    # the radix walk
    # ------------------------------------------------------------------ #
    def lookup(self, scope: ScopeKey,
               runs: Sequence[BlockRun]) -> Optional[Chain]:
        """The longest cached prefix of ``runs`` (consecutive from block
        0) under ``scope``, or None when not one block matches.  Touches
        the matched tip's LRU recency; does not take references — pair
        with :meth:`acquire`."""
        node = self._scopes.get(("scope",) + scope)
        if node is None:
            return None
        pos = 0                     # blocks matched so far
        for ident, pos, stop in runs:
            while pos < stop:
                child = node.children.get((ident, pos))
                if child is None:
                    break
                node, pos = child, min(child.end, stop)
            if pos < stop or pos < node.end:
                break       # a miss, or inside a segment: no child there
        if pos == 0:
            return None
        if pos == node.end and node in self._evictable:
            self._evictable.move_to_end(node)
        return node, pos

    def _split(self, seg: _Segment, at: int) -> _Segment:
        """Cut ``seg`` before block ``at``: a new head ``[start, at)``
        takes its place under its parent and ``seg`` stays the tail
        (its LRU position, its children, the chains held on it)."""
        parent = seg.parent
        assert parent is not None and seg.start < at < seg.end
        head = _Segment(parent, seg.ident, seg.start, at, seg.refcount)
        parent.children[(seg.ident, seg.start)] = head
        head.children[(seg.ident, at)] = seg
        seg.parent, seg.start = head, at
        return head

    def acquire(self, chain: Chain) -> None:
        """Take one reference on each block (pins it against eviction)."""
        seg, hit = chain
        if hit < seg.end:
            seg = self._split(seg, hit)
        self._evictable.pop(seg, None)     # only the deepest can be a leaf
        self.total_refcount += hit
        while seg.parent is not None:
            seg.refcount += 1
            seg = seg.parent
        if self._sanitize:
            _sanitizer.check_prefix_cache(self)

    def release(self, chain: Chain) -> None:
        """Drop one reference on each block; a refcount-0 leaf becomes
        evictable at the hot end of the LRU order."""
        seg, hit = chain
        while seg.parent is not None and seg.start >= hit:
            seg = seg.parent        # acquire split it: that is the tail
        if seg.parent is None:
            return                  # an empty chain holds nothing
        if seg.refcount <= 0:
            raise RuntimeError(
                f"prefix-cache refcount underflow on blocks "
                f"[{seg.start}, {seg.end}) of {seg.ident!r}")
        if seg.refcount == 1 and not seg.children:
            self._evictable[seg] = None
        self.total_refcount -= hit
        while seg.parent is not None:
            seg.refcount -= 1
            seg = seg.parent
        if self._sanitize:
            _sanitizer.check_prefix_cache(self)

    def insert(self, scope: ScopeKey, runs: Sequence[BlockRun]) -> Chain:
        """Materialize the chain for ``runs`` under ``scope``, reusing
        every block already resident; returns the full chain.  New
        blocks join unreferenced (a refcount-0 tail leaf is immediately
        evictable); takes no references — callers that need the chain
        pinned must :meth:`acquire` it."""
        anchor: BlockKey = ("scope",) + scope
        node = self._scopes.get(anchor)
        if node is None:
            node = self._scopes[anchor] = _Segment(None, anchor, 0, 0)
        lru = self._evictable
        pos = 0
        for ident, pos, stop in runs:
            if pos < node.end:     # the last run ended inside ``node``
                node = self._split(node, pos)
            while pos < stop:
                child = node.children.get((ident, pos))
                if child is not None:
                    node, pos = child, min(child.end, stop)
                    continue
                lru.pop(node, None)        # extended, or no longer a leaf
                if node.ident == ident and not node.refcount \
                        and not node.children:
                    node.end = stop
                else:
                    child = _Segment(node, ident, pos, stop)
                    node.children[(ident, pos)] = child
                    node = child
                self.n_blocks += stop - pos
                pos = stop
        if pos == node.end and not node.refcount and not node.children \
                and node.parent is not None:
            lru[node] = None
            lru.move_to_end(node)
        if self._sanitize:
            _sanitizer.check_prefix_cache(self)
        return node, pos

    # ------------------------------------------------------------------ #
    # eviction (driven by the engine's KV budget)
    # ------------------------------------------------------------------ #
    def evict(self, n_blocks: int) -> int:
        """Evict up to ``n_blocks`` unreferenced blocks, coldest first;
        returns how many were actually evicted.  Evicting a tip exposes
        the block before it as the next evictable one *at the hot end*
        (chains drain from the tip, round-robin), and a scope anchor
        with no chains left disappears."""
        lru = self._evictable
        evicted = 0
        while evicted < n_blocks and lru:
            seg, _ = lru.popitem(last=False)
            seg.end -= 1
            evicted += 1
            if seg.end > seg.start:
                lru[seg] = None
                continue
            parent = seg.parent
            assert parent is not None
            del parent.children[(seg.ident, seg.start)]
            if not parent.children:
                if parent.parent is None:
                    # empty scope anchor: drop it outright
                    del self._scopes[parent.ident]
                elif not parent.refcount:
                    lru[parent] = None
        self.n_blocks -= evicted
        self.evictions += evicted
        if evicted and self._sanitize:
            _sanitizer.check_prefix_cache(self)
        return evicted

    def evict_to(self, max_blocks: int) -> int:
        """Evict until at most ``max_blocks`` blocks remain (or nothing
        more is unreferenced)."""
        return self.evict(self.n_blocks - max(0, max_blocks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefixCache(blocks={self.n_blocks}, "
                f"evictable={self.n_evictable}, "
                f"refs={self.total_refcount}, "
                f"block_tokens={self.block_tokens})")
