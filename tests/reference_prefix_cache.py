"""The per-block prefix cache, kept as the tests' oracle.

A verbatim copy of ``src/repro/serving/prefix_cache.py`` as it stood
before the span-compressed rewrite (one node, two dict entries and one
tuple key per block) — only the ``TraceRequest`` import is absolute.
``tests/test_prefix_cache_spans.py`` drives it and the shipped cache
through the same operations and compares them after every one; nothing
under ``src/`` imports it.  The original docstring follows.

Block-hashed radix prefix index + refcounted KV block pool.

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
* **Radix chain via interning.**  A cached block is a node whose
  identity is ``(parent node, block content key)``; the chain of nodes
  from the root *is* the block-hash chain, so the longest cached
  prefix is a single walk down an interning dict.  No Python
  ``hash()`` randomization is involved — keys are plain tuples used
  directly as dict keys.
* **Scope = (base model, variant).**  Every chain hangs off a scope
  node keyed by the engine's base model and the request's variant
  (delta/LoRA), so cross-variant hits are impossible even when two
  variants share a conversation id.
* **Refcounted pool + LRU of unreferenced leaves.**  Running requests
  hold references on the blocks they reuse; only refcount-0 *leaf*
  blocks are evictable, in strict least-recently-used order driven by
  a logical tick counter (never the wall clock).  Evicting a leaf may
  expose its parent as the next evictable leaf, so chains drain from
  the tip backwards.

The cache is policy-free about capacity: the owning engine charges the
pool against its KV-token budget and calls :meth:`evict` /
:meth:`evict_to` to make room.  See
:class:`repro.serving.engine.DeltaZipEngine` for the integration and
``tests/test_prefix_cache.py`` for the invariants pinned down.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workload.spec import TraceRequest

__all__ = ["BlockKey", "ScopeKey", "PrefixCache", "prefix_block_keys"]

#: a block's content key — a namespace tuple, usable directly as a dict
#: key (no salted ``hash()`` anywhere on the path)
BlockKey = Tuple[object, ...]
#: chain scope: (base model name, variant/model id)
ScopeKey = Tuple[str, str]


def prefix_block_keys(trace: TraceRequest, n_tokens: int,
                      block_tokens: int) -> List[BlockKey]:
    """Content keys for the complete blocks covering ``trace``'s first
    ``n_tokens`` context tokens (prompt first, then generated tokens).

    Position ``i`` belongs to the shared-prefix namespace while
    ``i < shared_prefix_tokens`` (when a ``shared_prefix_id`` is set),
    to the conversation namespace when the request carries a
    ``conversation_id``, and to a request-private namespace otherwise.
    Only *complete* blocks get keys — a partial tail block is never
    cacheable.  Block index is part of the key, so the same namespace
    at a different depth can never collide.
    """
    if block_tokens < 1:
        raise ValueError("block_tokens must be >= 1")
    shared_id = trace.shared_prefix_id
    shared_tokens = trace.shared_prefix_tokens if shared_id is not None else 0
    tail: object = trace.conversation_id if trace.conversation_id is not None \
        else ("req", trace.request_id)
    keys: List[BlockKey] = []
    for b in range(max(0, n_tokens) // block_tokens):
        start = b * block_tokens
        in_shared = min(max(shared_tokens - start, 0), block_tokens)
        if in_shared == block_tokens:
            keys.append(("s", shared_id, b))
        elif in_shared == 0:
            keys.append(("c", tail, b))
        else:
            keys.append(("m", shared_id, tail, in_shared, b))
    return keys


@dataclass
class _Node:
    """One resident KV block (or a depth-0 scope anchor)."""

    node_id: int
    parent_id: int
    key: BlockKey
    depth: int              # chain length in blocks; 0 for scope anchors
    refcount: int = 0
    n_children: int = 0


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
        self._nodes: Dict[int, _Node] = {}
        self._children: Dict[Tuple[int, BlockKey], int] = {}
        self._scopes: Dict[ScopeKey, int] = {}
        self._scope_of: Dict[int, ScopeKey] = {}
        #: refcount-0 leaf blocks in LRU order (front = coldest)
        self._evictable: "OrderedDict[int, None]" = OrderedDict()
        self._next_id = 1
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_blocks(self) -> int:
        """Resident block count (scope anchors excluded)."""
        return len(self._nodes) - len(self._scopes)

    @property
    def n_tokens(self) -> int:
        """KV tokens held by the pool (charged against the KV budget)."""
        return self.n_blocks * self.block_tokens

    @property
    def n_evictable(self) -> int:
        return len(self._evictable)

    @property
    def total_refcount(self) -> int:
        """Outstanding references across all blocks (0 when drained —
        the conservation invariant the cancel tests pin down)."""
        return sum(n.refcount for n in self._nodes.values() if n.depth > 0)

    # ------------------------------------------------------------------ #
    # the radix walk
    # ------------------------------------------------------------------ #
    def lookup(self, scope: ScopeKey,
               keys: Sequence[BlockKey]) -> List[int]:
        """Node ids of the longest cached prefix of ``keys`` under
        ``scope`` (possibly empty).  Touches matched blocks' LRU
        recency; does not take references — pair with :meth:`acquire`.
        """
        node_id = self._scopes.get(scope)
        if node_id is None:
            return []
        chain: List[int] = []
        for key in keys:
            child = self._children.get((node_id, key))
            if child is None:
                break
            chain.append(child)
            node_id = child
        for nid in chain:
            if nid in self._evictable:
                self._evictable.move_to_end(nid)
        return chain

    def acquire(self, node_ids: Sequence[int]) -> None:
        """Take one reference on each block (pins it against eviction)."""
        for nid in node_ids:
            node = self._nodes[nid]
            node.refcount += 1
            self._evictable.pop(nid, None)

    def release(self, node_ids: Sequence[int]) -> None:
        """Drop one reference on each block; refcount-0 leaves become
        evictable at the hot end of the LRU order."""
        for nid in node_ids:
            node = self._nodes[nid]
            if node.refcount <= 0:
                raise RuntimeError(
                    f"prefix-cache refcount underflow on node {nid}")
            node.refcount -= 1
            if node.refcount == 0 and node.n_children == 0:
                self._evictable[nid] = None

    def insert(self, scope: ScopeKey,
               keys: Sequence[BlockKey]) -> List[int]:
        """Materialize the chain for ``keys`` under ``scope``, reusing
        every block already resident; returns the full chain's node
        ids.  New blocks join unreferenced (a refcount-0 tail leaf is
        immediately evictable); takes no references — callers that need
        the chain pinned must :meth:`acquire` it."""
        parent_id = self._scopes.get(scope)
        if parent_id is None:
            parent_id = self._new_node(-1, ("scope",) + scope, 0)
            self._scopes[scope] = parent_id
            self._scope_of[parent_id] = scope
        chain: List[int] = []
        for key in keys:
            child = self._children.get((parent_id, key))
            if child is None:
                parent = self._nodes[parent_id]
                child = self._new_node(parent_id, key, parent.depth + 1)
                self._children[(parent_id, key)] = child
                parent.n_children += 1
                # the parent is no longer a leaf, so it can't be evicted
                self._evictable.pop(parent_id, None)
            elif child in self._evictable:
                self._evictable.move_to_end(child)
            chain.append(child)
            parent_id = child
        tail = self._nodes[parent_id]
        if tail.depth > 0 and tail.refcount == 0 and tail.n_children == 0 \
                and parent_id not in self._evictable:
            self._evictable[parent_id] = None
        return chain

    def _new_node(self, parent_id: int, key: BlockKey, depth: int) -> int:
        nid = self._next_id
        self._next_id += 1
        self._nodes[nid] = _Node(node_id=nid, parent_id=parent_id,
                                 key=key, depth=depth)
        return nid

    # ------------------------------------------------------------------ #
    # eviction (driven by the engine's KV budget)
    # ------------------------------------------------------------------ #
    def evict(self, n_blocks: int) -> int:
        """Evict up to ``n_blocks`` unreferenced blocks, coldest first;
        returns how many were actually evicted.  Evicting a leaf may
        expose its parent as the next evictable leaf (chains drain from
        the tip), and a scope anchor with no chains left disappears."""
        evicted = 0
        while evicted < n_blocks and self._evictable:
            nid, _ = self._evictable.popitem(last=False)
            node = self._nodes.pop(nid)
            del self._children[(node.parent_id, node.key)]
            evicted += 1
            self.evictions += 1
            parent = self._nodes.get(node.parent_id)
            if parent is None:
                continue
            parent.n_children -= 1
            if parent.n_children == 0:
                if parent.depth == 0:
                    # empty scope anchor: drop it outright
                    self._nodes.pop(parent.node_id)
                    scope = self._scope_of.pop(parent.node_id)
                    self._scopes.pop(scope, None)
                elif parent.refcount == 0:
                    self._evictable[parent.node_id] = None
        return evicted

    def evict_to(self, max_blocks: int) -> int:
        """Evict until at most ``max_blocks`` blocks remain (or nothing
        more is unreferenced)."""
        excess = self.n_blocks - max(0, max_blocks)
        if excess <= 0:
            return 0
        return self.evict(excess)

    def clear(self) -> None:
        self._nodes.clear()
        self._children.clear()
        self._scopes.clear()
        self._scope_of.clear()
        self._evictable.clear()
        self._next_id = 1
        self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefixCache(blocks={self.n_blocks}, "
                f"evictable={self.n_evictable}, "
                f"refs={self.total_refcount}, "
                f"block_tokens={self.block_tokens})")
