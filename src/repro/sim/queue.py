"""The event queue: a min-heap of typed events with O(log n) idle-skip.

Every layer of the serving stack used to keep a private ``heapq`` of
``(time, id, payload)`` tuples plus ad-hoc linear scans over it (counting
future arrivals, peeking the next wake-up).  :class:`EventQueue` is that
heap, once: deterministic ordering by ``(time, sort_key, insertion)``,
``peek_time`` for idle-skip jumps, a bisect-backed ``count_after``
so "how much of this queue is still in the future?" — the autoscaler's
backlog signal — costs O(log n) instead of a full scan, and O(log n)
withdrawal of a cancelled request's events.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort_right
from typing import (Any, Callable, Dict, Generic, Iterator, List, Optional,
                    Set, Tuple, TypeVar)

from .events import Event

__all__ = ["EventQueue", "KeyedHeap"]

T = TypeVar("T")
_Entry = Tuple[float, float, int, Event]

#: compact the lazily-popped prefix of the sorted-times index once the
#: dead prefix outweighs the live suffix (amortized O(1) per pop)
_COMPACT_MIN = 64


class EventQueue:
    """Deterministic min-heap of :class:`~repro.sim.events.Event`.

    Events pop in ``(time, sort_key, insertion order)`` order — for
    request-carrying events that is ``(arrival_s, request_id)``, the
    exact ordering the serving layers' hand-rolled heaps used, so
    replacing them with the kernel queue is record-preserving.

    A parallel sorted list of scheduled times supports
    :meth:`count_after` (future events beyond a clock) by binary search;
    pops advance a head index into that list instead of deleting from
    the front, with periodic compaction.  Heap operations are O(log n);
    maintaining the sorted index makes :meth:`push` O(log n) search plus
    an insertion memmove — O(1) amortized for the (near-)arrival-ordered
    pushes replay and online submission produce, O(n) only for an
    adversarially reverse-ordered schedule.

    :meth:`remove_request` is O(log n) too: a withdrawn entry stays in
    the heap as a tombstone until it reaches the top (so the top is
    always live) and its time leaves the sorted index at once; the
    request-id index it searches is built by the first withdrawal.
    """

    __slots__ = ("_heap", "_times", "_head", "_seq", "_dead", "_by_id")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._times: List[float] = []
        self._head = 0
        self._seq = 0
        self._dead: Set[int] = set()      # insertion numbers of tombstones
        self._by_id: Optional[Dict[int, List[_Entry]]] = None

    # ------------------------------------------------------------------ #
    def push(self, event: Event) -> None:
        """Schedule one event."""
        entry = (event.time, event.sort_key, self._seq, event)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        insort_right(self._times, event.time, lo=self._head)
        if self._by_id is not None:
            self._refile(entry, True)

    def due(self, now: float) -> bool:
        """Is an event scheduled at or before ``now``?"""
        return bool(self._heap) and self._heap[0][0] <= now

    def peek_time(self) -> Optional[float]:
        """The earliest scheduled time (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it (None when empty)."""
        return self._heap[0][3] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        entry = heapq.heappop(self._heap)
        self._drop_time()
        if self._by_id is not None:
            self._refile(entry, False)
        if self._dead:
            self._bury()
        return entry[3]

    def pop_due(self, now: float) -> Iterator[Event]:
        """Yield (and remove) every event scheduled at or before ``now``.

        Events pushed *while iterating* are honored if they are also due
        — matching the drain-the-heap loops this replaces.
        """
        while self._heap and self._heap[0][0] <= now:
            yield self.pop()

    def count_after(self, t: float) -> int:
        """Events scheduled strictly after ``t`` — O(log n)."""
        return len(self._times) - bisect_right(self._times, t, lo=self._head)

    def remove_request(self, request_id: int) -> Optional[Event]:
        """Withdraw the earliest-due event carrying ``request_id``
        (cancellation).

        Matches any event exposing a ``request_id`` attribute (Arrival,
        Cancel, BucketRefill).  Returns the removed event, or None if no
        event matches.
        """
        if self._by_id is None:
            self._by_id = {}
            for queued in self._heap:
                self._refile(queued, True)
        entries = self._by_id.get(request_id)
        if not entries:
            return None
        entry = min(entries)
        self._refile(entry, False)
        self._dead.add(entry[2])
        del self._times[bisect_left(self._times, entry[0], lo=self._head)]
        self._bury()
        return entry[3]

    def in_order(self) -> List[Event]:
        """All queued events in pop order, without consuming them."""
        return [entry[3] for entry in sorted(self._heap)
                if entry[2] not in self._dead]

    def clear(self) -> None:
        self._heap.clear()
        self._times.clear()
        self._head = 0
        self._dead.clear()
        self._by_id = None

    # ------------------------------------------------------------------ #
    def _drop_time(self) -> None:
        # the popped event is the minimum, so its time is the head of the
        # sorted index; advance the head lazily and compact occasionally
        self._head += 1
        if self._head >= _COMPACT_MIN and self._head * 2 >= len(self._times):
            del self._times[:self._head]
            self._head = 0

    def _refile(self, entry: _Entry, add: bool) -> None:
        """Put ``entry`` into the request-id index, or take it out."""
        rid = getattr(entry[3], "request_id", None)
        if rid is not None and self._by_id is not None:
            entries = self._by_id.setdefault(rid, [])
            if add:
                entries.append(entry)
            else:
                entries.remove(entry)
                if not entries:
                    del self._by_id[rid]

    def _bury(self) -> None:
        """Discard the tombstones that reached the top of the heap."""
        heap, dead = self._heap, self._dead
        while heap and heap[0][2] in dead:
            dead.remove(heapq.heappop(heap)[2])

    def __len__(self) -> int:
        return len(self._heap) - len(self._dead)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.peek_time()
        return f"EventQueue(n={len(self)}, next={nxt})"


class KeyedHeap(Generic[T]):
    """A deterministic min-heap of ``(key, item)`` pairs.

    The generic sibling of :class:`EventQueue` for payloads that are not
    typed sim events (the admission layer's frontier queue, keyed by
    ``(eligible_s, arrival_s, request_id)``).  An insertion counter
    breaks any remaining key ties, so items themselves are never
    compared — ordering is a pure function of the keys callers supply,
    which is what keeps pop order deterministic.

    This class (and :class:`EventQueue`) are the only places in the tree
    allowed to touch :mod:`heapq` directly; simlint's SIM005 rule points
    everyone else here.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, int, T]] = []
        self._seq = 0

    def push(self, key: Any, item: T) -> None:
        """Schedule ``item`` under a totally-ordered ``key`` (tuple)."""
        heapq.heappush(self._heap, (key, self._seq, item))
        self._seq += 1

    def peek_key(self) -> Optional[Any]:
        """The smallest key (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def peek(self) -> Optional[T]:
        """The item under the smallest key (None when empty)."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> T:
        """Remove and return the item with the smallest key."""
        return heapq.heappop(self._heap)[2]

    def remove_where(self, predicate: Callable[[T], bool]) -> Optional[T]:
        """Withdraw the first item (in heap-internal order) matching
        ``predicate``; O(n) with a rebuild.  Returns it, or None."""
        for i, (_, _, item) in enumerate(self._heap):
            if predicate(item):
                del self._heap[i]
                heapq.heapify(self._heap)
                return item
        return None

    def clear(self) -> None:
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedHeap(n={len(self._heap)}, next={self.peek_key()})"
