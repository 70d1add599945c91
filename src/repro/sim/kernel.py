"""The simulation kernel: one clock, an event journal, subscribers.

A :class:`SimKernel` is what a *timeline owner* (the cluster gateway, the
tenancy frontier) holds: the authoritative monotone clock for that
timeline plus an optional journal of every typed event that crossed it.
Layers below the owner (engines, buckets, the autoscaler) don't keep
their own notion of global time any more — they either read the kernel
clock or emit events into it.

The journal is the cross-layer instrumentation surface: with
``journal=True`` every emitted event is recorded in order, so tests can
assert that two runs (e.g. with idle-skip on and off) produced the same
*simulated history*, not just the same final records, and benchmarks can
count events instead of guessing at step counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from . import sanitizer as _sanitizer
from .clock import SimClock
from .events import Event

__all__ = ["SimKernel", "ForwardingCycleError"]

Subscriber = Callable[[Event], None]


class ForwardingCycleError(ValueError):
    """:meth:`SimKernel.forward` would route a kernel's events back to it."""


class SimKernel:
    """One timeline: a monotone clock + event emission/journaling."""

    #: set by :func:`repro.sim.sanitizer.install` (idempotence marker)
    _sanitizer_installed: bool = False

    def __init__(self, journal: bool = False,
                 clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.journal: Optional[List[Event]] = [] if journal else None
        self._subscribers: Dict[Type[Event], List[Subscriber]] = {}
        # per-concrete-event-type dispatch cache: emit() is the kernel's
        # hottest path, and the subscriber set changes only at wiring time
        self._resolved: Dict[Type[Event], Tuple[Subscriber, ...]] = {}
        self._forwards: List[SimKernel] = []
        if _sanitizer.enabled():
            _sanitizer.install(self)

    @property
    def now(self) -> float:
        return self.clock.now

    def advance(self, to: float) -> float:
        """Advance the kernel clock monotonically; returns ``now``."""
        return self.clock.advance(to)

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def subscribe(self, event_type: Type[Event], fn: Subscriber) -> None:
        """Call ``fn`` for every emitted event of (a subclass of) type."""
        self._subscribers.setdefault(event_type, []).append(fn)
        self._resolved.clear()

    def _resolve(self, cls: Type[Event]) -> Tuple[Subscriber, ...]:
        fns = self._resolved.get(cls)
        if fns is None:
            # resolve the subclass checks once per concrete type, in
            # subscription order (identical notification order to the
            # old per-emit isinstance scan)
            fns = tuple(fn
                        for event_type, subs in self._subscribers.items()
                        if issubclass(cls, event_type)
                        for fn in subs)
            self._resolved[cls] = fns
        return fns

    def forward(self, kernel: "SimKernel") -> None:
        """Re-emit every event into ``kernel`` after this kernel's own
        subscribers (idempotent); :meth:`wants` looks through it."""
        if kernel is self or kernel._reaches(self):
            raise ForwardingCycleError(
                f"forwarding {self!r} into {kernel!r} closes a cycle")
        if kernel not in self._forwards:
            self._forwards.append(kernel)

    def _reaches(self, kernel: "SimKernel") -> bool:
        return any(k is kernel or k._reaches(kernel) for k in self._forwards)

    def wants(self, event_type: Type[Event]) -> bool:
        """Would an emitted ``event_type`` be observed by anyone?

        True when the journal is on, a subscriber matches, or a kernel
        this one forwards into wants it.  Producers ask when publishing
        (so a later subscriber or journal counts at once) and skip
        *constructing* events nobody would see.
        """
        if self.journal is not None or self._resolve(event_type):
            return True
        for kernel in self._forwards:
            if kernel.wants(event_type):
                return True
        return False

    def emit(self, event: Event) -> None:
        """Record, notify subscribers, then forward an event."""
        if self.journal is not None:
            self.journal.append(event)
        for fn in self._resolve(type(event)):
            fn(event)
        for kernel in self._forwards:
            kernel.emit(event)

    def reset(self) -> None:
        """Fresh timeline: clock to zero, journal emptied (subscribers
        survive — they are wiring, not state)."""
        self.clock.reset()
        if self.journal is not None:
            self.journal.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self.journal) if self.journal is not None else 0
        return f"SimKernel(now={self.now:.6f}, journaled={n})"
