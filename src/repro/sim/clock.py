"""The simulated clock: one definition of "now" per timeline.

Every serving layer used to keep a private float clock and its own rules
for advancing it; :class:`SimClock` is the single primitive they now
share.  A clock is deliberately tiny — a mutable point in simulated time
with monotone ``advance`` and free-form ``tick`` — so that the *policy*
of when time moves stays in the layer that owns the timeline (an engine
iteration, a cluster frontier, an admission floor) while the *mechanism*
is common and auditable.

The runtime sanitizer's switch lives here too, beside the clock it
swaps in: every timeline owner and serving layer asks :data:`sanitizer`
whether it is on, and the checks themselves (:mod:`repro.sim.sanitizer`)
are imported only when one runs, so a process that never sanitizes
never loads them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["SimClock", "SanitizedClock", "SimSanitizerError", "new_clock",
           "ENV_VAR", "enabled", "sanitized", "sanitizer"]

#: environment variable that turns the sanitizer on (``1``/``true``/…)
ENV_VAR = "REPRO_SIM_SANITIZE"

_active: bool = os.environ.get(ENV_VAR, "").strip().lower() not in (
    "", "0", "false", "no", "off")


def enabled() -> bool:
    """Is the sanitizer active for newly constructed kernels/buckets?"""
    return _active


@contextmanager
def sanitized(active: bool = True) -> Iterator[None]:
    """Force the sanitizer on (or off) within a ``with`` block — the
    test hook; production use goes through ``REPRO_SIM_SANITIZE=1``."""
    global _active
    previous, _active = _active, active
    try:
        yield
    finally:
        _active = previous


class SimSanitizerError(AssertionError):
    """A dynamic determinism invariant was violated.

    Subclasses :class:`AssertionError` deliberately: these are the
    runtime *assertions* behind the SIM lint rules, and any test or
    harness treating assertion failures as fatal does the right thing.
    """


class SimClock:
    """A point in simulated time.

    ``advance`` is monotone (a no-op when the target lies in the past),
    which is the invariant frontier clocks need; ``tick`` adds a strictly
    relative duration (an iteration's cost); ``reseat`` is the one
    sanctioned non-monotone mutation, for the few places that
    legitimately re-seat a timeline (engine reset, replica spawn at the
    cluster frontier).  Code outside this module must use these three
    methods rather than assigning :attr:`now` directly — simlint's
    SIM004 rule enforces that statically, and the runtime sanitizer
    (:mod:`repro.sim.sanitizer`) checks the dynamic counterpart.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def advance(self, to: float) -> float:
        """Move forward to ``to`` (never backward); returns ``now``."""
        if to > self.now:
            self.now = to
        return self.now

    def tick(self, dt: float) -> float:
        """Advance by a relative duration; returns the new ``now``."""
        self.now += dt
        return self.now

    def reseat(self, to: float) -> float:
        """Re-seat the timeline at ``to`` (may move backward).

        This is the explicit escape hatch for timeline owners: an engine
        reset, a replica spawned at the cluster frontier, an idle
        engine's clock bumped by the admission layer.  Keeping it a named
        method (instead of ``clock.now = x``) makes every non-monotone
        time mutation grep-able and lintable.
        """
        self.now = float(to)
        return self.now

    def reset(self, to: float = 0.0) -> None:
        self.now = float(to)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self.now:.6f})"


class SanitizedClock(SimClock):
    """A :class:`SimClock` that rejects backward ``tick`` durations.

    ``advance`` is monotone by construction and ``reseat`` is the
    sanctioned non-monotone mutation, so the only way a timeline can
    silently run backward is a negative tick — which this rejects."""

    __slots__ = ()

    def tick(self, dt: float) -> float:
        if dt < 0.0 or dt != dt:  # negative or NaN
            raise sanitizer._violation(
                f"clock tick of {dt!r}s would move timeline backward "
                f"(now={self.now:.9f})")
        return super().tick(dt)


def new_clock(now: float = 0.0) -> SimClock:
    """The clock factory timeline owners use: sanitized when enabled."""
    return SanitizedClock(now) if _active else SimClock(now)


class _Sanitizer:
    """:mod:`repro.sim.sanitizer` as the layers use it: ``enabled()`` is
    the switch above, and any other name is read from that module,
    imported on first use."""

    enabled = staticmethod(enabled)

    def __getattr__(self, name: str) -> Any:
        from . import sanitizer as checks
        return getattr(checks, name)


#: what a layer imports as ``_sanitizer``
sanitizer = _Sanitizer()
