"""Periodic gauge snapshots in a bounded ring buffer.

A :class:`GaugeSnapshot` is what a dashboard scrape would see at one
simulated instant: queue pressure, occupancy, shed pressure, scaling
state, and per-tenant SLO attainment (from the streaming sketches, so a
snapshot costs O(tenants), never O(requests)).  The
:class:`GaugeBoard` keeps the last ``capacity`` snapshots — memory is
bounded no matter how long the run — and is consumable mid-run through
``latest()`` / ``series()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["GaugeSnapshot", "GaugeBoard"]


@dataclass(frozen=True)
class GaugeSnapshot:
    """One telemetry tick's view of the serving system.

    ``backlog`` counts arrived-but-unfinished requests inside the
    serving layers plus requests held at the admission frontier;
    ``queued_at_admission`` is the frontier-held part alone.
    ``batch_occupancy`` / ``kv_occupancy`` average the active engines'
    :meth:`~repro.serving.base.ServingEngine.utilization`.
    ``shed_rate_per_s`` is sheds + rejections per simulated second since
    the previous tick.  ``attainment`` maps tenant id → fraction of
    offered requests meeting the tenant's TTFT SLO so far (empty without
    an admission layer).  ``prefix_hit_rate`` is the engines' cumulative
    prefix-cache hit rate (hits / lookups, 0.0 when caching is off) and
    ``prefix_saved_tokens`` the cumulative prefill tokens skipped.
    Under disaggregated serving the ``prefill_*``/``decode_*`` pool
    gauges report per-pool worker counts, mean batch occupancy, and
    backlog (all zero for colocated engines).
    """

    time_s: float
    backlog: int = 0
    unfinished: int = 0
    queued_at_admission: int = 0
    n_replicas: int = 0
    batch_occupancy: float = 0.0
    kv_occupancy: float = 0.0
    shed_rate_per_s: float = 0.0
    n_retired: int = 0
    spans_active: int = 0
    prefix_hit_rate: float = 0.0
    prefix_saved_tokens: int = 0
    prefill_workers: float = 0.0
    decode_workers: float = 0.0
    prefill_occupancy: float = 0.0
    decode_occupancy: float = 0.0
    prefill_backlog: float = 0.0
    decode_backlog: float = 0.0
    attainment: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class GaugeBoard:
    """A bounded ring of :class:`GaugeSnapshot` rows."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[GaugeSnapshot] = deque(maxlen=capacity)
        self.n_recorded = 0      # lifetime count (ring may have dropped)

    def record(self, snapshot: GaugeSnapshot) -> None:
        self._ring.append(snapshot)
        self.n_recorded += 1

    def latest(self) -> Optional[GaugeSnapshot]:
        """The most recent snapshot (None before the first tick)."""
        return self._ring[-1] if self._ring else None

    def series(self, key: Optional[str] = None) -> List[object]:
        """All retained snapshots in time order; with ``key`` given,
        the named gauge's values instead (e.g. ``series("backlog")``)."""
        if key is None:
            return list(self._ring)
        return [getattr(snap, key) for snap in self._ring]

    def clear(self) -> None:
        self._ring.clear()
        self.n_recorded = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        last = self._ring[-1].time_s if self._ring else None
        return (f"GaugeBoard(n={len(self._ring)}/{self.capacity}, "
                f"last_t={last})")
