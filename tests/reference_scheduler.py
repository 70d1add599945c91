"""The one-pass ``schedule()``, kept as the tests' oracle.

A verbatim copy of ``ContinuousBatchScheduler.schedule`` /
``_admit_queued`` / ``_earliest_per_model`` from
``src/repro/serving/scheduler.py`` as they stood before admission split
into a pure decide step and a commit, written as functions over a
scheduler instance (its ``_queue``, ``version`` and ``config``).
``tests/test_serving_scheduler.py`` drives it and the shipped scheduler
through the same queues and compares the decisions, the queue and the
request flags; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.serving.scheduler import SchedulingDecision


def _fcfs_key(request):
    return (request.arrival_s, request.request_id)


def schedule(sched, running, resident_deltas) -> SchedulingDecision:
    """Admit queued requests alongside the already-running batch.

    ``running`` requests keep their slots; their variants count toward
    N.  ``resident_deltas`` is used only to report which selected
    variants still need loading.
    """
    cfg = sched.config
    selected: Set[str] = set(running.per_model)
    decision = SchedulingDecision(selected_deltas=selected)
    capacity = cfg.max_batch_requests - len(running.requests)
    if capacity <= 0:
        return decision
    if sched._queue:
        _admit_queued(sched, running, decision, capacity)
    decision.new_deltas = sorted(
        d for d in selected if d not in resident_deltas)
    return decision


def _admit_queued(sched, running, decision: SchedulingDecision,
                  capacity: int) -> None:
    cfg = sched.config
    selected = decision.selected_deltas
    admitted = decision.admitted
    max_deltas = cfg.max_concurrent_deltas
    if cfg.model_priorities is None:
        order = sched._queue
    else:
        order = sorted(sched._queue,
                       key=lambda r: (-cfg.priority_of(r.model_id),)
                       + _fcfs_key(r))
    parent_of: Optional[Dict[str, object]] = None
    kept: Optional[List[object]] = None
    n_walked = len(order)
    for i, req in enumerate(order):
        if capacity <= 0:
            n_walked = i
            break
        delta = req.model_id
        if delta not in selected:
            if len(selected) >= max_deltas:
                if kept is None:
                    kept = []
                kept.append(req)
                continue
            selected.add(delta)
        if kept is not None:
            req.skipped_line = True
            if cfg.preemption:
                if parent_of is None:
                    parent_of = _earliest_per_model(running.requests,
                                                    admitted)
                parent = parent_of.get(delta)
                if parent is not None:
                    req.parent_id = parent.request_id
                else:
                    parent_of[delta] = req
        admitted.append(req)
        capacity -= 1
    if not admitted:
        return
    if kept is None:
        del order[:n_walked]
        kept = order
    else:
        kept.extend(order[n_walked:])
    if cfg.model_priorities is not None:
        kept.sort(key=_fcfs_key)
    sched._queue = kept
    sched.version += 1


def _earliest_per_model(running: Sequence, admitted: Sequence) -> Dict:
    parent_of: Dict[str, object] = {}
    for req in running:
        cur = parent_of.get(req.model_id)
        if cur is None or _fcfs_key(req) < _fcfs_key(cur):
            parent_of[req.model_id] = req
    for req in admitted:
        parent_of.setdefault(req.model_id, req)
    return parent_of
