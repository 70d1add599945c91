"""Edge cases for EventQueue.remove_request, KeyedHeap, and the Chrome
trace exporter (empty journals, cancel-before-arrival orphan records)."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (Arrival, Cancel, EventQueue, IterationDone, KeyedHeap,
                       ReplicaSpawn)
from repro.sim.trace_export import chrome_trace_events, export_chrome_trace
from repro.workload.spec import TraceRequest


def _arrival(request_id, at_s):
    request = TraceRequest(request_id=request_id, model_id=f"m{request_id}",
                           arrival_s=at_s, prompt_tokens=4, output_tokens=4)
    return Arrival(time=at_s, request=request)


# --------------------------------------------------------------------- #
# EventQueue.remove_request
# --------------------------------------------------------------------- #
class TestRemoveRequest:
    def test_remove_from_empty_queue_returns_none(self):
        assert EventQueue().remove_request(1) is None

    def test_remove_missing_id_returns_none_and_keeps_queue(self):
        queue = EventQueue()
        queue.push(_arrival(1, 1.0))
        assert queue.remove_request(99) is None
        assert len(queue) == 1

    def test_remove_middle_event_keeps_pop_order(self):
        queue = EventQueue()
        for rid, t in ((1, 1.0), (2, 2.0), (3, 3.0)):
            queue.push(_arrival(rid, t))
        removed = queue.remove_request(2)
        assert removed.request_id == 2
        assert [e.request_id for e in queue.pop_due(10.0)] == [1, 3]

    def test_remove_last_event_empties_queue(self):
        queue = EventQueue()
        queue.push(_arrival(7, 1.0))
        assert queue.remove_request(7).request_id == 7
        assert len(queue) == 0
        assert queue.peek_time() is None

    def test_remove_keeps_count_after_consistent(self):
        # the sorted-times index must shrink with the heap, or the
        # autoscaler's backlog signal drifts after a cancellation
        queue = EventQueue()
        for rid, t in ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)):
            queue.push(_arrival(rid, t))
        queue.remove_request(3)
        assert queue.count_after(0.0) == 3
        assert queue.count_after(2.0) == 1
        assert queue.count_after(4.0) == 0

    def test_remove_after_pops_with_lazy_head(self):
        # pops advance a lazy head into the times index; a removal must
        # respect it rather than deleting an already-dead slot
        queue = EventQueue()
        for rid in range(1, 6):
            queue.push(_arrival(rid, float(rid)))
        assert queue.pop().request_id == 1
        assert queue.pop().request_id == 2
        assert queue.remove_request(4).request_id == 4
        assert queue.count_after(0.0) == 2
        assert [e.request_id for e in queue.pop_due(10.0)] == [3, 5]

    def test_remove_matches_cancel_events_too(self):
        queue = EventQueue()
        queue.push(Cancel(time=5.0, request_id=11))
        assert queue.remove_request(11).time == 5.0

    @given(st.lists(st.tuples(st.sampled_from(("push", "push", "withdraw",
                                               "pop_due", "count_after")),
                              st.integers(0, 5), st.integers(0, 12)),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_withdrawals_match_a_plain_list(self, ops):
        """Withdrawals, pushes, pops and ``count_after`` interleaved: the
        queue answers like a list of its live events, and a withdrawal
        takes the earliest-due event carrying the id (ids repeat here,
        as a deadline and a client cancel do for one request)."""
        queue, live, seq = EventQueue(), [], 0
        for op, rid, tick in ops:
            t = tick * 0.5
            if op == "push":
                event = _arrival(rid, t) if seq % 2 else \
                    Cancel(time=t, request_id=rid)
                queue.push(event)
                live.append((t, rid, seq, event))
                seq += 1
            elif op == "withdraw":
                mine = [entry for entry in live if entry[1] == rid]
                want = min(mine)[3] if mine else None
                if mine:
                    live.remove(min(mine))
                assert queue.remove_request(rid) is want
            elif op == "pop_due":
                due = sorted(entry for entry in live if entry[0] <= t)
                live = [entry for entry in live if entry[0] > t]
                assert list(queue.pop_due(t)) == [entry[3] for entry in due]
            else:
                assert queue.count_after(t) == \
                    sum(1 for entry in live if entry[0] > t)
            assert len(queue) == len(live) and bool(queue) == bool(live)
            assert queue.peek_time() == min((e[0] for e in live),
                                            default=None)
            assert queue.in_order() == [entry[3] for entry in sorted(live)]


class TestKeyedHeap:
    def test_orders_by_key_with_insertion_tiebreak(self):
        heap = KeyedHeap()
        heap.push((2.0, 1), "b")
        heap.push((1.0, 9), "a")
        heap.push((2.0, 1), "c")  # same key: insertion order wins
        assert heap.peek_key() == (1.0, 9)
        assert [heap.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_items_are_never_compared(self):
        heap = KeyedHeap()
        heap.push((1.0,), object())
        heap.push((1.0,), object())  # unorderable payloads are fine
        assert len(heap) == 2
        heap.pop()
        assert heap.peek() is not None

    def test_remove_where(self):
        heap = KeyedHeap()
        for i in range(4):
            heap.push((float(i),), f"item{i}")
        assert heap.remove_where(lambda s: s == "item2") == "item2"
        assert heap.remove_where(lambda s: s == "nope") is None
        assert [heap.pop() for _ in range(3)] == ["item0", "item1", "item3"]

    def test_clear_and_bool(self):
        heap = KeyedHeap()
        assert not heap
        heap.push((0.0,), "x")
        assert heap
        heap.clear()
        assert not heap and heap.peek() is None


# --------------------------------------------------------------------- #
# trace export
# --------------------------------------------------------------------- #
class TestTraceExport:
    def test_empty_journal_exports_valid_trace(self):
        buffer = io.StringIO()
        assert export_chrome_trace([], buffer) == 0
        payload = json.loads(buffer.getvalue())
        assert payload["traceEvents"] == []

    def test_cancel_before_arrival_orphan_records(self):
        # a cancel journaled for a request that never arrived (the
        # client withdrew before the arrival frontier) must still render
        journal = [Cancel(time=0.5, request_id=42, reason="cancel")]
        events = chrome_trace_events(journal)
        assert len(events) == 1
        assert events[0]["name"] == "cancel:cancel"
        assert events[0]["args"]["request_id"] == 42
        assert events[0]["ts"] == pytest.approx(0.5e6)

    def test_iteration_span_and_instant_mix(self):
        journal = [
            _arrival(1, 0.0),
            IterationDone(time=1.0, iter_time_s=0.25, load_time_s=0.05,
                          n_running=1, source="replica-0"),
            ReplicaSpawn(time=2.0, replica_id=1),
        ]
        events = chrome_trace_events(journal)
        phases = [e["ph"] for e in events]
        assert phases == ["i", "X", "i"]
        span = events[1]
        assert span["tid"] == "replica-0"
        assert span["dur"] == pytest.approx(0.3e6)
        assert span["ts"] == pytest.approx((1.0 - 0.3) * 1e6)

    def test_unknown_event_lands_on_generic_track(self):
        from dataclasses import dataclass
        from repro.sim.events import Event

        @dataclass(frozen=True)
        class Weird(Event):
            pass

        events = chrome_trace_events([Weird(time=1.0)])
        assert events[0]["tid"] == "events"
        assert events[0]["name"] == "Weird"

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        journal = [_arrival(1, 0.0), Cancel(time=1.0, request_id=1)]
        assert export_chrome_trace(journal, str(path)) == 2
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == 2
        assert payload["displayTimeUnit"] == "ms"
