"""Dynamic batcher: the window/size rule and eligibility constraints."""

from collections import deque

import pytest

from repro.cupp import CuppUsageError
from repro.serve.batcher import DynamicBatcher
from repro.serve.request import StepRequest


def queued(sid, admit_s=0.0) -> StepRequest:
    r = StepRequest(session_id=sid, arrival_s=admit_s)
    r.admit_s = admit_s
    return r


class TestValidation:
    def test_max_batch_positive(self):
        with pytest.raises(CuppUsageError):
            DynamicBatcher(max_batch=0)

    def test_window_non_negative(self):
        with pytest.raises(CuppUsageError):
            DynamicBatcher(window_s=-1e-3)

    def test_disabled_degenerates_to_per_request(self):
        b = DynamicBatcher(max_batch=32, window_s=5e-3, enabled=False)
        assert b.max_batch == 1 and b.window_s == 0.0


class TestReadyTime:
    def test_empty_queue_never_ready(self):
        b = DynamicBatcher()
        assert b.ready_time(deque(), set(), 0.0) is None

    def test_size_trigger_fires_immediately(self):
        b = DynamicBatcher(max_batch=2, window_s=1.0)
        q = deque([queued("a"), queued("b")])
        assert b.ready_time(q, set(), 0.5) == 0.5

    def test_window_trigger_waits_for_oldest(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        q = deque([queued("a", admit_s=1.0)])
        assert b.ready_time(q, set(), 1.0) == pytest.approx(1.002)

    def test_busy_sessions_do_not_hold_the_window(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        q = deque([queued("busy", 0.0), queued("free", 1.0)])
        assert b.ready_time(q, {"busy"}, 1.0) == pytest.approx(1.002)

    def test_all_busy_is_not_ready(self):
        b = DynamicBatcher()
        q = deque([queued("a"), queued("a")])
        assert b.ready_time(q, {"a"}, 5.0) is None


class TestTake:
    def test_fifo_up_to_max_batch(self):
        b = DynamicBatcher(max_batch=2)
        q = deque([queued("a"), queued("b"), queued("c")])
        batch = b.take(q, set(), 0.0)
        assert [r.session_id for r in batch.requests] == ["a", "b"]

    def test_one_request_per_session_per_batch(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a", 0.0), queued("a", 0.1), queued("b", 0.2)])
        batch = b.take(q, set(), 1.0)
        assert [r.session_id for r in batch.requests] == ["a", "b"]

    def test_in_flight_sessions_are_skipped(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a"), queued("b")])
        batch = b.take(q, {"a"}, 1.0)
        assert [r.session_id for r in batch.requests] == ["b"]

    def test_placeable_predicate_filters(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a"), queued("b")])
        batch = b.take(q, set(), 1.0, placeable=lambda r: r.session_id != "a")
        assert [r.session_id for r in batch.requests] == ["b"]

    def test_batch_ids_are_monotone(self):
        b = DynamicBatcher(max_batch=1)
        q = deque([queued("a"), queued("b")])
        first = b.take(q, set(), 0.0)
        q.popleft()
        second = b.take(q, set(), 0.0)
        assert second.batch_id == first.batch_id + 1


class TestHeads:
    """The scan's eligible heads, and tail admissions folded into them."""

    def test_ready_at_repeats_the_scan_verdict(self):
        b = DynamicBatcher(max_batch=4, window_s=2e-3)
        q = deque([queued("a", 1.0), queued("a", 1.1), queued("b", 1.2)])
        assert b.ready_time(q, set(), 1.0) == pytest.approx(1.002)
        assert [r.session_id for r in b.heads] == ["a", "b"]
        assert b.ready_at(1.001) == pytest.approx(1.002)
        assert b.ready_at(1.7) == 1.7

    def test_admit_tail_matches_a_rescan(self):
        b = DynamicBatcher(max_batch=8, window_s=1e-3)
        q = deque([queued("a"), queued("busy")])
        b.ready_time(q, {"busy"}, 0.0, placeable=lambda r: r.session_id != "far")
        for sid in ("a", "b", "busy", "far", "c"):
            r = queued(sid, 0.5)
            q.append(r)
            b.admit_tail(r)
        held = list(b.heads)
        b.ready_time(q, {"busy"}, 0.0, placeable=lambda r: r.session_id != "far")
        assert held == b.heads
        assert [r.session_id for r in held] == ["a", "b", "c"]

    def test_tail_size_trigger_and_retry_fire_now(self):
        b = DynamicBatcher(max_batch=2, window_s=1.0)
        q = deque([queued("a")])
        assert b.ready_time(q, set(), 0.0) == pytest.approx(1.0)
        retry = queued("b", 0.1)
        retry.attempts = 1
        b.admit_tail(retry)
        assert b.ready_at(0.1) == 0.1
        b = DynamicBatcher(max_batch=2, window_s=1.0)
        b.ready_time(deque([queued("a")]), set(), 0.0)
        b.admit_tail(queued("b", 0.1))
        assert b.ready_at(0.1) == 0.1

    def test_window_is_read_at_query_time(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        b.ready_time(deque([queued("a", 1.0)]), set(), 1.0)
        b.window_s = 0.5e-3
        assert b.ready_at(1.0) == pytest.approx(1.0005)
