"""repro.obs.flight: trace contexts, span links, tail sampling, and the
per-device timeline profiler — plus the exemplar plumbing in metrics."""

import pytest

from repro.obs.flight import (
    DeviceEvent,
    FlightRecorder,
    SpanLink,
    device_chrome_trace,
    device_utilization,
    load_flight,
    render_gantt,
)
from repro.obs.metrics import Histogram, Window
from repro.simgpu.transfer import DeviceTimeline


class TestSpansAndLinks:
    def test_span_lifecycle_and_ids_are_monotone(self):
        fl = FlightRecorder()
        ctx = fl.mint()
        a = fl.start(ctx, "request", 1.0, request=7)
        b = fl.start(ctx, "queue", 1.5, parent=a)
        assert b.span_id == a.span_id + 1
        assert b.parent_id == a.span_id
        assert b.end_s is None and b.dur_s == 0.0
        fl.end(b, 2.0, outcome="launched")
        assert b.dur_s == pytest.approx(0.5)
        assert b.attrs["outcome"] == "launched"

    def test_links_cross_traces(self):
        fl = FlightRecorder()
        one, two = fl.mint(), fl.mint()
        assert one.trace_id != two.trace_id
        a = fl.start(one, "attempt-1", 0.0)
        b = fl.start(two, "attempt-1", 0.0)
        fl.link(a, two.trace_id, b.span_id, "coalesced")
        assert a.links == [SpanLink(two.trace_id, b.span_id, "coalesced")]

    def test_batch_spans_live_in_their_own_trace_and_ring(self):
        fl = FlightRecorder(max_batch_spans=2)
        spans = [fl.start_batch(float(i), batch=i) for i in range(4)]
        assert all(s.trace_id.startswith("b") for s in spans)
        assert fl.batch_span(spans[0].span_id) is None  # evicted
        assert fl.batch_span(spans[3].span_id) is spans[3]

    def test_span_round_trips_through_dict(self):
        fl = FlightRecorder()
        ctx = fl.mint()
        span = fl.start(ctx, "attempt-1", 1.0, device=0)
        fl.link(span, "t9", 42, "retry-of")
        fl.end(span, 2.0)
        from repro.obs.flight import FlightSpan

        clone = FlightSpan.from_dict(span.to_dict())
        assert clone == span


class TestTailSampling:
    def test_flagged_traces_are_retained(self):
        fl = FlightRecorder(head_sample_every=0)
        ctx = fl.mint()
        ctx.root = fl.start(ctx, "request", 0.0, request=1)
        fl.end(ctx.root, 1.0)
        ctx.flags.add("fault")
        assert fl.finish(ctx, 1.0)
        record = fl.trace(ctx.trace_id)
        assert record is not None and record.flags == {"fault"}
        assert fl.trace_for_request(1) is record

    def test_boring_traces_are_dropped(self):
        fl = FlightRecorder(head_sample_every=0)
        ctx = fl.mint()
        ctx.root = fl.start(ctx, "request", 0.0, request=1)
        fl.end(ctx.root, 1.0)
        assert not fl.finish(ctx, 1.0)
        assert fl.trace(ctx.trace_id) is None
        assert fl.stats()["dropped"] == 1

    def test_deterministic_head_sample_keeps_one_in_n(self):
        fl = FlightRecorder(head_sample_every=4)
        kept = 0
        for i in range(12):
            ctx = fl.mint()
            ctx.root = fl.start(ctx, "request", 0.0, request=i)
            fl.end(ctx.root, 0.0)
            kept += fl.finish(ctx, 0.0)
        assert kept == 3  # seq 0, 4, 8
        assert all("head" in r.flags for r in fl.retained())

    def test_slow_threshold_flags_and_retains(self):
        fl = FlightRecorder(head_sample_every=0, slow_threshold_s=0.5)
        slow, fast = fl.mint(), fl.mint()
        for ctx, dur in ((slow, 0.9), (fast, 0.1)):
            ctx.root = fl.start(ctx, "request", 0.0, request=ctx.seq)
            fl.end(ctx.root, dur)
            fl.finish(ctx, dur)
        assert "slow" in fl.trace(slow.trace_id).flags
        assert fl.trace(fast.trace_id) is None

    def test_retention_cap_evicts_head_samples_first(self):
        fl = FlightRecorder(head_sample_every=1, max_retained=3)
        interesting = []
        for i in range(6):
            ctx = fl.mint()
            ctx.root = fl.start(ctx, "request", 0.0, request=i)
            fl.end(ctx.root, 0.0)
            if i >= 4:
                ctx.flags.add("fault")
                interesting.append(ctx.trace_id)
            fl.finish(ctx, 0.0)
        assert fl.retained_count == 3
        # Both interesting traces survive; only one head sample does.
        for trace_id in interesting:
            assert fl.trace(trace_id) is not None
        assert fl.stats()["evicted"] == 3

    def test_slow_floods_never_evict_critical_traces(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=4)
        ctx = fl.mint()
        ctx.root = fl.start(ctx, "request", 0.0, request=0)
        fl.end(ctx.root, 0.0)
        ctx.flags.update({"fault", "failover"})
        fl.finish(ctx, 0.0)
        # A flood of merely-slow traces fills and churns the cap...
        for i in range(1, 20):
            slow = fl.mint()
            slow.root = fl.start(slow, "request", 0.0, request=i)
            fl.end(slow.root, 0.0)
            slow.flags.add("slow")
            fl.finish(slow, 0.0)
        # ...but the critical failover trace survives it.
        assert fl.retained_count == 4
        assert fl.trace_for_request(0) is not None
        assert fl.request_ids("failover") == [0]
        assert fl.stats()["retained_critical"] == 1

    def test_cap_holds_even_for_interesting_floods(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=2)
        for i in range(5):
            ctx = fl.mint()
            ctx.root = fl.start(ctx, "request", 0.0, request=i)
            fl.end(ctx.root, 0.0)
            ctx.flags.add("fault")
            fl.finish(ctx, 0.0)
        assert fl.retained_count == 2
        # Oldest interesting traces were evicted, newest survive.
        assert fl.trace_for_request(4) is not None

    def test_request_ids_filter_by_flag(self):
        fl = FlightRecorder(head_sample_every=0)
        for i, flag in enumerate(("fault", "failover", "failover")):
            ctx = fl.mint()
            ctx.root = fl.start(ctx, "request", 0.0, request=i)
            fl.end(ctx.root, 0.0)
            ctx.flags.add(flag)
            fl.finish(ctx, 0.0)
        assert fl.request_ids("failover") == [1, 2]
        assert len(fl.request_ids()) == 3

    def test_write_and_load_round_trip(self, tmp_path):
        fl = FlightRecorder(head_sample_every=1)
        ctx = fl.mint()
        ctx.root = fl.start(ctx, "request", 0.0, request=3)
        fl.end(ctx.root, 1.0)
        fl.finish(ctx, 1.0)
        timeline = DeviceTimeline()
        fl.watch(timeline, 0)
        timeline.stream_launch(timeline.create_stream(), 1.0)
        path = tmp_path / "flight.json"
        doc = fl.write(str(path))
        loaded = load_flight(str(path))
        assert loaded == __import__("json").loads(
            __import__("json").dumps(doc)
        )
        assert loaded["traces"][0]["request_id"] == 3
        [event] = loaded["device_events"]
        assert (event["kind"], event["label"]) == ("busy", "compute0")


class TestExemplarPins:
    """The latency histogram's exemplar slots and the tail sampler make
    one decision: a trace the histogram holds is pinned until displaced."""

    @staticmethod
    def _complete(fl, hist, value, flags=()):
        ctx = fl.mint()
        ctx.root = fl.start(ctx, "request", 0.0, request=ctx.seq)
        fl.end(ctx.root, 0.0)
        ctx.flags.update(flags)
        fl.hold_exemplar(ctx.trace_id, value, hist.observe(value, ctx.trace_id))
        fl.finish(ctx, 0.0)
        return ctx.trace_id

    def test_observe_returns_the_displaced_exemplar(self):
        h = Histogram()
        assert h.observe(100.0) is None
        for i in range(Histogram.EXEMPLARS_PER_BUCKET):
            assert h.observe(3.0, f"t{i}") is None
        assert h.observe(3.5, "late") == (3.0, "t0")

    def test_critical_floods_never_evict_a_pinned_exemplar(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=8)
        hist = Histogram()
        slow = self._complete(fl, hist, 5000.0)
        for _ in range(40):
            self._complete(fl, hist, 100.0, flags=("fault",))
        assert fl.retained_count == 8
        record = fl.trace(slow)
        assert record is not None and "exemplar" in record.flags
        assert [t for _, t in hist.exemplars_for(100)] == [slow]
        assert fl.stats()["retained_pinned"] >= 1

    def test_displacement_releases_the_pin(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=64)
        hist = Histogram()
        first = [self._complete(fl, hist, 3.0) for _ in range(4)]
        assert all(fl.trace(t) is not None for t in first)
        later = [self._complete(fl, hist, 3.0) for _ in range(4)]
        # The slots rotated: the first four lost their pins and, being
        # uninteresting, their traces; the holders are retained.
        assert all(fl.trace(t) is None for t in first)
        assert all(fl.trace(t) is not None for t in later)
        assert fl.stats()["dropped"] == 4

    def test_a_released_interesting_trace_stays_by_its_own_verdict(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=64)
        hist = Histogram()
        faulted = self._complete(fl, hist, 3.0, flags=("fault",))
        for _ in range(4):
            self._complete(fl, hist, 3.0)
        assert fl.trace(faulted) is not None
        assert "exemplar" not in fl.trace(faulted).flags

    def test_pins_fit_their_slice_and_keep_the_tail(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=8)
        assert fl.max_pinned == 2
        hist = Histogram()
        tail = self._complete(fl, hist, 9000.0)
        for value in (1.0, 5.0, 40.0, 300.0):
            self._complete(fl, hist, value)
        # Past two pins the lowest exemplar is released first.
        assert fl.stats()["retained_pinned"] == 2
        assert fl.trace(tail) is not None

    def test_no_slice_without_room(self):
        fl = FlightRecorder(head_sample_every=0, max_retained=3)
        assert fl.max_pinned == 0
        hist = Histogram()
        assert fl.trace(self._complete(fl, hist, 9000.0)) is None


class TestDeviceProfiler:
    def _events(self):
        return [
            DeviceEvent(0, "busy", 0.0, 0.6, "k"),
            DeviceEvent(0, "transfer", 0.6, 0.8, "d2h"),
            DeviceEvent(1, "wedged", 0.0, 1.0, "hang"),
        ]

    def test_watched_timeline_paints_its_stream_ops(self):
        fl = FlightRecorder()
        timeline = DeviceTimeline()
        assert timeline.observer is None
        fl.watch(timeline, 3)
        copy, compute = timeline.create_stream(), timeline.create_stream()
        upload = timeline.stream_memcpy(copy, 4096)
        timeline.stream_memcpy(copy, 0)  # zero-byte: orders, not painted
        timeline.stream_launch(compute, 0.0)  # launch cost only
        kernel = timeline.stream_launch(compute, 2e-3, wedged_s=5e-3)
        events = list(fl.device_events)
        assert [(e.device, e.kind, e.label, e.stream) for e in events] == [
            (3, "transfer", "copy", copy.stream_id),
            (3, "busy", kernel.track, compute.stream_id),
            (3, "wedged", kernel.track, compute.stream_id),
        ]
        assert (events[0].start_s, events[0].end_s) == (
            upload.start_s, upload.end_s,
        )
        # The wedge rides on the op: the track is held for kernel + hang,
        # the busy interval ends where the wedge starts.
        assert kernel.end_s == kernel.start_s + (2e-3 + 5e-3)
        assert events[1].start_s == kernel.start_s
        assert events[1].end_s == events[2].start_s == kernel.start_s + 2e-3
        assert events[2].end_s == kernel.end_s

    def test_utilization_folds_tracks_and_idle(self):
        util = device_utilization(self._events())
        assert util[0]["busy"] == pytest.approx(0.6)
        assert util[0]["transfer"] == pytest.approx(0.2)
        assert util[0]["idle"] == pytest.approx(0.2)
        assert util[0]["utilization"] == pytest.approx(0.6)
        assert util[1]["wedged"] == pytest.approx(1.0)
        assert util[1]["idle"] == pytest.approx(0.0)

    def test_chrome_rows_name_device_threads(self):
        doc = device_chrome_trace(self._events())
        meta = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert meta == {0: "device-0", 1: "device-1"}
        rows = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {r["name"] for r in rows} == {
            "device.busy", "device.transfer", "device.wedged",
        }

    def test_gantt_paints_priority_and_idle(self):
        text = render_gantt(self._events(), width=10)
        lines = text.splitlines()
        assert lines[1].startswith("device-0")
        assert "#" in lines[1] and "=" in lines[1]
        assert set(lines[2].split("|")[1]) == {"X"}
        assert render_gantt([]) == "(no device events)"


class TestHistogramExemplars:
    def test_observe_without_trace_keeps_exemplars_unallocated(self):
        h = Histogram()
        h.observe(5.0)
        assert h.exemplars is None
        assert "exemplars" not in h.summary()

    def test_exemplars_land_in_the_value_bucket(self):
        h = Histogram()
        h.observe(3.0, "t1")  # bucket le_4
        h.observe(100.0, "t2")  # bucket le_128
        summary = h.summary()
        assert summary["exemplars"]["le_4"] == [
            {"value": 3.0, "trace_id": "t1"}
        ]
        assert summary["exemplars"]["le_128"][0]["trace_id"] == "t2"

    def test_reservoir_overwrites_deterministically(self):
        h = Histogram()
        for i in range(10):
            h.observe(3.0, f"t{i}")
        slots = h.exemplars[2]  # le_4
        assert len(slots) == Histogram.EXEMPLARS_PER_BUCKET
        # Rotating overwrite keeps the freshest samples, reproducibly.
        assert {t for _, t in slots} == {"t6", "t7", "t8", "t9"}

    def test_exemplars_for_resolves_the_percentile_bucket(self):
        h = Histogram()
        for _ in range(99):
            h.observe(1.0, "fast")
        h.observe(1000.0, "slow-trace")
        assert h.percentile_bucket(99.9) == 10  # le_1024
        assert h.exemplars_for(99.9) == [(1000.0, "slow-trace")]
        # The median bucket resolves to the fast traces instead.
        assert all(t == "fast" for _, t in h.exemplars_for(50))
        assert Histogram().exemplars_for(99) == []
        assert Histogram().percentile_bucket(99) is None


class TestWindowExemplars:
    def test_worst_tagged_samples_come_back_first(self):
        w = Window(10.0)
        w.observe(0.0, 5.0, "a")
        w.observe(1.0, 9.0, "b")
        w.observe(2.0, 7.0)  # untagged: invisible to exemplars
        w.observe(3.0, 8.0, "c")
        assert w.exemplars(k=2) == [(9.0, "b"), (8.0, "c")]
        assert w.values() == [5.0, 9.0, 7.0, 8.0]

    def test_exemplars_age_out_with_the_window(self):
        w = Window(1.0)
        w.observe(0.0, 99.0, "old")
        w.observe(5.0, 1.0, "new")
        assert w.exemplars(now=5.0) == [(1.0, "new")]

    def test_alert_carries_exemplars_at_fire_time(self):
        from repro.obs.monitor import SloMonitor, SloRule

        monitor = SloMonitor(
            [
                SloRule(
                    name="lat", series="s", stat="max",
                    threshold=10.0, window_s=1.0,
                )
            ]
        )
        monitor.observe("s", 0.0, 50.0, "worst")
        monitor.observe("s", 0.1, 20.0, "bad")
        fired = monitor.evaluate(0.2)
        assert fired and fired[0].exemplars[0] == (50.0, "worst")
        assert fired[0].to_dict()["exemplars"][0]["trace_id"] == "worst"


class TestRecorderValidation:
    def test_bad_config_is_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(head_sample_every=-1)
        with pytest.raises(ValueError):
            FlightRecorder(max_retained=0)
