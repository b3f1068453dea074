"""The serve DES agenda against the poll it replaced, plus the DES
invariants every run must keep.

:func:`polled_time` is the service's former event source, copied here as
the oracle: before each event it re-polled every in-flight completion and
watchdog, zombie, parked retry and probe, and rescanned the admission
queue for the batcher's eligible heads.  The agenda answers the same
question from state it maintains; the two must agree exactly before
every event, over seeds, admission policies, deadlines, streams, device
counts, chaos and SLO degradation.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fault import FaultConfig
from repro.serve.loadgen import run_load, slo_monitor
from repro.serve.request import RequestStatus, TERMINAL_STATUSES
from repro.serve.service import ServeConfig, SimulationService

HYP = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def polled_time(svc: SimulationService) -> "float | None":
    """The earliest pending event, found by polling every source."""
    times = []
    for sub in svc._in_flight:
        t = sub.completion_s
        if sub.timeout_s is not None:
            t = min(t, sub.timeout_s)
        times.append(t)
    times.extend(sub.completion_s for sub in svc._zombies)
    if svc._retry_parked:
        times.append(min(wake for wake, _, _ in svc._retry_parked))
    if svc.scheduler.unhealthy and svc._next_probe_s is not None:
        times.append(svc._next_probe_s)
    free = set(svc.scheduler.free_devices())
    if free:
        seen: "set[str]" = set()
        eligible = []
        for request in svc.admission.queue:
            sid = request.session_id
            if sid in svc._busy_sessions or sid in seen:
                continue
            home = svc.store.get(sid).resident_on
            if home is not None and home not in free:
                continue
            seen.add(sid)
            eligible.append(request)
        if eligible:
            batcher = svc.batcher
            if len(eligible) >= batcher.max_batch or any(
                r.attempts for r in eligible
            ):
                times.append(svc.now)
            else:
                times.append(
                    max(svc.now, eligible[0].admit_s + batcher.window_s)
                )
    return min(times) if times else None


class Probe:
    """Patches the service class for one run: checks the agenda against
    the poll on every query, and records the clock after every event."""

    def __init__(self) -> None:
        self.queries = 0
        self.events = 0
        self.clock: "list[float]" = []
        self.windows: "set[float]" = set()

    def __enter__(self) -> "Probe":
        agenda = SimulationService._next_event_time
        run_event = SimulationService._run_event
        probe = self

        def checked(svc):
            t = agenda(svc)
            expected = polled_time(svc)
            assert t == expected, (
                f"agenda {t!r} != poll {expected!r} at now={svc.now!r}"
            )
            probe.queries += 1
            probe.windows.add(svc.batcher.window_s)
            return t

        def recorded(svc, t):
            before = svc.now
            run_event(svc, t)
            assert svc.now >= before
            probe.events += 1
            probe.clock.append(svc.now)

        self._stack = ExitStack()
        self._stack.enter_context(
            mock.patch.object(SimulationService, "_next_event_time", checked)
        )
        self._stack.enter_context(
            mock.patch.object(SimulationService, "_run_event", recorded)
        )
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()


configs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "clients": st.integers(1, 12),
        "rate": st.sampled_from([4000.0, 16000.0, 48000.0]),
        "devices": st.integers(1, 3),
        "streams": st.sampled_from([1, 2]),
        "policy": st.sampled_from(["reject", "shed-oldest", "block"]),
        "capacity": st.sampled_from([2, 8, 256]),
        "deadline_ms": st.sampled_from([None, 0.5, 3.0]),
        "max_batch": st.sampled_from([1, 4, 32]),
        "window_ms": st.sampled_from([0.0, 0.5, 2.0]),
        "chaos": st.sampled_from([None, 0.05, 0.3]),
        "degrade": st.booleans(),
    }
)


def run(cfg: dict):
    """One short open-loop run of ``cfg`` under the probe."""
    faults = (
        None
        if cfg["chaos"] is None
        else FaultConfig.chaos(seed=cfg["seed"], device_fault_rate=cfg["chaos"])
    )
    config = ServeConfig(
        physics=False,
        agents_per_session=16,
        devices=cfg["devices"],
        streams=cfg["streams"],
        policy=cfg["policy"],
        queue_capacity=cfg["capacity"],
        max_batch=cfg["max_batch"],
        window_s=cfg["window_ms"] * 1e-3,
        default_deadline_s=(
            None if cfg["deadline_ms"] is None else cfg["deadline_ms"] * 1e-3
        ),
        faults=faults,
    )
    monitor = (
        slo_monitor(p99_ms=0.3, fault_count=1, window_s=5e-3)
        if cfg["degrade"]
        else None
    )
    counters = obs.get_metrics().snapshot()["counters"]
    requests = []
    real_submit = SimulationService.submit

    def keep(svc, *args, **kwargs):
        request = real_submit(svc, *args, **kwargs)
        requests.append(request)
        return request

    with Probe() as probe, mock.patch.object(SimulationService, "submit", keep):
        report = run_load(
            clients=cfg["clients"],
            duration_s=0.02,
            rate_rps=cfg["rate"],
            seed=cfg["seed"],
            config=config,
            monitor=monitor,
            degrade_policy="shed-oldest" if cfg["degrade"] else None,
        )
    after = obs.get_metrics().snapshot()["counters"]

    def counted(snapshot, status):
        key = f"repro.request.outcome{{component=serve,outcome={status.value}}}"
        return snapshot.get(key, 0)

    outcomes = {
        status: counted(after, status) - counted(counters, status)
        for status in TERMINAL_STATUSES
    }
    return probe, report, requests, outcomes


class TestAgendaMatchesThePoll:
    @HYP
    @given(cfg=configs)
    def test_agenda_time_equals_the_poll_before_every_event(self, cfg):
        probe, report, _, _ = run(cfg)
        assert report.offered == 0 or probe.events > 0
        assert probe.queries >= probe.events

    def test_slo_degraded_window_is_seen_by_the_agenda(self):
        cfg = dict(
            seed=9, clients=8, rate=16000.0, devices=2, streams=2,
            policy="reject", capacity=256, deadline_ms=None, max_batch=32,
            window_ms=2.0, chaos=0.3, degrade=True,
        )
        probe, report, _, _ = run(cfg)
        assert report.alerts, "no alert fired: the degraded window went untested"
        assert probe.windows == {2e-3, 2e-3 * 0.25}

    def test_shed_oldest_rebuilds_the_heads(self):
        cfg = dict(
            seed=3, clients=6, rate=48000.0, devices=1, streams=1,
            policy="shed-oldest", capacity=2, deadline_ms=None, max_batch=4,
            window_ms=0.5, chaos=None, degrade=False,
        )
        probe, report, _, _ = run(cfg)
        assert report.shed > 0 and probe.events > 0


    def test_drain_sweep_rebuilds_the_heads(self):
        # Deadlines shorter than the window expire the whole queue with
        # no launch, so blocked arrivals are only admitted by drain's
        # final sweep — a queue mutation outside any event.
        cfg = dict(
            seed=1, clients=8, rate=48000.0, devices=1, streams=2,
            policy="block", capacity=2, deadline_ms=3.0, max_batch=32,
            window_ms=2.0, chaos=None, degrade=False,
        )
        probe, report, requests, _ = run(cfg)
        assert report.expired > 0 and probe.events > 0
        assert all(r.status in TERMINAL_STATUSES for r in requests)


class TestDesInvariants:
    @HYP
    @given(cfg=configs)
    def test_conservation_terminality_order_and_clock(self, cfg):
        probe, report, requests, outcomes = run(cfg)
        # Conservation: every offered request is accounted for once.
        assert report.offered == len(requests)
        assert (
            report.completed + report.rejected + report.shed
            + report.expired + report.failed
        ) == report.offered
        # Exactly one terminal status per request, counted once.
        assert all(r.status in TERMINAL_STATUSES for r in requests)
        for status in TERMINAL_STATUSES:
            assert outcomes[status] == sum(
                1 for r in requests if r.status is status
            ), status
        # Per-session step order: one step in flight per session, so a
        # session's completed steps never overlap.
        by_session: "dict[str, list]" = {}
        for r in requests:
            if r.status is RequestStatus.DONE:
                assert r.arrival_s <= r.launch_s <= r.finish_s
                by_session.setdefault(r.session_id, []).append(r)
        for steps in by_session.values():
            steps.sort(key=lambda r: (r.launch_s, r.finish_s))
            for prev, nxt in zip(steps, steps[1:]):
                assert prev.finish_s <= nxt.launch_s
        # The virtual clock never runs backwards across events.
        assert all(a <= b for a, b in zip(probe.clock, probe.clock[1:]))


def test_finished_service_is_freed_without_the_cyclic_gc():
    """A drained service must die by reference counting alone: nothing
    the agenda keeps between events may refer back to the service."""
    gc.collect()
    gc.disable()
    try:
        svc = SimulationService()
        for i in range(4):
            svc.create_session(f"client-{i}", seed=i)
        t = 0.0
        for i in range(48):
            t += 1e-4
            svc.advance(t)
            svc.submit(f"client-{i % 4}")
        svc.drain()
        assert svc.stats.completed == 48
        ref = weakref.ref(svc)
        del svc
        assert ref() is None
    finally:
        gc.enable()
