"""The one record of device time: invariants of the stream ops a watched
``DeviceTimeline`` hands its observer during short loadgen chaos runs.

The flight recorder's device tracks are painted from these ops alone,
so whatever holds for the ops holds for every gantt, Chrome-trace row
and utilization share derived from them.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fault import FaultConfig
from repro.obs.flight import FlightRecorder
from repro.serve.loadgen import run_load
from repro.serve.service import ServeConfig


class OpLog(FlightRecorder):
    """A flight recorder that also keeps the raw ops it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: "list[tuple[int, object]]" = []

    def record_op(self, device: int, op) -> None:
        self.ops.append((device, op))
        super().record_op(device, op)


def chaos_ops(seed: int, streams: int, devices: int) -> OpLog:
    log = OpLog()
    run_load(
        clients=8,
        duration_s=0.02,
        rate_rps=8000.0,
        seed=seed,
        config=ServeConfig(
            physics=False,
            agents_per_session=32,
            devices=devices,
            streams=streams,
            faults=FaultConfig.chaos(seed=seed, device_fault_rate=0.3),
        ),
        flight=log,
    )
    return log


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    streams=st.sampled_from([1, 2]),
    devices=st.integers(1, 3),
)
def test_stream_ops_respect_tracks_and_stream_order(seed, streams, devices):
    log = chaos_ops(seed, streams, devices)
    assert log.ops, "the run scheduled no stream work"

    # No two positive-duration ops on one (device, track) overlap.
    by_track = defaultdict(list)
    for device, op in log.ops:
        if op.end_s > op.start_s:
            by_track[device, op.track].append((op.start_s, op.end_s))
    for intervals in by_track.values():
        intervals.sort()
        for (_, prev_end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= prev_end

    # Each op starts no earlier than the previous op on its stream ends.
    stream_front: "dict[tuple[int, int], float]" = {}
    for device, op in log.ops:
        key = device, op.stream_id
        assert op.start_s >= stream_front.get(key, 0.0)
        stream_front[key] = op.end_s

    # Copies ride the copy engine, kernels a compute track.
    for _, op in log.ops:
        assert (op.kind == "copy") == (op.track == "copy")

    # The recorder painted exactly the positive-length intervals.
    painted = {(e.device, e.stream, e.label) for e in log.device_events}
    assert painted == {
        (device, op.stream_id, op.track)
        for device, op in log.ops
        if op.end_s > op.start_s
    }
