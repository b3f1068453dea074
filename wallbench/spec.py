"""The metric and workload catalogue of the wall-clock benchmark.

One table, read by ``run.py`` (to print each metric with its unit and
clock), by ``worker.py`` (which metrics a mode must produce) and by the
benchmark's tests (which check ``BENCHMARK.json`` against it).

Clocks:

* ``wall``    -- measured with ``time.perf_counter`` in the workload process;
* ``virtual`` -- the program's modelled time (the sim backend's device
  timeline, the serving layer's event clock).  Exact for a given seed.
* ``count``   -- a count, byte total or ratio; no clock.

``json`` says whether the metric goes into the last-line result object.
Metrics that stay out of it are still printed, with the reason.  Two
reasons recur:

* ``VIRTUAL``: the value is exact for a seed, so it is a correctness
  fingerprint rather than a measurement to bound;
* ``ONE_WORKLOAD``: a per-call time of a layer that only some workloads
  exercise.  The result object must carry every metric for every
  workload, and a time that is identically zero on the other workloads
  is not a measurement.
"""

from __future__ import annotations

WORKLOADS = {
    "flock-small": (
        "EmulatedBoids v5, native backend, 64 agents (2 blocks of 32): the "
        "kernel twins are cheap, so the CuPP call path dominates"
    ),
    "flock-grid": (
        "EmulatedBoids v6, native backend, 1024 agents: HashGrid build, the "
        "per-agent grid twin and a lazy position download every step"
    ),
    "flock-emulated": (
        "EmulatedBoids v5, sim backend (SIMT emulator), 32 agents: warp and "
        "ISA dispatch, with exact virtual device time"
    ),
    "serve-open-loop": (
        "SimulationService, physics off, 32 sessions, 16k req/s Poisson, 2 "
        "devices, 2 streams: admission, batcher, scheduler, obs, mem pool"
    ),
}

FLOCKS = ("flock-small", "flock-grid", "flock-emulated")
ALL = tuple(WORKLOADS)

VIRTUAL = "exact for a seed: a correctness fingerprint, not a bounded measurement"
ONE_WORKLOAD = "a time of a layer that not every workload runs"


def _m(name, unit, better, clock, workloads, layer="", note="", json=True, why=""):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "clock": clock,
        "workloads": workloads,
        "layer": layer,
        "note": note,
        "json": json,
        "why_not_json": why,
    }


#: End-to-end metrics, measured in the untraced run (``--trace 0``).
END_TO_END = [
    _m("setup_s", "s", "lower", "wall", ALL,
       note="process start to first timed operation: imports, device, "
       "kernel and session construction, warm-up; median of 7 fresh processes"),
    _m("throughput_per_s", "1/s", "higher", "wall", ALL,
       note="agent-steps per wall-second (flock-*), simulated requests per "
       "wall-second (serve): median over timed steps of work/step time"),
    _m("step_ms_p50", "ms", "lower", "wall", ALL,
       note="one flock step, or one serve replay slice of 64 arrivals"),
    _m("step_ms_p90", "ms", "lower", "wall", ALL,
       note="at least 10 samples lie beyond it; the count is printed"),
    _m("peak_rss_mb", "MB", "lower", "wall", ALL,
       note="ru_maxrss of the workload process at the end of the timed window"),
    _m("fail_ratio", "ratio", "lower", "count", ALL,
       note="failed output checks / checks (flock-*); (rejected + shed + "
       "expired + failed) / offered (serve)",
       json=False, why="0 on a healthy build; carried as attempted/failed"),
    _m("virtual_step_us", "us", "lower", "virtual", ("flock-emulated",),
       note="device time per step, cudaEventRecord/cudaEventElapsedTime, "
       "mean of the first 10 timed steps", json=False, why=VIRTUAL),
    _m("virtual_latency_p50_ms", "ms", "lower", "virtual", ("serve-open-loop",),
       note="first replay round", json=False, why=VIRTUAL),
    _m("virtual_latency_p99_ms", "ms", "lower", "virtual", ("serve-open-loop",),
       note="first replay round", json=False, why=VIRTUAL),
]

_CALL = "throughput_per_s on flock-small; flock-grid unchanged"
_GRID = "throughput_per_s on flock-grid"
_EMU = "throughput_per_s on flock-emulated"
_SERVE = "throughput_per_s on serve-open-loop"

#: Per-layer metrics, measured in the traced run (``--trace 1``).
PER_LAYER = [
    # cupp
    _m("cupp.kernel.calls_per_step", "count", "lower", "count", FLOCKS, "cupp", _CALL),
    _m("cupp.kernel.self_us_p50", "us", "lower", "wall", FLOCKS, "cupp", _CALL,
       json=False, why=ONE_WORKLOAD),
    _m("cupp.vector.ref_us_p50", "us", "lower", "wall", FLOCKS, "cupp", _CALL,
       json=False, why=ONE_WORKLOAD),
    _m("cupp.vector.lazy_hit_ratio", "ratio", "higher", "count", FLOCKS, "cupp", _CALL),
    _m("cupp.vector.h2d_bytes_per_step", "B", "lower", "count", FLOCKS, "cupp", _GRID),
    _m("cupp.vector.d2h_bytes_per_step", "B", "lower", "count", FLOCKS, "cupp", _GRID),
    _m("cupp.containers.build_ms_p50", "ms", "lower", "wall", ("flock-grid",),
       "cupp", _GRID, json=False, why=ONE_WORKLOAD),
    _m("cupp.share", "ratio", "lower", "wall", ALL, "cupp", _CALL),
    # cuda runtime
    _m("cuda.launch.self_us_p50", "us", "lower", "wall", FLOCKS, "cuda", _CALL,
       json=False, why=ONE_WORKLOAD),
    _m("cuda.malloc.calls_per_step", "count", "lower", "count", FLOCKS, "cuda", _CALL),
    _m("cuda.memcpy.calls_per_step", "count", "lower", "count", FLOCKS, "cuda", _CALL),
    _m("cuda.memcpy.us_p50", "us", "lower", "wall", FLOCKS, "cuda", _CALL,
       json=False, why=ONE_WORKLOAD),
    _m("cuda.share", "ratio", "lower", "wall", ALL, "cuda", _CALL),
    # native backend
    _m("backend.native.simulate_ms_p50", "ms", "lower", "wall",
       ("flock-small", "flock-grid"), "backend", _GRID + "; flock-small slightly",
       json=False, why=ONE_WORKLOAD),
    _m("backend.native.modify_ms_p50", "ms", "lower", "wall",
       ("flock-small", "flock-grid"), "backend", _GRID + "; flock-small slightly",
       json=False, why=ONE_WORKLOAD),
    _m("backend.native.share", "ratio", "lower", "wall", ALL, "backend",
       _GRID + "; flock-small slightly"),
    # SIMT emulator
    _m("simgpu.launch_s_p50", "s", "lower", "wall", ("flock-emulated",),
       "simgpu", _EMU, json=False, why=ONE_WORKLOAD),
    _m("simgpu.warp_issues_per_step", "count", "lower", "count", ALL, "simgpu",
       "must repeat exactly: sum of LaunchResult.profile.total_instructions "
       "over the first 10 traced steps, per step"),
    _m("simgpu.warp_issues_per_s", "1/s", "higher", "wall", ("flock-emulated",),
       "simgpu", _EMU, json=False, why=ONE_WORKLOAD),
    _m("simgpu.share", "ratio", "lower", "wall", ALL, "simgpu", _EMU),
    # gpusteer host orchestration
    _m("gpusteer.step.self_us_p50", "us", "lower", "wall", FLOCKS, "gpusteer",
       "throughput_per_s on flock-grid and flock-small",
       json=False, why=ONE_WORKLOAD),
    _m("gpusteer.share", "ratio", "lower", "wall", ALL, "gpusteer",
       "throughput_per_s on flock-grid and flock-small"),
    # obs (shared by every layer)
    _m("obs.metrics.lookups_per_op", "count", "lower", "count", ALL, "obs",
       "throughput_per_s on serve-open-loop and on flock-small; op = one "
       "flock step or one request"),
    _m("obs.metrics.share", "ratio", "lower", "wall", ALL, "obs",
       "throughput_per_s on serve-open-loop and on flock-small"),
    # mem pool
    _m("mem.pool.hit_ratio", "ratio", "higher", "count", ALL, "mem", _SERVE),
    _m("mem.pool.alloc_us_p50", "us", "lower", "wall", ("serve-open-loop",),
       "mem", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("mem.share", "ratio", "lower", "wall", ALL, "mem", _SERVE),
    # serve
    _m("serve.submit_us_p50", "us", "lower", "wall", ("serve-open-loop",),
       "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.advance_us_p50", "us", "lower", "wall", ("serve-open-loop",),
       "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.admission.submit_us_p50", "us", "lower", "wall",
       ("serve-open-loop",), "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.batcher.ready_time_calls_per_req", "count", "lower", "count",
       ALL, "serve", _SERVE),
    _m("serve.batcher.ready_time_us_p50", "us", "lower", "wall",
       ("serve-open-loop",), "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.batcher.take_us_p50", "us", "lower", "wall", ("serve-open-loop",),
       "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.scheduler.launch_us_p50", "us", "lower", "wall",
       ("serve-open-loop",), "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.scheduler.finish_us_p50", "us", "lower", "wall",
       ("serve-open-loop",), "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.scheduler.free_devices_calls_per_req", "count", "lower", "count",
       ALL, "serve", _SERVE),
    _m("serve.batch_size_mean", "req", "higher", "count", ALL, "serve",
       "policy only: must not move unless a change alters batching policy"),
    _m("serve.queue_wait_ms_p50", "ms", "lower", "virtual", ("serve-open-loop",),
       "serve", "policy only", json=False, why=VIRTUAL),
    _m("serve.wall_per_virtual_s", "s/s", "lower", "wall", ("serve-open-loop",),
       "serve", _SERVE, json=False, why=ONE_WORKLOAD),
    _m("serve.share", "ratio", "lower", "wall", ALL, "serve", _SERVE),
    # the tracer itself
    _m("trace.overhead_ratio", "ratio", "higher", "wall", ALL, "trace",
       "traced / untraced throughput_per_s in the same process"),
]


def json_metrics(trace: bool) -> "list[dict]":
    """The metrics the result object carries in one mode."""
    return [m for m in (PER_LAYER if trace else END_TO_END) if m["json"]]
