"""The traced run: spans at the program's layer boundaries, from outside.

:class:`Tracer` wraps public methods of the program's classes (the
table :data:`TARGETS`) for the duration of a traced window.  Each call
becomes a span ``[name, start, end, parent]`` kept in memory; at the
end the spans are written as Chrome-trace JSON with the program's own
exporter and read back through :mod:`repro.obs.analyze`, whose span
forest gives each span's self time (its duration minus its children's)
and whose analysis gives the critical path.  Counts come from the
program's always-on metrics registry and transfer ledger, as deltas
over the traced window.

The program's own tracer, profiler and fault injector stay off, so the
traced and the untraced window run the same program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

from repro import obs
from repro.obs.analyze import analyze, build_forest, load_events
from repro.obs.export import write_chrome_trace
from repro.obs.tracer import TraceEvent

#: ``(module, class, method, span name)``; the span name's first
#: component is the layer.
TARGETS = [
    ("repro.gpusteer.emulated", "EmulatedBoids", "step", "gpusteer.step"),
    ("repro.cupp.kernel", "Kernel", "__call__", "cupp.kernel"),
    ("repro.cupp.vector", "Vector", "get_device_reference", "cupp.vector.ref"),
    ("repro.cupp.vector", "Vector", "get_device_reference_readonly", "cupp.vector.ref"),
    ("repro.cupp.containers.hashgrid", "HashGrid", "build", "cupp.containers.build"),
    ("repro.cuda.runtime", "CudaRuntime", "cudaLaunch", "cuda.launch"),
    ("repro.cuda.runtime", "CudaRuntime", "cudaMemcpy", "cuda.memcpy"),
    ("repro.cuda.runtime", "CudaRuntime", "cudaMalloc", "cuda.malloc"),
    ("repro.backend.native", "NativeDevice", "launch", "backend.native.launch"),
    ("repro.simgpu.device", "SimDevice", "launch", "simgpu.launch"),
    ("repro.obs.metrics", "MetricsRegistry", "counter", "obs.metrics.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs.metrics.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "histogram", "obs.metrics.lookup"),
    ("repro.mem.pool", "MemoryPool", "alloc", "mem.pool.alloc"),
    ("repro.serve.service", "SimulationService", "submit", "serve.submit"),
    ("repro.serve.service", "SimulationService", "advance", "serve.advance"),
    ("repro.serve.admission", "AdmissionController", "submit", "serve.admission.submit"),
    ("repro.serve.batcher", "DynamicBatcher", "ready_time", "serve.batcher.ready_time"),
    ("repro.serve.batcher", "DynamicBatcher", "take", "serve.batcher.take"),
    ("repro.serve.scheduler", "DeviceScheduler", "launch", "serve.scheduler.launch"),
    ("repro.serve.scheduler", "DeviceScheduler", "finish", "serve.scheduler.finish"),
    ("repro.serve.scheduler", "DeviceScheduler", "free_devices", "serve.scheduler.free_devices"),
]

#: Span name prefix -> the ``<layer>.share`` metric its self time counts in.
SHARE = {
    "cupp": "cupp.share",
    "cuda": "cuda.share",
    "backend": "backend.native.share",
    "simgpu": "simgpu.share",
    "gpusteer": "gpusteer.share",
    "obs": "obs.metrics.share",
    "mem": "mem.share",
    "serve": "serve.share",
}

#: The root span around each timed op.
ROOT = "bench.step"

#: The traced window ends early once this many spans are held.
SPAN_BUDGET = 150_000


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _counts() -> dict:
    counters = obs.get_metrics().snapshot()["counters"]
    ledger = obs.get_ledger()
    counters["h2d"] = ledger.moved_bytes("h2d")
    counters["d2h"] = ledger.moved_bytes("d2h")
    return counters


def _sum(counts: dict, prefix: str) -> float:
    return sum(v for k, v in counts.items() if k == prefix or k.startswith(prefix + "{"))


class Tracer:
    """Install wrappers, record spans, derive the per-layer metrics."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.stack: "list[int]" = []
        self.on = False

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module, cls, attr, name in TARGETS:
                owner = getattr(importlib.import_module(module), cls)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name))
                patched.append((owner, attr, original))
            yield self
        finally:
            self.on = False
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            label = name
            if name == "backend.native.launch":
                label = f"{name}:{getattr(args[1], '__name__', 'kernel')}"
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "simgpu.launch":
                span[4] = result.profile.total_instructions
            return result

        return wrapper

    def run(self, workload, seconds: float, min_samples: int, loop):
        """The traced window: ``loop`` (the worker's timed loop) over
        ``workload`` with one root span per op; untimed work between ops
        is not recorded."""
        tracer = self

        class Traced:
            def between(self):
                tracer.on = False
                workload.between()
                tracer.on = True

            def op(self):
                span = [ROOT, 0.0, 0.0, -1, 0]
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[1] = time.perf_counter()
                work = workload.op()
                span[2] = time.perf_counter()
                tracer.stack.pop()
                span[4] = work
                return work

        self.before = _counts()
        self.on = True
        try:
            samples = loop(Traced(), seconds, min_samples,
                           stop=lambda: len(self.spans) >= SPAN_BUDGET)
        finally:
            self.on = False
        self.after = _counts()
        return samples

    def metrics(self, path: str, traced, untraced, rate, exact_steps: int) -> dict:
        """Per-layer metrics of the traced window; writes the trace.
        Instruction counts per step are taken over the first
        ``exact_steps`` traced steps, so they repeat exactly."""
        events = [
            TraceEvent(
                name=name, kind="span", ts=t0, dur=t1 - t0, tid=1, depth=0,
                parent=self.spans[parent][0] if parent >= 0 else None,
                args={"n": n} if n else {},
            )
            for name, t0, t1, parent, n in self.spans
        ]
        write_chrome_trace(path, events, process_name="wallbench")
        events = load_events(path)
        analysis = analyze(events)
        roots = [r for r in build_forest(events) if r.name == ROOT]
        roots.sort(key=lambda r: r.event.ts)

        # Per-span self times, and the instructions of the first steps.
        selfs: "dict[str, list[float]]" = {}
        instructions_first = 0
        stack = [(r, i < exact_steps) for i, r in enumerate(roots)]
        while stack:
            node, first = stack.pop()
            selfs.setdefault(node.name, []).append(node.self_s)
            if first and node.name == "simgpu.launch":
                instructions_first += node.event.args.get("n", 0)
            stack.extend((c, first) for c in node.children)
        instructions = sum(e.args.get("n", 0) for e in events if e.name == "simgpu.launch")
        durations = {name: st.durations for name, st in analysis.spans.items()}
        shares = dict.fromkeys(SHARE.values(), 0.0)
        for name, st in analysis.spans.items():
            share = SHARE.get(name.split(".", 1)[0])
            if share is not None:
                shares[share] += st.self_s

        steps = len(roots)
        wall = sum(r.dur for r in roots) or 1e-12
        work = sum(r.event.args.get("n", 0) for r in roots)
        serve = "serve.submit" in durations
        ops = work if serve else steps
        delta = {k: v - self.before.get(k, 0) for k, v in self.after.items()}

        def per_step(x: float) -> float:
            return x / steps if steps else 0.0

        def count(name: str) -> int:
            return len(durations.get(name, ()))

        def us(name: str, table=durations) -> float:
            return _p50(table.get(name, ())) * 1e6

        refs = count("cupp.vector.ref")
        uploads = _sum(delta, "cupp.vector.uploads")
        hits = _sum(delta, "mem.pool.hits")
        misses = _sum(delta, "mem.pool.misses")
        sim_s = sum(durations.get("simgpu.launch", ()))
        native = {k: v for k, v in durations.items() if k.startswith("backend.native.launch:")}
        out = {
            "cupp.kernel.calls_per_step": per_step(count("cupp.kernel")),
            "cupp.kernel.self_us_p50": us("cupp.kernel", selfs),
            "cupp.vector.ref_us_p50": us("cupp.vector.ref"),
            "cupp.vector.lazy_hit_ratio": (refs - uploads) / refs if refs else 0.0,
            "cupp.vector.h2d_bytes_per_step": per_step(delta["h2d"]),
            "cupp.vector.d2h_bytes_per_step": per_step(delta["d2h"]),
            "cupp.containers.build_ms_p50": us("cupp.containers.build") / 1e3,
            "cuda.launch.self_us_p50": us("cuda.launch", selfs),
            "cuda.malloc.calls_per_step": per_step(_sum(delta, "cuda.malloc.count")),
            "cuda.memcpy.calls_per_step": per_step(_sum(delta, "cuda.memcpy.count")),
            "cuda.memcpy.us_p50": us("cuda.memcpy"),
            "backend.native.simulate_ms_p50": _p50(
                [d for k, v in native.items() if ":simulate" in k for d in v]) * 1e3,
            "backend.native.modify_ms_p50": _p50(
                [d for k, v in native.items() if ":modify" in k for d in v]) * 1e3,
            "simgpu.launch_s_p50": _p50(durations.get("simgpu.launch", ())),
            "simgpu.warp_issues_per_step": (
                instructions_first / min(steps, exact_steps) if steps else 0.0),
            "simgpu.warp_issues_per_s": instructions / sim_s if sim_s else 0.0,
            "gpusteer.step.self_us_p50": us("gpusteer.step", selfs),
            "obs.metrics.lookups_per_op": count("obs.metrics.lookup") / ops if ops else 0.0,
            "mem.pool.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "mem.pool.alloc_us_p50": us("mem.pool.alloc"),
            "serve.submit_us_p50": us("serve.submit"),
            "serve.advance_us_p50": us("serve.advance"),
            "serve.admission.submit_us_p50": us("serve.admission.submit"),
            "serve.batcher.ready_time_calls_per_req": (
                count("serve.batcher.ready_time") / work if serve else 0.0),
            "serve.batcher.ready_time_us_p50": us("serve.batcher.ready_time"),
            "serve.batcher.take_us_p50": us("serve.batcher.take"),
            "serve.scheduler.launch_us_p50": us("serve.scheduler.launch"),
            "serve.scheduler.finish_us_p50": us("serve.scheduler.finish"),
            "serve.scheduler.free_devices_calls_per_req": (
                count("serve.scheduler.free_devices") / work if serve else 0.0),
            "serve.batch_size_mean": 0.0,
            "trace.overhead_ratio": rate(traced) / rate(untraced),
        }
        out.update({k: v / wall for k, v in shares.items()})
        self.report = {
            "traced_steps": steps,
            "spans": len(self.spans),
            "critical_path": [
                f"{name} {total * 1e3:.3f} ms (self {own * 1e3:.3f} ms)"
                for name, total, own in analysis.critical_path
            ],
            "self_time_top": [
                f"{name} {own / wall:.1%}" for name, own in analysis.breakdown[:8]
            ],
        }
        return out
