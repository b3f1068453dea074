"""One workload process of the wall-clock benchmark.

``run.py`` starts this file once per measurement in a fresh interpreter
(``PYTHONPATH=src``, one BLAS thread, ``PYTHONHASHSEED`` set from the
seed) and reads the single JSON line it prints last.  Modes:

* ``setup`` -- build the workload, warm it up, report ``setup_s``, exit;
* ``run``   -- the untraced run: setup, timed window, output checks;
* ``trace`` -- setup, a traced window (span wrappers from ``layers.py``
  on), an untraced window, per-layer metrics from the spans.

``setup_s`` runs from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process) to the first timed operation.

The program is driven only through its public API: ``EmulatedBoids``
on a ``cupp.Device`` for the flocks, ``SimulationService.submit`` /
``advance`` / ``drain`` for serving.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

import spec

#: Workload sizes.  ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "flock-small": dict(n=64, version=5, backend="native", ref=("sim", 5), warmup=3),
        "flock-grid": dict(n=1024, version=6, backend="native", ref=("native", 5), warmup=2),
        "flock-emulated": dict(n=32, version=5, backend="sim", ref=("native", 5), warmup=2),
        "serve-open-loop": dict(sessions=32, rate=16000.0, horizon=1.0, slice=64, warm_horizon=0.02),
        "min_samples": 100,
    },
    "tiny": {
        "flock-small": dict(n=32, version=5, backend="native", ref=("sim", 5), warmup=2),
        "flock-grid": dict(n=64, version=6, backend="native", ref=("native", 5), warmup=2),
        "flock-emulated": dict(n=32, version=5, backend="sim", ref=("native", 5), warmup=1),
        "serve-open-loop": dict(sessions=4, rate=4000.0, horizon=0.05, slice=16, warm_horizon=0.005),
        "min_samples": 10,
    },
}

#: Steps over which exact virtual-clock figures are taken.
VIRTUAL_STEPS = 10


def _state(boids) -> "dict[str, np.ndarray]":
    return {k: np.array(v, copy=True) for k, v in boids.snapshot().items()}


def _identical(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[k], b[k]) for k in a)


class Flock:
    """``EmulatedBoids`` stepped on one backend; one op is one step.

    Output checks: the states after the warm-up steps are bit-identical
    to a reference run (another backend or version at the same seed),
    and the final state is finite, with unit forwards, speeds within
    ``max_speed`` and positions within one step of the world sphere.
    """

    def __init__(self, seed: int, n: int, version: int, backend: str,
                 ref: "tuple[str, int]", warmup: int) -> None:
        self.seed, self.n, self.version, self.backend = seed, n, version, backend
        self.ref, self.warmup = ref, warmup
        self.perturb = False
        self.virtual_ms: "list[float]" = []
        self.virtual_s = 0.0

    def setup(self) -> None:
        from repro.cupp.device import Device
        from repro.gpusteer.emulated import EmulatedBoids

        self.boids = EmulatedBoids(
            self.n, self.version, seed=self.seed, device=Device(backend=self.backend)
        )
        self.warm_states = []
        for _ in range(self.warmup):
            self.boids.step()
            self.warm_states.append(_state(self.boids))
        self.events = None
        if self.backend == "sim":
            rt = self.boids.device.runtime
            start, end = rt.cudaEventCreate()[1], rt.cudaEventCreate()[1]
            self.events = (rt, start, end)

    def between(self) -> None:
        pass

    def op(self) -> int:
        if self.events is None:
            self.boids.step()
            return self.n
        rt, start, end = self.events
        rt.cudaEventRecord(start)
        self.boids.step()
        rt.cudaEventRecord(end)
        if len(self.virtual_ms) < VIRTUAL_STEPS:
            self.virtual_ms.append(rt.cudaEventElapsedTime(start, end)[1])
        return self.n

    def finish(self) -> None:
        pass

    def check(self) -> "tuple[int, int, bool, list[str]]":
        from repro.cupp.device import Device
        from repro.gpusteer.emulated import EmulatedBoids

        notes = []
        final = _state(self.boids)
        ref_backend, ref_version = self.ref
        ref = EmulatedBoids(
            self.n, ref_version, seed=self.seed, device=Device(backend=ref_backend)
        )
        failed = 0
        for k, got in enumerate(self.warm_states):
            ref.step()
            if self.perturb and k == 0:
                got = dict(got, positions=got["positions"].copy())
                got["positions"][0, 0] = np.nextafter(got["positions"][0, 0], np.inf)
            if not _identical(got, _state(ref)):
                failed += 1
                notes.append(
                    f"step {k + 1}: state differs from {ref_backend} v{ref_version}"
                )
        p = self.boids.params
        speeds = final["speeds"]
        fwd_norm = np.linalg.norm(final["forwards"], axis=1)
        radius = np.linalg.norm(final["positions"], axis=1)
        ok = (
            all(np.isfinite(v).all() for v in final.values())
            and speeds.min() >= 0.0
            and speeds.max() <= p.max_speed * (1 + 1e-6)
            and np.abs(fwd_norm - 1.0).max() <= 1e-3
            and radius.max() <= p.world_radius + p.max_speed * p.dt + 1e-3
        )
        if not ok:
            failed += 1
            notes.append("final state breaks a flock invariant")
        notes.append(
            f"checks: {len(self.warm_states)} steps bit-identical to "
            f"{ref_backend} v{ref_version}, final-state invariants"
        )
        return len(self.warm_states) + 1, failed, failed == 0, notes

    def virtual(self) -> dict:
        if not self.virtual_ms:
            return {}
        return {"virtual_step_us": statistics.fmean(self.virtual_ms) * 1e3}


class Serve:
    """``SimulationService`` replaying a seeded open-loop Poisson schedule.

    The schedule is replayed in rounds of ``horizon`` virtual seconds,
    each on a fresh service, so memory does not grow with run length.
    One op is one slice of ``slice`` consecutive arrivals (``advance``
    to each arrival, then ``submit``).  Round changes (drain, check, new
    service) run between ops, outside the timed steps.  The loop is open
    in virtual time: arrivals are due at virtual instants, so the
    generator can never be late.
    """

    def __init__(self, seed: int, sessions: int, rate: float, horizon: float,
                 slice: int, warm_horizon: float) -> None:
        self.seed, self.sessions, self.rate = seed, sessions, rate
        self.horizon, self.slice, self.warm_horizon = horizon, slice, warm_horizon
        self.round = 0
        self.offered = self.completed = self.check_failures = 0
        self.notes: "list[str]" = []
        self.first_round: "dict | None" = None
        self.virtual_s = 0.0
        self.perturb = False

    def _service(self):
        from repro.serve.service import ServeConfig, SimulationService

        svc = SimulationService(ServeConfig(physics=False, devices=2, streams=2))
        for i in range(self.sessions):
            svc.create_session(f"client-{i}", seed=self.seed + i)
        return svc

    def _schedule(self, key: int, horizon: float):
        """``run_load``'s recipe: exponential gaps, uniform owners."""
        rng = np.random.default_rng([self.seed, key])
        gaps = rng.exponential(1.0 / self.rate, size=max(1, int(self.rate * horizon * 2)))
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < horizon]
        owners = rng.integers(0, self.sessions, size=arrivals.size)
        return arrivals.tolist(), [f"client-{o}" for o in owners]

    def _open_round(self) -> None:
        from repro import obs

        self.svc = self._service()
        self.arrivals, self.owners = self._schedule(self.round + 1, self.horizon)
        self.pos = 0
        self.requests = []
        self.counters_before = obs.get_metrics().snapshot()["counters"]

    def setup(self) -> None:
        warm = self._service()
        arrivals, owners = self._schedule(0, self.warm_horizon)
        for t, owner in zip(arrivals, owners):
            warm.advance(t)
            warm.submit(owner)
        warm.drain()
        self._open_round()

    def between(self) -> None:
        if self.pos >= len(self.arrivals):
            self._close_round()
            self.round += 1
            self._open_round()

    def op(self) -> int:
        svc, arrivals, owners, requests = self.svc, self.arrivals, self.owners, self.requests
        lo = self.pos
        hi = min(lo + self.slice, len(arrivals))
        for i in range(lo, hi):
            svc.advance(arrivals[i])
            requests.append(svc.submit(owners[i]))
        self.pos = hi
        self.virtual_s += arrivals[hi - 1] - (arrivals[lo - 1] if lo else 0.0)
        return hi - lo

    def finish(self) -> None:
        self._close_round()

    def _close_round(self) -> None:
        from repro import obs
        from repro.serve.request import RequestStatus, TERMINAL_STATUSES

        svc = self.svc
        svc.drain()
        requests = self.requests
        if self.perturb and self.round == 0:
            requests = requests[:-1]  # a lost request must trip the check
        after = obs.get_metrics().snapshot()["counters"]

        def outcome(name: str) -> int:
            key = f"repro.request.outcome{{component=serve,outcome={name}}}"
            return after.get(key, 0) - self.counters_before.get(key, 0)

        by_status = {s: 0 for s in RequestStatus}
        for r in requests:
            by_status[r.status] += 1
        offered = len(requests)
        done = by_status[RequestStatus.DONE]
        terminal = sum(by_status[s] for s in TERMINAL_STATUSES)
        problems = []
        if terminal != offered:
            problems.append(f"{offered - terminal} requests without a terminal status")
        if svc.stats.submitted != offered:
            problems.append(f"service saw {svc.stats.submitted} submits, replay made {offered}")
        if svc.stats.completed != done:
            problems.append(f"service completed {svc.stats.completed}, {done} requests DONE")
        # Each request counted in exactly one terminal outcome.
        for status in TERMINAL_STATUSES:
            if outcome(status.value) != by_status[status]:
                problems.append(
                    f"outcome counter {status.value}={outcome(status.value)}, "
                    f"requests in that status={by_status[status]}"
                )
        if any(r.finish_s is not None and r.finish_s < r.arrival_s for r in requests):
            problems.append("a request finished before it arrived")
        self.offered += offered
        self.completed += done
        self.check_failures += len(problems)
        self.notes.extend(f"round {self.round}: {p}" for p in problems)
        if self.round == 0:
            lat = [r.latency_s * 1e3 for r in requests if r.status is RequestStatus.DONE]
            waits = [r.queue_wait_s * 1e3 for r in requests if r.queue_wait_s is not None]
            self.first_round = {
                "complete": self.pos >= len(self.arrivals),
                "virtual_latency_p50_ms": float(np.percentile(lat, 50)) if lat else 0.0,
                "virtual_latency_p99_ms": float(np.percentile(lat, 99)) if lat else 0.0,
                "serve.queue_wait_ms_p50": float(np.percentile(waits, 50)) if waits else 0.0,
                "serve.batch_size_mean": svc.stats.mean_batch_size,
            }
        self.svc = self.requests = None

    def check(self) -> "tuple[int, int, bool, list[str]]":
        notes = list(self.notes)
        notes.append(
            f"checks: {self.round + 1} rounds; completed + rejected + shed + "
            "expired + failed = offered, one terminal outcome per request"
        )
        failed = min(self.offered, self.offered - self.completed + self.check_failures)
        return max(self.offered, 1), failed, self.check_failures == 0, notes

    def virtual(self) -> dict:
        fr = dict(self.first_round or {})
        if fr and not fr.pop("complete"):
            self.notes.append("first round cut by the timed window: virtual figures not exact")
        return fr


def make_workload(name: str, seed: int, size: str):
    cfg = SIZES[size][name]
    if name == "serve-open-loop":
        return Serve(seed, **cfg)
    return Flock(seed, **cfg)


def timed_loop(workload, seconds: float, min_samples: int, stop=None) -> "list[tuple[float, int]]":
    """Run ops for ``seconds`` (and at least ``min_samples`` ops, up to
    twice ``seconds``); returns ``(wall_s, work)`` per op.  ``stop`` is
    an extra early-exit predicate checked between ops."""
    samples = []
    clock = time.perf_counter
    begin = clock()
    while True:
        workload.between()
        t0 = clock()
        work = workload.op()
        t1 = clock()
        samples.append((t1 - t0, work))
        elapsed = t1 - begin
        if elapsed >= 2 * seconds:
            break
        if len(samples) >= min_samples and (elapsed >= seconds or (stop and stop())):
            break
    return samples


def rate(samples) -> float:
    """Median over timed steps of work per wall-second.  Unlike the
    total work over the total time, it ignores the host stalling one
    step for tens of milliseconds."""
    return statistics.median(work / wall for wall, work in samples)


def step_metrics(samples) -> "tuple[dict, int]":
    """The step-time metrics, and how many samples lie beyond p90."""
    walls = [wall for wall, _ in samples]
    p90 = statistics.quantiles(walls, n=10)[8]
    return {
        "throughput_per_s": rate(samples),
        "step_ms_p50": statistics.median(walls) * 1e3,
        "step_ms_p90": p90 * 1e3,
    }, sum(w > p90 for w in walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.size)
    workload.perturb = args.perturb
    min_samples = SIZES[args.size]["min_samples"]
    workload.setup()
    gc.collect()
    setup_s = time.monotonic() - args.t0
    from repro import obs
    from repro.prof import hook

    if obs.enabled() or hook.active() is not None:
        sys.exit("the program's own tracer or kernel profiler is on; both must be off")
    out: dict = {"setup_s": setup_s, "numpy": np.__version__,
                 "python": platform.python_version()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    metrics: dict = {}
    if args.mode == "run":
        samples = timed_loop(workload, args.seconds, min_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        steps, out["beyond_p90"] = step_metrics(samples)
        metrics.update(steps)
        metrics["setup_s"] = setup_s
    else:
        from layers import Tracer

        tracer = Tracer()
        window = min(min_samples, VIRTUAL_STEPS)
        with tracer.installed():
            traced = tracer.run(workload, args.seconds / 2, window, timed_loop)
        workload.virtual_s = 0.0
        untraced = timed_loop(workload, args.seconds / 2, window)
        metrics.update(tracer.metrics(args.trace_file, traced, untraced, rate, VIRTUAL_STEPS))
        out["layers"] = tracer.report
        if workload.virtual_s:
            metrics["serve.wall_per_virtual_s"] = (
                sum(wall for wall, _ in untraced) / workload.virtual_s
            )
    workload.finish()
    table = spec.PER_LAYER if args.mode == "trace" else spec.END_TO_END
    names = {m["name"] for m in table}
    metrics.update((k, v) for k, v in workload.virtual().items() if k in names)
    attempted, failed, correct, notes = workload.check()
    metrics["fail_ratio"] = failed / attempted if attempted else 1.0
    out.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=correct,
        notes=notes,
        samples=len(samples) if args.mode == "run" else len(untraced),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
