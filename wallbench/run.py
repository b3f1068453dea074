"""Wall-clock benchmark of the CuPP stack: one workload, one seed.

    python3 wallbench/run.py --workload flock-small --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh process (``worker.py``) with
``PYTHONPATH=src``, one BLAS/OpenMP thread and ``PYTHONHASHSEED`` set
from the seed.  ``--trace 0`` runs the workload untraced and reports
the end-to-end metrics; ``setup_s`` is the median over seven fresh
processes (six that only set up, plus the measured one).  ``--trace
1`` runs it with span wrappers and reports the per-layer metrics,
writing the spans to ``.wallbench/<workload>-seed<seed>.trace.json``.

Every metric is printed by name with its value, unit and clock, then a
machine fingerprint, then the output checks.  The last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed, 2 on
a usage error or a tree without the program's sources, and 3 when a
workload process failed.  See ``README.md`` and ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Processes that only set up; with the measured one, seven setup samples.
SETUP_PROBES = 6
#: Every process this command starts ends within this many seconds.
DEADLINE_S = 170.0


def _fail(code: int, message: str) -> int:
    print(f"wallbench: {message}", file=sys.stderr)
    return code


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _worker(args, mode: str, deadline: float, extra=()) -> dict:
    """Run one workload process to completion; its result dict."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--size", args.size,
        *extra,
    ]
    t0 = time.monotonic()
    done = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        env=_child_env(args.seed), cwd=str(ROOT), stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - t0),
    )
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="wallbench/run.py", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--workload", required=True, choices=tuple(spec.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one output before it is checked (self-test "
                    "of the output check; the run must fail)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(2, f"no program sources under {ROOT / 'src'}; run from a full checkout")

    out_dir = ROOT / ".wallbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    deadline = time.monotonic() + DEADLINE_S
    extra = ["--perturb"] if args.perturb else []
    try:
        if args.trace:
            trace_file = out_dir / f"{stem}.trace.json"
            result = _worker(args, "trace", deadline, [*extra, "--trace-file", str(trace_file)])
            setup = []
        else:
            setup = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            result = _worker(args, "run", deadline, extra)
            setup.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setup)
    except subprocess.TimeoutExpired:
        return _fail(3, f"a workload process overran the {DEADLINE_S:.0f} s deadline")
    except (RuntimeError, ValueError) as exc:
        return _fail(3, str(exc))

    metrics = result["metrics"]
    catalogue = spec.PER_LAYER if args.trace else spec.END_TO_END
    wanted = spec.json_metrics(bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(3, f"workload process did not report {', '.join(missing)}")

    print(f"wallbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"  workload: {spec.WORKLOADS[args.workload]}")
    machine = {
        "cpu": _cpu_model(), "nproc": os.cpu_count(), "python": result["python"],
        "numpy": result["numpy"], "commit": _git_commit(),
    }
    print("  machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        print(f"  traced window, then an untraced window of {result['samples']} steps")
    else:
        print(f"  timed window: {result['samples']} steps, {result['beyond_p90']} beyond "
              f"p90; setup_s from {len(setup)} processes")
    for m in catalogue:
        if args.workload not in m["workloads"] and not m["json"]:
            continue
        value = metrics.get(m["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        tail = "" if m["json"] else f"  [not in result: {m['why_not_json']}]"
        print(f"  {m['name']:<44} {shown:>14} {m['unit']:<6} {m['clock']:<7}{tail}")
    for key, lines in result.get("layers", {}).items():
        if isinstance(lines, list):
            print(f"  {key}:")
            for line in lines:
                print(f"    {line}")
        else:
            print(f"  {key}: {lines}")
    if args.workload == "serve-open-loop":
        print("  open loop in virtual time: arrivals are due at virtual instants, "
              "so the generator is never late")
    for note in result["notes"]:
        print(f"  {note}")
    print(f"  output checks: {result['attempted']} attempted, {result['failed']} failed")

    record = dict(result, seed=args.seed, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, machine=machine, setup_samples=setup)
    with open(out_dir / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
