"""cartanlim benchmark: closed-loop workloads over the library and its CLI.

Run one workload from the repository root:

    python3 bench/run.py --workload projective --seed 1 --seconds 30 --trace 0

One process with one caller sends the next operation when the previous one
returns.  `--trace 0` measures the end-to-end metrics with no wrapper
installed; `--trace 1` alternates untraced and traced passes over a fixed
operation list and reports the per-layer metrics.  `--workload all` runs every
workload both ways, each in its own process, and records the runs with
`--out`.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

End-to-end times are calibrated: a fixed reference kernel is timed before
every operation and each wall time is rescaled to a machine on which the
kernel takes exactly REFERENCE_S.  The raw wall-clock figures are printed
beside them under `wall.`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli", "projective", "conjugacy")
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
SETUP_RUNS = 5
MIN_SAMPLES = 100  # so that at least ten latency samples lie above p90
CHILD_TIMEOUT_S = 170
KERNEL_TERMS = 200
REFERENCE_S = 0.001


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write every run's record as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library():
    """Import cartanlim from this checkout's source tree, and nowhere else."""
    if not (SRC / "cartanlim" / "__init__.py").is_file() or not (ROOT / "fixtures" / "manifest.json").is_file():
        raise SystemExit(f"run.py: no cartanlim source or fixtures under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cartanlim

    if Path(cartanlim.__file__).resolve().parent != SRC / "cartanlim":
        raise SystemExit(f"run.py: imported cartanlim from {cartanlim.__file__}, not from {SRC}")
    return cartanlim


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(version: str, workload: str, seed: int, trace: int, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cartanlim": version,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops_per_run": ops,
    }


def child_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), *extra]


def timed(op) -> tuple[float, bool]:
    """Run one operation; returns (wall seconds, passed its check)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed one
        elapsed = time.perf_counter() - start
        print(f"# {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    ok = op.check(result)
    if not ok:
        print(f"# {op.label}: wrong result", file=sys.stderr)
    return elapsed, ok


def reference_kernel() -> float:
    """Seconds taken by a fixed Fraction computation that uses no cartanlim
    code.  Its duration tracks the speed the machine gives this process."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS + 1):
        total += Fraction(1, i)
    return time.perf_counter() - start


def calibrate(wall_s: list[float], kernel_s: list[float], half_window: int = 4) -> list[float]:
    """Wall times rescaled by REFERENCE_S over the median kernel time of each
    sample's neighbourhood."""
    return [
        w * REFERENCE_S / statistics.median(kernel_s[max(0, i - half_window) : i + half_window + 1])
        for i, w in enumerate(wall_s)
    ]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds from process start to inputs built, in fresh interpreters,
    and the kernel seconds timed just before each one."""
    walls, kernels = [], []
    for _ in range(SETUP_RUNS):
        kernels.append(statistics.median(reference_kernel() for _ in range(5)))
        start = time.perf_counter()
        proc = subprocess.Popen(child_command(workload, seed, "--setup-only"), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return walls, kernels


def latency_metrics(prefix: str, latencies_s: list[float]) -> dict:
    ms = sorted(1000 * x for x in latencies_s)
    n = len(ms)
    return {
        f"{prefix}ops_per_s": (1000 * n / sum(ms), "1/s", n),
        f"{prefix}latency_p50_ms": (statistics.median(ms), "ms", n),
        f"{prefix}latency_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms", n),
    }


def run_end_to_end(workload: str, seed: int, seconds: float, cycles, targets) -> tuple[dict, int, int]:
    """The closed loop with tracing off, in whole cycles, with the reference
    kernel timed before every operation."""
    import spans

    spans.assert_unwrapped(targets)
    setup_wall, setup_kernel = measure_setup(workload, seed)
    timed(cycles[0][0])  # warm-up: first calls, file cache
    latencies: list[float] = []
    kernels: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        for op in cycles[len(latencies) // len(cycles[0]) % len(cycles)]:
            kernels.append(reference_kernel())
            elapsed, ok = timed(op)
            latencies.append(elapsed)
            failed += not ok
        if time.perf_counter() - start >= seconds and len(latencies) >= MIN_SAMPLES:
            break
    spans.assert_unwrapped(targets)
    n = len(latencies)
    metrics = latency_metrics("", calibrate(latencies, kernels))
    metrics["failed_frac"] = (failed / n, "frac", n)
    metrics["setup_s"] = (statistics.median(calibrate(setup_wall, setup_kernel, 0)), "s", len(setup_wall))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics.update(latency_metrics("wall.", latencies))
    metrics["wall.setup_s"] = (statistics.median(setup_wall), "s", len(setup_wall))
    metrics["wall.kernel_ms"] = (1000 * statistics.median(kernels), "ms", n)
    return metrics, n, failed


def run_traced(workload: str, seed: int, seconds: float, builder, trace_cycles: int, targets):
    """Alternate untraced and traced passes over the leading cycles, at least
    one of each.  Returns (metrics, attempted, failed, tracer)."""
    import spans
    import workloads

    tracer = spans.Tracer(targets)
    tracer.install()
    built = builder(seed)
    tracer.uninstall()
    setup_inputs = sum(len(c) for c in built)
    ops = [op for cycle in built[:trace_cycles] for op in cycle]
    del built

    untraced_wall = traced_wall = 0.0
    traced_ops = failed = 0
    case_ms: dict[str, list[float]] = {}
    start = time.perf_counter()
    while traced_ops == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            elapsed, ok = timed(op)
            untraced_wall += elapsed
            failed += not ok
            case_ms.setdefault(op.label, []).append(1000 * elapsed)
        tracer.install()
        for op in ops:
            tracer.op = traced_ops
            elapsed, ok = timed(op)
            traced_wall += elapsed
            traced_ops += 1
            failed += not ok
        tracer.uninstall()

    metrics = {
        name: (value, unit, traced_ops)
        for name, (value, unit) in spans.layer_metrics(tracer.spans, traced_ops, traced_wall, setup_inputs).items()
    }
    for case in workloads.manifest_cases():
        samples = case_ms.get(case["name"], []) if workload == "cli" else []
        metrics[f"cli.case.{case['name']}_ms"] = (statistics.median(samples) if samples else 0.0, "ms", len(samples))
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac", traced_ops)
    return metrics, 2 * traced_ops, failed, tracer


def run_one(args) -> int:
    lib = load_library()
    import spans
    import workloads

    builder, trace_cycles = workloads.WORKLOADS[args.workload]
    targets = spans.discover()
    if args.setup_only:
        builder(args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, attempted, failed, tracer = run_traced(
            args.workload, args.seed, args.seconds, builder, trace_cycles, targets
        )
        tracer.write(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        reported = list(metrics)
    else:
        metrics, attempted, failed = run_end_to_end(args.workload, args.seed, args.seconds, builder(args.seed), targets)
        reported = END_TO_END
    env = environment(lib.__version__, args.workload, args.seed, args.trace, attempted)
    print("# environment " + json.dumps(env))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit:10s} n={samples}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced and traced, each in its own process."""
    records = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = child_command(workload, args.seed, "--seconds", str(args.seconds), "--trace", str(trace))
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"run.py: {workload} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            records.append(
                {
                    "environment": json.loads(lines[0].removeprefix("# environment ")),
                    "summary": lines[1:-1],
                    **json.loads(lines[-1]),
                }
            )
    correct = all(r["correct"] for r in records)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "runs": records}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "runs": len(records)}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        load_library()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
