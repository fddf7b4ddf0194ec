"""Checks of the benchmark itself: seeded inputs, repeatable work counters,
wrapper hygiene, and refusal to run without the library source.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

cartanlim = run.load_library()

import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = {"count/op", "count/call", "B/op"}
COUNT_FRACS = {"projgeo.equiv.heads_frac", "projgeo.uc.distinct_frac", "obstruct.flatness.growth_frac"}


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    builder, trace_cycles = workloads.WORKLOADS[workload]
    metrics, _, failed, _ = run.run_traced(workload, seed, 0.0, builder, trace_cycles, spans.discover())
    assert failed == 0
    return {k: v for k, (v, unit, _) in metrics.items() if unit in COUNT_UNITS or k in COUNT_FRACS}


def fingerprint(workload: str, seed: int) -> list[str]:
    builder, _ = workloads.WORKLOADS[workload]
    return [repr(op.inputs) for cycle in builder(seed) for op in cycle]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, 7)
    second = traced_counts(workload, 7)
    assert first == second
    assert any(first.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(workload):
    assert fingerprint(workload, 3) == fingerprint(workload, 3)
    assert fingerprint(workload, 3) != fingerprint(workload, 4)


def test_wrappers_replace_every_binding_and_are_removed():
    targets = spans.discover()
    original = cartanlim.limits.are_conjugate
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        for module in (cartanlim, cartanlim.cli, cartanlim.limits):
            assert module.are_conjugate is not original
        assert cartanlim.limits.projectively_equivalent is cartanlim.projgeo.projectively_equivalent
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped(targets)
    finally:
        tracer.uninstall()
    spans.assert_unwrapped(targets)
    assert cartanlim.cli.are_conjugate is original


def test_refuses_to_run_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
