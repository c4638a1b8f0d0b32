"""Smoke test of the benchmark at tiny sizes, two ops per workload.

    python -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is reported with its unit, that the
trace wrappers are transparent (same output bytes, span counts equal to a
profiler count and to the counts the code implies), and that the launcher
refuses to run without heatback's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "modes": 16, "bank": 4, "trials": 2,
    "global_modes": 32, "global_pool": 3,
    "fd_modes": 16, "fd_interior": 400, "fd_steps": 400,
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(name, trace):
    result = bench.run_workload(name, seed=3, seconds=60.0, trace=trace, sizes=TINY, max_ops=2)
    assert result["failed"] == 0, result["detail"]["failures"]
    assert result["correct"], result["detail"]["checks"]
    return result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_end_to_end_metrics_have_names_and_units(name):
    result = _run(name, trace=0)
    assert result["attempted"] == 3  # two timed ops and the warm-up
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_trace_is_transparent(name):
    result = _run(name, trace=1)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("per_layer")
    detail = result["detail"]
    assert detail["checks"]["traced_outputs_identical"]
    assert detail["checks"]["span_counts_match_profiler"]
    assert detail["absent"] == []
    wl = bench.WORKLOADS[name](TINY)
    for span, expected in wl.expected_counts().items():
        assert detail["one_op_spans"][span] == expected


def test_benchmark_sizes_imply_the_documented_counts():
    assert bench.Sweep(bench.FULL).expected_counts() == {
        "spectral.eigmat": 72, "control.factor": 64,
    }
    assert bench.Oracle(bench.FULL).expected_counts() == {"fd.banded_solve": 2000}


def test_missing_call_site_is_reported_absent():
    import heatback.harness

    tracer = tracing.Tracer()
    tracer.install(tracing.SITES + (("x.gone", "heatback.harness", "no_such_function"),))
    try:
        assert tracer.absent == ["x.gone (heatback.harness.no_such_function)"]
        assert heatback.harness.run_sweep.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(heatback.harness.run_sweep, "__wrapped__")


def test_launcher_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
