"""Smoke tests: every example script runs to completion.

The heavyweight sweep examples are exercised with the library-level tests
and benchmarks; here each example script is executed as a real subprocess
(the way users run them) and its output spot-checked.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_complete():
    names = {path.name for path in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 6  # quickstart + >= 5 scenario examples


def test_quickstart():
    out = run_example("quickstart.py")
    assert "dbi-opt" in out
    assert "52.0" in out  # the paper's optimal cost


def test_fig2_shortest_path():
    out = run_example("fig2_shortest_path.py")
    assert "cost=52" in out
    assert "Pareto-optimal" in out


def test_streaming_writes():
    out = run_example("streaming_writes.py")
    assert "joint optimum" in out
    assert "overhead" in out


def test_ddr4_write_controller():
    out = run_example("ddr4_write_controller.py")
    assert "DDR4" in out
    assert "lookahead window" in out


def test_sso_noise():
    out = run_example("sso_noise.py")
    assert "max lanes/beat" in out


def test_hardware_cost():
    out = run_example("hardware_cost.py")
    assert "optimal on" in out
    assert "DBI OPT (Fixed Coeff.)" in out


def test_gpu_trace_savings():
    out = run_example("gpu_trace_savings.py")
    for workload in ("random", "text", "float", "image", "pointer",
                     "zero-run", "gpu-frame"):
        assert f"| {workload} " in out, workload
