"""Smoke tests that run the (fast) example scripts end to end.

Examples are user-facing documentation; they must execute against the
current API.  The paper-side examples below each run whole in about a
second; the serving examples are CI smoke steps of their own.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES / name
    assert path.exists(), f"example {name} missing"
    old_argv = sys.argv
    sys.argv = [str(path), *(argv or [])]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestFastExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "spectral accuracy" in out
        assert "paper: 109.0" in out

    def test_future_fpga_projection(self, capsys):
        run_example("future_fpga_projection.py")
        out = capsys.readouterr().out
        assert "Ideal FPGA" in out
        assert "20 k" in out or "20.2 k" in out

    def test_compare_architectures(self, capsys):
        run_example("compare_architectures.py", ["15"])
        out = capsys.readouterr().out
        assert "SEM-Acc (FPGA)" in out
        assert "NVIDIA A100 PCIe" in out

    def test_design_space(self, capsys):
        run_example("accelerator_design_space.py", ["9"])
        out = capsys.readouterr().out
        assert "conflict-free unroll = 2" in out
        assert "Design space at N=9" in out

    def test_cg_on_fpga(self, capsys):
        run_example("cg_on_fpga.py")
        out = capsys.readouterr().out
        assert "solution agreement" in out
        assert "0.00e+00" in out  # identical iterates

    def test_poisson_convergence(self, capsys):
        run_example("poisson_convergence.py")
        out = capsys.readouterr().out
        assert "spectral convergence" in out

    def test_helmholtz_bk5(self, capsys):
        run_example("helmholtz_bk5.py")
        out = capsys.readouterr().out
        assert "identical numerics" in out

    def test_nekbone_proxy(self, capsys):
        run_example("nekbone_proxy.py")
        out = capsys.readouterr().out
        assert "FPGA-backed case (27 elements): 25 iterations" in out
