"""E-X3 — what-if studies: precision and DSP specialization (§V-D coda).

Tabulates the two counterfactuals of :mod:`repro.core.whatif` on the
measured and projected devices, and the inverse-design answer of
:mod:`repro.core.sizing`.
"""

from __future__ import annotations

from repro.core.sizing import size_for_throughput
from repro.core.throughput import ConstraintMode
from repro.core.whatif import compare_precision, specialize_dsps
from repro.core.perfmodel import PerformanceModel
from repro.experiments.common import ExperimentResult
from repro.hardware.fpga import AGILEX_027, STRATIX10_GX2800, STRATIX10_M


def build_precision_whatif() -> ExperimentResult:
    """FP64 vs FP32 on the measured + projected devices."""
    result = ExperimentResult(
        exp_id="E-X3a",
        title="Precision what-if (footnote 6): FP32 counterfactual at 300 MHz",
        headers=["device", "N", "FP64 GF/s", "FP32 GF/s", "speedup",
                 "FP64 bound", "FP32 bound"],
    )
    for device in (STRATIX10_GX2800, AGILEX_027, STRATIX10_M):
        for n in (7, 11, 15):
            c = compare_precision(device, n, mode=ConstraintMode.PROJECTION)
            result.add_row(
                [
                    device.name, n,
                    round(c.gflops_fp64, 1), round(c.gflops_fp32, 1),
                    round(c.speedup, 2), c.binding_fp64, c.binding_fp32,
                ]
            )
    result.notes.append(
        "FP32 doubles the bandwidth-bound throughput (32 B/DOF) and "
        "slashes operator cost - but the paper's footnote 6 rules it out "
        "for long simulations (cumulative round-off)."
    )
    return result


def build_dsp_specialization() -> ExperimentResult:
    """Specialized-DSP counterfactual on the measured device."""
    result = ExperimentResult(
        exp_id="E-X3b",
        title="DSP specialization what-if (paper: 'specialize their DSP "
        "blocks to double-precision')",
        headers=["device", "N", "T_R stock", "T_R specialized", "binding after"],
    )
    for n in (7, 11, 15):
        stock = PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.PROJECTION)
        spec = PerformanceModel(
            specialize_dsps(STRATIX10_GX2800), mode=ConstraintMode.PROJECTION
        )
        result.add_row(
            [
                "Stratix 10 GX2800", n,
                round(stock.t_resource(n), 2),
                round(spec.t_resource(n), 2),
                spec.predict(n).binding,
            ]
        )
    result.notes.append(
        "on the bandwidth-starved GX2800 the binding constraint stays "
        "'bandwidth' - matching the paper's 'likely make the computation "
        "memory-bound, comparable to that of the GPUs'."
    )
    return result


def build_sizing() -> ExperimentResult:
    """Inverse design: resources per target throughput at N=15."""
    result = ExperimentResult(
        exp_id="E-X3c",
        title="Inverse design: device inventory per target throughput (N=15, 300 MHz)",
        headers=["T (DOF/cyc)", "GF/s", "ALMs (M)", "DSPs (k)", "BW (GB/s)", "BRAM blocks"],
    )
    for t in (4, 8, 16, 32, 64):
        req = size_for_throughput(15, t)
        result.add_row(
            [
                t,
                round(req.gflops, 0),
                round(req.resources.alms / 1e6, 2),
                round(req.resources.dsps / 1e3, 2),
                round(req.bandwidth_bytes_per_s / 1e9, 1),
                req.bram_blocks,
            ]
        )
    result.notes.append(
        "the T=64 row is the paper's hypothetical A100-beating device: "
        "~6.2M ALMs, ~20k DSPs, ~1.2 TB/s."
    )
    return result
