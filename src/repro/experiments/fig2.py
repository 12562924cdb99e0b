"""E-F2 / E-P1 — regenerate Fig. 2: peak comparison at 4096 elements.

Bars (GFLOP/s at N = 7 / 11 / 15) for the measured FPGA, the three CPUs
and five GPUs, plus the roofline line, the power-efficiency line, and the
three modeled future FPGAs of §V-D (Agilex 027, Stratix 10M, ideal), with
the 10M "8.7k DSP / 600 GB/s" variant as an extra row.
"""

from __future__ import annotations

from repro.core import (
    ConstraintMode,
    PerformanceModel,
    Roofline,
    zero_base_provider,
)
from repro.core.accel import AcceleratorConfig, SEMAccelerator, synthesize
from repro.core.calibration import REFERENCE_ELEMENTS
from repro.core.power import power_efficiency
from repro.experiments.common import ExperimentResult
from repro.hardware.catalog import CATALOG_ORDER, SYSTEM_CATALOG
from repro.hardware.fpga import (
    AGILEX_027,
    IDEAL_FPGA,
    STRATIX10_GX2800,
    STRATIX10_M,
    STRATIX10_M_ENHANCED,
)
from repro.hardware.hostmodel import HostExecutionModel

#: The degrees Fig. 2 compares (chosen by the paper to avoid arbitration).
FIG2_DEGREES: tuple[int, ...] = (7, 11, 15)


def _fpga_rows(result: ExperimentResult, num_elements: int) -> None:
    spec = SYSTEM_CATALOG["Stratix GX 2800"]
    roof = Roofline(spec.peak_flops, spec.peak_bandwidth)
    for n in FIG2_DEGREES:
        cfg = AcceleratorConfig.banked(n)
        acc = SEMAccelerator(cfg, STRATIX10_GX2800)
        rep = acc.performance(num_elements)
        syn = synthesize(cfg, STRATIX10_GX2800)
        result.add_row(
            [
                "SEM-Acc (FPGA)",
                n,
                round(rep.gflops, 1),
                round(power_efficiency(rep.gflops, syn.power_w), 2),
                round(roof.attainable_for_degree(n) / 1e9, 1),
                "measured(sim)",
            ]
        )


def _host_rows(result: ExperimentResult, num_elements: int) -> None:
    for name in CATALOG_ORDER:
        if name == "Stratix GX 2800":
            continue
        model = HostExecutionModel.for_system(name)
        for n in FIG2_DEGREES:
            s = model.sample(n, num_elements)
            result.add_row(
                [
                    name,
                    n,
                    round(s.gflops, 1),
                    round(s.gflops_per_w, 2),
                    round(model.roofline_gflops(n), 1),
                    "host model",
                ]
            )


def _projection_rows(result: ExperimentResult) -> None:
    projections = [
        (AGILEX_027, None),
        (STRATIX10_M, None),
        (STRATIX10_M_ENHANCED, None),
        (IDEAL_FPGA, zero_base_provider()),
    ]
    for device, base in projections:
        pm = PerformanceModel(device, base_provider=base, mode=ConstraintMode.PROJECTION)
        roof = Roofline(max(pm.peak_gflops(n) for n in FIG2_DEGREES) * 1e9 + 1.0,
                        device.peak_bandwidth)
        for n in FIG2_DEGREES:
            pred = pm.predict(n)
            result.add_row(
                [
                    device.name,
                    n,
                    round(pred.gflops, 1),
                    None,
                    round(roof.attainable_for_degree(n) / 1e9, 1),
                    f"projected ({pred.binding}-bound, T={pred.t_max:g})",
                ]
            )


def build_fig2(num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """Regenerate Fig. 2's bars, efficiency values and projections."""
    result = ExperimentResult(
        exp_id="E-F2",
        title=f"Fig. 2 - peak performance comparison at {num_elements} elements",
        headers=["system", "N", "GF/s", "GF/s/W", "roofline GF/s", "source"],
    )
    _fpga_rows(result, num_elements)
    _host_rows(result, num_elements)
    _projection_rows(result)
    result.notes.append(
        "paper projection anchors: Agilex (266, 191, 248); Stratix 10M "
        "peaks at 382 @ N=11; 10M variant (1.06, 1.53, 0.99) TF; ideal "
        "(2.1, 3, 3.97) TF."
    )
    result.notes.append(
        "host GF/s/W uses calibrated measured power "
        "(repro.hardware.calibration); Tesla efficiency ratios anchored "
        "at N=15 per the paper's quoted 2.69x/4.44x/4.52x."
    )
    return result
