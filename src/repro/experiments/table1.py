"""E-T1 — regenerate Table I: synthesis + performance per degree.

For each synthesized degree the driver runs the banked accelerator
simulator at the 4096-element reference, produces the synthesis report
(resources / clock / power) and the model prediction, and prints the
paper's columns side by side with the paper's reference values.
"""

from __future__ import annotations

from repro.core import ConstraintMode, PerformanceModel
from repro.core.accel import AcceleratorConfig, SEMAccelerator, synthesize
from repro.core.calibration import (
    REFERENCE_ELEMENTS,
    STRATIX10_TABLE1,
    TABLE1_DEGREES,
)
from repro.core.power import power_efficiency
from repro.experiments.common import ExperimentResult
from repro.hardware.fpga import STRATIX10_GX2800


def build_table1(num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """Regenerate Table I on the simulated Stratix 10.

    Returns one row per degree with (simulated, paper) pairs for the
    headline columns.
    """
    model = PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.MEASURED)
    result = ExperimentResult(
        exp_id="E-T1",
        title=f"Table I - SEM-accelerator synthesis & performance "
        f"({num_elements} elements)",
        headers=[
            "N", "T", "fmax(MHz)", "logic%", "BRAM%", "DSP%", "power(W)",
            "GF/s", "GF/s(paper)", "GF/s/W", "GF/s/W(paper)",
            "DOF/cyc", "DOF/cyc(paper)", "err%", "err%(paper)",
        ],
    )
    for n in TABLE1_DEGREES:
        cfg = AcceleratorConfig.banked(n)
        acc = SEMAccelerator(cfg, STRATIX10_GX2800)
        rep = acc.performance(num_elements)
        syn = synthesize(cfg, STRATIX10_GX2800)
        ref = STRATIX10_TABLE1[n]
        err = model.model_error_pct(n, rep.dofs_per_cycle)
        eff = power_efficiency(rep.gflops, syn.power_w)
        result.add_row(
            [
                n,
                cfg.unroll,
                syn.fmax_mhz,
                round(syn.logic_pct, 1),
                round(syn.bram_pct, 1),
                round(syn.dsp_pct, 1),
                round(syn.power_w, 2),
                round(rep.gflops, 1),
                ref.gflops,
                round(eff, 2),
                ref.gflops_per_w,
                round(rep.dofs_per_cycle, 2),
                ref.dofs_per_cycle,
                round(err, 2),
                ref.model_error_pct,
            ]
        )
    result.notes.append(
        "fmax per degree is calibrated from the paper (place-and-route "
        "outcomes are not first-principles derivable); GF/s, DOF/cycle and "
        "err% are produced by the simulator + model."
    )
    result.notes.append(
        "paper cells marked approximate in repro.core.calibration "
        "(OCR-damaged Logic%/DSP% entries) are reconstructions."
    )
    result.notes.append(
        "DSP% is the linear resource model's output; at N=11/15 it "
        "overestimates the measured count because Quartus shares "
        "multipliers (the paper's empirical R_base absorbs this, see "
        "repro.core.resources.base_resources_from_measurement)."
    )
    return result
