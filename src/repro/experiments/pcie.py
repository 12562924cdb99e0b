"""E-X4 — why the paper excludes PCIe: transfer-inclusive performance.

"All experiments are executed to exclude PCIe transfer overheads,
focusing exclusively on the isolated performance of the kernel."  This
driver quantifies what that exclusion hides: the kernel-only vs
PCIe-inclusive GFLOP/s of the FPGA accelerator across problem sizes, in
the cold (all inputs staged) and steady-state (geometric factors
resident) regimes.
"""

from __future__ import annotations

from repro.core.accel import AcceleratorConfig, SEMAccelerator
from repro.core.accel.host import PCIeLink, pcie_overhead_fraction
from repro.experiments.common import ExperimentResult
from repro.hardware.fpga import STRATIX10_GX2800

SIZES: tuple[int, ...] = (16, 128, 1024, 4096, 16384)


def build_pcie_study(n: int = 7) -> ExperimentResult:
    """Kernel-only vs PCIe-inclusive GFLOP/s over problem sizes."""
    result = ExperimentResult(
        exp_id="E-X4",
        title=f"PCIe exclusion study (N={n}, Gen3 x8)",
        headers=[
            "elements", "kernel GF/s", "+PCIe (resident g) GF/s",
            "+PCIe (cold) GF/s", "PCIe share (resident)", "PCIe share (cold)",
        ],
    )
    link = PCIeLink()
    for e in SIZES:
        acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
        rep = acc.performance(e)
        frac_res = pcie_overhead_fraction(
            n, e, STRATIX10_GX2800, link, resident_factors=True
        )
        frac_cold = pcie_overhead_fraction(
            n, e, STRATIX10_GX2800, link, resident_factors=False
        )
        result.add_row(
            [
                e,
                round(rep.gflops, 1),
                round(rep.gflops * (1 - frac_res), 1),
                round(rep.gflops * (1 - frac_cold), 1),
                f"{frac_res * 100:.0f}%",
                f"{frac_cold * 100:.0f}%",
            ]
        )
    result.notes.append(
        "cold staging (u + six factors per call) would cost the majority "
        "of the runtime at every size - the reason the paper reports "
        "kernel-isolated numbers, and why a production integration keeps "
        "the geometry resident on the device."
    )
    return result
