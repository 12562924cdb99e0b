"""E-X1 — the paper's appendix: bandwidth utilization, FPGA vs GPUs.

"Overall though, compared to the GPUs, the utilized bandwidth on the
FPGA was higher as a percentage of theoretical bandwidth [40]; if this
continues to be the case for higher bandwidth speeds, this provides a
case in favor for future FPGAs in memory bound applications."

Also regenerates the STREAM-for-FPGA sweep ([42]) that explains the
small-size / small-degree model error.
"""

from __future__ import annotations

from repro.core.accel.stream import (
    stream_sweep,
    utilization_comparison,
)
from repro.experiments.common import ExperimentResult, Series
from repro.hardware.fpga import STRATIX10_GX2800


def build_bandwidth_utilization() -> ExperimentResult:
    """FPGA-vs-GPU achieved fraction of theoretical bandwidth."""
    result = ExperimentResult(
        exp_id="E-X1",
        title="Appendix - achieved fraction of theoretical bandwidth @4096",
        headers=["system", "N", "achieved GB/s", "peak GB/s", "fraction %"],
    )
    for u in utilization_comparison(degrees=(7, 11, 15)):
        result.add_row(
            [u.system, u.n, round(u.achieved_gbs, 1), u.peak_gbs,
             round(u.fraction * 100.0, 1)]
        )
    result.notes.append(
        "at N=15 (where the tuned GPU kernel degrades) the FPGA uses "
        "~85% of its DDR peak vs 35-47% on the Tesla parts - the paper's "
        "memory-bound case for future FPGAs."
    )
    return result


def build_stream() -> ExperimentResult:
    """STREAM-like effective-bandwidth sweep on the FPGA memory model."""
    result = ExperimentResult(
        exp_id="E-X2",
        title="STREAM-for-FPGA: effective bandwidth vs transfer size (N=7)",
        headers=["elements", "transfer MB", "effective GB/s", "% of peak"],
    )
    samples = stream_sweep(STRATIX10_GX2800, n=7)
    xs, ys = [], []
    for s in samples:
        result.add_row(
            [
                s.num_elements,
                round(s.transfer_bytes / 1e6, 2),
                round(s.effective_gbs, 1),
                round(s.fraction_of_peak * 100.0, 1),
            ]
        )
        xs.append(float(s.num_elements))
        ys.append(s.effective_gbs)
    result.add_series(Series("B_eff(N=7)", tuple(xs), tuple(ys), {"units": "GB/s"}))
    result.notes.append(
        "the input-size dependence here is exactly the mechanism the "
        "paper blames for the 18-28% model error at small degrees."
    )
    return result
