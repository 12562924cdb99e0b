"""E-T2 — regenerate Table II: evaluated systems and derived metrics.

Pure catalog rendering plus the derived Byte/FLOP balance; the test-suite
checks the derived column against the paper's printed values.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.hardware.catalog import CATALOG_ORDER, SYSTEM_CATALOG


def build_table2() -> ExperimentResult:
    """Regenerate Table II from the architecture catalog."""
    result = ExperimentResult(
        exp_id="E-T2",
        title="Table II - systems overview",
        headers=[
            "Type", "Architecture", "Tech(nm)", "Peak(GF/s)",
            "BW(GB/s)", "TDP(W)", "Byte/FLOP", "Freq(MHz)", "Release",
        ],
    )
    for name in CATALOG_ORDER:
        s = SYSTEM_CATALOG[name]
        peak = f"{s.peak_gflops:g}*" if s.peak_is_model_bound else f"{s.peak_gflops:g}"
        result.add_row(
            [
                s.arch_type.value,
                s.name,
                s.tech_nm,
                peak,
                s.mem_bw_gbs,
                s.tdp_w,
                round(s.byte_per_flop, 3),
                s.freq_mhz,
                s.release_year,
            ]
        )
    result.notes.append(
        "* FPGA peak is the paper's optimistic model bound at 400 MHz "
        "with empirically measured resource utilization."
    )
    return result
