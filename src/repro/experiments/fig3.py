"""E-F3 — regenerate Fig. 3: measured vs modeled vs roofline across N.

The paper plots, at 4096 elements: the theoretical roofline of the
Stratix 10 memory system, the model's prediction at the 300 MHz memory
clock and at 70% of it (210 MHz) — a band the measured clocks fall into —
and the measured performance of the eight synthesized kernels.
"""

from __future__ import annotations

from repro.core import ConstraintMode, PerformanceModel, Roofline
from repro.core.accel import AcceleratorConfig, SEMAccelerator
from repro.core.calibration import REFERENCE_ELEMENTS, TABLE1_DEGREES
from repro.experiments.common import ExperimentResult, Series
from repro.hardware.catalog import SYSTEM_CATALOG
from repro.hardware.fpga import STRATIX10_GX2800

#: Degree range of the figure's x-axis.
FIG3_DEGREES: tuple[int, ...] = tuple(range(1, 16))


def build_fig3(num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """Regenerate Fig. 3's three curves and the measured points."""
    model = PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.MEASURED)
    spec = SYSTEM_CATALOG["Stratix GX 2800"]
    roof = Roofline(spec.peak_flops, spec.peak_bandwidth)

    result = ExperimentResult(
        exp_id="E-F3",
        title=f"Fig. 3 - model vs measurement across N ({num_elements} elements)",
        headers=["N", "roofline GF/s", "model@300MHz", "model@210MHz", "measured(sim)"],
    )
    xs, roofline_y, m300_y, m210_y = [], [], [], []
    meas_x, meas_y = [], []
    for n in FIG3_DEGREES:
        roofline = roof.attainable_for_degree(n) / 1e9
        p300 = model.peak_gflops(n, kernel_mhz=300.0)
        p210 = model.peak_gflops(n, kernel_mhz=210.0)
        measured = None
        if n in TABLE1_DEGREES:
            acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
            measured = acc.performance(num_elements).gflops
            meas_x.append(float(n))
            meas_y.append(measured)
        xs.append(float(n))
        roofline_y.append(roofline)
        m300_y.append(p300)
        m210_y.append(p210)
        result.add_row(
            [
                n,
                round(roofline, 1),
                round(p300, 1),
                round(p210, 1),
                round(measured, 1) if measured is not None else None,
            ]
        )
    result.add_series(Series("roofline", tuple(xs), tuple(roofline_y), {"units": "GF/s"}))
    result.add_series(Series("model@300MHz", tuple(xs), tuple(m300_y), {"units": "GF/s"}))
    result.add_series(Series("model@210MHz", tuple(xs), tuple(m210_y), {"units": "GF/s"}))
    result.add_series(Series("measured", tuple(meas_x), tuple(meas_y), {"units": "GF/s"}))
    result.notes.append(
        "measured points fall inside the 210-300 MHz model band for the "
        "conflict-free degrees and on the T-constrained model for the "
        "rest, as in the paper."
    )
    return result
