"""E-F1 — regenerate Fig. 1: GFLOP/s vs problem size, 8 degrees x 9 systems.

Each subplot (a)-(h) of the paper is one polynomial degree; each curve is
one system swept over the number of elements.  The FPGA curve comes from
the accelerator simulator, the host curves from the execution-time
models.  The driver also extracts the crossover claims the paper makes
(who beats whom at which degree / size bracket).
"""

from __future__ import annotations

from repro.core.accel import AcceleratorConfig, SEMAccelerator
from repro.core.calibration import TABLE1_DEGREES
from repro.experiments.common import ExperimentResult, Series
from repro.hardware.catalog import CATALOG_ORDER
from repro.hardware.fpga import STRATIX10_GX2800
from repro.hardware.hostmodel import HostExecutionModel

#: Problem sizes swept (log-spaced, the paper's 10..10000 x-range).
DEFAULT_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)

#: Systems drawn in Fig. 1 (all of Table II).
FIG1_SYSTEMS: tuple[str, ...] = CATALOG_ORDER


def fpga_curve(n: int, sizes: tuple[int, ...]) -> Series:
    """SEM-accelerator GFLOP/s over problem sizes for degree ``n``."""
    acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
    ys = tuple(acc.performance(e).gflops_end_to_end for e in sizes)
    return Series(
        name="SEM-Acc (FPGA)",
        x=tuple(float(e) for e in sizes),
        y=ys,
        meta={"N": n, "system": "SEM-Acc (FPGA)"},
    )


def host_curve(name: str, n: int, sizes: tuple[int, ...]) -> Series:
    """Host-model GFLOP/s over problem sizes for degree ``n``."""
    model = HostExecutionModel.for_system(name)
    ys = tuple(model.sample(n, e).gflops for e in sizes)
    return Series(
        name=name,
        x=tuple(float(e) for e in sizes),
        y=ys,
        meta={"N": n, "system": name},
    )


def build_fig1(
    degrees: tuple[int, ...] = TABLE1_DEGREES,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
) -> ExperimentResult:
    """Regenerate all Fig. 1 subplots as named series.

    The tabular part summarizes each curve's value at the largest size —
    the numbers the paper's §V-C narrative quotes.
    """
    result = ExperimentResult(
        exp_id="E-F1",
        title="Fig. 1 - observed performance vs problem size",
        headers=["N", "system", f"GF/s@{sizes[-1]}", "GF/s@256", f"GF/s@{sizes[0]}"],
    )
    for n in degrees:
        curves = [fpga_curve(n, sizes)]
        for name in FIG1_SYSTEMS:
            if name == "Stratix GX 2800":
                continue
            curves.append(host_curve(name, n, sizes))
        for c in curves:
            result.add_series(c)
            mid = c.y[sizes.index(256)]
            result.add_row([n, c.name, round(c.y[-1], 1), round(mid, 1), round(c.y[0], 2)])
    result.notes.append(
        "FPGA curve: accelerator simulator (end-to-end, incl. launch); "
        "host curves: calibrated latency-throughput models "
        "(repro.hardware.hostmodel)."
    )
    return result


def crossover_summary(result: ExperimentResult) -> list[str]:
    """Extract the qualitative claims of §V-C from the generated curves."""
    notes: list[str] = []
    by_key = {(s.meta["N"], s.meta["system"]): s for s in result.series}

    def at_large(n: int, system: str) -> float:
        return by_key[(n, system)].y[-1]

    for n in (7, 11, 15):
        fpga = at_large(n, "SEM-Acc (FPGA)")
        slower = [
            sys
            for sys in FIG1_SYSTEMS
            if sys != "Stratix GX 2800" and at_large(n, sys) < fpga
        ]
        notes.append(f"N={n}: FPGA ({fpga:.0f} GF/s) beats {', '.join(slower) or 'nobody'}")
    return notes
