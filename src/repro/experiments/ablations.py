"""E-A1/E-A2/E-A3 — ablations of the paper's §III design choices.

* **E-A1 optimization journey** — baseline -> local/ILP -> II=1 ->
  banked, the paper's 0.025 -> ~10 -> ~60 -> 109 GFLOP/s narrative.
* **E-A2 padding** — §III-E/§IV: padding each degree to the next unroll-
  friendly size, showing the net gain is < 1 for most degrees.
* **E-A3 memory layout** — interleaved vs banked external memory across
  degrees.
* **E-A4 gxyz split** — keeping the geometric factors as one array
  (arbitration) vs six split vectors.
"""

from __future__ import annotations

from repro.core.accel import AcceleratorConfig, SEMAccelerator
from repro.core.calibration import REFERENCE_ELEMENTS, TABLE1_DEGREES
from repro.core.padding import padding_gain
from repro.experiments.common import ExperimentResult
from repro.hardware.fpga import STRATIX10_GX2800

#: Paper milestones of the §III journey at N=7 (GFLOP/s).
JOURNEY_PAPER_GFLOPS: tuple[float, ...] = (0.025, 10.0, 60.0, 109.0)


def build_journey(n: int = 7, num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """E-A1: the four §III design points."""
    result = ExperimentResult(
        exp_id="E-A1",
        title=f"Optimization journey (N={n}, {num_elements} elements)",
        headers=["design point", "GF/s", "paper GF/s", "II", "stall", "layout"],
    )
    labels = ("baseline", "+BRAM locality & ILP", "+#pragma ii 1", "+banked memory")
    for cfg, label, paper in zip(
        AcceleratorConfig.journey(n), labels, JOURNEY_PAPER_GFLOPS
    ):
        acc = SEMAccelerator(cfg, STRATIX10_GX2800)
        rep = acc.performance(num_elements)
        ii = rep.datapath.ii if rep.datapath else "-"
        stall = rep.datapath.stall_factor if rep.datapath else "-"
        result.add_row(
            [
                label,
                round(rep.gflops, 3),
                paper,
                ii,
                stall,
                rep.memory.layout if rep.memory else "none",
            ]
        )
    return result


def build_padding(target_t: int = 4) -> ExperimentResult:
    """E-A2: padding gain per degree targeting unroll ``target_t``.

    Defaults to ``T = 4`` — the Stratix 10's bandwidth-constrained lane
    count, which is the unroll the paper's padding discussion is about.
    """
    result = ExperimentResult(
        exp_id="E-A2",
        title=f"Padding analysis targeting T={target_t} (paper §III-E / §IV)",
        headers=["N", "T native", "T padded", "pad", "work x", "net gain", "worth it"],
    )
    for n in range(1, 16):
        plan = padding_gain(n, target_t)
        result.add_row(
            [
                n,
                plan.t_native,
                plan.t_padded,
                plan.pad,
                round(plan.work_factor, 3),
                round(plan.gain, 3),
                plan.gain > 1.0,
            ]
        )
    result.notes.append(
        "the paper concludes padding hurts for most (small) degrees and "
        "does not use it; the marginal gains at N=9/13 match its 'for the "
        "even GLL counts we focus on, the benefits are negligible'."
    )
    return result


def build_memory_layout(num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """E-A3: banked vs interleaved external memory across degrees."""
    result = ExperimentResult(
        exp_id="E-A3",
        title=f"External memory layout ({num_elements} elements)",
        headers=["N", "banked GF/s", "interleaved GF/s", "speedup"],
    )
    for n in TABLE1_DEGREES:
        banked = SEMAccelerator(
            AcceleratorConfig.banked(n), STRATIX10_GX2800
        ).performance(num_elements)
        inter = SEMAccelerator(
            AcceleratorConfig.ii1(n), STRATIX10_GX2800
        ).performance(num_elements)
        result.add_row(
            [
                n,
                round(banked.gflops, 1),
                round(inter.gflops, 1),
                round(banked.gflops / inter.gflops, 2),
            ]
        )
    return result


def build_gxyz_split(n: int = 7, num_elements: int = REFERENCE_ELEMENTS) -> ExperimentResult:
    """E-A4: splitting gxyz into six vectors vs one interleaved array."""
    from dataclasses import replace

    result = ExperimentResult(
        exp_id="E-A4",
        title=f"gxyz split ablation (N={n}, {num_elements} elements)",
        headers=["variant", "GF/s", "stall factor"],
    )
    for label, split in (("six split vectors", True), ("single gxyz array", False)):
        cfg = replace(AcceleratorConfig.banked(n), split_gxyz=split)
        rep = SEMAccelerator(cfg, STRATIX10_GX2800).performance(num_elements)
        stall = rep.datapath.stall_factor if rep.datapath else 1.0
        result.add_row([label, round(rep.gflops, 2), stall])
    result.notes.append(
        "the paper: un-split gxyz caused producer/consumer arbitration "
        "and pipeline stalls until split into six vectors (§III-B)."
    )
    return result
