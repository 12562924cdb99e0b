"""Synthesis reports: the reproduction's stand-in for Quartus output.

:func:`synthesize` produces a :class:`SynthesisReport` for a
configuration on a device — clock, absolute/fractional resource
utilization, and modeled power — combining:

* the calibrated Table-I clock for calibrated degrees on the measured
  device (place-and-route outcomes are not derivable from first
  principles; see :mod:`repro.core.calibration`), a 300 MHz kernel cap
  otherwise;
* the resource model ``R_base(N) + R_comp(N)`` with the structural BRAM
  estimator as a cross-check;
* the fitted power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.accel.config import AcceleratorConfig
from repro.core.calibration import STRATIX10_TABLE1
from repro.core.cost import KernelCost
from repro.core.device import FPGADevice, ResourceVector
from repro.core.perfmodel import stratix_base_provider
from repro.core.power import fitted_power_model
from repro.core.resources import ax_bram_blocks, compute_resources


@dataclass(frozen=True)
class SynthesisReport:
    """Post-"synthesis" summary of one accelerator design point.

    ``utilization`` values are fractions of the device totals; Table I
    prints them as percentages.
    """

    config: AcceleratorConfig
    device_name: str
    fmax_mhz: float
    resources: ResourceVector
    utilization: dict[str, float]
    bram_blocks_structural: int
    power_w: float

    @property
    def logic_pct(self) -> float:
        """ALM utilization in percent (Table I's "Logic Util.")."""
        return self.utilization["alms"] * 100.0

    @property
    def bram_pct(self) -> float:
        """BRAM utilization in percent."""
        return self.utilization["brams"] * 100.0

    @property
    def dsp_pct(self) -> float:
        """DSP utilization in percent."""
        return self.utilization["dsps"] * 100.0


@lru_cache(maxsize=1024)
def synthesize(config: AcceleratorConfig, device: FPGADevice) -> SynthesisReport:
    """Produce the synthesis report for ``config`` on ``device``.

    Both arguments are frozen (hashable) dataclasses and the report is
    a pure function of them, so results are memoized — design-space
    sweeps and :func:`repro.core.explore.best_design` stop
    re-synthesizing identical points.
    """
    base = stratix_base_provider()(config.n)
    comp = compute_resources(
        KernelCost(config.n), config.unroll, device.fabric.op_costs
    )
    used = base + comp
    blocks = ax_bram_blocks(config.n, max(1, config.unroll), config.double_buffer)
    # BRAM: the paper treats measured per-degree BRAM as platform-
    # independent; the structural estimate is reported alongside.
    resources = ResourceVector(used.alms, used.registers, used.dsps, used.brams)
    util = resources.utilization(device.fabric.total)
    power = fitted_power_model().predict(
        min(util["alms"], 1.5),
        min(util["brams"], 1.5),
        min(util["dsps"], 1.5),
        config.clock_mhz,
    )
    return SynthesisReport(
        config=config,
        device_name=device.name,
        fmax_mhz=config.clock_mhz,
        resources=resources,
        utilization=util,
        bram_blocks_structural=blocks,
        power_w=power,
    )


def reference_row(n: int):
    """The paper's Table-I row for degree ``n`` (None if not synthesized
    by the paper)."""
    return STRATIX10_TABLE1.get(n)
