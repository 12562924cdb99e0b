"""FPGA power model (paper §V-B).

The paper reports 80-100 W board power and notes it "is a function of the
device's resource utilization and frequency".  We model exactly that:

``P = P_static + a * util_logic + b * util_bram + c * util_dsp + d * f``

with the coefficients least-squares fitted to the eight Table-I operating
points.  The fit is computed once at import of the model (cheap: an 8x5
system) and exposed for inspection; predictions for *new* designs (e.g.
the projected devices) use the same coefficients scaled to the target
device's utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.calibration import STRATIX10_TABLE1, TABLE1_DEGREES


@dataclass(frozen=True)
class PowerModel:
    """Fitted linear power model.

    Attributes map to ``P = static_w + logic_w * u_logic + bram_w * u_bram
    + dsp_w * u_dsp + mhz_w * f_mhz`` with utilizations in [0, 1] and the
    kernel clock in MHz.
    """

    static_w: float
    logic_w: float
    bram_w: float
    dsp_w: float
    mhz_w: float

    def predict(
        self,
        logic_util: float,
        bram_util: float,
        dsp_util: float,
        fmax_mhz: float,
    ) -> float:
        """Board power (W) at the given operating point."""
        for name, u in (
            ("logic_util", logic_util),
            ("bram_util", bram_util),
            ("dsp_util", dsp_util),
        ):
            if not 0.0 <= u <= 1.5:
                raise ValueError(f"{name} must be a fraction in [0, 1.5], got {u}")
        if fmax_mhz <= 0:
            raise ValueError(f"fmax must be positive, got {fmax_mhz}")
        return (
            self.static_w
            + self.logic_w * logic_util
            + self.bram_w * bram_util
            + self.dsp_w * dsp_util
            + self.mhz_w * fmax_mhz
        )


@lru_cache(maxsize=1)
def fitted_power_model() -> PowerModel:
    """Least-squares fit of :class:`PowerModel` on the Table-I rows.

    A mild ridge term keeps the under-determined directions of the 8x5
    system bounded (the calibration points do not span the full parameter
    space); the fit reproduces the measured powers to within a few watts,
    which is the granularity the paper's efficiency comparison needs.
    """
    rows = [STRATIX10_TABLE1[n] for n in TABLE1_DEGREES]
    a = np.array(
        [
            [
                1.0,
                r.logic_pct / 100.0,
                r.bram_pct / 100.0,
                r.dsp_pct / 100.0,
                r.fmax_mhz,
            ]
            for r in rows
        ]
    )
    y = np.array([r.power_w for r in rows])
    lam = 1e-3
    ata = a.T @ a + lam * np.eye(a.shape[1])
    coef = np.linalg.solve(ata, a.T @ y)
    return PowerModel(*map(float, coef))


def power_efficiency(gflops: float, watts: float) -> float:
    """GFLOP/s per Watt (the paper's efficiency metric)."""
    if watts <= 0:
        raise ValueError(f"power must be positive, got {watts}")
    if gflops < 0:
        raise ValueError(f"performance must be >= 0, got {gflops}")
    return gflops / watts
