"""Roofline model (Williams et al.) for any architecture in the study.

``P(I) = min(P_peak, B * I)`` — the paper uses it both as the green
reference lines of Fig. 2/3 and as the sanity envelope of its more
detailed FPGA model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import operational_intensity
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Roofline:
    """A two-parameter roofline.

    Attributes
    ----------
    peak_flops:
        Compute ceiling in FLOP/s.
    peak_bandwidth:
        Memory ceiling in B/s.
    """

    peak_flops: float
    peak_bandwidth: float

    def __post_init__(self) -> None:
        check_positive("peak_flops", self.peak_flops)
        check_positive("peak_bandwidth", self.peak_bandwidth)

    def attainable(self, intensity: float) -> float:
        """Attainable FLOP/s at operational intensity ``I`` (FLOP/byte)."""
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        return min(self.peak_flops, self.peak_bandwidth * intensity)

    def attainable_for_degree(self, n: int) -> float:
        """Attainable FLOP/s for the ``Ax`` kernel at degree ``n``
        (uses the paper's ``I(N)``)."""
        return self.attainable(operational_intensity(n))
