"""Hardware catalog and comparison models (paper Table II, §V).

Architecture specifications, FPGA device instances (measured + the three
§V-D projections) and analytic CPU/GPU execution-time models.
"""

from repro.hardware.specs import ArchSpec, ArchType
from repro.hardware.catalog import (
    CATALOG_ORDER,
    SYSTEM_CATALOG,
)
from repro.hardware.fpga import (
    AGILEX_027,
    IDEAL_FPGA,
    PROJECTED_DEVICES,
    STRATIX10_GX2800,
    STRATIX10_M,
    STRATIX10_M_ENHANCED,
)
from repro.hardware.hostmodel import (
    REFERENCE_ELEMENTS,
    HostExecutionModel,
    HostSample,
)
from repro.hardware.meters import (
    MeterError,
    MmdMeter,
    NvmlMeter,
    PowerMeter,
    RaplMeter,
    measure_energy,
)
from repro.hardware import calibration
from repro.core.device import FPGADevice

__all__ = [
    "ArchSpec",
    "ArchType",
    "CATALOG_ORDER",
    "SYSTEM_CATALOG",
    "AGILEX_027",
    "IDEAL_FPGA",
    "PROJECTED_DEVICES",
    "STRATIX10_GX2800",
    "STRATIX10_M",
    "STRATIX10_M_ENHANCED",
    "FPGADevice",
    "REFERENCE_ELEMENTS",
    "HostExecutionModel",
    "HostSample",
    "MeterError",
    "MmdMeter",
    "NvmlMeter",
    "PowerMeter",
    "RaplMeter",
    "measure_energy",
    "calibration",
]
