"""FPGA device descriptions: fabric resources and external memory system.

The performance model treats an FPGA as a :class:`FPGAFabric` (how many
ALMs / DSPs / M20Ks are available, and what a double-precision operator
costs on that fabric) attached to a :class:`MemorySystem` (banked DDR
with a fixed-frequency controller).  Concrete device instances — the
evaluated Stratix 10 GX2800 and the three projected devices — live in
:mod:`repro.hardware.fpga`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.units import MEGA
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResourceVector:
    """A quantity of each FPGA resource type.

    Components follow the paper's triple (DSPs, ALMs, BRAM) plus
    registers, which Table I reports and we track for completeness.
    Arithmetic is element-wise; division ignores zero-demand components
    (returning ``inf`` for them) so ``available / per_unit`` yields the
    binding constraint via :meth:`min_ratio`.
    """

    alms: float = 0.0
    registers: float = 0.0
    dsps: float = 0.0
    brams: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.alms + other.alms,
            self.registers + other.registers,
            self.dsps + other.dsps,
            self.brams + other.brams,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.alms - other.alms,
            self.registers - other.registers,
            self.dsps - other.dsps,
            self.brams - other.brams,
        )

    def __mul__(self, k: float) -> "ResourceVector":
        return ResourceVector(
            self.alms * k, self.registers * k, self.dsps * k, self.brams * k
        )

    __rmul__ = __mul__

    def clamped(self) -> "ResourceVector":
        """Element-wise ``max(0, .)`` — used when an empirical base
        measurement dips below the linear compute estimate."""
        return ResourceVector(
            max(0.0, self.alms),
            max(0.0, self.registers),
            max(0.0, self.dsps),
            max(0.0, self.brams),
        )

    def min_ratio(self, demand_per_unit: "ResourceVector") -> float:
        """``min_k available_k / demand_k`` over components with demand.

        This is the paper's element-wise division ``R_max / R_comp``:
        the number of throughput units the remaining resources support.
        Returns ``inf`` when nothing is demanded.
        """
        ratios = []
        for avail, need in (
            (self.alms, demand_per_unit.alms),
            (self.registers, demand_per_unit.registers),
            (self.dsps, demand_per_unit.dsps),
            (self.brams, demand_per_unit.brams),
        ):
            if need > 0:
                ratios.append(max(0.0, avail) / need)
        return min(ratios) if ratios else float("inf")

    def utilization(self, total: "ResourceVector") -> dict[str, float]:
        """Fractional utilization against a device total (0..1 per type)."""
        out: dict[str, float] = {}
        for name, used, avail in (
            ("alms", self.alms, total.alms),
            ("registers", self.registers, total.registers),
            ("dsps", self.dsps, total.dsps),
            ("brams", self.brams, total.brams),
        ):
            out[name] = used / avail if avail > 0 else 0.0
        return out


@dataclass(frozen=True)
class OperatorCosts:
    """Per-operator implementation cost on a fabric (``R_add``, ``R_mult``).

    On current Intel fabrics a double-precision multiplier consumes a few
    DSP blocks plus glue ALMs, while a double-precision adder is built
    from soft logic only — this is why the paper's accelerator is
    *logic-bound* and why the paper argues future devices should
    "specialize their DSP blocks to double-precision" (modeled by a
    smaller ``mult.dsps``).
    """

    add: ResourceVector
    mult: ResourceVector

    @classmethod
    def stratix10_double(cls) -> "OperatorCosts":
        """Measured-fabric costs used for the Stratix 10 / Agilex class:
        adder = 750 ALMs (+1500 regs), multiplier = 200 ALMs + 6 DSPs.

        Derived from the paper's device sizings (§V-D): the
        ideal FPGA's 6.2M ALMs = 64 DOF/cycle x (102 adds x 750 +
        105 mults x 200) at N=15, and its 20k DSPs = 105 x 64 x 3 pin
        the *specialized* multiplier at 3 DSPs
        (see :meth:`specialized_dsp`).
        """
        return cls(
            add=ResourceVector(alms=750.0, registers=1500.0),
            mult=ResourceVector(alms=200.0, registers=500.0, dsps=6.0),
        )

    @classmethod
    def specialized_dsp(cls) -> "OperatorCosts":
        """Hypothetical double-precision-native DSP blocks (paper §V-D):
        multiplier cost drops to 3 DSPs, relieving logic pressure."""
        return cls(
            add=ResourceVector(alms=750.0, registers=1500.0),
            mult=ResourceVector(alms=200.0, registers=500.0, dsps=3.0),
        )


@dataclass(frozen=True)
class FPGAFabric:
    """Reconfigurable-fabric inventory of a device."""

    name: str
    total: ResourceVector
    op_costs: OperatorCosts = field(default_factory=OperatorCosts.stratix10_double)
    #: Fraction of ALMs realistically usable by the kernel partition
    #: (routing/fitting headroom).  Projections in the paper implicitly
    #: use the full device, so the default is 1.0.
    usable_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_positive("total.alms", self.total.alms)
        check_positive("usable_fraction", self.usable_fraction)

    @property
    def usable(self) -> ResourceVector:
        """Resources available to kernels after the headroom factor."""
        return ResourceVector(
            self.total.alms * self.usable_fraction,
            self.total.registers * self.usable_fraction,
            self.total.dsps,
            self.total.brams,
        )


@dataclass(frozen=True)
class MemorySystem:
    """Banked external memory behind fixed-frequency controllers.

    The paper's board (Bittware 520N) has four DDR4 banks whose
    controllers run at 300 MHz moving 512 bits per cycle each:
    ``4 * 64 B * 300 MHz = 76.8 GB/s`` peak.
    """

    banks: int
    bus_bits: int
    controller_mhz: float

    def __post_init__(self) -> None:
        check_positive("banks", self.banks)
        check_positive("bus_bits", self.bus_bits)
        check_positive("controller_mhz", self.controller_mhz)

    @property
    def bank_bytes_per_cycle(self) -> int:
        """Bytes one bank moves per controller cycle."""
        return self.bus_bits // 8

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate peak bandwidth in B/s."""
        return self.banks * self.bank_bytes_per_cycle * self.controller_mhz * MEGA


@dataclass(frozen=True)
class FPGADevice:
    """A complete FPGA target: fabric + memory + clocking.

    ``max_kernel_mhz`` caps the synthesized kernel clock (the paper
    assumes a conservative 300 MHz for every projection; measured kernels
    on the Stratix 10 range 170-391 MHz, taken from calibration).
    """

    fabric: FPGAFabric
    memory: MemorySystem
    max_kernel_mhz: float = 300.0

    @property
    def name(self) -> str:
        """Device name (delegates to the fabric)."""
        return self.fabric.name

    @property
    def peak_bandwidth(self) -> float:
        """External-memory peak bandwidth in B/s."""
        return self.memory.peak_bandwidth
