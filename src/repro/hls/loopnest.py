"""Loop-nest intermediate representation for HLS-style kernel modeling.

The paper designs its accelerator by transforming Listing 1 (splitting
loops, preloading BRAM, unrolling, forcing the initiation interval) and
reports how each transform changes performance.  To reason about those
transforms programmatically we model kernels as affine loop nests:

* a :class:`Loop` has a trip count and an unroll factor,
* an :class:`Access` touches an array at an affine index
  ``const + sum_v stride_v * v`` over the loop variables,
* a :class:`LoopNest` bundles loops, accesses and per-body op counts.

The analyses in :mod:`repro.hls.unroll` and :mod:`repro.hls.schedule`
consume this IR; :func:`ax_kernel_nests` builds the nests of the paper's
kernel so the cost model ``C(N)`` can be *derived* from the IR instead of
hard-coded (``ax_ops_per_dof`` cross-checks the closed form, and a test
verifies it equals :class:`repro.core.cost.KernelCost`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.util.validation import check_positive


class AccessKind(Enum):
    """Whether an access reads or writes its array."""

    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class Loop:
    """One loop level.

    Attributes
    ----------
    var:
        Loop variable name (unique within a nest).
    trip:
        Trip count (>= 1).
    unroll:
        Unroll factor; must divide nothing in particular a priori —
        legality is what :mod:`repro.hls.unroll` analyzes — but cannot
        exceed the trip count.  ``unroll == trip`` is a full unroll.
    """

    var: str
    trip: int
    unroll: int = 1

    def __post_init__(self) -> None:
        check_positive(f"trip count of loop '{self.var}'", self.trip)
        check_positive(f"unroll factor of loop '{self.var}'", self.unroll)
        if self.unroll > self.trip:
            raise ValueError(
                f"loop '{self.var}': unroll {self.unroll} exceeds trip {self.trip}"
            )

    @property
    def fully_unrolled(self) -> bool:
        """True when every iteration is instantiated in hardware."""
        return self.unroll == self.trip


class Storage(Enum):
    """Where an array lives on chip.

    ``BRAM`` arrays are subject to port limits and cyclic-partition
    arbitration; ``REGISTER`` arrays (small, fully partitioned — e.g. the
    preloaded ``(N+1)^2`` derivative matrices) replicate freely and never
    arbitrate.
    """

    BRAM = "bram"
    REGISTER = "register"


@dataclass(frozen=True)
class Access:
    """An affine array access ``array[const + sum_v strides[v] * v]``.

    ``strides`` maps loop-variable names to integer strides; variables not
    listed have stride 0 (the access is uniform in them).
    """

    array: str
    kind: AccessKind
    strides: Mapping[str, int] = field(default_factory=dict)
    const: int = 0
    storage: Storage = Storage.BRAM

    def stride_of(self, var: str) -> int:
        """Stride with respect to ``var`` (0 when independent)."""
        return self.strides.get(var, 0)


@dataclass(frozen=True)
class LoopNest:
    """A perfect loop nest with per-body op counts and memory accesses.

    Attributes
    ----------
    name:
        Human-readable label used in reports.
    loops:
        Outermost-to-innermost loop levels.
    accesses:
        All array accesses of one body iteration.
    adds, mults:
        Floating-point additions / multiplications per body iteration
        (of the innermost body, i.e. per full index tuple).
    """

    name: str
    loops: tuple[Loop, ...]
    accesses: tuple[Access, ...]
    adds: int = 0
    mults: int = 0

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for lp in self.loops:
            if lp.var in seen:
                raise ValueError(f"duplicate loop variable '{lp.var}'")
            seen.add(lp.var)
        for acc in self.accesses:
            for v in acc.strides:
                if v not in seen:
                    raise ValueError(
                        f"access to '{acc.array}' uses unknown variable '{v}'"
                    )
        if self.adds < 0 or self.mults < 0:
            raise ValueError("op counts must be non-negative")

    # ------------------------------------------------------------------
    # census: reference: part of ax_ops_per_dof's count (below)
    @property
    def trip_total(self) -> int:
        """Total body iterations (product of trip counts)."""
        total = 1
        for lp in self.loops:
            total *= lp.trip
        return total

    @property
    def parallel_bodies(self) -> int:
        """Body copies instantiated per cycle (product of unroll factors)."""
        par = 1
        for lp in self.loops:
            par *= lp.unroll
        return par

    @property
    def issue_slots(self) -> int:
        """Pipeline slots to issue the whole nest at II=1
        (``ceil(trip/unroll)`` per level, multiplied)."""
        slots = 1
        for lp in self.loops:
            slots *= -(-lp.trip // lp.unroll)
        return slots

    # ------------------------------------------------------------------
    # census: reference: part of ax_ops_per_dof's count (below)
    def ops_total(self) -> tuple[int, int]:
        """Total ``(adds, mults)`` over all iterations."""
        return self.adds * self.trip_total, self.mults * self.trip_total

    def ops_per_cycle(self) -> tuple[int, int]:
        """``(adds, mults)`` instantiated in hardware (per pipeline slot)."""
        return self.adds * self.parallel_bodies, self.mults * self.parallel_bodies

    def loop(self, var: str) -> Loop:
        """Look up a loop level by variable name."""
        for lp in self.loops:
            if lp.var == var:
                return lp
        raise KeyError(f"no loop variable '{var}' in nest '{self.name}'")

    def with_unroll(self, var: str, unroll: int) -> "LoopNest":
        """Return a copy with loop ``var`` unrolled by ``unroll``."""
        if all(lp.var != var for lp in self.loops):
            raise KeyError(f"no loop variable '{var}' in nest '{self.name}'")
        new_loops = tuple(
            Loop(lp.var, lp.trip, unroll) if lp.var == var else lp
            for lp in self.loops
        )
        return LoopNest(self.name, new_loops, self.accesses, self.adds, self.mults)


# ----------------------------------------------------------------------
# The paper's kernel expressed in the IR.
# ----------------------------------------------------------------------

def ax_grad_nest(n: int, unroll_i: int = 1, phase: int = 1) -> LoopNest:
    """Contraction sub-nest of Listing 1 (phase 1 gradient or phase 2
    transposed gradient): loops ``(k, j, i, l)`` with ``l`` fully unrolled,
    3 multiply-adds per body.

    ``unroll_i`` unrolls the ``i`` loop — the paper's throughput knob
    ``T`` (DOFs issued per cycle once flattened).
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    nx = n + 1
    src = "u" if phase == 1 else "shu"
    dmat = "dxt" if phase == 1 else "dx"
    loops = (
        Loop("k", nx),
        Loop("j", nx),
        Loop("i", nx, unroll=unroll_i),
        Loop("l", nx, unroll=nx),
    )
    src_r = src if phase == 1 else "shur"
    src_s = src if phase == 1 else "shus"
    src_t = src if phase == 1 else "shut"
    accesses = (
        Access(src_r, AccessKind.LOAD, {"l": 1, "j": nx, "k": nx * nx}),
        Access(src_s, AccessKind.LOAD, {"i": 1, "l": nx, "k": nx * nx}),
        Access(src_t, AccessKind.LOAD, {"i": 1, "j": nx, "l": nx * nx}),
        Access(dmat, AccessKind.LOAD, {"l": 1, "i": nx}, storage=Storage.REGISTER),
        Access(dmat, AccessKind.LOAD, {"l": 1, "j": nx}, storage=Storage.REGISTER),
        Access(dmat, AccessKind.LOAD, {"l": 1, "k": nx}, storage=Storage.REGISTER),
    )
    return LoopNest(
        name=f"ax_phase{phase}_grad(N={n})",
        loops=loops,
        accesses=accesses,
        adds=3,
        mults=3,
    )


def ax_geom_nest(n: int, unroll_i: int = 1) -> LoopNest:
    """Geometric-factor stage of phase 1: per DOF, 9 mults + 6 adds,
    reading the six split ``gxyz`` streams and writing the three work
    arrays (``shur``, ``shus``, ``shut``)."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    nx = n + 1
    loops = (
        Loop("k", nx),
        Loop("j", nx),
        Loop("i", nx, unroll=unroll_i),
    )
    dof_strides = {"i": 1, "j": nx, "k": nx * nx}
    accesses = tuple(
        Access(f"g{c}", AccessKind.LOAD, dof_strides) for c in range(6)
    ) + (
        Access("shur", AccessKind.STORE, dof_strides),
        Access("shus", AccessKind.STORE, dof_strides),
        Access("shut", AccessKind.STORE, dof_strides),
    )
    return LoopNest(
        name=f"ax_phase1_geom(N={n})",
        loops=loops,
        accesses=accesses,
        adds=6,
        mults=9,
    )


def ax_store_nest(n: int, unroll_i: int = 1) -> LoopNest:
    """Final writeback of phase 2: one store of ``w`` per DOF (no ops —
    the multiply-adds live in the phase-2 contraction nest)."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    nx = n + 1
    loops = (
        Loop("k", nx),
        Loop("j", nx),
        Loop("i", nx, unroll=unroll_i),
    )
    return LoopNest(
        name=f"ax_phase2_store(N={n})",
        loops=loops,
        accesses=(Access("w", AccessKind.STORE, {"i": 1, "j": nx, "k": nx * nx}),),
        adds=0,
        mults=0,
    )


def ax_kernel_nests(n: int, unroll_i: int = 1) -> tuple[LoopNest, ...]:
    """All sub-nests of the paper's ``Ax`` accelerator at unroll ``T``.

    Returned in pipeline order: phase-1 gradient, geometric stage,
    phase-2 transposed gradient, writeback.  In hardware these are fused
    into a single pipeline issuing ``T`` DOFs per cycle; the scheduler
    analyzes them jointly.
    """
    return (
        ax_grad_nest(n, unroll_i, phase=1),
        ax_geom_nest(n, unroll_i),
        ax_grad_nest(n, unroll_i, phase=2),
        ax_store_nest(n, unroll_i),
    )


# census: reference: tests/core/test_cost.py checks KernelCost against it
def ax_ops_per_dof(n: int) -> tuple[int, int]:
    """Derive the paper's cost ``C(N)`` from the IR.

    Sums each sub-nest's total op count and divides by ``(N+1)^3`` DOFs.
    Returns ``(adds, mults) = (6(N+1)+6, 6(N+1)+9)``.
    """
    nx = n + 1
    dofs = nx ** 3
    adds = mults = 0
    for nest in ax_kernel_nests(n):
        a, m = nest.ops_total()
        adds += a
        mults += m
    if adds % dofs or mults % dofs:
        raise AssertionError("op totals are not an integer multiple of DOFs")
    return adds // dofs, mults // dofs
