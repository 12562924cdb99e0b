"""Accelerator bring-up validation harness.

What a hardware team runs after synthesis: sweep degrees and meshes,
execute the accelerator against an independent reference (the Listing-1
port), check its lane-faithful element path bit for bit against it,
and produce a signed-off validation report.  The library uses it in
tests and exposes it for
downstream users who modify the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accel.config import AcceleratorConfig
from repro.core.accel.kernel import SEMAccelerator
from repro.core.device import FPGADevice
from repro.sem.element import ReferenceElement
from repro.sem.geometry import geometric_factors
from repro.sem.mesh import BoxMesh
from repro.sem.operators import ax_local_listing1
from repro.util.tables import TextTable


@dataclass(frozen=True)
class ValidationCase:
    """One validation point: degree, mesh, deformation amplitude."""

    n: int
    shape: tuple[int, int, int] = (2, 1, 1)
    deform_amplitude: float = 0.04
    seed: int = 0


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of one case: the error against the Listing-1 reference."""

    case: ValidationCase
    max_err_vs_listing1: float
    bit_exact_detailed: bool
    passed: bool


#: Default acceptance threshold: relative to the Listing-1 reference
#: the vectorized dataflow may differ only by reassociation round-off.
DEFAULT_TOLERANCE: float = 1e-12


def run_case(
    case: ValidationCase,
    device: FPGADevice,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ValidationOutcome:
    """Execute one validation case on ``device``."""
    ref = ReferenceElement.from_degree(case.n)
    amp = case.deform_amplitude
    mesh = BoxMesh.build(ref, case.shape)
    if amp > 0:
        mesh = mesh.deform(
            lambda x, y, z: (
                x + amp * np.sin(np.pi * y),
                y + amp * np.sin(np.pi * z),
                z + amp * np.sin(np.pi * x),
            )
        )
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(case.seed)
    u = rng.standard_normal((mesh.num_elements,) + (ref.n_points,) * 3)

    acc = SEMAccelerator(AcceleratorConfig.banked(case.n), device)
    w, _ = acc.run(u, geo.g)
    w_listing = ax_local_listing1(ref, u, geo.g)
    scale = float(np.max(np.abs(w_listing))) + 1.0
    err_listing = float(np.max(np.abs(w - w_listing))) / scale

    # Lane-faithful per-element path must be bit-exact vs Listing 1.
    bit_exact = all(
        np.array_equal(
            acc.execute_element_detailed(u[e], geo.g[e]), w_listing[e]
        )
        for e in range(min(mesh.num_elements, 2))
    )
    passed = err_listing < tolerance and bit_exact
    return ValidationOutcome(
        case=case,
        max_err_vs_listing1=err_listing,
        bit_exact_detailed=bit_exact,
        passed=passed,
    )


def default_cases() -> tuple[ValidationCase, ...]:
    """The standard bring-up matrix: all synthesized degrees, affine and
    deformed meshes."""
    cases: list[ValidationCase] = []
    for n in (1, 2, 3, 4, 5, 7, 9):
        cases.append(ValidationCase(n=n, deform_amplitude=0.0, seed=n))
        cases.append(ValidationCase(n=n, deform_amplitude=0.04, seed=n + 100))
    return tuple(cases)


def validate_accelerator(
    device: FPGADevice,
    cases: tuple[ValidationCase, ...] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, str]:
    """Run the matrix and render a sign-off report.

    Returns ``(all_passed, report_text)``.
    """
    outcomes = [run_case(c, device, tolerance) for c in (cases or default_cases())]
    table = TextTable(
        ["N", "mesh", "deformed", "err vs listing1", "bit-exact lanes",
         "pass"],
        title=f"Accelerator validation on {device.name} (tol {tolerance:g})",
        floatfmt=".2e",
    )
    for o in outcomes:
        table.add_row(
            [
                o.case.n,
                "x".join(map(str, o.case.shape)),
                o.case.deform_amplitude > 0,
                o.max_err_vs_listing1,
                o.bit_exact_detailed,
                o.passed,
            ]
        )
    all_passed = all(o.passed for o in outcomes)
    verdict = "ALL CASES PASSED" if all_passed else "FAILURES PRESENT"
    return all_passed, table.render() + f"\n{verdict}"
