"""Tests for repro.sem.helmholtz (BK5-style operator/problem)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import BoxMesh, ReferenceElement, cg_solve
from repro.sem.helmholtz import HelmholtzProblem, cosine_manufactured


@pytest.fixture(scope="module")
def problem5():
    ref = ReferenceElement.from_degree(5)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    return HelmholtzProblem(mesh, lam=1.0)


class TestOperator:
    def test_strictly_positive_definite(self, problem5):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(problem5.n_dofs)
        energy = float(np.dot(u, problem5.apply(u)))
        assert energy > 0

    def test_constants_not_in_nullspace(self, problem5):
        # Unlike pure Poisson, the mass term sees constants:
        # <1, (A + lam B) 1> = lam * volume.
        one = np.ones(problem5.n_dofs)
        energy = float(np.dot(one, problem5.apply(one)))
        assert energy == pytest.approx(1.0, rel=1e-10)  # lam=1, unit box

    def test_symmetric(self, problem5):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(problem5.n_dofs)
        v = rng.standard_normal(problem5.n_dofs)
        assert float(np.dot(v, problem5.apply(u))) == pytest.approx(
            float(np.dot(u, problem5.apply(v))), rel=1e-11
        )

    def test_diagonal_matches_operator(self, problem5):
        diag = problem5.diagonal()
        for i in (0, problem5.n_dofs // 2, problem5.n_dofs - 1):
            e = np.zeros(problem5.n_dofs)
            e[i] = 1.0
            assert problem5.apply(e)[i] == pytest.approx(diag[i], rel=1e-10)

    def test_lambda_validation(self):
        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (1, 1, 1))
        with pytest.raises(ValueError, match="> 0"):
            HelmholtzProblem(mesh, lam=0.0)

    def test_reduces_to_poisson_plus_mass(self, problem5):
        # apply(u) - lam*B*u (gathered) equals the masked-free Poisson op.
        rng = np.random.default_rng(2)
        u = rng.standard_normal(problem5.n_dofs)
        w = problem5.apply(u)
        u_local = problem5.gs.scatter(u)
        from oracles import ax_local

        stiff = problem5.gs.gather(
            ax_local(problem5.ref, u_local, problem5.geometry.g)
        )
        mass = problem5.gs.gather(problem5.geometry.mass * u_local)
        assert np.allclose(w, stiff + mass, atol=1e-11)


class TestManufactured:
    def test_neumann_compatible(self):
        # du/dn = 0 on the box boundary for the cosine solution.
        u, _ = cosine_manufactured((1.0, 1.0, 1.0))
        h = 1e-6
        x = np.array([0.0])
        y = np.array([0.37])
        z = np.array([0.61])
        dudx = (u(x + h, y, z) - u(x, y, z)) / h
        assert abs(dudx[0]) < 1e-5

    def test_forcing_identity(self):
        lam = 2.5
        u, f = cosine_manufactured((1.0, 1.0, 1.0), lam=lam)
        pt = (np.array([0.3]), np.array([0.45]), np.array([0.7]))
        h = 1e-4
        lap = 0.0
        for d in range(3):
            hi = [c.copy() for c in pt]
            lo = [c.copy() for c in pt]
            hi[d] += h
            lo[d] -= h
            lap += (u(*hi) + u(*lo) - 2 * u(*pt)) / h ** 2
        assert f(*pt)[0] == pytest.approx(-lap[0] + lam * u(*pt)[0], rel=1e-6)


class TestSolve:
    @pytest.mark.parametrize("n,tol", ((4, 1e-4), (6, 1e-7)))
    def test_spectral_accuracy(self, n, tol):
        ref = ReferenceElement.from_degree(n)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = HelmholtzProblem(mesh, lam=1.0)
        u_exact, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b = prob.rhs_from_function(forcing)
        res = cg_solve(prob.apply, b, precond_diag=prob.diagonal(),
                       tol=1e-13, maxiter=2000)
        assert res.converged
        assert prob.l2_error(res.x, u_exact) < tol

    def test_fpga_backend_identical(self):
        from repro import AcceleratorConfig, SEMAccelerator
        from repro.hardware.fpga import STRATIX10_GX2800

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        cpu = HelmholtzProblem(mesh, lam=1.0)
        acc = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        fpga = HelmholtzProblem(mesh, lam=1.0, ax_backend=acc.as_ax_backend())
        rng = np.random.default_rng(3)
        u = rng.standard_normal(cpu.n_dofs)
        assert np.allclose(cpu.apply(u), fpga.apply(u), rtol=1e-13, atol=1e-13)


class TestBatchedApply:
    """Stacked (B, n) blocks through HelmholtzProblem.apply."""

    def test_batched_apply_matches_per_system_workspace_backend(self):
        from repro.sem import HelmholtzProblem

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = HelmholtzProblem(mesh, lam=1.5, ax_backend="matmul")
        rng = np.random.default_rng(31)
        block = rng.standard_normal((3, mesh.n_global))
        batched = prob.apply(block)
        assert batched.shape == block.shape
        for b in range(3):
            assert np.allclose(
                batched[b], prob.apply(block[b]), rtol=1e-13, atol=1e-13
            )

    def test_batched_apply_default_einsum_backend(self):
        from repro.sem import HelmholtzProblem

        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        prob = HelmholtzProblem(mesh)
        rng = np.random.default_rng(32)
        block = rng.standard_normal((2, mesh.n_global))
        batched = prob.apply(block)
        for b in range(2):
            assert np.allclose(
                batched[b], prob.apply(block[b]), rtol=1e-13, atol=1e-13
            )

    def test_batched_solve_converges(self):
        from repro.sem import HelmholtzProblem, cg_solve_batched
        from repro.sem.helmholtz import cosine_manufactured

        ref = ReferenceElement.from_degree(4)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = HelmholtzProblem(mesh, lam=1.0, ax_backend="matmul")
        u_exact, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b0 = prob.rhs_from_function(forcing)
        block = np.stack([b0, 2.0 * b0])
        res = cg_solve_batched(
            prob.apply, block, precond_diag=prob.diagonal(),
            tol=1e-11, maxiter=500, workspace=prob.batch_workspace(2),
        )
        assert res.all_converged
        assert prob.l2_error(res.x[0], u_exact) < 1e-4
        assert np.allclose(res.x[1], 2.0 * res.x[0], rtol=1e-7, atol=1e-10)
