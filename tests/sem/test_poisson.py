"""Tests for repro.sem.poisson (problem assembly, manufactured solutions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    sine_manufactured,
)


@pytest.fixture(scope="module")
def problem5():
    ref = ReferenceElement.from_degree(5)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    return PoissonProblem(mesh)


class TestOperator:
    def test_global_operator_symmetric(self, problem5):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(problem5.n_dofs)
        v = rng.standard_normal(problem5.n_dofs)
        left = float(np.dot(v, problem5.apply_A(u)))
        right = float(np.dot(u, problem5.apply_A(v)))
        assert left == pytest.approx(right, rel=1e-11)

    def test_positive_definite_on_interior(self, problem5):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(problem5.n_dofs)
        u[~problem5.interior] = 0.0
        if np.linalg.norm(u) == 0:
            pytest.skip("degenerate draw")
        energy = float(np.dot(u, problem5.apply_A(u)))
        assert energy > 0

    def test_boundary_rows_masked(self, problem5):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(problem5.n_dofs)
        w = problem5.apply_A(u)
        assert np.all(w[~problem5.interior] == 0.0)

    def test_boundary_values_ignored(self, problem5):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(problem5.n_dofs)
        u2 = u.copy()
        u2[~problem5.interior] += 10.0
        assert np.allclose(problem5.apply_A(u), problem5.apply_A(u2))

    def test_noncontiguous_out_through_operator(self, problem5):
        """The batched-CG-path regression: apply_A into a
        Fortran-ordered / sliced ``out`` (as a serving layer slicing
        views out of pooled buffers would pass) must receive the real
        result, single and stacked."""
        rng = np.random.default_rng(5)
        u = rng.standard_normal(problem5.n_dofs)
        expect = problem5.apply_A(u)
        out_f = np.full((problem5.n_dofs, 2), np.nan)[:, 0]
        assert not out_f.flags.c_contiguous
        assert problem5.apply_A(u, out=out_f) is out_f
        assert np.array_equal(out_f, expect)

        stacked = rng.standard_normal((3, problem5.n_dofs))
        expect_b = problem5.apply_A(stacked)
        out_b = np.full((3, problem5.n_dofs), np.nan, order="F")
        assert not out_b.flags.c_contiguous
        assert problem5.apply_A(stacked, out=out_b) is out_b
        assert np.array_equal(out_b, expect_b)

    def test_precond_diag_cached(self, problem5):
        d1 = problem5.precond_diag()
        assert d1 is problem5.precond_diag()  # one assembly, reused
        assert np.array_equal(d1, problem5.jacobi_diagonal())

    def test_operator_property_is_apply_A(self, problem5):
        assert problem5.operator == problem5.apply_A

    def test_jacobi_diagonal_matches_operator(self, problem5):
        # diag(A)[i] = e_i^T A e_i for a sample of interior nodes.
        diag = problem5.jacobi_diagonal()
        interior_ids = np.flatnonzero(problem5.interior)[:: max(1, len(diag) // 17)]
        for i in interior_ids[:10]:
            e = np.zeros(problem5.n_dofs)
            e[i] = 1.0
            assert problem5.apply_A(e)[i] == pytest.approx(diag[i], rel=1e-10)

    def test_jacobi_diagonal_positive(self, problem5):
        assert np.all(problem5.jacobi_diagonal() > 0)


class TestRhsAndErrors:
    def test_rhs_is_masked(self, problem5):
        _, forcing = sine_manufactured(problem5.mesh.extent)
        b = problem5.rhs_from_forcing(forcing)
        assert np.all(b[~problem5.interior] == 0.0)

    def test_nodal_values_roundtrip(self, problem5):
        u = lambda x, y, z: x + 2 * y - z
        vals = problem5.nodal_values(u)
        x, y, z = problem5.mesh.coords
        back = problem5.gs.scatter(vals)
        assert np.allclose(back, x + 2 * y - z, atol=1e-12)

    def test_l2_error_of_exact_nodal_field_is_small(self, problem5):
        u = lambda x, y, z: np.sin(x) * np.cos(y) * z
        vals = problem5.nodal_values(u)
        assert problem5.l2_error(vals, u) < 1e-12

    def test_l2_error_scale(self, problem5):
        # Error of the zero field against u=1 equals sqrt(volume).
        one = lambda x, y, z: np.ones_like(x)
        err = problem5.l2_error(np.zeros(problem5.n_dofs), one)
        assert err == pytest.approx(1.0, rel=1e-10)


class TestManufactured:
    def test_forcing_matches_laplacian(self):
        # -lap(u) for the sine solution: check via finite differences.
        u, f = sine_manufactured((1.0, 1.0, 1.0))
        h = 1e-4
        pt = (np.array([0.3]), np.array([0.4]), np.array([0.6]))
        lap = 0.0
        for d in range(3):
            hi = [pt[0].copy(), pt[1].copy(), pt[2].copy()]
            lo = [pt[0].copy(), pt[1].copy(), pt[2].copy()]
            hi[d] += h
            lo[d] -= h
            lap += (u(*hi) + u(*lo) - 2 * u(*pt)) / h ** 2
        assert f(*pt)[0] == pytest.approx(-lap[0], rel=1e-6)

    def test_zero_on_boundary(self):
        u, _ = sine_manufactured((2.0, 1.0, 1.0))
        x = np.array([0.0, 2.0, 1.0])
        y = np.array([0.5, 0.5, 0.0])
        z = np.array([0.5, 0.5, 0.5])
        assert np.allclose(u(x, y, z), 0.0, atol=1e-14)


class TestSolve:
    @pytest.mark.parametrize("degree,tol", ((4, 1e-4), (7, 1e-7)))
    def test_spectral_accuracy(self, degree, tol):
        ref = ReferenceElement.from_degree(degree)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(mesh)
        u_exact, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        res = cg_solve(prob.apply_A, b, precond_diag=prob.jacobi_diagonal(),
                       tol=1e-12, maxiter=1000)
        assert res.converged
        assert prob.l2_error(res.x, u_exact) < tol

    def test_solve_on_curved_mesh(self, curved_mesh3):
        # Deformed interior, undisturbed boundary is not guaranteed by the
        # fixture; instead verify the operator stays SPD and CG converges
        # on a random SPD system.
        prob = PoissonProblem(curved_mesh3)
        rng = np.random.default_rng(11)
        x_true = rng.standard_normal(prob.n_dofs)
        x_true[~prob.interior] = 0.0
        b = prob.apply_A(x_true)
        res = cg_solve(prob.apply_A, b, precond_diag=prob.jacobi_diagonal(),
                       tol=1e-12, maxiter=3000)
        assert res.converged
        assert np.allclose(res.x[prob.interior], x_true[prob.interior], atol=1e-7)

    def test_custom_backend_is_used(self, ref3):
        calls = []

        def backend(ref, u, g):
            calls.append(u.shape)
            from oracles import ax_local

            return ax_local(ref, u, g)

        mesh = BoxMesh.build(ref3, (1, 1, 1))
        prob = PoissonProblem(mesh, ax_backend=backend)
        u = np.zeros(prob.n_dofs)
        prob.apply_A(u)
        assert len(calls) == 1
