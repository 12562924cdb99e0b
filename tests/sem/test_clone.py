"""Tests for the problems' clone()/share-geometry replica protocol."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    GatherScatter,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cosine_manufactured,
    sine_manufactured,
)


@pytest.fixture(scope="module")
def poisson():
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 1))
    return PoissonProblem(mesh, ax_backend="matmul")


class TestSharedGatherScatter:
    """The gather-scatter is stateless, so replicas share one instance."""

    def test_one_operator_serves_concurrent_threads(self, mesh3):
        gs = GatherScatter.from_mesh(mesh3)
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((4,) + mesh3.l2g.shape)
        want = [gs.gather(f) for f in fields]
        got: dict[int, bool] = {}

        def loop(k: int) -> None:
            out = np.empty(gs.n_global)
            local = np.empty(gs.local_shape)
            ok = True
            for _ in range(200):
                ok &= np.array_equal(gs.gather(fields[k], out=out), want[k])
                gs.scatter(out, out=local)
                ok &= np.array_equal(local.reshape(-1), want[k][gs.l2g_flat])
            got[k] = ok

        threads = [threading.Thread(target=loop, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: True for k in range(4)}


class TestProblemClone:
    def test_clone_covers_every_attribute(self, poisson):
        """Drift guard: a clone must carry exactly the attribute set of
        its source (share-by-default copy), so a field added later can
        never be silently dropped from replicas."""
        assert set(vars(poisson.clone())) == set(vars(poisson))
        case = NekboneCase(2, (2, 1, 1), ax_backend="matmul")
        assert set(vars(case.clone())) == set(vars(case))

    def test_poisson_clone_shares_immutable_state(self, poisson):
        twin = poisson.clone()
        assert twin.mesh is poisson.mesh
        assert twin.geometry is poisson.geometry
        assert twin.interior is poisson.interior
        assert twin.ax_backend is poisson.ax_backend
        # One assembled Jacobi diagonal serves every replica.
        assert twin.precond_diag() is poisson.precond_diag()
        # The gather-scatter is stateless: one instance (and its dtype
        # twins) serves every replica.
        assert twin.gs is poisson.gs
        assert twin.gs.as_dtype(np.float32) is poisson.gs.as_dtype(np.float32)
        # Mutable per-solve state is private.
        assert twin.workspace is not poisson.workspace
        assert twin.batch_workspace(2) is not poisson.batch_workspace(2)

    def test_poisson_clone_solves_bit_identical(self, poisson):
        _, forcing = sine_manufactured(poisson.mesh.extent)
        b = poisson.rhs_from_forcing(forcing)
        want = cg_solve(
            poisson.apply_A, b, precond_diag=poisson.precond_diag(),
            tol=1e-10, maxiter=200, workspace=poisson.workspace,
        )
        twin = poisson.clone()
        got = cg_solve(
            twin.apply_A, b, precond_diag=twin.precond_diag(),
            tol=1e-10, maxiter=200, workspace=twin.workspace,
        )
        assert np.array_equal(got.x, want.x)
        assert got.residual_history == want.residual_history

    def test_clones_solve_concurrently_without_corruption(self, poisson):
        """Two replicas solving at once must not share any mutable
        buffer — the property sharding is built on."""
        _, forcing = sine_manufactured(poisson.mesh.extent)
        b = poisson.rhs_from_forcing(forcing)
        want = cg_solve(
            poisson.apply_A, b, precond_diag=poisson.precond_diag(),
            tol=1e-10, maxiter=200, workspace=poisson.workspace,
        )
        replicas = [poisson.clone() for _ in range(2)]
        results: dict[int, object] = {}

        def solve_loop(k: int) -> None:
            prob = replicas[k]
            for _ in range(20):
                results[k] = cg_solve(
                    prob.apply_A, b, precond_diag=prob.precond_diag(),
                    tol=1e-10, maxiter=200, workspace=prob.workspace,
                )

        threads = [
            threading.Thread(target=solve_loop, args=(k,)) for k in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(2):
            assert np.array_equal(results[k].x, want.x)
            assert results[k].residual_history == want.residual_history

    def test_helmholtz_clone(self):
        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        prob = HelmholtzProblem(mesh, lam=1.0, ax_backend="matmul")
        _, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b = prob.rhs_from_function(forcing)
        twin = prob.clone()
        assert twin.geometry is prob.geometry
        assert twin.lam == prob.lam
        assert twin.workspace is not prob.workspace
        want = cg_solve(
            prob.apply, b, precond_diag=prob.precond_diag(),
            workspace=prob.workspace,
        )
        got = cg_solve(
            twin.apply, b, precond_diag=twin.precond_diag(),
            workspace=twin.workspace,
        )
        assert np.array_equal(got.x, want.x)

    def test_nekbone_clone(self):
        case = NekboneCase(2, (2, 1, 1), ax_backend="matmul")
        twin = case.clone()
        assert twin.problem is not case.problem
        assert twin.problem.geometry is case.problem.geometry
        assert twin.n == case.n and twin.shape == case.shape
        _, forcing = sine_manufactured(case.problem.mesh.extent)
        b = case.problem.rhs_from_forcing(forcing)
        want = cg_solve(
            case.operator, b, precond_diag=case.precond_diag(),
            workspace=case.workspace,
        )
        got = cg_solve(
            twin.operator, b, precond_diag=twin.precond_diag(),
            workspace=twin.workspace,
        )
        assert np.array_equal(got.x, want.x)
