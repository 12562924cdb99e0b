"""Property-based tests (hypothesis) for CG and the mesh layer."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sem.cg import cg_solve
from repro.sem.element import ReferenceElement
from repro.sem.mesh import BoxMesh


@given(
    n=st.integers(min_value=3, max_value=30),
    cond_exp=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_cg_solves_any_spd_system(n, cond_exp, seed):
    """CG + Jacobi converges on random SPD systems of any conditioning
    up to 1e4 and returns the true solution."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.geomspace(1.0, 10.0 ** cond_exp, n)
    a = (q * eig) @ q.T
    x_true = rng.standard_normal(n)
    b = a @ x_true
    res = cg_solve(
        lambda v: a @ v, b, precond_diag=np.diag(a).copy(),
        tol=1e-12, maxiter=50 * n,
    )
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6 * (1 + np.abs(x_true).max()))


@given(
    n=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_cg_residual_matches_definition(n, seed):
    """The reported residual norm equals ||b - A x|| of the iterate."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    res = cg_solve(lambda v: a @ v, b, tol=1e-10, maxiter=5)
    true_res = float(np.linalg.norm(b - a @ res.x))
    assert true_res == pytest.approx(res.residual_norm, rel=1e-6, abs=1e-9)


@given(
    ex=st.integers(min_value=1, max_value=3),
    ey=st.integers(min_value=1, max_value=3),
    ez=st.integers(min_value=1, max_value=2),
    degree=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_mesh_invariants(ex, ey, ez, degree):
    """Structural invariants of any box mesh: global node count, l2g
    surjectivity, boundary size, multiplicity bounds."""
    ref = ReferenceElement.from_degree(degree)
    mesh = BoxMesh.build(ref, (ex, ey, ez))
    ngx, ngy, ngz = mesh.global_grid
    assert mesh.n_global == ngx * ngy * ngz
    ids = np.unique(mesh.l2g)
    assert ids[0] == 0 and ids[-1] == mesh.n_global - 1
    assert len(ids) == mesh.n_global
    mult = np.bincount(mesh.l2g.ravel(), minlength=mesh.n_global)
    assert mult.min() >= 1 and mult.max() <= 8  # at most 8 elements share a vertex
    boundary = mesh.boundary_mask()
    interior = (ngx - 2) * (ngy - 2) * (ngz - 2)
    assert np.count_nonzero(~boundary) == max(0, interior)


@given(
    degree=st.integers(min_value=1, max_value=4),
    amp=st.floats(min_value=0.0, max_value=0.05),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=20, deadline=None)
def test_small_deformations_keep_mesh_valid(degree, amp, seed):
    """Any smooth deformation with small amplitude keeps all Jacobians
    positive (geometric_factors accepts the mesh)."""
    from repro.sem.geometry import geometric_factors

    rng = np.random.default_rng(seed)
    kx, ky, kz = rng.integers(1, 3, size=3)
    ref = ReferenceElement.from_degree(degree)
    mesh = BoxMesh.build(ref, (2, 2, 1)).deform(
        lambda x, y, z: (
            x + amp * np.sin(np.pi * kx * y),
            y + amp * np.sin(np.pi * ky * z),
            z + amp * np.sin(np.pi * kz * x),
        )
    )
    geo = geometric_factors(mesh)
    assert np.all(geo.jac > 0)
    # Volume change is bounded by the deformation amplitude.
    assert geo.mass.sum() == pytest.approx(1.0, rel=10 * amp + 1e-9)


@functools.cache
def _masked_poisson():
    """Poisson at N = 5 on 4 x 4 x 4 elements and an interior-masked
    white-noise rhs."""
    from repro.sem import PoissonProblem

    prob = PoissonProblem(BoxMesh.build(ReferenceElement.from_degree(5),
                                        (4, 4, 4)))
    rng = np.random.default_rng(17)
    return prob, rng.standard_normal(prob.n_dofs) * prob.interior


@given(k=st.integers(min_value=-1000, max_value=1000))
@example(k=-1000)
@example(k=-600)  # ||b||^2 underflows to 0 in fp64
@example(k=-140)  # b underflows in fp32
@example(k=140)  # b overflows in fp32
@example(k=600)  # ||b||^2 overflows in fp64
@example(k=1000)
@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("precision", ("fp64", "mixed"))
def test_a_scaled_rhs_is_solved_or_reported_unsolved(precision, k):
    """``b * 2^k`` over the whole fp64 exponent range, at either
    precision: a result reported converged meets ``tol`` on its true
    residual, computed on the system scaled back by ``2^-k`` (where
    nothing under- or overflows), or it says it did not converge.  Never
    ``converged`` on a wrong ``x``."""
    prob, b = _masked_poisson()
    tol = 1e-8
    b_k = np.ldexp(b, k)
    res = prob.solve(b_k, tol=tol, maxiter=1000, precision=precision)
    if res.converged:
        b_0, x_0 = np.ldexp(b_k, -k), np.ldexp(res.x, -k)
        true = np.linalg.norm(b_0 - prob.apply_A(x_0))
        assert true <= tol * np.linalg.norm(b_0)
