"""Tests for the mixed-precision solve path (fp32 inner Jacobi-CG +
fp64 iterative refinement): dtype-generic gather-scatter, the
``cg_solve_mixed`` accuracy contract on deformed Poisson / Helmholtz /
Nekbone, the fp64 bit-identity guard, and workspace footprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cosine_manufactured,
    sine_manufactured,
)
from repro.sem.cg import (
    BatchedMixedCGResult,
    MixedCGResult,
    cg_solve_batched_mixed,
    cg_solve_mixed,
    check_precision,
)
from repro.sem.gather_scatter import GatherScatter


def deformed_poisson(n=4, shape=(2, 2, 2), precision="fp64"):
    """A warped-box Poisson case (non-constant geometric factors)."""
    ref = ReferenceElement.from_degree(n)
    mesh = BoxMesh.build(ref, shape).deform(
        lambda x, y, z: (
            x + 0.04 * np.sin(np.pi * x) * np.sin(np.pi * y),
            y + 0.04 * np.sin(np.pi * y) * np.sin(np.pi * z),
            z + 0.04 * np.sin(np.pi * z) * np.sin(np.pi * x),
        )
    )
    prob = PoissonProblem(mesh, ax_backend="matmul", precision=precision)
    _, forcing = sine_manufactured(mesh.extent)
    return prob, prob.rhs_from_forcing(forcing)


class TestCheckPrecision:
    def test_valid_values_pass_through(self):
        assert check_precision("fp64") == "fp64"
        assert check_precision("mixed") == "mixed"

    @pytest.mark.parametrize("bad", ("fp32", "half", "", None, 64))
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError, match="precision"):
            check_precision(bad)


@pytest.fixture(scope="module")
def gs_pair():
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 1))
    gs = GatherScatter.from_mesh(mesh)
    return mesh, gs


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
class TestDtypeGatherScatter:
    """The PR-3 gather/scatter contracts, re-run per dtype through
    ``as_dtype`` — the fp32 twin must satisfy every round-trip the fp64
    original does, in its own arithmetic."""

    def test_roundtrip_scales_by_multiplicity(self, gs_pair, dtype):
        _, gs64 = gs_pair
        gs = gs64.as_dtype(dtype)
        assert gs.multiplicity().dtype == dtype
        rng = np.random.default_rng(3)
        v = rng.standard_normal(gs.n_global).astype(dtype)
        got = gs.gather(gs.scatter(v))
        assert got.dtype == dtype
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(got, v * gs.multiplicity(), rtol=rtol)

    def test_gather_sums_interface_contributions(self, gs_pair, dtype):
        _, gs64 = gs_pair
        gs = gs64.as_dtype(dtype)
        ones = np.ones(gs.local_shape, dtype)
        assert np.array_equal(gs.gather(ones), gs.multiplicity())

    def test_noncontiguous_out_roundtrip(self, gs_pair, dtype):
        """The PR-3 silent-corruption hazard, per dtype: Fortran-ordered
        and padded-slice ``out=`` targets go through the permutation
        scratch and must round-trip exactly."""
        _, gs64 = gs_pair
        gs = gs64.as_dtype(dtype)
        rng = np.random.default_rng(7)
        local = rng.standard_normal(gs.local_shape).astype(dtype)
        g = gs.gather(local)
        expect_scatter = gs.scatter(g)

        out_f = np.full(gs.local_shape, np.nan, dtype=dtype, order="F")
        assert not out_f.flags.c_contiguous
        assert gs.scatter(g, out=out_f) is out_f
        assert np.array_equal(out_f, expect_scatter)

        slab = np.full(
            gs.local_shape[:-1] + (gs.local_shape[-1] + 1,), np.nan,
            dtype=dtype,
        )
        out_s = slab[..., :-1]
        assert not out_s.flags.c_contiguous
        assert gs.scatter(g, out=out_s) is out_s
        assert np.array_equal(out_s, expect_scatter)

        gbuf = np.full((gs.n_global, 2), np.nan, dtype=dtype)
        out_g = gbuf[:, 0]
        assert not out_g.flags.c_contiguous
        assert gs.gather(local, out=out_g) is out_g
        assert np.array_equal(out_g, g)

    def test_batched_matches_per_system(self, gs_pair, dtype):
        _, gs64 = gs_pair
        gs = gs64.as_dtype(dtype)
        rng = np.random.default_rng(11)
        local = rng.standard_normal((3,) + gs.local_shape).astype(dtype)
        batched = gs.gather(local)
        assert batched.dtype == dtype
        for b in range(3):
            assert np.array_equal(batched[b], gs.gather(local[b]))


class TestAsDtype:
    def test_fp64_returns_self(self, gs_pair):
        _, gs = gs_pair
        assert gs.as_dtype(np.float64) is gs

    def test_twin_is_cached(self, gs_pair):
        _, gs = gs_pair
        assert gs.as_dtype(np.float32) is gs.as_dtype(np.float32)

    def test_twin_shares_the_map_not_the_float_caches(self, gs_pair):
        _, gs = gs_pair
        twin = gs.as_dtype(np.float32)
        assert twin.l2g_flat is gs.l2g_flat
        assert twin.multiplicity().dtype == np.float32
        assert np.array_equal(twin.multiplicity(), gs.multiplicity())

    def test_geometry_twin_read_only_and_value_close(self):
        prob, _ = deformed_poisson()
        geo32 = prob.geometry.as_dtype(np.float32)
        assert geo32.g_soa.dtype == np.float32
        assert not geo32.g_soa.flags.writeable
        np.testing.assert_allclose(
            geo32.g_soa, prob.geometry.g_soa, rtol=1e-6
        )


class TestMixedSolveAccuracy:
    """The accuracy contract: ``cg_solve_mixed`` reaches the caller's
    fp64 tolerance, judged on the recomputed true residual."""

    def test_deformed_poisson_reaches_fp64_tol(self):
        prob, b = deformed_poisson()
        tol = 1e-10
        result = prob.solve(b, tol=tol, precision="mixed")
        assert isinstance(result, MixedCGResult)
        assert result.converged
        assert result.sweeps >= 1
        assert len(result.inner_iterations) == result.sweeps
        # The contract is on the TRUE fp64 residual, recomputed here
        # rather than trusted from the result object.
        true_res = np.linalg.norm(b - prob.apply_A(result.x))
        assert true_res <= tol * np.linalg.norm(b)

    def test_helmholtz_reaches_fp64_tol(self):
        ref = ReferenceElement.from_degree(4)
        mesh = BoxMesh.build(ref, (2, 2, 2)).deform(
            lambda x, y, z: (x + 0.03 * np.sin(np.pi * y), y, z)
        )
        prob = HelmholtzProblem(mesh, lam=1.0, ax_backend="matmul")
        _, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b = prob.rhs_from_function(forcing)
        tol = 1e-10
        result = prob.solve(b, tol=tol, precision="mixed")
        assert isinstance(result, MixedCGResult)
        assert result.converged
        true_res = np.linalg.norm(b - prob.apply(result.x))
        assert true_res <= tol * np.linalg.norm(b)

    def test_nekbone_mixed_run(self):
        case = NekboneCase(3, (2, 2, 2), ax_backend="matmul",
                           precision="mixed")
        report, result = case.run(iterations=200, tol=1e-10)
        assert isinstance(result, MixedCGResult)
        assert result.converged
        assert report.mflops > 0

    def test_nekbone_mixed_requires_positive_tol(self):
        case = NekboneCase(3, (2, 2, 2), ax_backend="matmul",
                           precision="mixed")
        with pytest.raises(ValueError, match="tol"):
            case.run(iterations=10, tol=0.0)

    def test_residual_history_matches_sweeps(self):
        prob, b = deformed_poisson()
        result = prob.solve(b, tol=1e-10, precision="mixed")
        assert len(result.residual_history) == result.sweeps + 1
        assert result.residual_norm == result.residual_history[-1]
        assert result.iterations == sum(result.inner_iterations)

    def test_mixed_precision_default_on_problem(self):
        prob, b = deformed_poisson(precision="mixed")
        result = prob.solve(b, tol=1e-10)
        assert isinstance(result, MixedCGResult)
        assert result.converged

    def test_per_call_fp64_override_on_mixed_problem(self):
        prob, b = deformed_poisson(precision="mixed")
        result = prob.solve(b, tol=1e-10, precision="fp64")
        assert not isinstance(result, MixedCGResult)
        assert result.converged

    def test_invalid_precision_rejected(self):
        prob, b = deformed_poisson()
        with pytest.raises(ValueError, match="precision"):
            prob.solve(b, precision="fp32")
        with pytest.raises(ValueError, match="precision"):
            PoissonProblem(prob.mesh, precision="quad")


class TestBatchedMixed:
    def test_matches_solo_solves(self):
        prob, b = deformed_poisson()
        bs = np.stack([b, 2.0 * b, 0.5 * b])
        res = cg_solve_batched_mixed(
            prob.apply_A, prob.apply_A32, bs,
            precond_diag=prob.precond_diag(), tol=1e-10, maxiter=500,
            workspace=prob.batch_workspace(3),
            workspace32=prob.batch_workspace(3, dtype=np.float32),
        )
        assert isinstance(res, BatchedMixedCGResult)
        assert np.all(res.converged)
        nb = np.linalg.norm(bs, axis=1)
        true = np.linalg.norm(
            bs - np.stack([prob.apply_A(res.x[k]) for k in range(3)]),
            axis=1,
        )
        assert np.all(true <= 1e-10 * nb)
        # The serving contract: a system refined inside a block finishes
        # bit-identically to the same system refined alone.
        for k in range(3):
            solo = cg_solve_mixed(
                prob.apply_A, prob.apply_A32, bs[k],
                precond_diag=prob.precond_diag(), tol=1e-10, maxiter=500,
                workspace=prob.workspace,
                workspace32=prob.batch_workspace(1, dtype=np.float32),
            )
            assert np.array_equal(res.x[k], solo.x)
            assert int(res.sweeps[k]) == solo.sweeps
            assert int(res.iterations[k]) == solo.iterations
            # ...in every field (the workspace / preconditioner / x0
            # grid of this contract lives in test_cg.py's
            # test_solo_equals_block_row_bit_for_bit).
            row = res.row(k)
            assert isinstance(row, MixedCGResult)
            assert row.residual_history == solo.residual_history
            assert row.inner_iterations == solo.inner_iterations
            assert (row.converged, row.residual_norm) == (
                solo.converged, solo.residual_norm
            )

    def test_inner_iterations_matrix_prefix_recovers_solo(self):
        prob, b = deformed_poisson()
        bs = np.stack([b, 3.0 * b])
        res = cg_solve_batched_mixed(
            prob.apply_A, prob.apply_A32, bs,
            precond_diag=prob.precond_diag(), tol=1e-10, maxiter=500,
            workspace=prob.batch_workspace(2),
            workspace32=prob.batch_workspace(2, dtype=np.float32),
        )
        sweeps = res.residual_history.shape[0] - 1
        assert res.inner_iterations.shape == (sweeps, 2)
        for k in range(2):
            sweeps_k = int(res.sweeps[k])
            prefix = res.inner_iterations[:sweeps_k, k]
            assert np.all(prefix > 0)
            # Frozen tail rows contribute zero inner iterations.
            assert np.all(res.inner_iterations[sweeps_k:, k] == 0)
            assert int(res.iterations[k]) == int(prefix.sum())


@pytest.mark.usefixtures("reference_loop")
class TestBatchedMixedNumpyBody(TestBatchedMixed):
    """Stacked-mixed == solo-mixed on the reference loop."""


class TestFp64BitIdentity:
    """The regression guard: ``precision="fp64"`` must remain
    bit-identical to the plain fp64 path — the dtype generalization is
    not allowed to perturb a single bit of the historical results."""

    def test_problem_solve_matches_direct_cg(self):
        prob, b = deformed_poisson()
        want = cg_solve(
            prob.apply_A, b, precond_diag=prob.precond_diag(),
            tol=1e-10, maxiter=500, workspace=prob.workspace,
        )
        got = prob.solve(b, tol=1e-10, maxiter=500, precision="fp64")
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.residual_norm == want.residual_norm
        assert got.residual_history == want.residual_history

    def test_fp64_apply_unperturbed_by_fp32_twin_use(self):
        prob, b = deformed_poisson()
        before = prob.apply_A(b).copy()
        # Exercise the fp32 twin machinery (twin caches, fp32 scratch).
        prob.apply_A32(b.astype(np.float32))
        prob.solve(b, tol=1e-8, precision="mixed")
        assert np.array_equal(prob.apply_A(b), before)


class TestWorkspaceFootprint:
    def test_fp32_workspace_strictly_smaller(self):
        prob, _ = deformed_poisson()

        def nbytes(ws):  # a workspace holds nothing but its buffers
            return sum(buf.nbytes for buf in vars(ws).values()
                       if isinstance(buf, np.ndarray))

        for batch in (1, 4):
            ws64 = nbytes(prob.batch_workspace(batch))
            ws32 = nbytes(prob.batch_workspace(batch, dtype=np.float32))
            assert ws32 < ws64
            # The field buffers halve; only the pinned fp64 scalar
            # buffers and the bool mask keep the ratio above 1/2.
            assert ws32 < 0.75 * ws64

    def test_batch_workspace_cached_per_dtype(self):
        prob, _ = deformed_poisson()
        assert prob.batch_workspace(1) is prob.workspace
        assert prob.batch_workspace(2) is prob.batch_workspace(2)
        ws32 = prob.batch_workspace(2, dtype=np.float32)
        assert ws32 is prob.batch_workspace(2, dtype=np.float32)
        assert ws32 is not prob.batch_workspace(2)
