"""Tests for repro.sem.cg (preconditioned conjugate gradients)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import (
    BoxMesh, HelmholtzProblem, PoissonProblem, ReferenceElement, cg, native,
)
from repro.sem.cg import (
    CGResult,
    cg_solve,
    cg_solve_batched,
    cg_solve_batched_mixed,
    cg_solve_mixed,
)
from repro.sem.workspace import SolverWorkspace


def sem_problem(shape=(2, 2, 1), degree=3):
    """A small matmul-backed Poisson problem: the operator that carries
    the solo == block-row bit-identity contract (a dense ``v @ A.T``
    block goes through dgemm where solo goes through dgemv)."""
    ref = ReferenceElement.from_degree(degree)
    return PoissonProblem(BoxMesh.build(ref, shape), ax_backend="matmul")


def sem_block(prob, batch=5, seed=21):
    """Interior-masked white-noise right-hand sides of mixed scale."""
    rng = np.random.default_rng(seed)
    bs = rng.standard_normal((batch, prob.n_dofs)) * prob.interior
    return bs * np.geomspace(1.0, 1e3, batch)[:, None]


def solve(precision, prob, b, workspace=False, **kwargs):
    """One call through the solo or stacked name matching ``b``'s rank,
    at either precision, with or without (cached) workspaces."""
    batch = b.shape[0] if b.ndim == 2 else 1
    if workspace:
        kwargs["workspace"] = prob.batch_workspace(batch)
    if precision == "fp64":
        fn = cg_solve_batched if b.ndim == 2 else cg_solve
        return fn(prob.apply_A, b, **kwargs)
    if workspace:
        kwargs["workspace32"] = prob.batch_workspace(batch, dtype=np.float32)
    fn = cg_solve_batched_mixed if b.ndim == 2 else cg_solve_mixed
    return fn(prob.apply_A, prob.apply_A32, b, **kwargs)


def assert_same_result(got, want):
    """Field-by-field bit equality of two solo results."""
    assert type(got) is type(want)
    assert np.array_equal(got.x, want.x)
    for name in vars(want):
        if name != "x":
            assert getattr(got, name) == getattr(want, name), name


def spd_system(n: int, seed: int = 0, cond: float = 100.0):
    """Random SPD matrix with controlled conditioning."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.geomspace(1.0, cond, n)
    a = (q * eig) @ q.T
    x = rng.standard_normal(n)
    return a, x, a @ x


class TestCG:
    def test_solves_spd_system(self):
        a, x_true, b = spd_system(40)
        res = cg_solve(lambda v: a @ v, b, tol=1e-12, maxiter=500)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_exact_convergence_in_n_steps_for_small_system(self):
        a, x_true, b = spd_system(12, cond=10.0)
        res = cg_solve(lambda v: a @ v, b, tol=1e-13, maxiter=13)
        assert res.converged

    def test_jacobi_preconditioning_reduces_iterations(self):
        rng = np.random.default_rng(1)
        # Strongly diagonally-scaled SPD system.
        d = np.geomspace(1.0, 1e4, 60)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        a = (q * np.linspace(1, 2, 60)) @ q.T
        a = np.diag(np.sqrt(d)) @ a @ np.diag(np.sqrt(d))
        b = rng.standard_normal(60)
        plain = cg_solve(lambda v: a @ v, b, tol=1e-10, maxiter=3000)
        precond = cg_solve(
            lambda v: a @ v, b, precond_diag=np.diag(a).copy(),
            tol=1e-10, maxiter=3000,
        )
        assert precond.converged
        assert precond.iterations < plain.iterations

    def test_zero_rhs_returns_zero(self):
        a, _, _ = spd_system(10)
        res = cg_solve(lambda v: a @ v, np.zeros(10))
        assert res.converged
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(10))

    def test_initial_guess_respected(self):
        a, x_true, b = spd_system(20)
        res = cg_solve(lambda v: a @ v, b, x0=x_true.copy(), tol=1e-10)
        assert res.converged
        assert res.iterations == 0

    def test_maxiter_reached_reports_not_converged(self):
        a, _, b = spd_system(50, cond=1e6)
        for tol in (1e-14, 0.0):  # 0.0: no criterion, the cap alone stops
            res = cg_solve(lambda v: a @ v, b, tol=tol, maxiter=2)
            assert not res.converged
            assert res.iterations == 2

    def test_residual_history_monotone_enough(self):
        # CG residuals are not strictly monotone, but the final residual
        # must be far below the initial one.
        a, _, b = spd_system(30)
        res = cg_solve(lambda v: a @ v, b, tol=1e-12, maxiter=500)
        assert res.residual_history[-1] < 1e-10 * res.residual_history[0]
        assert len(res.residual_history) == res.iterations + 1

    def test_non_spd_operator_raises(self):
        a = -np.eye(5)
        with pytest.raises(ValueError, match="breakdown"):
            cg_solve(lambda v: a @ v, np.ones(5))

    def test_bad_preconditioner_raises(self):
        a, _, b = spd_system(5)
        with pytest.raises(ValueError, match="non-positive"):
            cg_solve(lambda v: a @ v, b, precond_diag=np.zeros(5))

    def test_shape_mismatch_raises(self):
        a, _, b = spd_system(5)
        with pytest.raises(ValueError, match="x0 shape"):
            cg_solve(lambda v: a @ v, b, x0=np.zeros(4))
        with pytest.raises(ValueError, match="preconditioner shape"):
            cg_solve(lambda v: a @ v, b, precond_diag=np.ones(4))

    def test_result_type(self):
        a, _, b = spd_system(5)
        res = cg_solve(lambda v: a @ v, b)
        assert isinstance(res, CGResult)
        assert res.residual_norm == res.residual_history[-1]

    @pytest.mark.parametrize("workspace", (False, True))
    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_operator_is_handed_1d_vectors(self, precision, workspace):
        """The solo entry points run on the block loop, but a callback
        written against the documented vector signature must never see
        a block — neither as argument nor as ``out=``."""
        a, x_true, b = spd_system(30, cond=20.0)
        calls = []

        def op(v, out=None):
            assert v.ndim == 1 and (out is None or out.ndim == 1)
            calls.append(v.dtype)
            res = (a @ v).astype(v.dtype)
            if out is None:
                return res
            np.copyto(out, res)
            return out

        kwargs = dict(tol=1e-10, maxiter=200)
        if workspace:
            kwargs["workspace"] = SolverWorkspace(1, 2, n_global=30)
        if precision == "fp64":
            res = cg_solve(op, b, **kwargs)
        else:
            if workspace:
                kwargs["workspace32"] = SolverWorkspace(
                    1, 2, n_global=30, dtype=np.float32
                )
            res = cg_solve_mixed(op, op, b, **kwargs)
            assert np.dtype(np.float32) in calls
        assert res.converged and res.x.shape == (30,)
        assert np.allclose(res.x, x_true, atol=1e-7)


class TestBatchedCG:
    """Batched multi-RHS CG (cg_solve_batched) vs per-system solves."""

    def _stacked_system(self, n=24, batch=5, seed=4, cond=50.0):
        a, _, _ = spd_system(n, seed=seed, cond=cond)
        rng = np.random.default_rng(seed + 1)
        bs = rng.standard_normal((batch, n))
        return a, bs

    def test_matches_sequential_solves(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system()
        res = cg_solve_batched(lambda v: v @ a.T, bs, tol=1e-12, maxiter=500)
        assert np.all(res.converged)
        for k in range(bs.shape[0]):
            single = cg_solve(lambda v: a @ v, bs[k], tol=1e-12, maxiter=500)
            # dgemm (stacked) vs dgemv (single) accumulate differently,
            # so counts may differ by one step at the tolerance edge.
            assert abs(int(res.iterations[k]) - single.iterations) <= 1
            assert np.allclose(res.x[k], single.x, atol=1e-9)
            # The solo name runs the same loop, so it cannot be the only
            # referee: anchor each row on a dense direct solve too.
            assert np.allclose(res.x[k], np.linalg.solve(a, bs[k]), atol=1e-8)

    @pytest.mark.parametrize("guess", (False, True))
    @pytest.mark.parametrize("precond", ("none", "shared", "per_system"))
    @pytest.mark.parametrize("workspace", (False, True))
    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_solo_equals_block_row_bit_for_bit(
        self, precision, workspace, precond, guess
    ):
        """The contract the one-loop design rests on: a system solved
        through the solo name is row ``k`` of a stacked solve in every
        field — iterate, counts, flags and full histories."""
        prob = sem_problem()
        bs = sem_block(prob)
        diag = prob.precond_diag()
        md = {"none": None, "shared": diag,
              "per_system": diag * np.linspace(1.0, 2.0, 5)[:, None]}[precond]
        x0 = 0.1 * sem_block(prob, seed=22) if guess else None
        tols = np.geomspace(1e-4, 1e-11, 5)  # rows freeze at different steps
        block = solve(
            precision, prob, bs, workspace, precond_diag=md, x0=x0,
            tol=tols, maxiter=400,
        )
        assert np.all(block.converged)
        assert len(set(block.iterations.tolist())) > 1
        for k in range(5):
            solo = solve(
                precision, prob, bs[k], workspace,
                precond_diag=md[k] if precond == "per_system" else md,
                x0=None if x0 is None else x0[k], tol=float(tols[k]),
                maxiter=400,
            )
            assert_same_result(block.row(k), solo)

    def test_per_system_convergence_masking(self):
        """Systems of very different difficulty each meet their own
        tolerance; easy systems freeze while hard ones iterate on."""
        from repro.sem.cg import cg_solve_batched

        rng = np.random.default_rng(9)
        n = 30
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a_easy = q @ np.diag(np.linspace(1.0, 2.0, n)) @ q.T
        a_hard = q @ np.diag(np.geomspace(1.0, 1e5, n)) @ q.T

        # Shared operator: block-diagonal over systems via per-row matmul.
        mats = [a_easy, a_hard, a_hard]
        bs = rng.standard_normal((3, n))

        def apply_block(v, out=None):
            res = np.stack([mats[i] @ v[i] for i in range(3)])
            if out is not None:
                np.copyto(out, res)
                return out
            return res

        res = cg_solve_batched(apply_block, bs, tol=1e-10, maxiter=2000)
        assert np.all(res.converged)
        assert res.iterations[0] < res.iterations[1]
        for i in range(3):
            r = bs[i] - mats[i] @ res.x[i]
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(bs[i]) * 1.01

    def test_frozen_system_stays_bit_identical(self):
        """Once a system converges its iterate must not move at all."""
        from repro.sem.cg import cg_solve_batched

        rng = np.random.default_rng(12)
        n = 16
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a_easy = q @ np.diag(np.linspace(1.0, 1.5, n)) @ q.T
        a_hard = q @ np.diag(np.geomspace(1.0, 1e6, n)) @ q.T
        mats = [a_easy, a_hard]
        bs = rng.standard_normal((2, n))

        def apply_block(v):
            return np.stack([mats[i] @ v[i] for i in range(2)])

        loose = cg_solve_batched(apply_block, bs, tol=1e-8, maxiter=30)
        assert loose.converged[0] and not loose.converged[1]
        # Re-run with enough iterations for both; the easy system's
        # answer must be unchanged bit for bit (masked updates are 0).
        full = cg_solve_batched(apply_block, bs, tol=1e-8, maxiter=5000)
        assert np.all(full.converged)
        assert np.array_equal(loose.x[0], full.x[0])

    def test_zero_rhs_row_converges_immediately(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system(batch=3)
        bs[1] = 0.0
        res = cg_solve_batched(lambda v: v @ a.T, bs, tol=1e-12, maxiter=500)
        assert np.all(res.converged)
        assert res.iterations[1] == 0
        assert np.array_equal(res.x[1], np.zeros(bs.shape[1]))

    def test_jacobi_preconditioning_shared_and_per_system(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system(cond=1e4, batch=3)
        diag = np.diag(a).copy()
        shared = cg_solve_batched(
            lambda v: v @ a.T, bs, precond_diag=diag, tol=1e-10, maxiter=2000
        )
        per_system = cg_solve_batched(
            lambda v: v @ a.T, bs,
            precond_diag=np.tile(diag, (3, 1)),
            tol=1e-10, maxiter=2000,
        )
        assert np.all(shared.converged) and np.all(per_system.converged)
        assert np.allclose(shared.x, per_system.x, atol=1e-12)

    def test_initial_guess_respected(self):
        from repro.sem.cg import cg_solve_batched

        a, _, _ = spd_system(18, seed=6)
        x_true = np.random.default_rng(7).standard_normal((4, 18))
        bs = x_true @ a.T
        res = cg_solve_batched(
            lambda v: v @ a.T, bs, x0=x_true.copy(), tol=1e-10
        )
        assert np.all(res.converged)
        assert np.array_equal(res.iterations, np.zeros(4, dtype=np.int64))

    def test_maxiter_reports_unconverged_systems(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system(cond=1e8, seed=2)
        res = cg_solve_batched(lambda v: v @ a.T, bs, tol=1e-14, maxiter=2)
        assert not np.all(res.converged)
        assert np.all(res.iterations[~res.converged] == 2)
        assert res.residual_history.shape == (3, bs.shape[0])

    def test_non_spd_operator_raises(self):
        from repro.sem.cg import cg_solve_batched

        with pytest.raises(ValueError, match="breakdown"):
            cg_solve_batched(lambda v: -v, np.ones((2, 5)))

    def test_shape_validation(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system()
        with pytest.raises(ValueError, match="batched rhs"):
            cg_solve_batched(lambda v: v, np.ones(5))
        with pytest.raises(ValueError, match="x0 shape"):
            cg_solve_batched(lambda v: v @ a.T, bs, x0=np.ones(bs.shape[1]))
        with pytest.raises(ValueError, match="preconditioner shape"):
            cg_solve_batched(
                lambda v: v @ a.T, bs, precond_diag=np.ones(3)
            )
        with pytest.raises(ValueError, match="non-positive"):
            cg_solve_batched(
                lambda v: v @ a.T, bs, precond_diag=np.zeros(bs.shape[1])
            )

    def test_cg_solve_dispatches_stacked_rhs(self):
        from repro.sem.cg import BatchedCGResult

        a, bs = self._stacked_system()
        res = cg_solve(lambda v: v @ a.T, bs, tol=1e-12, maxiter=500)
        assert isinstance(res, BatchedCGResult)
        assert res.x.shape[0] == bs.shape[0]
        assert np.all(res.converged)


class TestRowDots:
    """The inner products — compiled: eight fixed fp64 lanes; numpy
    body: one ddot per fp64 row, multiply + fp64 pairwise sum per fp32
    row.  Either way a row's value never depends on B."""

    # 8193 is past einsum's blocking, 24389/185193 past the 10^4
    # elements above which OpenBLAS splits a ddot across its threads.
    SIZES = (343, 8193, 24389, 185193)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_row_equals_solo(self, dtype, n):
        from repro.sem.cg import _row_dots

        rng = np.random.default_rng(n)
        a = rng.standard_normal((8, n)).astype(dtype)
        b = rng.standard_normal((8, n)).astype(dtype)
        tmp = np.empty_like(a)
        for nb in (2, 8):
            block = np.empty(nb)
            _row_dots(a[:nb], b[:nb], tmp[:nb], block)
            for k in range(nb):
                solo = np.empty(1)
                _row_dots(a[k:k + 1], b[k:k + 1], tmp[:1], solo)
                assert solo[0] == block[k], (nb, k)

    @pytest.mark.parametrize("n", SIZES)
    def test_fp64_is_blas_ddot_and_fp32_the_fp64_pairwise_sum(
        self, n, numpy_body
    ):
        from repro.sem.cg import _row_dots

        rng = np.random.default_rng(n + 1)
        a = rng.standard_normal((3, n))
        b = rng.standard_normal((3, n))
        got = np.empty(3)
        tmp = np.full_like(a, np.nan)
        _row_dots(a, b, tmp, got)
        assert np.isnan(tmp).all()  # nothing field-sized was written
        assert got.tolist() == [float(np.dot(x, y)) for x, y in zip(a, b)]
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        _row_dots(a32, b32, np.empty_like(a32), got)
        want = np.add.reduce(a32 * b32, axis=1, dtype=np.float64)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("path", ("compiled", "numpy_body"))
    def test_fp32_products_round_to_fp32_and_the_sum_never_does(
        self, path, request
    ):
        """A cancellation both wrong arithmetics fail: ``(1 + 2^-12)^2``
        rounds to ``1 + 2^-11`` in fp32 (an fp64 product keeps the
        ``2^-24``), and between ``+2^24`` and ``-2^24`` an fp32 sum
        drops every such term."""
        from repro.sem.cg import _row_dots

        if path == "numpy_body":
            request.getfixturevalue("numpy_body")
        elif native.cg_passes(np.dtype(np.float32)) is None:
            pytest.skip("no compiled CG passes on this host")
        a = np.full((2, 1003), 1 + 2.0 ** -12, dtype=np.float32)
        a[:, 0], a[:, -1] = 2.0 ** 12, -(2.0 ** 12)
        b = a.copy()
        b[:, -1] = 2.0 ** 12
        got = np.empty(2)
        _row_dots(a, b, np.empty_like(a), got)
        assert got.tolist() == [1001 * (1 + 2.0 ** -11)] * 2

    def test_rhs_layout_does_not_change_a_solve(self):
        """ddot sums a strided row in another order than a contiguous
        one; the solvers take ``b`` in C order so ||b|| cannot tell."""
        prob = sem_problem(shape=(3, 3, 3), degree=7)
        assert prob.n_dofs > 10_000
        bs = sem_block(prob, batch=2)
        strided = np.asfortranarray(bs)
        assert not strided.flags.c_contiguous
        for precision in ("fp64", "mixed"):
            want = solve(precision, prob, bs, tol=1e-6, maxiter=60)
            got = solve(precision, prob, strided, tol=1e-6, maxiter=60)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(
                got.residual_history, want.residual_history
            )


def test_import_fails_loudly_below_the_numpy_floor(monkeypatch):
    """Running from src/ bypasses pip's ``numpy>=2.0`` check, so the
    package states the floor itself, naming the installed version."""
    import importlib
    import re

    import repro.sem

    monkeypatch.delattr(np, "vecdot")
    found = re.escape(np.__version__)
    with pytest.raises(ImportError, match=rf"numpy >= 2\.0.*{found}"):
        importlib.reload(repro.sem)
    monkeypatch.undo()
    importlib.reload(repro.sem)


class TestRowEqualsSoloAboveTenThousandDofs:
    """Row == solo at a size where BLAS may split a dot product across
    threads: N=7 on 4x4x4 elements, 24 389 DOFs (whatever the BLAS
    thread count of this process is, both sides share it)."""

    @pytest.fixture(scope="class")
    def big(self):
        prob = sem_problem(shape=(4, 4, 4), degree=7)
        assert prob.n_dofs == 24389
        return prob, sem_block(prob, batch=8, seed=31)

    @pytest.mark.parametrize("batch", (2, 8))
    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_block_rows_are_the_solo_solves(self, big, precision, batch):
        prob, bs = big
        bs = bs[:batch]
        diag = prob.precond_diag()
        tols = np.geomspace(1e-2, 1e-5, batch)  # ~35 to ~105 iterations
        block = solve(
            precision, prob, bs, workspace=True, precond_diag=diag,
            tol=tols, maxiter=150,
        )
        assert np.all(block.converged)
        assert len(set(block.iterations.tolist())) > 1
        for k in range(batch):
            solo = solve(
                precision, prob, bs[k], workspace=True, precond_diag=diag,
                tol=float(tols[k]), maxiter=150,
            )
            assert_same_result(block.row(k), solo)


@pytest.mark.usefixtures("numpy_body")
class TestRowEqualsSoloNumpyBody(TestRowEqualsSoloAboveTenThousandDofs):
    """Row == solo on the Ax path of a host without a C compiler: the
    contract holds within each path, and nothing compares across them."""

    test_solo_equals_block_row_bit_for_bit = (
        TestBatchedCG.test_solo_equals_block_row_bit_for_bit
    )


@pytest.fixture
def pass_calls(monkeypatch):
    """The name of every compiled CG entry point a solve called from
    Python, in order."""
    calls, real = [], native.cg_passes

    def spying(dtype):
        passes = real(dtype)
        if passes is None:
            pytest.skip("no compiled CG passes on this host")

        def recorded(name, fn):
            return lambda *args: (calls.append(name), fn(*args))[1]

        return tuple(map(recorded, ("dot", "step", "dir", "solve"), passes))

    monkeypatch.setattr(native, "cg_passes", spying)
    return calls


class TestCompiledPasses:
    """What ``_cg_iterate`` hands C, and what it keeps from it."""

    def test_a_solve_is_one_compiled_call(self, pass_calls, monkeypatch):
        """The fused operator's whole loop is one call: no Python runs
        between its first iteration and its last, so the GIL stays
        released throughout."""
        prob = sem_problem()
        b = sem_block(prob)[0]
        applied = []
        real_apply = prob._apply
        monkeypatch.setattr(prob, "_apply", lambda *args: (
            applied.append(1), real_apply(*args))[1])
        res = solve("fp64", prob, b, workspace=True, tol=1e-8,
                    precond_diag=prob.precond_diag())
        assert res.iterations > 10
        # rz, ||b|| and ||r|| before the loop, then the loop.
        assert pass_calls == ["dot"] * 3 + ["solve"]
        assert len(applied) == 1  # A x0, before the loop

    def test_frozen_row_keeps_x_and_r_while_its_batchmates_iterate(
        self, pass_calls
    ):
        """Row 0 stops at a loose tolerance; the block then sweeps it
        with alpha = beta = 0 for as long as row 1 needs.  Its ``x``
        *and* its recurrence residual stay the solo solve's, bit for
        bit."""
        prob = sem_problem()
        bs = sem_block(prob, batch=2)
        diag = prob.precond_diag()
        ws, solo_ws = prob.batch_workspace(2), prob.batch_workspace(1)
        block = cg_solve_batched(
            prob.apply_A, bs, precond_diag=diag, tol=np.array([1e-3, 1e-11]),
            maxiter=400, workspace=ws,
        )
        assert 0 < block.iterations[0] < block.iterations[1]
        assert "solve" in pass_calls
        frozen_x, frozen_r = ws.cg_x[0].copy(), ws.cg_r[0].copy()
        solo = cg_solve(prob.apply_A, bs[0], precond_diag=diag, tol=1e-3,
                        maxiter=400, workspace=solo_ws)
        assert solo.iterations == block.iterations[0]
        assert np.array_equal(frozen_x, solo_ws.cg_x)
        assert np.array_equal(frozen_r, solo_ws.cg_r)

    @pytest.mark.parametrize("flaw", ("strided", "unaligned"))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_flawed_buffers_take_the_numpy_body(self, flaw, dtype, pass_calls):
        """A workspace C must not write through: no compiled step runs,
        row == solo still holds and the answer is the sound workspace's
        to rounding."""
        prob = sem_problem()
        bs = sem_block(prob, batch=3).astype(dtype)
        apply_A = prob.apply_A if dtype == np.float64 else prob.apply_A32
        diag = prob.precond_diag().astype(dtype)

        def flawed(batch):
            ws = SolverWorkspace.for_mesh(prob.mesh, batch=batch, dtype=dtype)
            shape, size = ws.cg_x.shape, ws.cg_x.dtype.itemsize
            if flaw == "strided":
                wide = np.empty(shape[:-1] + (2 * shape[-1],), dtype)
                ws.cg_x = wide[..., ::2]
            else:
                raw = np.empty(ws.cg_x.nbytes + 1, dtype=np.uint8)
                ws.cg_x = raw[1:].view(dtype).reshape(shape)
            assert not (ws.cg_x.flags.c_contiguous and ws.cg_x.flags.aligned)
            assert ws.cg_x.strides[-1] in (size, 2 * size)
            return ws

        kwargs = dict(precond_diag=diag, tol=1e-4, maxiter=200, dtype=dtype)
        sound = cg_solve_batched(apply_A, bs, **kwargs)
        assert "solve" in pass_calls
        del pass_calls[:]
        block = cg_solve_batched(apply_A, bs, workspace=flawed(3), **kwargs)
        for k in range(3):
            solo = cg_solve(apply_A, bs[k], workspace=flawed(1), **kwargs)
            assert_same_result(block.row(k), solo)
        assert np.all(block.converged) and set(pass_calls) == {"dot"}
        scale = np.abs(sound.x).max()
        assert np.allclose(block.x, sound.x, rtol=1e-3, atol=1e-3 * scale)

    def test_read_only_buffer_is_numpys_own_refusal(self, pass_calls):
        prob = sem_problem()
        ws = prob.batch_workspace(1)
        ws.cg_p.setflags(write=False)
        try:
            with pytest.raises(ValueError, match="read-only"):
                solve("fp64", prob, sem_block(prob)[0], workspace=ws)
        finally:
            ws.cg_p.setflags(write=True)  # the problem caches it
        assert "solve" not in pass_calls


@pytest.fixture
def python_loop():
    """``python_loop(fn, *args, **kwargs)``: the call with the loop of
    ``_cg_iterate`` run in Python, driving C's three passes one call at
    a time — the compiled path as it was before the loop moved to C."""
    if native.cg_passes(np.dtype(np.float64)) is None:
        pytest.skip("no compiled CG passes on this host")

    def at(a):
        return None if a is None else a.ctypes.data

    def c_step(x, r, z, p, ap, tmp, inv_m, step, dots, rr):
        native.cg_passes(x.dtype)[1](
            *x.shape, *map(at, (step, p, ap, inv_m, x, r, z, dots, rr)))

    def c_direction(p, z, step):
        native.cg_passes(p.dtype)[2](*p.shape, *map(at, (step, z, p)))

    def run(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cg, "_compiled_loop", lambda *a: None)
            patch.setattr(cg, "_numpy_step", c_step)
            patch.setattr(cg, "_numpy_direction", c_direction)
            return fn(*args, **kwargs)

    return run


def assert_same_block(got, want):
    """Field-by-field bit equality of two batched results (NaNs too)."""
    assert type(got) is type(want)
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestCompiledLoop:
    """``native.cg_solve`` runs the Python loop's passes in the Python
    loop's order, so it gives its bits: the same ``x``, counts, flags
    and residual history, with the fused pass or through a callback."""

    @pytest.mark.parametrize("degree,shape", ((3, (2, 2, 1)), (7, (2, 2, 2))))
    @pytest.mark.parametrize("batch", (1, 3, 8))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_the_python_loops_bits(self, python_loop, dtype, batch, degree,
                                   shape):
        prob = sem_problem(shape, degree)
        bs = sem_block(prob, batch=batch).astype(dtype)
        apply_A = prob.apply_A if dtype == np.float64 else prob.apply_A32
        kwargs = dict(precond_diag=prob.precond_diag().astype(dtype),
                      dtype=dtype, workspace=prob.batch_workspace(batch, dtype))
        if batch == 1:
            fn, b = cg_solve, bs[0]
            kwargs.update(tol=1e-6, maxiter=300)
        else:  # a NaN row, an inf row and per-row tol / cap ride along
            fn, b = cg_solve_batched, bs
            b[1, 7], b[-1, 3] = np.nan, np.inf
            kwargs.update(tol=np.geomspace(1e-2, 1e-7, batch),
                          maxiter=np.arange(batch) * 7 + 20)
        assert cg._bind_operator(apply_A, False, dtype)[1] is not None
        got = fn(apply_A, b, **kwargs)
        want = python_loop(fn, apply_A, b, **kwargs)
        if batch == 1:
            assert_same_result(got, want)
        else:
            assert_same_block(got, want)
            assert not got.converged[1] and got.iterations[1] == 0

    def test_a_wrapped_operator_is_called_back_with_the_same_bits(
        self, python_loop
    ):
        """Fused ≡ layered, for whole solves: a wrapper hides the problem
        from the loop, which then calls it back once per iteration."""
        prob = sem_problem((2, 2, 2), 7)
        bs = sem_block(prob, batch=3)
        calls = []

        def wrapped(v, out=None):
            calls.append(1)
            return prob.apply_A(v, out=out)

        assert cg._bind_operator(wrapped, False, np.float64)[1] is None
        kwargs = dict(precond_diag=prob.precond_diag(), tol=1e-8,
                      maxiter=500, workspace=prob.batch_workspace(3))
        got = cg_solve_batched(wrapped, bs, **kwargs)
        assert len(calls) == got.total_iterations + 1
        assert_same_block(got, python_loop(cg_solve_batched, wrapped, bs,
                                           **kwargs))
        assert_same_block(got, cg_solve_batched(prob.apply_A, bs, **kwargs))

    def test_an_overriding_operator_is_called_back(self):
        """Only the operator the problem's class declares is fused; a
        subclass's override of it is the operator, so it is called."""
        calls = []

        class Shifted(PoissonProblem):
            def apply_A(self, u, out=None):
                calls.append(1)
                return super().apply_A(u, out=out) + 0.5 * u * self.interior

        prob = Shifted(sem_problem().mesh, ax_backend="matmul")
        assert cg._bind_operator(prob.apply_A, True, np.float64)[1] is None
        res = cg_solve(prob.apply_A, sem_block(prob)[0], tol=1e-8)
        assert res.converged and len(calls) == res.iterations + 1

    def test_helmholtz_solves_in_one_call_with_the_python_loops_bits(
        self, python_loop
    ):
        """The mass term rides in the fused pass and there is no mask:
        ``p·Ap`` is a plain dot there, and the bits are the Python
        loop's, stacked and solo."""
        mesh = BoxMesh.build(ReferenceElement.from_degree(7), (2, 2, 2))
        prob = HelmholtzProblem(mesh, lam=0.7)
        assert cg._bind_operator(prob.apply, False, np.float64)[1] is not None
        bs = np.random.default_rng(5).standard_normal((3, prob.n_dofs))
        kwargs = dict(precond_diag=prob.precond_diag(), tol=1e-8,
                      maxiter=500, workspace=prob.batch_workspace(3))
        got = cg_solve_batched(prob.apply, bs, **kwargs)
        assert np.all(got.converged)
        assert_same_block(got, python_loop(cg_solve_batched, prob.apply, bs,
                                           **kwargs))
        solo = cg_solve(prob.apply, bs[0], precond_diag=prob.precond_diag(),
                        tol=1e-8, maxiter=500, workspace=prob.workspace)
        assert solo.x.tobytes() == got.x[0].tobytes()

    def test_mixed_inner_solves(self, python_loop):
        prob = sem_problem((2, 2, 2), 7)
        bs = sem_block(prob, batch=3)
        got = solve("mixed", prob, bs, workspace=True, tol=1e-10)
        assert np.all(got.converged)
        assert got.residual_history.shape[0] - 1 > 1
        assert_same_block(got, python_loop(solve, "mixed", prob, bs,
                                           workspace=True, tol=1e-10))

    def test_a_history_longer_than_one_block(self, monkeypatch):
        prob = sem_problem()
        bs = sem_block(prob, batch=2)
        kwargs = dict(precond_diag=prob.precond_diag(),
                      tol=np.array([1e-4, 1e-12]), maxiter=400)
        want = cg_solve_batched(prob.apply_A, bs, **kwargs)
        assert want.total_iterations > 3 * 7
        monkeypatch.setattr(cg, "_HISTORY_BLOCK", 7)
        assert_same_block(cg_solve_batched(prob.apply_A, bs, **kwargs), want)

    @pytest.mark.parametrize("exc", (ZeroDivisionError("op"),
                                     KeyboardInterrupt()))
    def test_an_exception_in_the_operator_comes_back_out(self, exc):
        a, _, b = spd_system(30)
        calls = []

        def operator(v):
            calls.append(1)
            if len(calls) == 4:
                raise exc
            return v @ a.T

        with pytest.raises(type(exc)) as raised:
            cg_solve(operator, b, tol=1e-12)
        assert raised.value is exc and len(calls) == 4

    @pytest.mark.parametrize("path", ("compiled", "numpy_body"))
    def test_a_residual_exactly_at_its_threshold_stops(self, path, request):
        """``||r|| <= tol * ||b||``: a residual equal to its threshold,
        to the bit, ends the solve at that iteration on both loops."""
        if path == "numpy_body":
            request.getfixturevalue("numpy_body")
        elif native.cg_passes(np.dtype(np.float64)) is None:
            pytest.skip("no compiled CG passes on this host")
        a, b = np.diag([1.0, 3.0]), np.array([1.0, 1.0])
        r1 = cg_solve(lambda v: v @ a.T, b, tol=1e-300, maxiter=1)
        norm_b, r1 = float(np.sqrt(b @ b)), r1.residual_norm
        tol = r1 / norm_b
        while tol * norm_b < r1:
            tol = np.nextafter(tol, np.inf)
        while tol * norm_b > r1:
            tol = np.nextafter(tol, 0.0)
        assert tol * norm_b == r1 > 0.0
        res = cg_solve(lambda v: v @ a.T, b, tol=tol, maxiter=10)
        assert res.iterations == 1 and res.converged

    @pytest.mark.parametrize("path", ("compiled", "numpy_body"))
    def test_a_breakdown_is_the_same_refusal(self, path, request):
        if path == "numpy_body":
            request.getfixturevalue("numpy_body")
        elif native.cg_passes(np.dtype(np.float64)) is None:
            pytest.skip("no compiled CG passes on this host")
        a, _, b = spd_system(12)
        with pytest.raises(ValueError, match=r"CG breakdown: p\^T A p = -"):
            cg_solve(lambda v: -(v @ a.T), b)

    def test_two_threads_solve_at_once_as_serially(self):
        """The loop keeps nothing between calls and runs without the GIL:
        two solves on two problems interleave and keep their bits."""
        import threading

        probs = [sem_problem((2, 2, 2), 7) for _ in range(2)]
        rhs = [sem_block(p, batch=2, seed=40 + k) for k, p in enumerate(probs)]
        kwargs = dict(tol=1e-9, maxiter=500)
        serial = [cg_solve_batched(p.apply_A, b, **kwargs)
                  for p, b in zip(probs, rhs)]
        barrier, wrong = threading.Barrier(2), []

        def worker(k):
            barrier.wait(timeout=30)
            for _ in range(5):
                got = cg_solve_batched(probs[k].apply_A, rhs[k], **kwargs)
                if not np.array_equal(got.x, serial[k].x):
                    wrong.append(k)

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
        assert wrong == []


class TestPerSystemStopping:
    """Per-request tol/maxiter arrays in one stacked solve."""

    def _stacked_system(self, n=24, batch=4, seed=4, cond=200.0):
        a, _, _ = spd_system(n, seed=seed, cond=cond)
        rng = np.random.default_rng(seed + 1)
        return a, rng.standard_normal((batch, n))

    def test_per_system_tol(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system()
        tols = np.array([1e-2, 1e-12, 1e-6, 1e-9])
        res = cg_solve_batched(lambda v: v @ a.T, bs, tol=tols, maxiter=500)
        assert np.all(res.converged)
        # The loose system freezes first, the tight one last.
        assert res.iterations[0] < res.iterations[1]
        b_norms = np.linalg.norm(bs, axis=1)
        assert np.all(res.residual_norm <= tols * b_norms)

    def test_per_system_maxiter_caps_and_freezes_exactly(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system(cond=1e8)
        caps = np.array([3, 50, 7, 50])
        res = cg_solve_batched(
            lambda v: v @ a.T, bs, tol=1e-14, maxiter=caps
        )
        assert np.all(res.iterations <= caps)
        assert int(res.iterations[0]) == 3 and int(res.iterations[2]) == 7
        # A capped system's iterate is bit-identical to the same system
        # in a homogeneous run with that cap: masked freezing makes each
        # system's trajectory independent of its batchmates.
        homo = cg_solve_batched(
            lambda v: v @ a.T, bs, tol=1e-14, maxiter=3
        )
        assert np.array_equal(res.x[0], homo.x[0])

    def test_zero_maxiter_entry_never_iterates(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system()
        res = cg_solve_batched(
            lambda v: v @ a.T, bs, tol=1e-10,
            maxiter=np.array([0, 100, 100, 100]),
        )
        assert int(res.iterations[0]) == 0
        assert not res.converged[0]
        assert np.array_equal(res.x[0], np.zeros(bs.shape[1]))
        assert res.converged[1:].all()

    def test_array_shape_validation(self):
        from repro.sem.cg import cg_solve_batched

        a, bs = self._stacked_system()
        with pytest.raises(ValueError, match="tol must be"):
            cg_solve_batched(lambda v: v @ a.T, bs, tol=np.ones(3))
        with pytest.raises(ValueError, match="maxiter must be"):
            cg_solve_batched(
                lambda v: v @ a.T, bs, maxiter=np.array([1, 2])
            )
        with pytest.raises(ValueError, match=">= 0"):
            cg_solve_batched(
                lambda v: v @ a.T, bs, maxiter=np.array([1, -2, 3, 4])
            )
        with pytest.raises(ValueError, match="stacked"):
            cg_solve(lambda v: a @ v, bs[0], tol=np.array([1e-8] * 4))

    def test_nan_tol_rejected_in_both_paths(self):
        """NaN poisons the active mask (res > NaN is False) and a
        negative cap used to mean "raise" stacked but "0 iterations"
        solo: all four names share one validator, so each bad argument
        is the same ``ValueError`` from every one of them."""
        a, bs = self._stacked_system()
        n = bs.shape[1]
        solvers = {fn.__name__: fn for fn in (
            cg_solve, cg_solve_batched, cg_solve_mixed, cg_solve_batched_mixed
        )}

        def call(name, **kwargs):
            stacked = "batched" in name
            op = (lambda v: v @ a.T) if stacked else (lambda v: a @ v)
            ops = (op, op) if "mixed" in name else (op,)
            rhs = bs if stacked else bs[0]
            return solvers[name](*ops, rhs, **kwargs)

        bad_arguments = (
            (dict(tol=float("nan")), "tol entries must be finite"),
            (dict(tol=float("inf")), "tol entries must be finite"),
            (dict(tol=-1.0), "tol entries must be finite and >= 0"),
            (dict(maxiter=-1), "maxiter entries must be >= 0"),
            # Truncating 2.7 to 2 or reading True as 1 would solve a
            # request other than the one asked for; int(inf) raises
            # OverflowError, not the ValueError every bad knob is.
            (dict(maxiter=2.7), "maxiter entries must be an integral"),
            (dict(maxiter=True), "maxiter entries must be an integral"),
            (dict(maxiter=np.inf), "maxiter entries must be an integral"),
            (dict(x0=np.zeros(n + 1)), "x0 shape"),
            (dict(precond_diag=np.ones(n + 1)), "preconditioner shape"),
            (dict(precond_diag=np.zeros(n)), "non-positive"),
        )
        for name in solvers:
            batch = 4 if "batched" in name else 1
            bad_workspaces = (
                (SolverWorkspace(1, 2, n_global=n + 1, batch=batch),
                 "global DOFs"),
                (SolverWorkspace(1, 2, n_global=n, batch=batch + 1),
                 "sized for batch"),
                (SolverWorkspace(1, 2, n_global=n, batch=batch,
                                 dtype=np.float32), "workspace dtype"),
            )
            for kwargs, message in bad_arguments + tuple(
                (dict(workspace=ws), message) for ws, message in bad_workspaces
            ):
                with pytest.raises(ValueError, match=message):
                    call(name, **kwargs)
        for name in ("cg_solve", "cg_solve_mixed"):
            for kwargs in (dict(tol=np.full(4, 1e-8)),
                           dict(maxiter=np.full(4, 10))):
                with pytest.raises(ValueError, match="stacked"):
                    call(name, **kwargs)
        for name in ("cg_solve_batched", "cg_solve_batched_mixed"):
            with pytest.raises(ValueError, match="finite"):
                call(name, tol=np.array([1e-8, np.nan, 1e-8, 1e-8]))
            with pytest.raises(ValueError, match=">= 0"):
                call(name, maxiter=np.array([1, -2, 3, 4]))
            with pytest.raises(ValueError, match=">= 0"):
                call(name, tol=np.array([1e-8, -1.0, 1e-8, 1e-8]))
            with pytest.raises(ValueError, match="integral"):
                call(name, maxiter=np.array([10, 2.5, 10, 10]))
        for name in ("cg_solve_mixed", "cg_solve_batched_mixed"):
            batch = 4 if "batched" in name else 1
            with pytest.raises(ValueError, match="workspace dtype"):
                call(name, workspace32=SolverWorkspace(1, 2, n_global=n,
                                                       batch=batch))
            with pytest.raises(ValueError, match="finite"):
                call(name, inner_tol=float("nan"))

    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_row_truncates_history_to_the_systems_own_prefix(self, precision):
        """``row(k)`` is how the serving layer turns one stacked solve
        back into per-request results: rows past a system's own
        convergence are frozen repeats and must not leak into it."""
        prob = sem_problem()
        bs = sem_block(prob, batch=3)
        res = solve(
            precision, prob, bs, precond_diag=prob.precond_diag(),
            tol=np.array([1e-3, 1e-11, 1e-7]), maxiter=400,
        )
        live = res.iterations if precision == "fp64" else res.sweeps
        assert live[0] < live[1] == len(res.residual_history) - 1
        for k in range(3):
            row = res.row(k)
            assert len(row.residual_history) == int(live[k]) + 1
            assert row.residual_history == tuple(
                res.residual_history[: int(live[k]) + 1, k]
            )
            assert row.residual_norm == row.residual_history[-1]
            assert row.iterations == int(res.iterations[k])
            assert row.converged is True
            assert np.array_equal(row.x, res.x[k])
            assert not np.shares_memory(row.x, res.x)
            if precision == "mixed":
                assert row.sweeps == len(row.inner_iterations)
                assert sum(row.inner_iterations) == row.iterations


class TestExhaustedSubspace:
    """Exact-zero-direction freezes report converged: the iterate is the
    exact solution on the (exhausted) Krylov subspace."""

    def test_batched_exhausted_system_reports_converged(self):
        from repro.sem.cg import cg_solve_batched

        # System 1's operator is identically zero (maximally singular):
        # its one-dimensional Krylov subspace is exhausted on the first
        # direction, where the starting iterate is already optimal.
        mats = [np.eye(6), np.zeros((6, 6))]
        bs = np.stack([np.ones(6), np.arange(1.0, 7.0)])

        def apply_block(v):
            return np.stack([mats[i] @ v[i] for i in range(2)])

        res = cg_solve_batched(apply_block, bs, tol=1e-12, maxiter=50)
        assert bool(res.converged[0]) and bool(res.converged[1])
        assert np.all(res.converged)
        # The frozen system never moved (x0 = 0 is subspace-optimal)...
        assert np.array_equal(res.x[1], np.zeros(6))
        # ...and its residual criterion genuinely never fired, so the
        # flag comes from the exhausted mask, not the final res <= stop.
        assert res.residual_norm[1] > 1e-12 * np.linalg.norm(bs[1])

    def test_batched_exhausted_does_not_stall_batchmates(self):
        from repro.sem.cg import cg_solve_batched

        a, x_true, b = spd_system(12, cond=10.0)
        mats = [np.zeros((12, 12)), a]
        bs = np.stack([b, b])

        def apply_block(v):
            return np.stack([mats[i] @ v[i] for i in range(2)])

        res = cg_solve_batched(apply_block, bs, tol=1e-12, maxiter=100)
        assert np.all(res.converged)
        assert np.allclose(res.x[1], x_true, atol=1e-8)

    def test_single_exhausted_reports_converged(self):
        res = cg_solve(lambda v: np.zeros_like(v), np.ones(5),
                       tol=1e-12, maxiter=50)
        assert res.converged
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(5))


class TestNonFiniteRhs:
    """A NaN/inf right-hand side can never converge; it must cost (at
    most) the initial residual's operator application and must not
    touch the systems it shares a block with."""

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_solo_freezes_at_zero_iterations(self, precision, bad):
        prob = sem_problem()
        b = sem_block(prob)[0]
        b[np.flatnonzero(prob.interior)[3]] = bad
        calls = []

        def counted(v, out=None):
            calls.append(1)
            return prob.apply_A(v, out=out)

        def counted32(v, out=None):
            calls.append(1)
            return prob.apply_A32(v, out=out)

        with np.errstate(invalid="ignore", over="ignore"):
            if precision == "fp64":
                res = cg_solve(counted, b, precond_diag=prob.precond_diag(),
                               maxiter=25)
            else:
                res = cg_solve_mixed(
                    counted, counted32, b,
                    precond_diag=prob.precond_diag(), maxiter=25,
                )
        assert res.iterations == 0
        assert res.converged is False
        assert len(calls) <= 1
        assert len(res.residual_history) == 1

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("precision", ("fp64", "mixed"))
    def test_in_block_row_leaves_its_neighbours_bit_identical(
        self, precision, bad
    ):
        prob = sem_problem()
        bs = sem_block(prob)
        bs[2, np.flatnonzero(prob.interior)[3]] = bad
        kwargs = dict(precond_diag=prob.precond_diag(), tol=1e-9, maxiter=400)
        with np.errstate(invalid="ignore", over="ignore"):
            block = solve(precision, prob, bs, **kwargs)
        assert int(block.iterations[2]) == 0
        assert not block.converged[2]
        for k in (0, 1, 3, 4):
            solo = solve(precision, prob, bs[k], **kwargs)
            assert solo.converged
            assert_same_result(block.row(k), solo)


@pytest.mark.usefixtures("numpy_body")
class TestNonFiniteRhsNumpyBody(TestNonFiniteRhs):
    """The same refusals from the numpy body of the vector passes."""
