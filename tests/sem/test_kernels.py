"""Tests for repro.sem.kernels (BLAS kernel + the named registry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    ReferenceElement,
    SolverWorkspace,
    available_ax_kernels,
    ax_local,
    ax_local_dense,
    ax_local_listing1,
    ax_local_matmul,
    geometric_factors,
    get_ax_kernel,
    register_ax_kernel,
    resolve_ax_backend,
)


def random_fields(n: int, num_e: int = 3, seed: int = 0):
    """Random fields + random (unstructured "curved") geometric factors."""
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((num_e, nx, nx, nx))
    g = rng.standard_normal((num_e, 6, nx, nx, nx))
    return ref, u, g


class TestMatmulKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_einsum_all_degrees(self, n):
        ref, u, g = random_fields(n, seed=n)
        w_e = ax_local(ref, u, g)
        w_m = ax_local_matmul(ref, u, g)
        scale = np.abs(w_e).max()
        assert np.allclose(w_m, w_e, atol=1e-12 * max(scale, 1.0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_listing1_all_degrees(self, n):
        ref, u, g = random_fields(n, num_e=2, seed=10 + n)
        w_ref = ax_local_listing1(ref, u, g)
        w_m = ax_local_matmul(ref, u, g)
        scale = np.abs(w_ref).max()
        assert np.allclose(w_m, w_ref, atol=1e-12 * max(scale, 1.0))

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_dense_small_degrees(self, n):
        ref, u, g = random_fields(n, num_e=2, seed=20 + n)
        w_d = ax_local_dense(ref, u, g)
        w_m = ax_local_matmul(ref, u, g)
        scale = np.abs(w_d).max()
        assert np.allclose(w_m, w_d, atol=1e-10 * max(scale, 1.0))

    def test_curved_geometry(self):
        ref = ReferenceElement.from_degree(5)
        mesh = BoxMesh.build(ref, (2, 2, 1)).deform(
            lambda x, y, z: (
                x + 0.04 * np.sin(np.pi * y),
                y,
                z + 0.03 * np.sin(np.pi * x),
            )
        )
        geo = geometric_factors(mesh)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(mesh.l2g.shape)
        w_e = ax_local(ref, u, geo.g)
        w_m = ax_local_matmul(ref, u, geo.g)
        assert np.allclose(w_m, w_e, atol=1e-12 * np.abs(w_e).max())

    def test_out_parameter_is_written_in_place(self):
        ref, u, g = random_fields(4)
        out = np.empty_like(u)
        result = ax_local_matmul(ref, u, g, out=out)
        assert result is out
        assert np.allclose(out, ax_local(ref, u, g), atol=1e-11)

    def test_noncontiguous_out(self):
        ref, u, g = random_fields(3, num_e=2)
        backing = np.empty((2,) + u.shape[1:] + (2,))
        out = backing[..., 0]
        assert not out.flags.c_contiguous
        result = ax_local_matmul(ref, u, g, out=out)
        assert result is out
        assert np.allclose(out, ax_local(ref, u, g), atol=1e-11)

    def test_workspace_path_matches(self):
        ref, u, g = random_fields(6, num_e=4)
        ws = SolverWorkspace(num_elements=4, nx=ref.n_points)
        out = np.empty_like(u)
        w = ax_local_matmul(ref, u, g, out=out, workspace=ws)
        assert np.allclose(w, ax_local_matmul(ref, u, g), atol=1e-12)

    def test_workspace_shape_mismatch_raises(self):
        ref, u, g = random_fields(4, num_e=3)
        ws = SolverWorkspace(num_elements=2, nx=ref.n_points)
        with pytest.raises(ValueError, match="workspace sized for"):
            ax_local_matmul(ref, u, g, workspace=ws)

    def test_einsum_workspace_path_matches(self):
        ref, u, g = random_fields(5, num_e=4)
        ws = SolverWorkspace(num_elements=4, nx=ref.n_points)
        out = np.empty_like(u)
        w = ax_local(ref, u, g, out=out, workspace=ws)
        assert np.allclose(w, ax_local(ref, u, g), atol=1e-12)


class TestRegistry:
    def test_builtin_names(self):
        names = available_ax_kernels()
        for name in ("einsum", "matmul", "listing1", "dense"):
            assert name in names

    def test_get_returns_callables(self):
        assert get_ax_kernel("einsum") is ax_local
        assert get_ax_kernel("matmul") is ax_local_matmul

    def test_unknown_name_raises_with_alternatives(self):
        with pytest.raises(KeyError, match="matmul"):
            get_ax_kernel("nope")

    def test_all_registered_kernels_agree(self):
        ref, u, g = random_fields(3, num_e=2, seed=33)
        w_ref = ax_local(ref, u, g)
        scale = np.abs(w_ref).max()
        for name in ("matmul", "listing1", "dense"):
            w = get_ax_kernel(name)(ref, u, g)
            assert np.allclose(w, w_ref, atol=1e-10 * max(scale, 1.0)), name

    def test_adapters_honor_out(self):
        ref, u, g = random_fields(2, num_e=2, seed=7)
        for name in ("listing1", "dense"):
            out = np.empty_like(u)
            result = get_ax_kernel(name)(ref, u, g, out=out)
            assert result is out

    def test_register_and_overwrite_guard(self):
        sentinel = lambda ref, u, g, out=None, workspace=None: u  # noqa: E731
        register_ax_kernel("_test_sentinel", sentinel)
        try:
            assert get_ax_kernel("_test_sentinel") is sentinel
            with pytest.raises(ValueError, match="already registered"):
                register_ax_kernel("_test_sentinel", sentinel)
            register_ax_kernel("_test_sentinel", sentinel, overwrite=True)
        finally:
            from repro.sem.kernels import _REGISTRY

            _REGISTRY.pop("_test_sentinel", None)

    def test_register_rejects_bad_args(self):
        with pytest.raises(ValueError):
            register_ax_kernel("", lambda *a, **k: None)
        with pytest.raises(TypeError):
            register_ax_kernel("_not_callable", 3)

    def test_resolve_passes_callables_through(self):
        assert resolve_ax_backend(ax_local) is ax_local
        assert resolve_ax_backend("matmul") is ax_local_matmul
        with pytest.raises(TypeError):
            resolve_ax_backend(42)


class TestProblemsSelectByName:
    def test_poisson_by_name_matches_default(self):
        from repro.sem import PoissonProblem, cg_solve, sine_manufactured

        ref = ReferenceElement.from_degree(4)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        by_name = PoissonProblem(mesh, ax_backend="matmul")
        default = PoissonProblem(mesh)
        _, forcing = sine_manufactured(mesh.extent)
        b = default.rhs_from_forcing(forcing)
        r1 = cg_solve(by_name.apply_A, b, tol=1e-10, maxiter=200)
        r2 = cg_solve(default.apply_A, b, tol=1e-10, maxiter=200)
        assert r1.converged and r2.converged
        assert np.allclose(r1.x, r2.x, atol=1e-8)

    def test_helmholtz_by_name_matches_default(self):
        from repro.sem import HelmholtzProblem

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        rng = np.random.default_rng(11)
        v = rng.standard_normal(mesh.n_global)
        w1 = HelmholtzProblem(mesh, ax_backend="matmul").apply(v)
        w2 = HelmholtzProblem(mesh).apply(v)
        assert np.allclose(w1, w2, atol=1e-11 * max(np.abs(w2).max(), 1.0))

    def test_accelerator_kernel_by_name(self):
        from repro.core.accel import AcceleratorConfig, SEMAccelerator
        from repro.hardware.fpga import STRATIX10_GX2800

        ref, u, g = random_fields(3, num_e=2, seed=2)
        acc_e = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        acc_m = SEMAccelerator(
            AcceleratorConfig.banked(3), STRATIX10_GX2800, ax_kernel="matmul"
        )
        w_e, _ = acc_e.run(u, g)
        w_m, _ = acc_m.run(u, g)
        assert np.allclose(w_m, w_e, atol=1e-11 * max(np.abs(w_e).max(), 1.0))


class TestThreads:
    """Thread-parallel element blocks: bit-identical, pool reuse."""

    def _fields(self, n=5, num_e=40, seed=3):
        return random_fields(n, num_e=num_e, seed=seed)

    def test_threaded_matches_sequential_bit_for_bit(self):
        ref, u, g = self._fields()
        w1 = ax_local_matmul(ref, u, g, threads=1)
        for k in (2, 3, 4):
            wk = ax_local_matmul(ref, u, g, threads=k)
            assert np.array_equal(wk, w1), f"threads={k} diverged"

    def test_threaded_workspace_matches_and_reuses_pool(self):
        ref, u, g = self._fields()
        ws = SolverWorkspace(num_elements=40, nx=ref.n_points, threads=2)
        w1 = ax_local_matmul(ref, u, g, threads=1)
        w2 = ax_local_matmul(ref, u, g, workspace=ws)
        assert np.array_equal(w2, w1)
        pool = ws.executor
        assert pool is not None
        ax_local_matmul(ref, u, g, workspace=ws)
        assert ws.executor is pool  # persistent, not respawned
        ws.shutdown()
        assert ws._executor is None

    def test_threads_argument_overrides_workspace(self):
        ref, u, g = self._fields()
        ws = SolverWorkspace(num_elements=40, nx=ref.n_points, threads=1)
        w = ax_local_matmul(ref, u, g, workspace=ws, threads=3)
        assert np.array_equal(w, ax_local_matmul(ref, u, g))

    def test_invalid_threads_raise(self):
        ref, u, g = self._fields()
        with pytest.raises(ValueError, match="threads"):
            ax_local_matmul(ref, u, g, threads=0)
        with pytest.raises(ValueError, match="threads"):
            SolverWorkspace(num_elements=2, nx=4, threads=0)

    def test_threaded_batched_matches(self):
        ref, u, g = self._fields(num_e=48)
        rng = np.random.default_rng(8)
        ub = rng.standard_normal((3,) + u.shape)
        w1 = ax_local_matmul(ref, ub, g, threads=1)
        w2 = ax_local_matmul(ref, ub, g, threads=2)
        assert np.array_equal(w2, w1)

    def test_problem_threads_plumbing(self):
        from repro.sem import PoissonProblem, HelmholtzProblem, NekboneCase

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = PoissonProblem(mesh, ax_backend="matmul", threads=2)
        assert prob.workspace.threads == 2
        assert prob.batch_workspace(4).threads == 2
        helm = HelmholtzProblem(mesh, ax_backend="matmul", threads=2)
        assert helm.workspace.threads == 2
        case = NekboneCase(3, (2, 1, 1), ax_backend="matmul", threads=2)
        assert case.problem.workspace.threads == 2

    def test_threaded_solve_matches_single_thread(self):
        from repro.sem import PoissonProblem, cg_solve, sine_manufactured

        ref = ReferenceElement.from_degree(4)
        mesh = BoxMesh.build(ref, (3, 2, 2))
        p1 = PoissonProblem(mesh, ax_backend="matmul", threads=1)
        p2 = PoissonProblem(mesh, ax_backend="matmul", threads=2)
        _, forcing = sine_manufactured(mesh.extent)
        b = p1.rhs_from_forcing(forcing)
        r1 = cg_solve(p1.apply_A, b, tol=0.0, maxiter=15, workspace=p1.workspace)
        r2 = cg_solve(p2.apply_A, b, tol=0.0, maxiter=15, workspace=p2.workspace)
        assert np.array_equal(r1.x, r2.x)

    def test_accelerator_threads_plumbing(self):
        from repro.core.accel import AcceleratorConfig, SEMAccelerator
        from repro.hardware.fpga import STRATIX10_GX2800

        ref, u, g = random_fields(3, num_e=4, seed=5)
        acc1 = SEMAccelerator(
            AcceleratorConfig.banked(3), STRATIX10_GX2800, ax_kernel="matmul"
        )
        acc2 = SEMAccelerator(
            AcceleratorConfig.banked(3), STRATIX10_GX2800,
            ax_kernel="matmul", threads=2,
        )
        w1, _ = acc1.run(u, g)
        w2, _ = acc2.run(u, g)
        assert np.array_equal(w1, w2)
        with pytest.raises(ValueError, match="threads"):
            SEMAccelerator(
                AcceleratorConfig.banked(3), STRATIX10_GX2800, threads=0
            )


class TestBlockResidentScratch:
    """A workspace-backed sweep keeps its seven work arrays per block
    (per worker slot when threaded) instead of streaming the full-size
    scratch fields — shown by which rows a call writes, not by timing."""

    @staticmethod
    def _nan_scratch(ws):
        from repro.sem.workspace import KERNEL_SCRATCH_BUFFERS

        bufs = [getattr(ws, name) for name in KERNEL_SCRATCH_BUFFERS]
        for buf in bufs:
            buf.fill(np.nan)
        return bufs

    @pytest.mark.parametrize("threads", (1, 2, 3))
    @pytest.mark.parametrize("num_e", (40, 64, 512))
    def test_only_one_block_of_rows_per_slot_is_written(self, num_e, threads):
        from repro.sem.kernels import BLOCK_DOFS

        ref, u, g = random_fields(7, num_e=num_e, seed=9)
        nx = ref.n_points
        block = BLOCK_DOFS // nx ** 3
        # 40 = one full block + a remainder; with threads=3 both 40 and
        # 64 have fewer blocks than worker slots (E < threads * block).
        assert block == 32
        with SolverWorkspace(
            num_elements=num_e, nx=nx, threads=threads
        ) as ws:
            bufs = self._nan_scratch(ws)
            w = ax_local_matmul(ref, u, g, workspace=ws)
            used = min(num_e, threads * block)
            for buf in bufs:
                assert not np.isnan(buf[:used]).any()
                assert np.isnan(buf[used:]).all()
        assert np.array_equal(w, ax_local_matmul(ref, u, g))

    def test_stacked_sweep_shares_the_block_scratch(self):
        from repro.sem.workspace import FUSED_BATCH_DOFS

        ref, u, g = random_fields(7, num_e=64, seed=10)
        ub = np.random.default_rng(11).standard_normal((2,) + u.shape)
        assert ub.size > FUSED_BATCH_DOFS  # the per-system block sweep
        ws = SolverWorkspace(num_elements=64, nx=ref.n_points, batch=2)
        bufs = self._nan_scratch(ws)
        w = ax_local_matmul(ref, ub, g, workspace=ws)
        for buf in bufs:
            assert not np.isnan(buf[:32]).any()
            assert np.isnan(buf[32:]).all()
        for b in range(2):
            assert np.array_equal(w[b], ax_local_matmul(ref, ub[b], g))


class TestBatchedKernels:
    """Stacked (B, E, ...) inputs through every registered kernel."""

    def test_matmul_batched_bit_identical_per_system(self):
        ref, u, g = random_fields(4, num_e=6, seed=21)
        rng = np.random.default_rng(22)
        ub = rng.standard_normal((3,) + u.shape)
        wb = ax_local_matmul(ref, ub, g)
        for b in range(3):
            assert np.array_equal(wb[b], ax_local_matmul(ref, ub[b], g))

    def test_matmul_batched_workspace_fused_and_nested(self):
        from repro.sem.workspace import FUSED_BATCH_DOFS

        ref = ReferenceElement.from_degree(4)
        nx = ref.n_points
        rng = np.random.default_rng(23)
        # Small case -> fused all-systems path.
        e_small = 4
        g_s = rng.standard_normal((e_small, 6, nx, nx, nx))
        ub_s = rng.standard_normal((2, e_small, nx, nx, nx))
        ws_s = SolverWorkspace(num_elements=e_small, nx=nx, batch=2)
        assert 2 * e_small * nx ** 3 <= FUSED_BATCH_DOFS
        w_s = ax_local_matmul(ref, ub_s, g_s, workspace=ws_s)
        for b in range(2):
            assert np.array_equal(w_s[b], ax_local_matmul(ref, ub_s[b], g_s))
        # Large case -> per-system element-block sweep.
        e_big = FUSED_BATCH_DOFS // nx ** 3 + 8
        g_b = rng.standard_normal((e_big, 6, nx, nx, nx))
        ub_b = rng.standard_normal((2, e_big, nx, nx, nx))
        ws_b = SolverWorkspace(num_elements=e_big, nx=nx, batch=2)
        w_b = ax_local_matmul(ref, ub_b, g_b, workspace=ws_b)
        for b in range(2):
            assert np.array_equal(w_b[b], ax_local_matmul(ref, ub_b[b], g_b))

    def test_all_registered_kernels_accept_batched(self):
        ref, u, g = random_fields(2, num_e=2, seed=24)
        rng = np.random.default_rng(25)
        ub = rng.standard_normal((2,) + u.shape)
        w_ref = np.stack([ax_local(ref, ub[b], g) for b in range(2)])
        scale = max(np.abs(w_ref).max(), 1.0)
        for name in available_ax_kernels():
            w = get_ax_kernel(name)(ref, ub, g)
            assert w.shape == ub.shape, name
            assert np.allclose(w, w_ref, atol=1e-10 * scale), name

    def test_batched_shape_validation(self):
        ref, u, g = random_fields(3, num_e=2)
        with pytest.raises(ValueError, match="batched u"):
            ax_local_matmul(ref, u[None, :, :, :, :-1], g)
        with pytest.raises(ValueError, match="g must be"):
            ax_local_matmul(ref, u[None], g[:1])


class TestRegistryErrorPaths:
    """The registry's failure modes, exercised explicitly."""

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError) as exc:
            get_ax_kernel("no_such_kernel")
        message = str(exc.value)
        assert "no_such_kernel" in message
        for name in ("einsum", "matmul", "listing1", "dense"):
            assert name in message

    def test_duplicate_register_without_overwrite_raises(self):
        sentinel = lambda ref, u, g, out=None, workspace=None: u  # noqa: E731
        register_ax_kernel("_dup_probe", sentinel)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_ax_kernel("_dup_probe", lambda *a, **k: None)
            # The failed registration must not clobber the original.
            assert get_ax_kernel("_dup_probe") is sentinel
        finally:
            from repro.sem.kernels import _REGISTRY

            _REGISTRY.pop("_dup_probe", None)

    def test_builtin_names_cannot_be_shadowed_silently(self):
        with pytest.raises(ValueError, match="already registered"):
            register_ax_kernel("matmul", lambda *a, **k: None)
        assert get_ax_kernel("matmul") is ax_local_matmul

    def test_resolve_with_raw_callable_passes_through(self):
        def raw(ref, u, g):
            return u

        assert resolve_ax_backend(raw) is raw

    def test_resolve_rejects_non_callables(self):
        for bad in (42, None, [], {"name": "matmul"}):
            with pytest.raises(TypeError, match="callable"):
                resolve_ax_backend(bad)

    def test_resolve_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="available"):
            resolve_ax_backend("not_registered")

    def test_accepts_keyword_caching_and_fallback(self):
        from repro.sem.kernels import accepts_keyword

        assert accepts_keyword(ax_local_matmul, "threads")
        assert accepts_keyword(ax_local_matmul, "out")
        assert not accepts_keyword(lambda ref, u, g: u, "out")

        def kwargs_sink(*args, **kwargs):
            return None

        assert accepts_keyword(kwargs_sink, "anything")
        # Repeated probes hit the lru_cache (same result, no re-reflection).
        from repro.sem.kernels import _accepts_keyword_cached

        _accepts_keyword_cached.cache_clear()
        accepts_keyword(ax_local_matmul, "out")
        first = _accepts_keyword_cached.cache_info()
        accepts_keyword(ax_local_matmul, "out")
        second = _accepts_keyword_cached.cache_info()
        assert second.hits == first.hits + 1


def test_accepts_keyword_does_not_pin_bound_instances():
    """The probe cache must key on the underlying function, not the
    bound method, so probing prob.apply_A never keeps the problem (and
    its workspaces) alive."""
    import gc
    import weakref

    from repro.sem.kernels import accepts_keyword

    class Holder:
        def op(self, x, out=None):
            return x

    h = Holder()
    assert accepts_keyword(h.op, "out")
    ref_h = weakref.ref(h)
    del h
    gc.collect()
    assert ref_h() is None, "accepts_keyword cache pinned the instance"
