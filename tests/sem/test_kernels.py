"""Tests for repro.sem.kernels (the production kernel + the registry)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from oracles import ax_local, ax_local_dense
from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    SolverWorkspace,
    ax_local_listing1,
    ax_local_matmul,
    geometric_factors,
    get_ax_kernel,
    register_ax_kernel,
)


def random_fields(n: int, num_e: int = 3, seed: int = 0):
    """Random fields + random (unstructured "curved") geometric factors."""
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((num_e, nx, nx, nx))
    g = rng.standard_normal((num_e, 6, nx, nx, nx))
    return ref, u, g


def tiny_mesh():
    return BoxMesh.build(ReferenceElement.from_degree(2), (2, 1, 1))


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

    def test_mixed_dtypes_are_refused_not_promoted(self):
        """An fp32 field against fp64 factors used to multiply in fp64
        mid-kernel and round the result (4.8e-7 from the all-fp32 one);
        handed to C the wrong width would be read.  Refused up front,
        for ``g`` and for ``out=``, naming both dtypes."""
        ref, u, g = random_fields(4)
        u32, g32 = u.astype(np.float32), g.astype(np.float32)
        with pytest.raises(TypeError, match="g is float64 but u is float32"):
            ax_local_matmul(ref, u32, g)
        with pytest.raises(TypeError, match="g is float32 but u is float64"):
            ax_local_matmul(ref, u, g32)
        out = np.full_like(u, np.nan)
        with pytest.raises(TypeError, match="out is float64 but u is float32"):
            ax_local_matmul(ref, u32, g32, out=out)
        assert np.isnan(out).all()  # refused before the kernel ran
        assert ax_local_matmul(ref, u32, g32).dtype == np.float32

    def test_workspace_path_matches(self):
        """A forwarded ``workspace=`` (the traced wrapper of
        ``benchmarks/e2e/semtrace.py`` forwards one) is accepted and
        changes no bit: the kernel needs no scratch."""
        ref, u, g = random_fields(6, num_e=4)
        ws = SolverWorkspace(num_elements=4, nx=ref.n_points)
        out = np.empty_like(u)
        w = ax_local_matmul(ref, u, g, out=out, workspace=ws)
        assert w is out and np.array_equal(w, ax_local_matmul(ref, u, g))


def _unaligned(a):
    """A copy of ``a`` one byte off its dtype's alignment."""
    out = np.empty(a.nbytes + 1, np.uint8)[1:].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert not out.flags.aligned
    return out


def _strided_blocks(g):
    """A copy of ``g`` whose ``(nx, nx, nx)`` blocks are strided."""
    out = np.empty(g.shape + (2,), g.dtype)[..., 0]
    out[...] = g
    return out


@pytest.fixture
def numpy_body_operands(monkeypatch):
    """``ax_local_matmul``, here and as the registry's ``"matmul"``,
    handed the operands its numpy body used to take in C's place — ``u``
    unaligned, ``g`` with strided blocks — which it now copies once into
    contiguous native arrays; each result must be the plain call's
    bits."""
    from repro.sem import kernels

    plain = kernels.ax_local_matmul

    def relaid(ref, u, g, out=None, workspace=None):
        got = plain(ref, _unaligned(u), _strided_blocks(g), out=out,
                    workspace=workspace)
        assert np.array_equal(got, plain(ref, u, g))
        return got

    monkeypatch.setitem(globals(), "ax_local_matmul", relaid)
    monkeypatch.setitem(kernels._REGISTRY, "matmul", relaid)


@pytest.mark.usefixtures("numpy_body_operands")
class TestMatmulKernelNumpyBody(TestMatmulKernel):
    """The same cases on the operands that used to take the numpy
    body."""


class TestRegistry:
    def test_builtin_names(self):
        """One name is built in, the production kernel's; the reference
        kernels are the tests' oracles, not backends."""
        assert get_ax_kernel("matmul") is ax_local_matmul
        for gone in ("einsum", "listing1", "dense"):
            with pytest.raises(KeyError):
                get_ax_kernel(gone)

    def test_get_returns_callables(self):
        assert get_ax_kernel("matmul") is ax_local_matmul

    def test_unknown_name_raises_with_alternatives(self):
        with pytest.raises(KeyError, match="matmul"):
            get_ax_kernel("nope")

    def test_all_registered_kernels_agree(self):
        """The production kernel and the paper's Listing 1 against the
        einsum and dense oracles."""
        ref, u, g = random_fields(3, num_e=2, seed=33)
        w_ref = ax_local(ref, u, g)
        scale = np.abs(w_ref).max()
        for w in (get_ax_kernel("matmul")(ref, u, g),
                  ax_local_listing1(ref, u, g), ax_local_dense(ref, u, g)):
            assert np.allclose(w, w_ref, atol=1e-10 * max(scale, 1.0))

    def test_adapters_honor_out(self):
        """A plain ``(ref, u, g)`` backend needs no adapter: the problem
        gathers its result straight into the operator's ``out``."""
        mesh = tiny_mesh()
        plain = PoissonProblem(mesh, ax_backend=ax_local_listing1)
        v = np.random.default_rng(7).standard_normal(mesh.n_global)
        want = PoissonProblem(mesh).apply_A(v)
        out = np.full_like(v, np.nan)
        assert plain.apply_A(v, out=out) is out
        assert np.allclose(out, want, atol=1e-11 * max(np.abs(want).max(), 1))

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
        """A problem's ``ax_backend``: nothing is the production kernel,
        a name goes through the registry, a callable is used as it is."""
        mesh = tiny_mesh()
        assert PoissonProblem(mesh).ax_backend is ax_local_matmul
        for spec, kernel in (("matmul", ax_local_matmul), (ax_local, ax_local)):
            assert PoissonProblem(mesh, ax_backend=spec).ax_backend is kernel
        with pytest.raises(TypeError):
            PoissonProblem(mesh, ax_backend=42)


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
        """The accelerator model computes with the kernel ``"matmul"``
        names: the production one, to the bit."""
        from repro.core.accel import AcceleratorConfig, SEMAccelerator
        from repro.hardware.fpga import STRATIX10_GX2800

        ref, u, g = random_fields(3, num_e=2, seed=2)
        acc = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        w, _ = acc.run(u, g)
        assert np.array_equal(w, get_ax_kernel("matmul")(ref, u, g))


@functools.cache
def _former_threads_surfaces():
    """The nine places ``threads=`` could be set before it was deleted,
    each as a callable taking the stale keyword."""
    from repro.core.accel import AcceleratorConfig, SEMAccelerator
    from repro.hardware.fpga import STRATIX10_GX2800
    from repro.sem import HelmholtzProblem, NekboneCase, PoissonProblem
    from repro.sem.spec import ProblemSpec
    from repro.sem.workspace import cached_batch_workspace

    ref, u, g = random_fields(3, num_e=2, seed=5)
    mesh = BoxMesh.build(ref, (2, 1, 1))
    base = SolverWorkspace.for_mesh(mesh)
    return {
        "ax_local_matmul": lambda **kw: ax_local_matmul(ref, u, g, **kw),
        "SolverWorkspace": lambda **kw: SolverWorkspace(
            num_elements=2, nx=ref.n_points, **kw
        ),
        "SolverWorkspace.for_mesh": lambda **kw: SolverWorkspace.for_mesh(
            mesh, **kw
        ),
        "cached_batch_workspace": lambda **kw: cached_batch_workspace(
            {}, mesh, 2, base=base, **kw
        ),
        "PoissonProblem": lambda **kw: PoissonProblem(mesh, **kw),
        "HelmholtzProblem": lambda **kw: HelmholtzProblem(mesh, **kw),
        "NekboneCase": lambda **kw: NekboneCase(3, (2, 1, 1), **kw),
        "ProblemSpec": lambda **kw: ProblemSpec(
            kind="poisson", degree=3, shape=(2, 1, 1),
            extent=(1.0, 1.0, 1.0), arrays=None, **kw
        ),
        "SEMAccelerator": lambda **kw: SEMAccelerator(
            AcceleratorConfig.banked(3), STRATIX10_GX2800, **kw
        ),
    }


class TestThreadsOptionIsGone:
    """``threads=`` was deleted, not deprecated: a stale keyword is
    Python's own ``TypeError`` on every surface that used to take it."""

    @pytest.mark.parametrize("surface", sorted(_former_threads_surfaces()))
    def test_stale_threads_keyword_is_a_type_error(self, surface):
        call = _former_threads_surfaces()[surface]
        call()  # the surface itself still works...
        with pytest.raises(TypeError, match="threads"):
            call(threads=2)  # ...and refuses the deleted option

    def test_spec_round_trips_without_a_threads_attribute(self):
        import pickle

        from repro.sem import PoissonProblem
        from repro.sem.spec import rebuild

        ref = ReferenceElement.from_degree(3)
        prob = PoissonProblem(BoxMesh.build(ref, (2, 2, 1)), ax_backend="matmul")
        export = prob.export_shared()
        try:
            spec = pickle.loads(pickle.dumps(export.spec))
            twin = rebuild(spec)
            for obj in (spec, twin, twin.workspace, twin.batch_workspace(4)):
                assert not hasattr(obj, "threads")
            b = (np.random.default_rng(6).standard_normal(prob.n_dofs)
                 * prob.interior)
            assert np.array_equal(twin.apply_A(b), prob.apply_A(b))
            del twin
        finally:
            export.close()


class TestBatchedKernels:
    """Stacked (B, E, ...) inputs through every registered kernel."""

    def test_matmul_batched_bit_identical_per_system(self):
        ref, u, g = random_fields(4, num_e=6, seed=21)
        rng = np.random.default_rng(22)
        ub = rng.standard_normal((3,) + u.shape)
        wb = ax_local_matmul(ref, ub, g)
        for b in range(3):
            assert np.array_equal(wb[b], ax_local_matmul(ref, ub[b], g))

    def test_all_registered_kernels_accept_batched(self):
        """The production kernel and the accelerator model's backend —
        what a problem hands stacked blocks to — take them, the model
        with one cycle report per system."""
        from repro.core.accel import AcceleratorConfig, SEMAccelerator
        from repro.hardware.fpga import STRATIX10_GX2800

        ref, u, g = random_fields(2, num_e=2, seed=24)
        rng = np.random.default_rng(25)
        ub = rng.standard_normal((2,) + u.shape)
        w_ref = np.stack([ax_local(ref, ub[b], g) for b in range(2)])
        scale = max(np.abs(w_ref).max(), 1.0)
        acc = SEMAccelerator(AcceleratorConfig.banked(2), STRATIX10_GX2800)
        for name, kernel in (("matmul", get_ax_kernel("matmul")),
                             ("accelerator", acc.as_ax_backend())):
            w = kernel(ref, ub, g)
            assert w.shape == ub.shape, name
            assert np.allclose(w, w_ref, atol=1e-10 * scale), name
        assert len(acc.history) == 2

    def test_batched_shape_validation(self):
        ref, u, g = random_fields(3, num_e=2)
        with pytest.raises(ValueError, match="batched u"):
            ax_local_matmul(ref, u[None, :, :, :, :-1], g)
        with pytest.raises(ValueError, match="g must be"):
            ax_local_matmul(ref, u[None], g[:1])


@pytest.mark.usefixtures("numpy_body_operands")
class TestBatchedKernelsNumpyBody(TestBatchedKernels):
    """Stacked == per-system on the operands that used to take the
    numpy body."""


class TestRegistryErrorPaths:
    """The registry's failure modes, exercised explicitly."""

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError) as exc:
            get_ax_kernel("no_such_kernel")
        message = str(exc.value)
        assert "no_such_kernel" in message and "matmul" in message

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

        assert PoissonProblem(tiny_mesh(), ax_backend=raw).ax_backend is raw

    def test_resolve_rejects_non_callables(self):
        for bad in (42, [], {"name": "matmul"}):
            with pytest.raises(TypeError, match="callable"):
                PoissonProblem(tiny_mesh(), ax_backend=bad)

    def test_resolve_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="available"):
            PoissonProblem(tiny_mesh(), ax_backend="not_registered")

    def test_accepts_keyword_caching_and_fallback(self):
        from repro.sem.cg import accepts_keyword

        assert accepts_keyword(ax_local_matmul, "out")
        assert not accepts_keyword(ax_local_matmul, "threads")
        assert not accepts_keyword(lambda ref, u, g: u, "out")

        def kwargs_sink(*args, **kwargs):
            return None

        assert accepts_keyword(kwargs_sink, "anything")
        # Repeated probes hit the lru_cache (same result, no re-reflection).
        from repro.sem.cg import _accepts_keyword_cached

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

    from repro.sem.cg import accepts_keyword

    class Holder:
        def op(self, x, out=None):
            return x

    h = Holder()
    assert accepts_keyword(h.op, "out")
    ref_h = weakref.ref(h)
    del h
    gc.collect()
    assert ref_h() is None, "accepts_keyword cache pinned the instance"
