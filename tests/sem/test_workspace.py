"""Tests for repro.sem.workspace (the allocation-free solver hot path)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    SolverWorkspace,
    ax_local_matmul,
    cg_solve,
    sine_manufactured,
)


class TestConstruction:
    def test_for_mesh_sizes_everything(self):
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        ws = SolverWorkspace.for_mesh(mesh)
        assert ws.n_global == mesh.n_global
        assert ws.tmp.shape == mesh.l2g.shape
        assert ws.cg_p.shape == (mesh.n_global,)
        assert ws.nbytes > 0

    def test_kernel_only_workspace(self):
        ws = SolverWorkspace(num_elements=4, nx=5)
        assert ws.n_global == 0
        assert ws.cg_x.shape == (0,)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            SolverWorkspace(num_elements=0, nx=4)
        with pytest.raises(ValueError):
            SolverWorkspace(num_elements=1, nx=1)
        with pytest.raises(ValueError):
            SolverWorkspace(num_elements=1, nx=4, n_global=-1)

    def test_require_helpers(self):
        ws = SolverWorkspace(num_elements=2, nx=4, n_global=10)
        ws.require_global(10)
        with pytest.raises(ValueError, match="global"):
            ws.require_global(11)


class TestReuse:
    def test_repeated_kernel_calls_are_consistent(self):
        """The same ``out`` serves many calls without cross-talk."""
        ref = ReferenceElement.from_degree(4)
        nx = ref.n_points
        rng = np.random.default_rng(0)
        out = np.empty((3, nx, nx, nx))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            u = rng.standard_normal((3, nx, nx, nx))
            g = rng.standard_normal((3, 6, nx, nx, nx))
            w_out = ax_local_matmul(ref, u, g, out=out)
            w_fresh = ax_local_matmul(ref, u, g)
            assert w_out is out and np.array_equal(w_out, w_fresh)

    def test_cg_with_workspace_matches_without(self):
        ref = ReferenceElement.from_degree(4)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        diag = prob.jacobi_diagonal()
        res_ws = cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=25,
            workspace=prob.workspace,
        )
        res_plain = cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=25
        )
        assert res_ws.iterations == res_plain.iterations
        assert np.allclose(res_ws.x, res_plain.x, rtol=1e-12, atol=1e-14)
        assert res_ws.residual_history == pytest.approx(
            res_plain.residual_history, rel=1e-10
        )

    def test_cg_result_survives_workspace_reuse(self):
        """CGResult.x is copied out of the workspace buffers."""
        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(mesh)
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        first = cg_solve(
            prob.apply_A, b, tol=0.0, maxiter=5, workspace=prob.workspace
        )
        x_snapshot = first.x.copy()
        cg_solve(
            prob.apply_A, 2.0 * b, tol=0.0, maxiter=5,
            workspace=prob.workspace,
        )
        assert np.array_equal(first.x, x_snapshot)

    def test_cg_workspace_size_mismatch_raises(self):
        ws = SolverWorkspace(num_elements=1, nx=3, n_global=7)
        b = np.ones(9)
        with pytest.raises(ValueError, match="global"):
            cg_solve(lambda x: x, b, workspace=ws)

    def test_cg_operator_accepting_out_but_returning_fresh_array(self):
        """An ``out=``-accepting operator that ignores ``out`` and returns
        a fresh array must still solve correctly (the return value wins)."""
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12))
        a = m @ m.T + 12 * np.eye(12)
        b = rng.standard_normal(12)

        def op(x, out=None):
            return a @ x  # never writes into out

        result = cg_solve(op, b, tol=1e-12, maxiter=100)
        assert result.converged
        assert np.allclose(a @ result.x, b, atol=1e-9)


class TestAllocationFree:
    def test_cg_iterations_allocate_no_fields(self):
        """tracemalloc regression: after warm-up, a CG solve's peak heap
        growth stays below one field-sized array — i.e. zero per-iteration
        field allocations in apply_A, gather-scatter, the kernel and the
        CG vector updates."""
        # Sized so one local field (256 KiB) dwarfs the constant-size
        # internals that remain: numpy's ~64 KiB chunked ufunc buffer and
        # the returned global iterate copy.
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (8, 8, 8))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        diag = prob.jacobi_diagonal()
        field_bytes = 8 * mesh.num_elements * ref.n_points ** 3

        # Warm-up: first-touch every workspace buffer and numpy caches.
        cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=3,
            workspace=prob.workspace,
        )

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = cg_solve(
                prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=30,
                workspace=prob.workspace,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert result.iterations == 30
        growth = peak - baseline
        # The only allowed allocations are the returned iterate copy
        # (n_global < E*nx^3 by construction) and O(iterations) floats.
        assert growth < field_bytes, (
            f"peak heap growth {growth} B >= one field ({field_bytes} B): "
            "the hot path allocated per-iteration temporaries"
        )

    def test_matmul_kernel_is_allocation_free_with_out(self):
        ref = ReferenceElement.from_degree(7)
        nx = ref.n_points
        num_e = 64
        rng = np.random.default_rng(1)
        u = rng.standard_normal((num_e, nx, nx, nx))
        g = rng.standard_normal((num_e, 6, nx, nx, nx))
        out = np.empty_like(u)
        field_bytes = 8 * num_e * nx ** 3
        ax_local_matmul(ref, u, g, out=out)  # warm-up

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(5):
                ax_local_matmul(ref, u, g, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak - baseline < field_bytes // 2


@pytest.mark.usefixtures("reference_loop")
class TestReuseNumpyBody(TestReuse):
    """Workspace == workspace-free on the reference loop (the kernel
    case, which runs no loop, rides along unchanged)."""


@pytest.mark.usefixtures("reference_loop")
class TestAllocationFreeNumpyBody(TestAllocationFree):
    """The zero-allocation contract on the reference loop, which calls
    the problem's operator back every iteration (the kernel case rides
    along unchanged)."""


class TestBatchedWorkspace:
    def test_batched_buffer_shapes(self):
        ws = SolverWorkspace(num_elements=3, nx=4, n_global=20, batch=5)
        assert ws.u_local.shape == (5, 3, 4, 4, 4)
        assert ws.w_local.shape == (5, 3, 4, 4, 4)
        assert ws.cg_p.shape == (5, 20)
        assert ws.cg_rz.shape == (5,)
        assert ws.cg_active.shape == (5,)
        assert ws.nbytes > 0

    def test_kernel_scratch_stays_single_system_when_large(self):
        """At every batch size: the layered operator adds the mass term
        one system at a time through the same element-space scratch."""
        nx = 4
        for num_e in (4, 528):
            ws = SolverWorkspace(num_elements=num_e, nx=nx, batch=4)
            assert ws.tmp.shape == (num_e, nx, nx, nx)

    def test_require_batch(self):
        ws = SolverWorkspace(num_elements=2, nx=4, n_global=10, batch=3)
        ws.require_batch(3)
        with pytest.raises(ValueError, match="batch"):
            ws.require_batch(2)
        with pytest.raises(ValueError, match="batch"):
            SolverWorkspace(num_elements=1, nx=4, batch=0)

    def test_for_mesh_batch(self):
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        ws = SolverWorkspace.for_mesh(mesh, batch=4)
        assert ws.batch == 4
        assert ws.cg_x.shape == (4, mesh.n_global)

    def test_workspace_is_buffers_and_nothing_else(self):
        """No executor, no finalizer, no teardown protocol: everything a
        workspace holds besides its sizing fields is an ndarray."""
        ws = SolverWorkspace(num_elements=2, nx=4, n_global=10, batch=2)
        sizing = {"num_elements", "nx", "n_global", "batch", "dtype"}
        assert sizing <= set(vars(ws))
        for name, value in vars(ws).items():
            assert name in sizing or isinstance(value, np.ndarray), name
        for gone in ("executor", "shutdown", "__enter__", "__exit__"):
            assert not hasattr(ws, gone)

    def test_nbytes_matches_actual_buffer_bytes(self):
        """nbytes must equal the real total — the 1-byte bool buffer
        (cg_active) used to be billed at 8 bytes per entry."""
        from repro.sem.workspace import (
            BATCH_SCALAR_BUFFERS, GLOBAL_BUFFERS, LOCAL_BUFFERS,
        )

        for kwargs in (
            dict(num_elements=2, nx=4, n_global=10, batch=3),
            dict(num_elements=3, nx=3, n_global=7),
            dict(num_elements=4, nx=5),
        ):
            ws = SolverWorkspace(**kwargs)
            names = LOCAL_BUFFERS + GLOBAL_BUFFERS + BATCH_SCALAR_BUFFERS
            actual = sum(getattr(ws, n).nbytes for n in names)
            actual += ws.cg_active.nbytes
            assert ws.nbytes == actual


class TestBatchedAllocationFree:
    def test_batched_cg_iterations_allocate_no_fields(self):
        """tracemalloc regression for the batched path: a warm batched
        solve's peak heap growth stays below one stacked field, i.e.
        zero per-iteration field allocations across apply_A, the fused
        kernel, the batched gather-scatter and the masked CG updates."""
        from repro.sem import cg_solve_batched

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (4, 4, 4))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        b0 = prob.rhs_from_forcing(forcing)
        diag = prob.jacobi_diagonal()
        batch = 4
        bs = np.stack([b0 * (1.0 + k) for k in range(batch)])
        bws = prob.batch_workspace(batch)
        field_bytes = 8 * mesh.num_elements * ref.n_points ** 3

        # Warm-up: first-touch every buffer (incl. the batched scratch).
        cg_solve_batched(
            prob.apply_A, bs, precond_diag=diag, tol=0.0, maxiter=3,
            workspace=bws,
        )

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = cg_solve_batched(
                prob.apply_A, bs, precond_diag=diag, tol=0.0, maxiter=30,
                workspace=bws,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert result.total_iterations == 30
        growth = peak - baseline
        # Allowed: the returned (B, n) iterate copy, the residual
        # history (O(iterations * batch) floats) and per-iteration
        # (batch,)-sized masks — together under one *stacked* field,
        # while any per-iteration field leak would be ~30x larger.
        stacked_field_bytes = batch * field_bytes
        assert growth < stacked_field_bytes, (
            f"peak heap growth {growth} B >= one stacked field "
            f"({stacked_field_bytes} B): the batched hot path allocated "
            "per-iteration temporaries"
        )

    def test_batched_solution_matches_sequential_solves(self):
        from repro.sem import cg_solve_batched

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        b0 = prob.rhs_from_forcing(forcing)
        diag = prob.jacobi_diagonal()
        bs = np.stack([b0, 2.0 * b0, -0.5 * b0])
        res = cg_solve_batched(
            prob.apply_A, bs, precond_diag=diag, tol=1e-11, maxiter=300,
            workspace=prob.batch_workspace(3),
        )
        assert res.all_converged
        for k in range(3):
            single = cg_solve(
                prob.apply_A, bs[k], precond_diag=diag, tol=1e-11,
                maxiter=300, workspace=prob.workspace,
            )
            assert single.converged
            assert np.allclose(res.x[k], single.x, rtol=1e-9, atol=1e-12)


@pytest.mark.usefixtures("reference_loop")
class TestBatchedAllocationFreeNumpyBody(TestBatchedAllocationFree):
    """The stacked zero-allocation contract on the reference loop."""


class TestBatchOfOne:
    """A stacked (1, n) block is legal everywhere batched input is."""

    def _problem(self):
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        return prob, prob.rhs_from_forcing(forcing)

    def test_apply_A_accepts_singleton_block(self):
        prob, b = self._problem()
        single = prob.apply_A(b)
        stacked = prob.apply_A(b[None, :])
        assert stacked.shape == (1, b.shape[0])
        assert np.array_equal(stacked[0], single)
        out = np.empty((1, b.shape[0]))
        assert prob.apply_A(b[None, :], out=out) is out
        assert np.array_equal(out[0], single)

    def test_helmholtz_apply_accepts_singleton_block(self):
        from repro.sem import HelmholtzProblem

        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        prob = HelmholtzProblem(mesh, ax_backend="matmul")
        rng = np.random.default_rng(41)
        v = rng.standard_normal(mesh.n_global)
        assert np.array_equal(prob.apply(v[None, :])[0], prob.apply(v))

    def test_cg_solve_dispatches_singleton_block(self):
        from repro.sem import cg_solve_batched

        prob, b = self._problem()
        diag = prob.jacobi_diagonal()
        single = cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=1e-11, maxiter=300,
            workspace=prob.workspace,
        )
        stacked = cg_solve_batched(
            prob.apply_A, b[None, :], precond_diag=diag, tol=1e-11,
            maxiter=300, workspace=prob.batch_workspace(1),
        )
        assert stacked.all_converged and single.converged
        assert np.allclose(stacked.x[0], single.x, rtol=1e-10, atol=1e-13)
        # And through the auto-dispatching front door, workspace-free.
        via_cg = cg_solve(prob.apply_A, b[None, :], precond_diag=diag,
                          tol=1e-11, maxiter=300)
        assert via_cg.all_converged


class TestBatchWorkspaceCacheRace:
    def test_thundering_herd_materializes_exactly_one_workspace(self):
        """Regression: cached_batch_workspace had a check-then-insert
        race — two threads hitting an unseen batch size through
        ``problem.batch_workspace(B)`` directly (the solve service
        serializes its own callers, bare problems don't) each built a
        SolverWorkspace, and the loser kept a field-sized duplicate the
        cache never handed out again.  A barrier-released herd must
        converge on one identical workspace, built exactly once."""
        import threading

        from repro.sem import workspace as workspace_module

        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (1, 1, 1))
        prob = PoissonProblem(mesh, ax_backend="matmul")

        n_threads = 8
        builds: list[int] = []
        build_lock = threading.Lock()
        real_for_mesh = SolverWorkspace.for_mesh.__func__

        def counting_for_mesh(cls, *args, **kwargs):
            with build_lock:
                builds.append(1)
            # Construction takes real time (buffer allocation); dilate
            # it so every unguarded racer reaches its own build before
            # the first one can publish to the cache.
            import time

            time.sleep(0.02)
            return real_for_mesh(cls, *args, **kwargs)

        workspace_module.SolverWorkspace.for_mesh = classmethod(
            counting_for_mesh
        )
        try:
            for batch in (3, 5):  # two herds, two distinct cache misses
                barrier = threading.Barrier(n_threads)
                results: list = [None] * n_threads
                errors: list[BaseException] = []

                def herd(i, batch=batch, barrier=barrier, results=results):
                    try:
                        barrier.wait()
                        results[i] = prob.batch_workspace(batch)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=herd, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors
                assert all(ws is results[0] for ws in results), (
                    "herd got distinct workspaces for one cache key"
                )
        finally:
            workspace_module.SolverWorkspace.for_mesh = classmethod(
                real_for_mesh
            )
        # One construction per distinct batch size, herd-wide.
        assert len(builds) == 2


class TestSemLayerStartsNoThreads:
    """Inside a solve the only parallelism is the BLAS's own; across
    solves it is the serving fleets.  Nothing under ``repro.sem`` or
    ``repro.core`` owns an OS thread."""

    def test_thread_count_unchanged_from_construction_to_service_close(self):
        import threading

        from repro.sem import cg_solve_batched
        from repro.serve import SolveService

        before = threading.active_count()
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        twin = PoissonProblem(mesh, ax_backend="matmul")
        rng = np.random.default_rng(12)
        bs = rng.standard_normal((8, prob.n_dofs)) * prob.interior
        diag = prob.precond_diag()
        solo = cg_solve(
            prob.apply_A, bs[0], precond_diag=diag, tol=1e-8, maxiter=200,
            workspace=prob.workspace,
        )
        stacked = cg_solve_batched(
            twin.apply_A, bs, precond_diag=diag, tol=1e-8, maxiter=200,
            workspace=twin.batch_workspace(8),
        )
        assert np.array_equal(stacked.x[0], solo.x)
        svc = SolveService(prob, max_batch=4, tol=1e-8, maxiter=200)
        served = svc.solve_many(bs)
        svc.close()
        assert np.array_equal(served[0].x, solo.x)
        assert threading.active_count() == before

    def test_concurrent_futures_is_imported_nowhere_in_sem_or_core(self):
        """The import graph, read from the sources: a thread pool cannot
        come back without this naming the module that brought it."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        modules = sorted((root / "sem").rglob("*.py")) + sorted(
            (root / "core").rglob("*.py")
        )
        assert len(modules) > 20
        offenders = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "concurrent" for n in names):
                    offenders.append(str(path.relative_to(root)))
        assert not offenders, f"concurrent.futures imported by {offenders}"
