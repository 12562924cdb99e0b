"""Tests for repro.sem.spec (the one shared problem block, its picklable
spec and rebuild) and the shared-memory export/attach protocol in
repro.sem.shared."""

from __future__ import annotations

import gc
import os
import pickle

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
    export_shared_arrays,
    attach_shared_arrays,
    export_shared_problem,
    rebuild,
    sine_manufactured,
)
from repro.sem.shared import mapped_block, unlink_shared_block
from repro.sem.spec import ProblemSpec


@pytest.fixture(scope="module")
def poisson():
    mesh = BoxMesh.build(ReferenceElement.from_degree(3), (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    return prob, prob.rhs_from_forcing(forcing)


def warm_solve(prob, b):
    return cg_solve(
        prob.operator, b, precond_diag=prob.precond_diag(), tol=1e-10,
        maxiter=200, workspace=prob.workspace,
    )


def assert_same_result(got, want):
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.residual_norm == want.residual_norm
    assert got.residual_history == want.residual_history


class TestSharedArrays:
    def test_roundtrip_values_and_readonly(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.standard_normal((3, 5)),
            "b": np.arange(7, dtype=np.int64),
            "c": rng.standard_normal(1),
        }
        shm, manifest = export_shared_arrays(arrays)
        try:
            assert [entry[0] for entry in manifest.entries] == ["a", "b", "c"]
            roundtripped = pickle.loads(pickle.dumps(manifest))
            views = attach_shared_arrays(roundtripped)
            for key, arr in arrays.items():
                assert np.array_equal(views[key], arr)
                assert views[key].dtype == arr.dtype
                assert not views[key].flags.writeable
                with pytest.raises(ValueError):
                    views[key][...] = 0
        finally:
            unlink_shared_block(shm)

    def test_empty_export_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            export_shared_arrays({})

    def test_attach_after_unlink_fails(self):
        shm, manifest = export_shared_arrays({"x": np.zeros(4)})
        unlink_shared_block(shm)
        with pytest.raises(FileNotFoundError):
            attach_shared_arrays(manifest)

    def test_views_read_their_bytes_after_unlink(self):
        """Unlinking removes the name only: views already attached keep
        the block's pages through their own mapping."""
        shm, manifest = export_shared_arrays({"x": np.arange(5.0)})
        views = attach_shared_arrays(manifest)
        unlink_shared_block(shm)
        unlink_shared_block(shm)  # idempotent
        assert not os.path.exists("/dev/shm/" + manifest.block)
        assert views["x"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_attach_registers_nothing_with_the_tracker(self, monkeypatch):
        """Only the exporter registers the block; an attach makes no
        ``SharedMemory`` and so leaves the resource tracker alone."""
        from multiprocessing import resource_tracker

        shm, manifest = export_shared_arrays({"x": np.zeros(4)})
        try:
            calls = []
            for name in ("register", "unregister"):
                monkeypatch.setattr(resource_tracker, name,
                                    lambda *a, name=name: calls.append(name))
            views = attach_shared_arrays(manifest)
            del views
            assert calls == []
        finally:
            monkeypatch.undo()
            unlink_shared_block(shm)

    def test_mapped_block_spans_the_whole_block(self):
        shm, manifest = export_shared_arrays(
            {"a": np.arange(3.0), "b": np.arange(4, dtype=np.int32)})
        try:
            views = attach_shared_arrays(manifest)
            block = mapped_block(views["b"][1:])
            assert block.dtype == np.uint8
            assert block.nbytes == manifest.nbytes
            assert np.may_share_memory(views["a"], block)
            assert mapped_block(np.arange(3.0)) is None
        finally:
            unlink_shared_block(shm)


#: Two spawned workers attach one exported block at once, ``ROUNDS``
#: times, then the exporter unlinks it and exits.
ATTACH_AT_ONCE = """
import multiprocessing as mp
import os
import numpy as np
from repro.sem.shared import (
    attach_shared_arrays, export_shared_arrays, unlink_shared_block)

ROUNDS = 100

def attach(manifest, barrier):
    for _ in range(ROUNDS):
        barrier.wait(timeout=30)
        views = attach_shared_arrays(manifest)
        del views

if __name__ == "__main__":
    ctx = mp.get_context("spawn")
    shm, manifest = export_shared_arrays({"a": np.arange(8.0)})
    barrier = ctx.Barrier(2)
    workers = [ctx.Process(target=attach, args=(manifest, barrier))
               for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert w.exitcode == 0
    unlink_shared_block(shm)
    assert not os.path.exists("/dev/shm/" + manifest.block)
"""


class TestResourceTracker:
    """The ``multiprocessing`` resource tracker's books match the
    fleet's: it logs to the stderr of the process that started it, and
    that process's children share it."""

    def test_workers_attaching_at_once_keep_it_balanced(self, tmp_path,
                                                        run_python):
        """Each worker used to unregister its attach from the tracker it
        shares with the exporter, so two attaches at once removed the
        exporter's one entry twice and the tracker printed a
        ``KeyError`` traceback."""
        script = tmp_path / "attach_at_once.py"
        script.write_text(ATTACH_AT_ONCE)
        done = run_python(str(script))
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        assert "KeyError" not in done.stderr, done.stderr

    def test_a_foreign_attacher_never_unlinks(self, tmp_path, run_python):
        """A process that is no ``multiprocessing`` child of the exporter
        has a tracker of its own: its attach registers nothing with it,
        so its exit leaves the block to the exporter."""
        shm, manifest = export_shared_arrays({"a": np.arange(8.0)})
        try:
            path = tmp_path / "manifest.pkl"
            path.write_bytes(pickle.dumps(manifest))
            done = run_python(
                "-c",
                "import pickle, sys\n"
                "from repro.sem.shared import attach_shared_arrays\n"
                "m = pickle.loads(open(sys.argv[1], 'rb').read())\n"
                "views = attach_shared_arrays(m)\n"
                "assert views['a'][7] == 7.0\n", str(path))
            assert done.returncode == 0, done.stderr
            assert "resource_tracker" not in done.stderr, done.stderr
            assert os.path.exists("/dev/shm/" + manifest.block)
        finally:
            unlink_shared_block(shm)


class TestGatherScatterShared:
    def test_attached_twin_matches_original(self, poisson):
        prob, _ = poisson
        gs = prob.gs
        export = prob.export_shared()
        try:
            twin = rebuild(export.spec)
            twin_gs = twin.gs
            assert twin_gs.n_global == gs.n_global
            assert twin_gs.local_shape == gs.local_shape
            rng = np.random.default_rng(1)
            local = rng.standard_normal(gs.local_shape)
            assert np.array_equal(twin_gs.gather(local), gs.gather(local))
            g = rng.standard_normal(gs.n_global)
            assert np.array_equal(twin_gs.scatter(g), gs.scatter(g))
            # The shared caches are the same bytes, read-only: the
            # multiplicities are the exporter's, not a worker bincount.
            assert not twin_gs.l2g_flat.flags.writeable
            assert np.array_equal(twin_gs.l2g_flat, gs.l2g_flat)
            assert not twin_gs._mult.flags.writeable
            assert np.array_equal(twin_gs._mult, gs._mult)
            assert twin_gs.dtype == gs.dtype
            # The affine form is worked out again on attach, not shared.
            (org, s0, s1), (org0, s00, s10) = twin_gs.affine, gs.affine
            assert (s0, s1) == (s00, s10) and np.array_equal(org, org0)
            # So is the split plane, from the same map.
            if gs.split is None:
                assert twin_gs.split is None
            else:
                (plane, slot), (plane0, slot0) = twin_gs.split, gs.split
                assert plane == plane0 and np.array_equal(slot, slot0)
            del twin, twin_gs
        finally:
            export.close()


class TestProblemSpec:
    def test_plain_spec_rebuild_bit_identical(self, poisson):
        """What a worker receives — the export's spec after a pickle
        round trip — rebuilds a problem whose solve is the source's."""
        prob, b = poisson
        want = warm_solve(prob, b)
        export = prob.export_shared()
        try:
            spec = pickle.loads(pickle.dumps(export.spec))
            assert spec.kind == "poisson"
            assert not hasattr(spec, "ax_backend")  # a spec names no kernel
            assert spec.arrays.block == export.block_names[0]
            twin = rebuild(spec)
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            export.close()

    def test_spec_rejects_unregistered_callable_backend(self):
        """A spec names no kernel, so only a problem on the production
        one has a spec: any other backend is refused, before any block
        exists."""
        mesh = BoxMesh.build(ReferenceElement.from_degree(2), (1, 1, 1))
        from oracles import ax_local

        def custom(ref, u, g):
            return ax_local(ref, u, g)

        prob = PoissonProblem(mesh, ax_backend=custom)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError, match="production kernel"):
            prob.export_shared()
        assert set(os.listdir("/dev/shm")) == before

    def test_spec_rejects_non_protocol_object(self):
        with pytest.raises(TypeError, match="no spec"):
            export_shared_problem(object())
        case = NekboneCase(2, (1, 1, 1))
        with pytest.raises(TypeError, match="no spec"):
            export_shared_problem(case)

    def test_rebuild_unknown_kind(self, poisson):
        prob, _ = poisson
        export = prob.export_shared()
        try:
            from dataclasses import replace

            spec = replace(export.spec, kind="stokes")
            with pytest.raises(ValueError, match="unknown problem kind"):
                rebuild(spec)
        finally:
            export.close()

    def test_a_failed_export_leaves_nothing(self, poisson, monkeypatch):
        """Packing that raises after the block exists surfaces its
        error, and ``/dev/shm`` is exactly as it was before."""
        prob, _ = poisson
        from repro.sem import shared

        created = []

        class Unpackable(shared.shared_memory.SharedMemory):
            """A real block whose pages refuse the copy into them."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self.name)

            @property
            def buf(self):
                raise RuntimeError("packing failed")

        monkeypatch.setattr(shared.shared_memory, "SharedMemory", Unpackable)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(RuntimeError, match="packing failed"):
            prob.export_shared()
        assert len(created) == 1  # the block existed when packing failed
        assert set(os.listdir("/dev/shm")) == before


#: Reads the Jacobi diagonal of a rebuilt problem after everything else
#: built over the block is collected; prints it beside the source's.
BARE_ARRAY = """
import gc
from repro.sem import BoxMesh, PoissonProblem, ReferenceElement, rebuild
prob = PoissonProblem(BoxMesh.build(ReferenceElement.from_degree(3), (2, 2, 2)))
export = prob.export_shared()
d = rebuild(export.spec).precond_diag()
gc.collect()
print(float(d.sum()).hex(), float(prob.precond_diag().sum()).hex())
export.close()
"""


class TestSharedExport:
    def test_shared_rebuild_bit_identical_zero_copy(self, poisson):
        prob, b = poisson
        want = warm_solve(prob, b)
        export = prob.export_shared()
        try:
            # One block: every array a worker attaches.
            assert len(export.block_names) == 1
            for name in export.block_names:
                assert os.path.exists(f"/dev/shm/{name}")
            spec = pickle.loads(pickle.dumps(export.spec))
            assert spec.shared_blocks == export.block_names
            twin = rebuild(spec)
            # Attached, read-only, value-identical big arrays.
            assert not twin.geometry.g_soa.flags.writeable
            with pytest.raises(ValueError):
                twin.geometry.g_soa[...] = 0.0
            assert np.array_equal(twin.geometry.g_soa, prob.geometry.g_soa)
            assert np.array_equal(twin.mesh.coords, prob.mesh.coords)
            assert np.array_equal(
                twin.precond_diag(), prob.precond_diag()
            )
            # The fp32 twin is the exported one, read-only, not a cast.
            g32 = twin.geometry.as_dtype(np.float32).g_soa
            assert not g32.flags.writeable
            assert np.array_equal(
                g32, prob.geometry.as_dtype(np.float32).g_soa
            )
            block = mapped_block(twin.geometry.g_soa)
            assert block.nbytes == spec.arrays.nbytes
            for arr in (twin.geometry.g_soa, g32, twin.gs._mult,
                        twin.mesh.coords, twin.precond_diag()):
                assert np.may_share_memory(arr, block)
            del block
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            names = export.block_names
            export.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        export.close()  # idempotent

    def test_a_bare_array_outlives_everything_else(self, run_python):
        """An array handed out bare — here the Jacobi diagonal — keeps
        the block's pages mapped after the rebuilt problem and every
        other object built over the block are collected.  Views that
        did not hold their mapping read unmapped pages here and the
        process died of SIGSEGV, so the script runs on its own."""
        done = run_python("-c", BARE_ARRAY)
        assert done.returncode == 0, (done.returncode, done.stderr)
        got, want = done.stdout.split()
        assert got == want

    def test_parts_outlive_the_rebuilt_problem(self, poisson):
        """The geometry, its fp32 twin, the gather-scatter and the mesh
        of a rebuilt problem keep reading the block after the problem
        itself is gone."""
        prob, _ = poisson
        export = prob.export_shared()
        try:
            twin = rebuild(export.spec)
            geo, gs, mesh = twin.geometry, twin.gs, twin.mesh
            geo32 = geo.as_dtype(np.float32)
            del twin
            gc.collect()
            assert np.array_equal(geo.g_soa, prob.geometry.g_soa)
            assert np.array_equal(
                geo32.g_soa, prob.geometry.as_dtype(np.float32).g_soa
            )
            assert np.array_equal(gs._mult, prob.gs._mult)
            assert np.array_equal(mesh.coords, prob.mesh.coords)
            assert np.array_equal(mesh.ref.deriv, prob.mesh.ref.deriv)
            del geo, geo32, gs, mesh
        finally:
            export.close()

    def test_deformed_mesh_travels_via_shared_coords(self):
        mesh = BoxMesh.build(ReferenceElement.from_degree(2), (2, 1, 1))
        deformed = mesh.deform(
            lambda x, y, z: (x + 0.02 * np.sin(np.pi * y), y, z)
        )
        prob = PoissonProblem(deformed, ax_backend="matmul")
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        want = warm_solve(prob, b)
        export = prob.export_shared()
        try:
            twin = rebuild(export.spec)
            assert np.array_equal(twin.mesh.coords, deformed.coords)
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            export.close()

    def test_helmholtz_shared_roundtrip(self):
        mesh = BoxMesh.build(ReferenceElement.from_degree(2), (2, 1, 1))
        prob = HelmholtzProblem(mesh, lam=2.5, ax_backend="matmul")
        u_exact, forcing = cosine_manufactured(mesh.extent, lam=2.5)
        b = prob.rhs_from_function(forcing)
        want = warm_solve(prob, b)
        export = prob.export_shared()
        try:
            spec = export.spec
            assert spec.kind == "helmholtz" and spec.lam == 2.5
            twin = rebuild(spec)
            assert isinstance(twin, HelmholtzProblem)
            assert twin.lam == 2.5
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            export.close()

    def test_nekbone_shared_roundtrip(self):
        """A Nekbone case's system travels as its ``case.problem``."""
        case = NekboneCase(2, (2, 1, 1), ax_backend="matmul")
        _, forcing = sine_manufactured(case.problem.mesh.extent)
        b = case.problem.rhs_from_forcing(forcing)
        want = warm_solve(case.problem, b)
        export = case.problem.export_shared()
        try:
            spec = export.spec
            assert spec.kind == "poisson"
            twin = rebuild(spec)
            assert isinstance(twin, PoissonProblem)
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            export.close()
