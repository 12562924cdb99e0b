"""Tests for repro.sem.spec (picklable problem specs + rebuild) and the
shared-memory export/attach protocol in repro.sem.shared / geometry /
gather_scatter."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.sem import (
    BoxMesh,
    GatherScatter,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cosine_manufactured,
    export_shared_arrays,
    attach_shared_arrays,
    problem_spec,
    rebuild,
    sine_manufactured,
)
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
            attach_shm, views = attach_shared_arrays(roundtripped)
            for key, arr in arrays.items():
                assert np.array_equal(views[key], arr)
                assert views[key].dtype == arr.dtype
                assert not views[key].flags.writeable
                with pytest.raises(ValueError):
                    views[key][...] = 0
            del views
            attach_shm.close()
        finally:
            shm.close()
            shm.unlink()

    def test_empty_export_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            export_shared_arrays({})

    def test_attach_after_unlink_fails(self):
        shm, manifest = export_shared_arrays({"x": np.zeros(4)})
        shm.close()
        shm.unlink()
        with pytest.raises(FileNotFoundError):
            attach_shared_arrays(manifest)


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
        shm, views = attach_shared_arrays(manifest)
        del views
        shm.close()

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
    shm.close()
    unlink_shared_block(shm)
    assert not os.path.exists("/dev/shm/" + manifest.block)
"""


class TestResourceTracker:
    """The ``multiprocessing`` resource tracker's books match the
    fleet's: it logs to the stderr of the process that started it, and
    that process's children share it."""

    @staticmethod
    def run(*args: str) -> subprocess.CompletedProcess:
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_workers_attaching_at_once_keep_it_balanced(self, tmp_path):
        """Each worker used to unregister its attach from the tracker it
        shares with the exporter, so two attaches at once removed the
        exporter's one entry twice and the tracker printed a
        ``KeyError`` traceback."""
        script = tmp_path / "attach_at_once.py"
        script.write_text(ATTACH_AT_ONCE)
        done = self.run(str(script))
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        assert "KeyError" not in done.stderr, done.stderr

    def test_a_foreign_attacher_never_unlinks(self, tmp_path):
        """A process that is no ``multiprocessing`` child of the exporter
        has a tracker of its own: its attach is untracked, so its exit
        leaves the block to the exporter."""
        shm, manifest = export_shared_arrays({"a": np.arange(8.0)})
        try:
            path = tmp_path / "manifest.pkl"
            path.write_bytes(pickle.dumps(manifest))
            done = self.run(
                "-c",
                "import pickle, sys\n"
                "from repro.sem.shared import attach_shared_arrays\n"
                "m = pickle.loads(open(sys.argv[1], 'rb').read())\n"
                "shm, views = attach_shared_arrays(m)\n"
                "assert views['a'][7] == 7.0\n"
                "del views\n"
                "shm.close()\n", str(path))
            assert done.returncode == 0, done.stderr
            assert "resource_tracker" not in done.stderr, done.stderr
            assert os.path.exists("/dev/shm/" + manifest.block)
        finally:
            shm.close()
            shm.unlink()


class TestGatherScatterShared:
    def test_attached_twin_matches_original(self, poisson):
        prob, _ = poisson
        gs = prob.gs
        shm, handle = gs.export_shared()
        try:
            twin = GatherScatter.attach_shared(handle)
            assert twin.n_global == gs.n_global
            assert twin.local_shape == gs.local_shape
            rng = np.random.default_rng(1)
            local = rng.standard_normal(gs.local_shape)
            assert np.array_equal(twin.gather(local), gs.gather(local))
            g = rng.standard_normal(gs.n_global)
            assert np.array_equal(twin.scatter(g), gs.scatter(g))
            # The shared caches are the same bytes, read-only.
            assert not twin.l2g_flat.flags.writeable
            assert np.array_equal(twin.l2g_flat, gs.l2g_flat)
            assert not twin._mult.flags.writeable
            assert np.array_equal(twin._mult, gs._mult)
            # The affine form is worked out again on attach, not shared.
            (org, s0, s1), (org0, s00, s10) = twin.affine, gs.affine
            assert (s0, s1) == (s00, s10) and np.array_equal(org, org0)
            # So is the split plane, from the same map.
            if gs.split is None:
                assert twin.split is None
            else:
                (plane, slot), (plane0, slot0) = twin.split, gs.split
                assert plane == plane0 and np.array_equal(slot, slot0)
            # The l2g map and the multiplicities are the whole export.
            assert set(e[0] for e in handle.arrays.entries) == {
                "l2g_flat", "mult",
            }
            del twin
        finally:
            shm.close()
            shm.unlink()


class TestProblemSpec:
    def test_plain_spec_rebuild_bit_identical(self, poisson):
        prob, b = poisson
        want = warm_solve(prob, b)
        spec = prob.spec()
        assert spec.kind == "poisson"
        assert not hasattr(spec, "ax_backend")  # a spec names no kernel
        assert spec.geometry is None and spec.extras is None
        twin = rebuild(pickle.loads(pickle.dumps(spec)))
        assert_same_result(warm_solve(twin, b), want)

    def test_spec_rejects_unregistered_callable_backend(self):
        """A spec names no kernel, so only a problem on the production
        one has a spec: any other backend is refused."""
        mesh = BoxMesh.build(ReferenceElement.from_degree(2), (1, 1, 1))
        from oracles import ax_local

        def custom(ref, u, g):
            return ax_local(ref, u, g)

        prob = PoissonProblem(mesh, ax_backend=custom)
        with pytest.raises(ValueError, match="production kernel"):
            prob.spec()

    def test_spec_rejects_deformed_mesh(self):
        mesh = BoxMesh.build(ReferenceElement.from_degree(2), (2, 1, 1))
        deformed = mesh.deform(
            lambda x, y, z: (x + 0.02 * np.sin(np.pi * y), y, z)
        )
        prob = PoissonProblem(deformed, ax_backend="matmul")
        with pytest.raises(ValueError, match="deformed"):
            prob.spec()

    def test_spec_rejects_non_protocol_object(self):
        with pytest.raises(TypeError, match="no spec"):
            problem_spec(object())

    def test_rebuild_unknown_kind(self):
        spec = ProblemSpec(
            kind="stokes", degree=2, shape=(1, 1, 1),
            extent=(1.0, 1.0, 1.0),
        )
        with pytest.raises(ValueError, match="unknown problem kind"):
            rebuild(spec)

    def test_rebuild_rejects_partial_manifests(self, poisson):
        prob, _ = poisson
        export = prob.export_shared()
        try:
            from dataclasses import replace

            lopsided = replace(export.spec, gather_scatter=None)
            with pytest.raises(ValueError, match="both"):
                rebuild(lopsided)
        finally:
            export.close()


class TestSharedExport:
    def test_shared_rebuild_bit_identical_zero_copy(self, poisson):
        prob, b = poisson
        want = warm_solve(prob, b)
        export = prob.export_shared()
        try:
            # geometry (fp64 + fp32 twin), gather-scatter, mesh coords.
            assert len(export.block_names) == 4
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
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            names = export.block_names
            export.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        export.close()  # idempotent

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
        case = NekboneCase(2, (2, 1, 1), ax_backend="matmul")
        _, forcing = sine_manufactured(case.problem.mesh.extent)
        b = case.problem.rhs_from_forcing(forcing)
        want = warm_solve(case, b)
        export = case.export_shared()
        try:
            spec = export.spec
            assert spec.kind == "nekbone"
            twin = rebuild(spec)
            assert isinstance(twin, NekboneCase)
            assert_same_result(warm_solve(twin, b), want)
            del twin
        finally:
            export.close()
