"""Tests for repro.sem.spec (picklable problem specs + rebuild) and the
shared-memory export/attach protocol in repro.sem.shared / geometry /
gather_scatter."""

from __future__ import annotations

import os
import pickle

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
            assert twin.dot(local, local) == gs.dot(local, local)
            # The shared caches are the same bytes, read-only.
            assert not twin.l2g_flat.flags.writeable
            assert np.array_equal(twin.l2g_flat, gs.l2g_flat)
            assert not twin._inv_mult_local.flags.writeable
            assert np.array_equal(twin._inv_mult_local, gs._inv_mult_local)
            # The l2g map and the two float caches are the whole export.
            assert set(e[0] for e in handle.arrays.entries) == {
                "l2g_flat", "mult", "inv_mult_local",
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
