"""Tests for repro.sem.gather_scatter (direct-stiffness summation)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.sem.gather_scatter import GatherScatter
from repro.sem.mesh import BoxMesh


def qqt(gs, local):
    """The direct-stiffness sum ``Q Q^T``: scatter of the gather."""
    return gs.scatter(gs.gather(local))


@pytest.fixture(scope="module")
def gs3():
    from repro.sem.element import ReferenceElement

    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 1))
    return mesh, GatherScatter.from_mesh(mesh)


class TestGatherScatter:
    def test_scatter_of_gather_preserves_continuous_fields(self, gs3):
        mesh, gs = gs3
        # A field that is single-valued on interfaces: function of coords.
        x, y, z = mesh.coords
        f = np.sin(x) * np.cos(y) + z
        mult = gs.scatter(gs.multiplicity())
        assert np.allclose(qqt(gs, f) / mult, f, atol=1e-12)

    def test_gather_sums_interface_contributions(self, gs3):
        mesh, gs = gs3
        ones = np.ones(gs.local_shape)
        g = gs.gather(ones)
        assert np.array_equal(g, gs.multiplicity())

    def test_scatter_then_gather_scales_by_multiplicity(self, gs3):
        mesh, gs = gs3
        rng = np.random.default_rng(3)
        v = rng.standard_normal(gs.n_global)
        assert np.allclose(gs.gather(gs.scatter(v)), v * gs.multiplicity())

    def test_gs_is_symmetric(self, gs3):
        # <QQ^T a, b> = <a, QQ^T b> in the plain l2 inner product.
        _, gs = gs3
        rng = np.random.default_rng(4)
        a = rng.standard_normal(gs.local_shape)
        b = rng.standard_normal(gs.local_shape)
        assert np.sum(qqt(gs, a) * b) == pytest.approx(
            np.sum(a * qqt(gs, b)), rel=1e-12
        )

    def test_gs_is_projection_up_to_multiplicity(self, gs3):
        # (QQ^T) (QQ^T a) = QQ^T (mult * a) -- verify the algebra.
        _, gs = gs3
        rng = np.random.default_rng(5)
        a = rng.standard_normal(gs.local_shape)
        mult_local = gs.scatter(gs.multiplicity())
        assert np.allclose(
            qqt(gs, qqt(gs, a)), qqt(gs, mult_local * a), atol=1e-11
        )

    def test_weighted_dot_counts_each_global_dof_once(self, gs3):
        mesh, gs = gs3
        ones = np.ones(gs.local_shape)
        assert gs.dot(ones, ones) == pytest.approx(float(gs.n_global), rel=1e-12)

    def test_dot_matches_global_dot_for_continuous_fields(self, gs3):
        mesh, gs = gs3
        rng = np.random.default_rng(6)
        vg = rng.standard_normal(gs.n_global)
        wg = rng.standard_normal(gs.n_global)
        assert gs.dot(gs.scatter(vg), gs.scatter(wg)) == pytest.approx(
            float(np.dot(vg, wg)), rel=1e-12
        )

    def test_shape_validation(self, gs3):
        _, gs = gs3
        with pytest.raises(ValueError, match="expected"):
            gs.gather(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="expected"):
            gs.scatter(np.zeros(3))


class TestPrecomputedFastPath:
    """The add.at gather, out= buffers and construction-time caches."""

    def test_gather_matches_bincount(self, gs3):
        _, gs = gs3
        rng = np.random.default_rng(7)
        local = rng.standard_normal(gs.local_shape)
        expected = np.bincount(
            gs.l2g_flat, weights=local.reshape(-1), minlength=gs.n_global
        )
        assert np.allclose(gs.gather(local), expected, atol=1e-12)

    def test_gather_out_parameter(self, gs3):
        _, gs = gs3
        rng = np.random.default_rng(8)
        local = rng.standard_normal(gs.local_shape)
        out = np.empty(gs.n_global)
        result = gs.gather(local, out=out)
        assert result is out
        assert np.allclose(out, gs.gather(local), atol=1e-12)
        with pytest.raises(ValueError, match="out"):
            gs.gather(local, out=np.empty(gs.n_global + 1))

    def test_scatter_out_parameter(self, gs3):
        _, gs = gs3
        rng = np.random.default_rng(9)
        vg = rng.standard_normal(gs.n_global)
        out = np.empty(gs.local_shape)
        result = gs.scatter(vg, out=out)
        assert result is out
        assert np.array_equal(out, gs.scatter(vg))
        with pytest.raises(ValueError, match="out"):
            gs.scatter(vg, out=np.empty((1, 2, 2, 2)))

    def test_multiplicity_returns_fresh_copy(self, gs3):
        _, gs = gs3
        m1 = gs.multiplicity()
        m1 += 5.0
        assert not np.array_equal(m1, gs.multiplicity())

    def test_sparse_map_falls_back_to_bincount(self):
        # Global ids 1 and 4 are unused: they read 0 (out= included,
        # whatever the buffer held), as np.bincount leaves them.
        gs = GatherScatter(
            l2g_flat=np.array([0, 2, 2, 3, 0, 3, 3, 2], dtype=np.int64),
            n_global=5,
            local_shape=(1, 2, 2, 2),
        )
        local = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        expected = np.bincount(
            gs.l2g_flat, weights=local.reshape(-1), minlength=5
        )
        assert np.array_equal(gs.gather(local), expected)
        out = np.full(5, np.nan)
        assert np.array_equal(gs.gather(local, out=out), expected)
        assert np.array_equal(
            gs.multiplicity(), np.array([2.0, 0.0, 3.0, 3.0, 0.0])
        )

    def test_dot_on_sparse_map(self):
        gs = GatherScatter(
            l2g_flat=np.array([0, 2, 2, 0], dtype=np.int64),
            n_global=4,
            local_shape=(1, 1, 2, 2),
        )
        ones = np.ones((1, 1, 2, 2))
        # Two populated global nodes, each counted once.
        assert gs.dot(ones, ones) == pytest.approx(2.0)


class TestBatched:
    """Stacked (B, ...) gather/scatter — the multi-RHS serving path."""

    def test_batched_gather_matches_per_system(self, gs3):
        mesh, gs = gs3
        rng = np.random.default_rng(7)
        local = rng.standard_normal((4,) + gs.local_shape)
        batched = gs.gather(local)
        assert batched.shape == (4, gs.n_global)
        for b in range(4):
            assert np.array_equal(batched[b], gs.gather(local[b]))

    def test_batched_scatter_matches_per_system(self, gs3):
        mesh, gs = gs3
        rng = np.random.default_rng(8)
        vec = rng.standard_normal((3, gs.n_global))
        batched = gs.scatter(vec)
        assert batched.shape == (3,) + gs.local_shape
        for b in range(3):
            assert np.array_equal(batched[b], gs.scatter(vec[b]))

    def test_batched_out_parameters(self, gs3):
        mesh, gs = gs3
        rng = np.random.default_rng(9)
        local = rng.standard_normal((2,) + gs.local_shape)
        out_g = np.empty((2, gs.n_global))
        assert gs.gather(local, out=out_g) is out_g
        out_l = np.empty((2,) + gs.local_shape)
        assert gs.scatter(out_g, out=out_l) is out_l
        for b in range(2):
            assert np.array_equal(out_l[b], gs.scatter(out_g[b]))

    def test_batched_shape_validation(self, gs3):
        mesh, gs = gs3
        with pytest.raises(ValueError, match="expected"):
            gs.gather(np.ones((2, 3, 3, 3, 3)))
        with pytest.raises(ValueError, match="out must be"):
            gs.gather(
                np.ones((2,) + gs.local_shape), out=np.empty(gs.n_global)
            )
        with pytest.raises(ValueError, match="out must be"):
            gs.scatter(
                np.ones((2, gs.n_global)), out=np.empty(gs.local_shape)
            )

    def test_batched_gather_on_sparse_map(self):
        l2g = np.array([0, 2, 2, 5, 0, 1, 1, 5], dtype=np.int64)
        gs = GatherScatter(l2g_flat=l2g, n_global=7, local_shape=(1, 2, 2, 2))
        local = np.arange(16, dtype=float).reshape(2, 1, 2, 2, 2)
        batched = gs.gather(local)
        for b in range(2):
            expect = np.bincount(l2g, weights=local[b].reshape(-1), minlength=7)
            assert np.array_equal(batched[b], expect)

    def test_noncontiguous_out_regression(self, gs3):
        """Silent-corruption regression: a non-contiguous ``out=`` used
        to receive ``out.reshape(-1)`` — a *copy* — so results were
        dropped and stale memory returned.  Fortran-ordered and
        padded-slice targets must now round-trip exactly."""
        mesh, gs = gs3
        rng = np.random.default_rng(7)
        local = rng.standard_normal(gs.local_shape)
        g = gs.gather(local)
        expect_scatter = gs.scatter(g)

        # Fortran-ordered scatter target (reshape(-1) would copy).
        out_f = np.full(gs.local_shape, np.nan, order="F")
        assert not out_f.flags.c_contiguous
        assert gs.scatter(g, out=out_f) is out_f
        assert np.array_equal(out_f, expect_scatter)

        # Sliced (padded last axis) scatter target.
        slab = np.full(gs.local_shape[:-1] + (gs.local_shape[-1] + 1,),
                       np.nan)
        out_s = slab[..., :-1]
        assert not out_s.flags.c_contiguous
        assert gs.scatter(g, out=out_s) is out_s
        assert np.array_equal(out_s, expect_scatter)

        # Strided gather target (every other column of a slab).
        gbuf = np.full((gs.n_global, 2), np.nan)
        out_g = gbuf[:, 0]
        assert not out_g.flags.c_contiguous
        assert gs.gather(local, out=out_g) is out_g
        assert np.array_equal(out_g, g)

    def test_noncontiguous_out_batched_regression(self, gs3):
        """Same hazard on the stacked (B, ...) paths."""
        mesh, gs = gs3
        rng = np.random.default_rng(8)
        local = rng.standard_normal((3,) + gs.local_shape)
        g = gs.gather(local)
        expect_scatter = gs.scatter(g)

        out_f = np.full((3,) + gs.local_shape, np.nan, order="F")
        assert gs.scatter(g, out=out_f) is out_f
        assert np.array_equal(out_f, expect_scatter)

        gout_f = np.full((3, gs.n_global), np.nan, order="F")
        assert not gout_f.flags.c_contiguous
        assert gs.gather(local, out=gout_f) is gout_f
        assert np.array_equal(gout_f, g)


def _box_gs(degree, shape):
    from repro.sem.element import ReferenceElement

    mesh = BoxMesh.build(ReferenceElement.from_degree(degree), shape)
    return GatherScatter.from_mesh(mesh)


def _sparse_gs():
    # Global ids 1 and 5 are unused.
    return GatherScatter(
        l2g_flat=np.array([0, 2, 2, 3, 0, 3, 3, 2, 6, 4, 4, 0],
                          dtype=np.int64),
        n_global=7,
        local_shape=(1, 2, 2, 3),
    )


def _multiplicity8_gs():
    # Eight 2x2x2 "elements" all of whose corners meet in one of 8 nodes.
    return GatherScatter(
        l2g_flat=np.tile(np.arange(8, dtype=np.int64), 8),
        n_global=8,
        local_shape=(8, 2, 2, 2),
    )


GS_CASES = {
    "box-n3": lambda: _box_gs(3, (2, 2, 1)),
    "box-n5": lambda: _box_gs(5, (3, 2, 2)),
    "sparse": _sparse_gs,
    "multiplicity-8": _multiplicity8_gs,
}


@pytest.fixture(params=sorted(GS_CASES))
def any_gs(request):
    return GS_CASES[request.param]()


class TestSummationOrder:
    """gather adds contributions in ascending local index — the order
    np.bincount uses — one stacked row at a time."""

    def test_fp64_gather_is_bincount_bit_for_bit(self, any_gs):
        gs = any_gs
        rng = np.random.default_rng(21)
        local = rng.standard_normal(gs.local_shape)
        want = np.bincount(
            gs.l2g_flat, weights=local.reshape(-1), minlength=gs.n_global
        )
        assert np.array_equal(gs.gather(local), want)
        out = np.full(gs.n_global, np.nan)
        assert np.array_equal(gs.gather(local, out=out), want)

    def test_multiplicity_eight(self):
        gs = _multiplicity8_gs()
        assert np.array_equal(gs.multiplicity(), np.full(8, 8.0))

    def test_unused_global_id_reads_zero(self):
        gs = _sparse_gs()
        got = gs.gather(np.ones(gs.local_shape), out=np.full(7, np.nan))
        assert got[1] == 0.0 and got[5] == 0.0
        assert np.array_equal(got, gs.multiplicity())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_rows_match_rows_gathered_alone(self, any_gs, dtype):
        gs = any_gs.as_dtype(dtype)
        rng = np.random.default_rng(22)
        local = rng.standard_normal((5,) + gs.local_shape).astype(dtype)
        out = np.full((5, gs.n_global), np.nan, dtype=dtype)
        gs.gather(local, out=out)
        for k in range(5):
            solo = gs.gather(local[k], out=np.empty(gs.n_global, dtype))
            assert np.array_equal(out[k], solo)

    def test_fp32_is_repeatable_and_close_to_fp64(self, any_gs):
        gs32 = any_gs.as_dtype(np.float32)
        rng = np.random.default_rng(23)
        local = rng.standard_normal(any_gs.local_shape)
        first = gs32.gather(local.astype(np.float32))
        again = gs32.gather(local.astype(np.float32))
        assert first.dtype == np.float32
        assert np.array_equal(first, again)
        np.testing.assert_allclose(
            first, any_gs.gather(local), rtol=1e-6, atol=1e-6
        )


class TestDtypeRefusal:
    """With out=, a dtype mismatch is refused: numpy would serve it by
    casting element by element through its generic loop (~20x slower)."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["vec", "stacked"])
    @pytest.mark.parametrize(
        "own, other",
        [(np.float32, np.float64), (np.float64, np.float32)],
        ids=["fp32-twin-fed-fp64", "fp64-fed-fp32"],
    )
    def test_out_path_refuses_mismatched_dtypes(
        self, gs3, own, other, stacked
    ):
        _, gs64 = gs3
        gs = gs64.as_dtype(own)
        lead = (2,) if stacked else ()
        local = {dt: np.ones(lead + gs.local_shape, dt) for dt in (own, other)}
        glob = {dt: np.ones(lead + (gs.n_global,), dt) for dt in (own, other)}
        both = "float32.*float64|float64.*float32"  # names both dtypes
        for vec, out in ((other, own), (own, other), (other, other)):
            with pytest.raises(ValueError, match=both):
                gs.gather(local[vec], out=glob[out])
            with pytest.raises(ValueError, match=both):
                gs.scatter(glob[vec], out=local[out])
        # The matched call still works, and a refusal wrote nothing.
        assert gs.gather(local[own], out=glob[own]) is glob[own]
        assert gs.scatter(glob[own], out=local[own]) is local[own]
        assert np.array_equal(glob[other], np.ones_like(glob[other]))

    def test_refused_before_the_noncontiguous_copy_path(self, gs3):
        _, gs = gs3
        strided = np.empty((gs.n_global, 2), np.float32)[:, 0]
        with pytest.raises(ValueError, match="float32"):
            gs.gather(np.ones(gs.local_shape), out=strided)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
    def test_without_out_the_input_is_converted_once(self, gs3, dtype):
        _, gs = gs3
        local = np.ones(gs.local_shape, dtype)
        got = gs.gather(local)
        assert got.dtype == np.float64
        assert np.array_equal(got, gs.multiplicity())
        back = gs.scatter(np.ones(gs.n_global, dtype))
        assert back.dtype == np.float64
        assert np.array_equal(back, np.ones(gs.local_shape))
        twin = gs.as_dtype(np.float32)
        assert twin.gather(local).dtype == np.float32
        assert twin.scatter(np.ones(gs.n_global, dtype)).dtype == np.float32


class TestSharedGatherScatter:
    """The gather-scatter is stateless: one instance serves any number
    of concurrent solves (PR 18's contract), so replicas share it."""

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
