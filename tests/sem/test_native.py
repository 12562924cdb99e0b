"""Tests for repro.sem.native: the compiled ``Ax`` behind ``"matmul"``
and the compiled vector passes of the CG iteration.

Four groups.  *Values*: the compiled kernel against the ``einsum``
reference, to a tolerance fixed beforehand from the dtype.  *Native's
own exact contracts*: stacked == solo, a slice == the same rows of the
full call, a repeat == itself, threaded == serial — each compared with
itself, never with a reference (they sum in different orders on
purpose).  *The CG passes*: against numpy on the same scalars — the
vectors to the bit (one rounding per operation on both sides), the sums
to a bound fixed from ``n`` and the dtype — and their sums to the byte
against the one lane-by-lane definition, in pure Python.  *The loader and its
refusals*: what C cannot take is copied or refused before C runs, every
way a build can fail is one ``RuntimeError`` naming ``$CC``, and the
loader never trusts a directory somebody else can write.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest

from oracles import ax_local, cg_direction, cg_step, row_dots
from repro.sem import (
    BoxMesh,
    ReferenceElement,
    SolverWorkspace,
    ax_local_matmul,
    geometric_factors,
)
from repro.sem import cg, native

DTYPES = (np.float64, np.float32)


@pytest.fixture
def c_calls(monkeypatch):
    """The ``(nx, dtype)`` of every call that reaches C, in order."""
    calls, real = [], native.ax_kernel

    def spying(nx, dtype):
        ax = real(nx, dtype)

        def recorded(d, u, g, w):
            calls.append((nx, np.dtype(dtype)))
            ax(d, u, g, w)

        return recorded

    monkeypatch.setattr(native, "ax_kernel", spying)
    return calls


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader as a new process on a new machine would see it: no
    memoised kernel, an empty cache directory — with both directory
    candidates inside ``tmp_path``."""
    monkeypatch.setattr(native, "_kernels", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    native._cache_dir.cache_clear()
    yield tmp_path
    native._cache_dir.cache_clear()


def fields(n, num_e=3, batch=None, dtype=np.float64, seed=0):
    """Random fields and random ("curved") interleaved factors."""
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    rng = np.random.default_rng(seed)
    lead = (num_e,) if batch is None else (batch, num_e)
    u = rng.standard_normal(lead + (nx, nx, nx)).astype(dtype)
    g = rng.standard_normal((num_e, 6, nx, nx, nx)).astype(dtype)
    return ref, u, g


def assert_close_to_einsum(ref, u, g, w):
    """``w`` against the fp64 ``einsum`` reference of the same inputs.

    The bound is set from the dtype, not from what the kernel happens
    to achieve: each output sums ``6 * nx`` products of magnitude up to
    ``scale``, so ``16 * nx * eps * scale`` leaves an order of magnitude
    over the worst case of either summation order (and of ``D`` rounded
    to fp32 on the fp32 path).
    """
    exact = ax_local(ref, u.astype(np.float64), g.astype(np.float64))
    scale = max(np.abs(exact).max(), 1.0)
    bound = 16 * ref.n_points * np.finfo(w.dtype).eps * scale
    assert w.dtype == u.dtype and w.shape == u.shape
    assert np.abs(w - exact).max() <= bound


class TestValues:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", range(1, native.MAX_NX))
    def test_interleaved_factors_all_degrees(self, n, dtype, c_calls):
        ref, u, g = fields(n, num_e=2, dtype=dtype, seed=n)
        assert g.flags.c_contiguous
        assert_close_to_einsum(ref, u, g, ax_local_matmul(ref, u, g))
        assert c_calls == [(n + 1, np.dtype(dtype))]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("deformed", (False, True))
    @pytest.mark.parametrize("n", range(1, 10))
    def test_soa_view_on_a_box_and_on_a_deformed_mesh(
        self, n, deformed, dtype, c_calls
    ):
        ref = ReferenceElement.from_degree(n)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        if deformed:
            mesh = mesh.deform(lambda x, y, z: (
                x + 0.04 * np.sin(np.pi * y) * np.sin(np.pi * z),
                y + 0.03 * np.sin(np.pi * z) * np.sin(np.pi * x),
                z + 0.02 * np.sin(np.pi * x) * np.sin(np.pi * y),
            ))
        g = geometric_factors(mesh).as_dtype(dtype).g
        assert not g.flags.c_contiguous  # the (6, E, ...) store, viewed
        u = np.random.default_rng(n).standard_normal(mesh.l2g.shape)
        u = u.astype(dtype)
        assert_close_to_einsum(ref, u, g, ax_local_matmul(ref, u, g))
        assert len(c_calls) == 1

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", range(1, native.MAX_NX))
    def test_fused_pass_all_degrees(self, n, dtype):
        """``ax_gs_native`` without and with mask and mass term, on two
        stacked vectors over two elements sharing a face, against the
        oracle scattered, applied and gathered in fp64.  The mask zeroes
        nodes of the first element's outer face only, so the second
        element's edge byte is 0 and it skips the multiply."""
        ref = ReferenceElement.from_degree(n)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        nx, ng, rng = ref.n_points, mesh.n_global, np.random.default_rng(n)
        _, _, g = fields(n, num_e=2, dtype=dtype, seed=n)
        u = rng.standard_normal((2, ng)).astype(dtype)
        mask = np.ones(ng, dtype)
        mask[mesh.l2g[0, 0]] = rng.random((nx, nx)) < 0.8
        mask[mesh.l2g[0, 0, 0, 0]] = 0
        edge = (mask[mesh.l2g] != 1).any(axis=(1, 2, 3)).astype(np.uint8)
        assert edge.tolist() == [1, 0]
        mass = rng.uniform(0.5, 1.5, (2, nx, nx, nx)).astype(dtype)
        l2g = mesh.l2g.reshape(-1)
        org, s0, s1 = mesh.l2g[:, 0, 0, 0].copy(), nx * nx, nx
        ax_gs = native.ax_gs_kernel(nx, np.dtype(dtype))
        f64 = lambda a: None if a is None else a.astype(np.float64)  # noqa: E731
        for m, e, b, lam in ((None, None, None, 0.0), (mask, edge, None, 0.0),
                             (None, None, mass, 0.75),
                             (mask, edge, mass, 0.75)):
            w = np.full_like(u, np.nan)
            ax_gs(ref.deriv_as(dtype), u, m, org, s0, s1, e, g, b, lam, w)
            um = f64(u) if m is None else f64(u) * f64(m)
            local = um[:, l2g].reshape((2,) + mesh.l2g.shape)
            wl = ax_local(ref, local, f64(g))
            if b is not None:
                wl += lam * f64(b) * local
            exact = np.zeros((2, ng))
            np.add.at(exact, (slice(None), l2g), wl.reshape(2, -1))
            if m is not None:
                exact *= f64(m)
            scale = max(np.abs(wl).max(), 1.0)
            bound = 2 * 16 * nx * np.finfo(dtype).eps * scale  # <= 2 terms
            assert w.dtype == dtype and np.abs(w - exact).max() <= bound

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_stacked_blocks(self, batch, dtype, c_calls):
        ref, ub, g = fields(6, num_e=5, batch=batch, dtype=dtype, seed=batch)
        wb = ax_local_matmul(ref, ub, g)
        assert len(c_calls) == 1  # one call sweeps the whole block
        for b in range(batch):
            assert_close_to_einsum(ref, ub[b], g, wb[b])

    def test_noncontiguous_out_and_input(self, c_calls):
        ref, u, g = fields(5, num_e=4)
        backing = np.full(u.shape + (2,), np.nan)
        out = backing[..., 0]
        strided_u = np.stack([u, u], axis=-1)[..., 1]
        assert not out.flags.c_contiguous
        assert not strided_u.flags.c_contiguous
        result = ax_local_matmul(ref, strided_u, g, out=out)
        assert result is out and len(c_calls) == 1
        assert np.array_equal(out, ax_local_matmul(ref, u, g))
        assert np.isnan(backing[..., 1]).all()  # and nothing beside it

    def test_workspace_is_accepted_and_left_alone(self):
        """A forwarded ``workspace=`` (what a wrapper kernel passes on)
        is taken and never touched, whatever it is sized for: the
        kernel's scratch is on the stack."""
        ref, u, g = fields(7, num_e=8)
        ws = SolverWorkspace(num_elements=3, nx=ref.n_points)
        ws.tmp.fill(np.nan)
        w = ax_local_matmul(ref, u, g, workspace=ws)
        assert np.array_equal(w, ax_local_matmul(ref, u, g))
        assert np.isnan(ws.tmp).all()


class TestExactContracts:
    """What the serving tiers rest on, held by the compiled path alone."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", (2, 6, 7))
    def test_stacked_block_is_its_solo_calls(self, n, dtype):
        ref, ub, g = fields(n, num_e=6, batch=8, dtype=dtype, seed=3)
        wb = ax_local_matmul(ref, ub, g)
        for b in range(8):
            assert np.array_equal(wb[b], ax_local_matmul(ref, ub[b], g))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_element_slice_is_the_same_rows_of_the_full_call(self, dtype):
        ref, u, g = fields(7, num_e=40, dtype=dtype, seed=4)
        full = ax_local_matmul(ref, u, g)
        for rows in (slice(0, 1), slice(7, 33), slice(39, 40), slice(0, 40, 3)):
            part = ax_local_matmul(ref, u[rows], g[rows])
            assert np.array_equal(part, full[rows])

    def test_soa_and_interleaved_factors_give_the_same_bits(self):
        ref, u, g = fields(7, num_e=8, seed=5)
        soa = np.ascontiguousarray(g.transpose(1, 0, 2, 3, 4))
        view = soa.transpose(1, 0, 2, 3, 4)
        assert np.array_equal(
            ax_local_matmul(ref, u, view), ax_local_matmul(ref, u, g)
        )

    def test_repeat_is_itself_and_inputs_are_untouched(self):
        ref, u, g = fields(7, num_e=16, seed=6)
        u0, g0 = u.copy(), g.copy()
        first = ax_local_matmul(ref, u, g)
        out = np.full_like(u, np.nan)
        for _ in range(5):
            assert np.array_equal(ax_local_matmul(ref, u, g, out=out), first)
        assert np.array_equal(u, u0) and np.array_equal(g, g0)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("nx", (4, 7, 8))
    def test_bits_are_the_sources_not_the_optimisers(self, nx, dtype):
        """Every sum is a chain of single-product updates, so contraction
        has one FMA to form at each step: ``-O2`` and ``-O3`` builds of
        the same source give the same bytes."""
        ref, u, g = fields(nx - 1, num_e=4, dtype=dtype, seed=nx)
        d, real = ref.deriv_as(dtype), native._C_REAL[np.dtype(dtype)]
        size_t, ptr = ctypes.c_ssize_t, ctypes.c_void_p
        out = []
        for opt in ("-O2", "-O3"):
            fn = ctypes.CDLL(native._build("ax", native._SOURCE, [
                *native._FLAGS, opt, f"-DNX={nx}", f"-DREAL={real}"]
            )).ax_native
            fn.argtypes = [size_t, size_t, ptr, ptr, ptr, size_t, size_t, ptr]
            w = np.full_like(u, np.nan)
            fn(1, 4, d.ctypes.data, u.ctypes.data, g.ctypes.data,
               *g.strides[:2], w.ctypes.data)
            out.append(w.tobytes())
        assert out[0] == out[1]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_cg_bits_are_the_sources_not_the_optimisers(self, dtype):
        """The CG passes' vectors are the source's and built with
        contraction off: ``-O2`` and ``-O3`` builds of ``cg_dot``,
        ``cg_step`` and ``cg_dir`` give the same bytes on ragged rows."""
        real = native._C_REAL[np.dtype(dtype)]
        out = []
        for opt in ("-O2", "-O3"):
            passes = native._cg_entry_points(ctypes.CDLL(native._build(
                "cg", native._CG_SOURCE,
                [*native._CG_FLAGS, opt, f"-DREAL={real}"])))
            for precond in (True, False):
                state = CGState(3, 1001, dtype, precond, seed=11)
                sums = state.iterate([0.5, 1.25, 0.0], [0.75, 0.3, 2.0],
                                     passes)
                out.append(b"".join(a.tobytes() for a in (
                    *sums, state.x, state.r, state.z, state.p)))
        assert out[:2] == out[2:]

    def test_two_threads_at_once_equal_serial(self):
        """No globals, no heap, GIL released: two callers interleave
        freely.  Each thread's inputs differ, so a shared scratch would
        show as the other thread's numbers."""
        ref = ReferenceElement.from_degree(7)
        cases = [fields(7, num_e=64, seed=10 + t)[1:] for t in range(2)]
        serial = [ax_local_matmul(ref, u, g) for u, g in cases]
        barrier = threading.Barrier(2)
        wrong: list[int] = []

        def worker(t):
            u, g = cases[t]
            out = np.empty_like(u)
            barrier.wait(timeout=30)
            for _ in range(40):
                ax_local_matmul(ref, u, g, out=out)
                if not np.array_equal(out, serial[t]):
                    wrong.append(t)

        threads = [threading.Thread(target=worker, args=(t,)) for t in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        assert wrong == []


class CGState:
    """The buffers of one iteration, as ``_cg_iterate`` holds them."""

    def __init__(self, nb, n, dtype, precond=True, seed=0):
        rng = np.random.default_rng(seed)
        draw = lambda: rng.standard_normal((nb, n)).astype(dtype)  # noqa: E731
        self.x, self.r, self.p, self.ap = (draw() for _ in range(4))
        self.inv_m = (0.5 + np.abs(draw())) if precond else None
        self.z = draw() if precond else self.r  # no diagonal: z aliases r
        self.step = np.empty(nb, dtype=dtype)
        self.dots, self.rr = np.empty(nb), np.empty(nb)

    def copy(self, rows=slice(None)):
        twin = object.__new__(CGState)
        for name, a in vars(self).items():
            setattr(twin, name, None if a is None else a[rows].copy())
        if self.inv_m is None:
            twin.z = twin.r
        return twin

    def iterate(self, alpha, beta, passes=None):
        """C's ``p.Ap``, the step under ``alpha``, the direction under
        ``beta`` (of ``passes``, else :func:`native.cg_passes`); returns
        the three sums (the vectors moved in place)."""
        at = lambda a: None if a is None else a.ctypes.data  # noqa: E731
        shape, (dot, step, direction) = self.x.shape, (
            passes or native.cg_passes(self.x.dtype))[:3]
        dot(*shape, *map(at, (self.p, self.ap, self.dots)))
        p_ap = self.dots.copy()
        self.step[:] = alpha
        step(*shape, *map(at, (self.step, self.p, self.ap, self.inv_m,
                               self.x, self.r, self.z, self.dots, self.rr)))
        sums = p_ap, self.dots.copy(), self.rr.copy()
        self.step[:] = beta
        direction(*shape, *map(at, (self.step, self.z, self.p)))
        return sums

    def iterate_numpy(self, alpha, beta):
        """:meth:`iterate` spelled in numpy (``oracles``)."""
        p_ap = row_dots(self.p, self.ap)
        self.step[:] = alpha
        sums = (p_ap, *cg_step(self.x, self.r, self.z, self.p, self.ap,
                               self.inv_m, self.step))
        self.step[:] = beta
        cg_direction(self.p, self.z, self.step)
        return sums


def assert_sums_close(got, want, a, b):
    """Two summation orders of the same fp64-accumulated products."""
    terms = np.abs(a.astype(np.float64) * b.astype(np.float64)).sum(axis=1)
    bound = a.shape[1] * np.finfo(float).eps * terms
    assert (np.abs(got - want) <= bound).all()


#: Row lengths around the halves and the blocks of 8: none, one, ragged.
LANE_NS = (1, 7, 8, 15, 16, 17, 23, 448, 1001)


def lane_sum(products) -> np.float64:
    """The one definition of a row sum, pinned in pure Python: the
    halves ``[0, h)`` and ``[h, n)``, ``h = n // 16 * 8``; product ``i``
    (already rounded to its dtype) added into fp64 lane ``i % 8`` from
    the half's start; the lanes folded as ``FOLD``; the halves added."""
    def fold(s):
        return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5])
                                                  + (s[3] + s[7]))

    terms, n = products.tolist(), len(products)
    h = n // 16 * 8
    halves = []
    for lo, hi in ((0, h), (h, n)):
        lanes = [0.0] * 8
        for i in range(lo, hi):
            lanes[(i - lo) % 8] += terms[i]
        halves.append(fold(lanes))
    return np.float64(halves[0] + halves[1])


class TestCGPasses:
    SHAPES = ((1, 343), (3, 1001), (8, 24389))  # 1001: a ragged last lane

    @pytest.mark.parametrize("precond", (True, False))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("nb,n", SHAPES)
    def test_numpy_body_on_the_same_scalars(self, nb, n, dtype, precond):
        """C's three passes against the same arithmetic in numpy
        (``oracles.cg_step`` / ``cg_direction`` / ``row_dots``) under
        the same scalars."""
        ours = CGState(nb, n, dtype, precond, seed=n)
        theirs, before = ours.copy(), ours.copy()
        rng = np.random.default_rng(1)
        alpha, beta = rng.uniform(0.1, 2.0, (2, nb)).astype(dtype)
        alpha[-1] = beta[-1] = 0.0  # a frozen row rides along
        got = ours.iterate(alpha, beta)
        want = theirs.iterate_numpy(alpha, beta)
        for name in ("x", "r", "z", "p"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == dtype and np.array_equal(a, b), name
        assert np.array_equal(ours.x[-1], before.x[-1])  # frozen to the bit
        assert np.array_equal(ours.r[-1], before.r[-1])
        assert np.array_equal(ours.ap, before.ap)  # read, never written
        assert_sums_close(got[0], want[0], before.p, before.ap)
        assert_sums_close(got[1], want[1], ours.r, ours.z)
        assert_sums_close(got[2], want[2], ours.r, ours.r)
        if not precond:
            assert ours.z is ours.r and np.array_equal(got[1], got[2])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("nb", (1, 3, 8))
    def test_a_row_is_its_solo_sweep(self, nb, dtype):
        block = CGState(nb, 24389, dtype, seed=nb)
        solos = [block.copy(slice(k, k + 1)) for k in range(nb)]
        rng = np.random.default_rng(2)
        alpha, beta = rng.uniform(0.1, 2.0, (2, nb)).astype(dtype)
        sums = block.iterate(alpha, beta)
        for k, solo in enumerate(solos):
            one = solo.iterate(alpha[k:k + 1], beta[k:k + 1])
            for name in ("x", "r", "z", "p"):
                assert np.array_equal(getattr(solo, name)[0],
                                      getattr(block, name)[k])
            assert [float(s[0]) for s in one] == [float(s[k]) for s in sums]

    @pytest.mark.parametrize("nb", (1, 3))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", LANE_NS)
    def test_a_sum_is_its_two_halves_in_eight_lanes(self, n, dtype, nb):
        """``cg_dot`` is :func:`lane_sum` of the products, to the byte."""
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, nb, n)).astype(dtype)
        got = np.empty(nb)
        native.cg_passes(np.dtype(dtype))[0](
            nb, n, a.ctypes.data, b.ctypes.data, got.ctypes.data)
        for k in range(nb):
            assert got[k].tobytes() == lane_sum(a[k] * b[k]).tobytes(), (k, n)

    @pytest.mark.parametrize("precond", (True, False))
    @pytest.mark.parametrize("nb", (1, 3))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", LANE_NS)
    def test_the_steps_sums_are_their_two_halves_in_eight_lanes(
            self, n, dtype, nb, precond):
        """``cg_step``'s ``r.z`` and ``r.r`` are :func:`lane_sum` of the
        products of the ``r`` and ``z`` it wrote, to the byte."""
        state = CGState(nb, n, dtype, precond, seed=n)
        state.step[:] = np.random.default_rng(n).uniform(0.1, 2.0, nb)
        at = lambda a: None if a is None else a.ctypes.data  # noqa: E731
        native.cg_passes(np.dtype(dtype))[1](nb, n, *map(at, (
            state.step, state.p, state.ap, state.inv_m, state.x, state.r,
            state.z, state.dots, state.rr)))
        for k in range(nb):
            r, z = state.r[k], state.z[k]
            assert state.dots[k].tobytes() == lane_sum(r * z).tobytes()
            assert state.rr[k].tobytes() == lane_sum(r * r).tobytes()

    def test_what_c_must_not_write_through_is_refused(self):
        """A workspace scalar of the wrong dtype, like a strided,
        unaligned or read-only buffer (``tests/sem/test_cg.py``), is
        refused by name before C is handed its address; so is a dtype C
        has no build for."""
        ws = SolverWorkspace(num_elements=1, nx=2, n_global=100, batch=2)
        cg._check_workspace(ws, (2, 100), np.dtype(np.float64))
        ws.cg_beta = np.zeros(2, np.float32)
        with pytest.raises(ValueError,
                           match="buffer cg_beta is float32, not float64"):
            cg._check_workspace(ws, (2, 100), np.dtype(np.float64))
        for dtype in (np.dtype(np.int64), np.dtype(">f8")):
            with pytest.raises(ValueError, match="native-order float64"):
                native.cg_passes(dtype)


class TestRefusalsNeverReachC:
    """What C cannot be handed as it is: copied once into operands it
    can take, or refused with a ``ValueError`` — before C runs."""

    def test_nx_above_the_stack_budget(self, c_calls):
        assert native.MAX_NX == 16
        ref, u, g = fields(16, num_e=1)  # nx = 17
        for kernel in (native.ax_kernel, native.ax_gs_kernel):
            with pytest.raises(ValueError, match="nx = 17.*MAX_NX"):
                kernel(17, u.dtype)
        with pytest.raises(ValueError, match="nx = 17"):
            ax_local_matmul(ref, u, g)
        assert c_calls == []

    def test_strided_inner_block(self, c_calls):
        ref, u, g = fields(4)
        strided = np.stack([g, g], axis=-1)[..., 0]
        assert strided.strides[-1] != g.itemsize
        w = ax_local_matmul(ref, u, strided)
        assert len(c_calls) == 1  # one call, on a contiguous copy
        assert np.array_equal(w, ax_local_matmul(ref, u, g))

    def test_foreign_byte_order_and_integer_fields(self, c_calls):
        ref, u, g = fields(3)
        swapped = u.astype(u.dtype.newbyteorder())
        w = ax_local_matmul(ref, swapped, g.astype(swapped.dtype))
        assert c_calls == [(4, np.dtype(np.float64))]
        assert w.dtype == np.float64
        assert np.array_equal(w, ax_local_matmul(ref, u, g))
        ints = (u * 8).astype(np.int64)
        with pytest.raises(ValueError, match="native-order float64"):
            ax_local_matmul(ref, ints, g.astype(np.int64))
        for kernel in (native.ax_kernel, native.ax_gs_kernel):
            with pytest.raises(ValueError, match="dtype int64"):
                kernel(4, np.dtype(np.int64))

    def test_mixed_dtypes_are_a_type_error(self, c_calls):
        ref, u, g = fields(4)
        with pytest.raises(TypeError, match="g is float64 but u is float32"):
            ax_local_matmul(ref, u.astype(np.float32), g)
        with pytest.raises(TypeError, match="out is float32 but u is float64"):
            ax_local_matmul(ref, u, g, out=np.empty(u.shape, np.float32))
        assert c_calls == []

    def test_misshaped_or_read_only_out(self, c_calls):
        """A pointer C would write through unchecked: a short ``out``
        would be overrun, a read-only one (a shared-memory mapping)
        written or faulted on.  Both are refused before C runs."""
        ref, u, g = fields(4)
        with pytest.raises(ValueError, match="shape"):
            ax_local_matmul(ref, u, g, out=np.empty(u.shape[1:]))
        frozen = np.zeros_like(u)
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            ax_local_matmul(ref, u, g, out=frozen)
        assert c_calls == [] and not frozen.any()


def storage_beyond_a_call(source):
    """What a C source keeps from one call to the next: every
    declaration at file scope (a function *definition* is none, nor is a
    ``typedef``) and every ``static`` local."""
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    code = re.sub(r"^[ \t]*#(?:.*\\\n)*.*$", "", code, flags=re.M)
    depth, top = 0, []
    for ch in code:  # file scope, every function body cut to "{}"
        depth -= ch == "}"
        if depth == 0:
            top.append(ch)
        depth += ch == "{"
    # A typedef declares no object, nor does a type's closing "};".
    top = re.sub(r"\btypedef\b[^;]*;", "", "".join(top))
    declared = re.findall(r"[^;}]*;", top)
    return [d.strip() for d in declared if d.strip() != ";"] + re.findall(
        r"\bstatic\b[^;{(]*[;=]", code)


class TestLoader:
    def test_source_is_carried_by_the_package(self):
        for name in ("ax_native", "ax_gs_add", "ax_gs_replay",
                     "ax_gs_native"):
            assert f"void {name}(" in native._SOURCE
        for name in ("cg_dot", "cg_step", "cg_dir"):
            assert f"void {name}(" in native._CG_SOURCE
        assert "int cg_solve(struct cg_loop *s)" in native._CG_SOURCE
        source = native._SOURCE + native._CG_SOURCE
        assert "malloc" not in source  # no heap
        assert storage_beyond_a_call(source) == []  # no globals
        assert storage_beyond_a_call(
            "#define X \\\n  int a;\ndouble hits;\n"
            "static void f(void) { static int n; }\nextern int e;\n"
            "struct s { int a; };\nstruct t { int b; } kept;\n"
            "typedef double v4\n    __attribute__((vector_size(32)));\n"
            "typedef struct { int c; } pair;\n"
        ) == ["double hits;", "extern int e;", "kept;", "static int n;"]

    @pytest.mark.parametrize("real", ("double", "float"))
    def test_sources_compile_clean_under_werror(self, real, tmp_path):
        """Built as the loader builds them (codegen warnings included;
        the CG loop with ``-pthread``), exporting every entry point and
        nothing else."""
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler on this host")
        for source, flags, entries in (
            (native._SOURCE, (*native._FLAGS, "-DNX=8"),
             ("ax_native", "ax_gs_add", "ax_gs_replay", "ax_gs_native")),
            (native._CG_SOURCE, native._CG_FLAGS,
             ("cg_dot", "cg_step", "cg_dir", "cg_solve")),
        ):
            built = tmp_path / f"{entries[0]}.so"
            done = subprocess.run(
                [cc, *flags, f"-DREAL={real}", "-Wall", "-Wextra", "-Werror",
                 "-o", str(built), "-x", "c", "-"],
                input=source.encode(), capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode()
            lib = ctypes.CDLL(str(built))
            assert all(hasattr(lib, name) for name in entries)
            for name in ("element", "mask_dot", "fused_part", "helper_main",
                         "iterate"):
                assert not hasattr(lib, name)

    def test_two_loaders_with_the_same_arguments_stay_apart(
        self, fresh_loader
    ):
        f64 = np.dtype(np.float64)
        first = native._cached(lambda nx, dtype: ("first", nx), 4, f64)
        second = native._cached(lambda nx, dtype: ("second", nx), 4, f64)
        assert (first, second) == (("first", 4), ("second", 4))

    def test_unresolvable_compiler_is_a_runtime_error(
        self, fresh_loader, monkeypatch
    ):
        """No compiler: every kernel, at every call, is the same
        ``RuntimeError`` naming ``$CC``, chained from its cause — no
        failure is remembered, so a mended ``CC`` works at the next
        call — and nothing is built."""
        monkeypatch.setenv("CC", "/nonexistent")
        ref, u, g = fields(3)
        for _ in range(2):
            for call in (lambda: ax_local_matmul(ref, u, g),
                         lambda: native.ax_gs_kernel(5, u.dtype),
                         lambda: native.cg_passes(np.dtype(np.float32))):
                with pytest.raises(RuntimeError,
                                   match="compiler is required.*/nonexistent"
                                   ) as err:
                    call()
                assert isinstance(err.value.__cause__, FileNotFoundError)
        assert native._kernels == {}
        assert not any((fresh_loader / "xdg").rglob("*"))  # nothing built

    def test_no_compiler_means_no_solve(self, fresh_loader, monkeypatch):
        """What a host without a compiler gets from the front doors: the
        problem builds, and its first solve and a bare kernel call raise
        the ``RuntimeError`` naming ``$CC``; the cache stays empty."""
        from repro.sem import PoissonProblem

        monkeypatch.setenv("CC", "/nonexistent")
        prob = PoissonProblem(BoxMesh.build(ReferenceElement.from_degree(3),
                                            (2, 2, 1)))
        b = np.random.default_rng(4).standard_normal(prob.n_dofs)
        for call in (lambda: prob.solve(b * prob.interior),
                     lambda: prob.solve(b * prob.interior, precision="mixed"),
                     lambda: ax_local_matmul(*fields(3))):
            with pytest.raises(RuntimeError, match="/nonexistent"):
                call()
        assert not any((fresh_loader / "xdg").rglob("*"))

    def test_failing_compiler_is_a_runtime_error(
        self, fresh_loader, monkeypatch
    ):
        """A compiler that exists and fails (``false``), then one that
        "succeeds" and writes something that is not a shared object:
        each a ``RuntimeError`` naming ``$CC``, with the cause in it."""
        ref, u, g = fields(5)
        monkeypatch.setenv("CC", "false")
        with pytest.raises(RuntimeError, match="'false'.*RuntimeError"):
            ax_local_matmul(ref, u, g)
        fake = fresh_loader / "fakecc"
        fake.write_text(
            '#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\necho junk > "$2"\n'
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        with pytest.raises(RuntimeError, match="fakecc.*OSError") as err:
            ax_local_matmul(ref, u, g)
        assert isinstance(err.value.__cause__, OSError)

    def test_build_lands_in_the_private_cache_and_is_reused(
        self, fresh_loader
    ):
        ref, u, g = fields(4)
        w = ax_local_matmul(ref, u, g)
        ax_gs = native.ax_gs_kernel(5, u.dtype)  # same object, same build
        assert ax_gs is not None and ax_gs is not native.ax_kernel(5, u.dtype)
        cache = fresh_loader / "xdg" / "repro-sem"
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 1 and built[0].startswith("ax-")
        assert built[0].endswith(".so")
        assert native.cg_passes(u.dtype) is not None  # one more per dtype
        built = sorted(p.name for p in cache.iterdir())
        assert [name[:3] for name in built] == ["ax-", "cg-"]
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        # A second "process" finds it: same file, no rebuild, same bits.
        stamp = (cache / built[0]).stat().st_mtime_ns
        native._kernels.clear()
        assert np.array_equal(ax_local_matmul(ref, u, g), w)
        assert sorted(p.name for p in cache.iterdir()) == built
        assert (cache / built[0]).stat().st_mtime_ns == stamp

    def test_another_cpu_gets_another_artefact(
        self, fresh_loader, monkeypatch
    ):
        """``-march=native`` output must never be loaded by a CPU it was
        not built on (a home directory shared across hosts)."""
        build = functools.partial(
            native._build, "cg", native._CG_SOURCE,
            [*native._CG_FLAGS, "-DREAL=double"])
        first = build()
        monkeypatch.setattr(native, "_cpu_flags", lambda: "flags : other")
        second = build()
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)

    def test_a_compiler_given_with_arguments(self, fresh_loader, monkeypatch):
        """``CC="ccache gcc"`` / ``CC="gcc -m64"``: the first word is
        resolved on ``PATH``, the rest are passed on, and every word is
        part of the artefact's name."""
        log = fresh_loader / "wrapper.log"
        (fresh_loader / "bin").mkdir()
        wrapper = fresh_loader / "bin" / "wrapcc"
        wrapper.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexec "$@"\n')
        wrapper.chmod(0o755)
        monkeypatch.setenv(
            "PATH", f"{wrapper.parent}{os.pathsep}{os.environ['PATH']}")
        cache = fresh_loader / "xdg" / "repro-sem"
        ref, u, g = fields(3)
        want = ax_local_matmul(ref, u, g)  # built by the plain compiler
        seen = {p.name for p in cache.iterdir()}
        for cc, told in (("wrapcc cc", "cc "), ("wrapcc  cc -DSPARE=1",
                                                "cc -DSPARE=1 ")):
            monkeypatch.setenv("CC", cc)
            native._kernels.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(ax_local_matmul(ref, u, g), want)
                assert native.cg_passes(np.dtype(np.float32)) is not None
            assert log.read_text().splitlines()[-1].startswith(told)
            built = {p.name for p in cache.iterdir()} - seen
            assert len(built) == 2 and not built & seen  # one ax, one cg
            seen |= built

    @pytest.mark.parametrize("flaw", ("group-writable", "foreign", "symlink"))
    def test_a_directory_others_control_is_not_used(
        self, fresh_loader, monkeypatch, flaw
    ):
        xdg = fresh_loader / "xdg" / "repro-sem"
        if flaw == "symlink":
            (fresh_loader / "elsewhere").mkdir(mode=0o700)
            xdg.parent.mkdir()
            xdg.symlink_to(fresh_loader / "elsewhere")
        else:
            xdg.mkdir(parents=True)
            xdg.chmod(0o770 if flaw == "group-writable" else 0o700)
        if flaw == "foreign":  # as if another uid had made both candidates
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        chosen = native._cache_dir()
        assert os.path.realpath(chosen) != os.path.realpath(xdg)
        assert os.path.dirname(chosen) == str(fresh_loader / "tmp")
        if flaw == "foreign":  # the last resort: a private mkdtemp
            assert os.path.basename(chosen) != f"repro-{os.getuid()}"
        assert stat.S_IMODE(os.stat(chosen).st_mode) == 0o700

    def test_unexpanded_home_does_not_land_in_the_working_directory(
        self, fresh_loader, monkeypatch
    ):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        monkeypatch.chdir(fresh_loader)
        chosen = native._cache_dir()
        assert os.path.dirname(chosen) == str(fresh_loader / "tmp")
        assert not (fresh_loader / "~").exists()

    def test_two_processes_building_at_once(self, tmp_path):
        """Two fleet workers (or two pytest processes) meeting an empty
        cache: both get right answers, one artefact is left, and no
        half-written or temporary file."""
        script = (
            "import numpy as np\n"
            "from repro.sem import ReferenceElement, ax_local_listing1, ax_local_matmul\n"
            "from repro.sem import native\n"
            "ref = ReferenceElement.from_degree(5)\n"
            "rng = np.random.default_rng(7)\n"
            "u = rng.standard_normal((4, 6, 6, 6))\n"
            "g = rng.standard_normal((4, 6, 6, 6, 6))\n"
            "w = ax_local_matmul(ref, u, g)\n"
            "assert native.ax_kernel(6, u.dtype) is not None\n"
            "assert np.allclose(w, ax_local_listing1(ref, u, g), atol=1e-11)\n"
            "print(w.tobytes().hex()[:64])\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (_, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert outs[0][0] == outs[1][0] != ""
        left = sorted(p.name for p in (tmp_path / "repro-sem").iterdir())
        assert len(left) == 1 and left[0].endswith(".so")
