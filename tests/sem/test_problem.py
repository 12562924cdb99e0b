"""The one SEM problem core: every kind, dtype, backend form and input
shape goes through one pipeline, so every pairing must agree *exactly*
(``np.array_equal`` throughout — no tolerances).  Where the compiled
scatter -> ``Ax`` -> gather-add pass takes the pipeline, it must be the
layers it replaces to the bit, and step aside wherever they are
replaced or its operands are not C's to write."""

import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import ax_local, ax_local_dense
from repro.sem import (
    BoxMesh,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    ax_local_listing1,
    rebuild,
)
from repro.sem import cg, native
from repro.sem.gather_scatter import GatherScatter
from repro.sem.kernels import (
    _REGISTRY,
    ax_local_matmul,
    get_ax_kernel,
    register_ax_kernel,
)
from repro.serve import SolveService

KINDS = ("poisson", "helmholtz", "nekbone")
DTYPES = (np.float64, np.float32)
FORMS = ("matmul", "einsum", "plain")
SHAPES = ("solo", "b1", "b4")
DEGREE, BOX = 3, (2, 2, 1)


#: The ``ax_backend`` of each form: the production kernel by name, the
#: einsum oracle, and plain ``(ref, u, g)`` callables — a lambda around
#: the production kernel, the paper's Listing 1, the dense oracle.  Any
#: other form is a registered name.
BACKENDS = {
    "matmul": "matmul",
    "einsum": ax_local,
    "plain": lambda ref, u, g: ax_local_matmul(ref, u, g),
    "listing1": ax_local_listing1,
    "dense": ax_local_dense,
}


def build(kind, form):
    backend = BACKENDS.get(form, form)
    if kind == "nekbone":
        return NekboneCase(DEGREE, BOX, ax_backend=backend)
    mesh = BoxMesh.build(ReferenceElement.from_degree(DEGREE), BOX)
    if kind == "poisson":
        return PoissonProblem(mesh, ax_backend=backend)
    return HelmholtzProblem(mesh, 0.7, ax_backend=backend)


@pytest.fixture(scope="module")
def problems():
    return {
        (kind, form): build(kind, form)
        for kind in KINDS for form in FORMS
    }


def bank(problem, dtype):
    rng = np.random.default_rng(15)
    return rng.standard_normal((4, problem.n_dofs)).astype(dtype)


def apply(problem, dtype, shape, with_out):
    """One operator application; always returned as ``(rows, n)``."""
    op = problem.operator if dtype is np.float64 else problem.operator32
    u = bank(problem, dtype)
    arg = {"solo": u[0], "b1": u[:1], "b4": u}[shape]
    if with_out:
        out = np.full_like(arg, np.nan)
        assert op(arg, out=out) is out
        w = out
    else:
        w = op(arg)
    assert w.dtype == dtype and w.shape == arg.shape
    return np.atleast_2d(w).copy()


def solo_rows(problem, dtype, shape):
    """The reference: each row on its own, no ``out=``."""
    rows = 4 if shape == "b4" else 1
    op = problem.operator if dtype is np.float64 else problem.operator32
    u = bank(problem, dtype)
    return np.stack([op(u[k]).copy() for k in range(rows)])


@pytest.mark.parametrize("with_out", (False, True), ids=("alloc", "out"))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
@pytest.mark.parametrize("kind", KINDS)
def test_every_shape_equals_solo_rows(
    problems, kind, dtype, form, shape, with_out
):
    """Stacked rows == solo rows, ``(1, n)`` == solo, ``out=`` == a
    fresh result."""
    problem = problems[kind, form]
    got = apply(problem, dtype, shape, with_out)
    assert np.array_equal(got, solo_rows(problem, dtype, shape))


@pytest.mark.parametrize("with_out", (False, True), ids=("alloc", "out"))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
@pytest.mark.parametrize("kind", KINDS)
def test_plain_callable_equals_registered(
    problems, kind, dtype, shape, with_out
):
    """A plain ``(ref, u, g)`` callable around the production kernel is
    that kernel: the layers it runs, mass term included, are the fused
    pass to the bit."""
    got = apply(problems[kind, "plain"], dtype, shape, with_out)
    want = apply(problems[kind, "matmul"], dtype, shape, with_out)
    assert np.array_equal(got, want)


def make_twin(problem, how):
    """``(twin, cleanup)`` of a problem by one of the two routes."""
    if how == "spec":
        return rebuild(problem.spec()), lambda: None
    export = problem.export_shared()
    return rebuild(export.spec), export.close


REGISTERED_PLAIN = "_test_problem_plain"


@pytest.fixture
def registered_plain():
    """A plain ``(ref, u, g)`` callable under a registry name."""
    register_ax_kernel(
        REGISTERED_PLAIN, lambda ref, u, g: ax_local_matmul(ref, u, g)
    )
    yield REGISTERED_PLAIN
    _REGISTRY.pop(REGISTERED_PLAIN, None)


def test_every_registered_kernel_is_named(registered_plain):
    """A registered kernel is selected by its name — a problem built
    with the name holds exactly the registered callable — and the
    production kernel, which ``"matmul"`` names, is every default."""
    for name in ("matmul", registered_plain):
        assert build("poisson", name).ax_backend is get_ax_kernel(name)
    assert get_ax_kernel("matmul") is ax_local_matmul
    mesh = BoxMesh.build(ReferenceElement.from_degree(DEGREE), BOX)
    assert PoissonProblem(mesh).ax_backend is ax_local_matmul


@pytest.mark.parametrize("how", ("spec", "shared"))
@pytest.mark.parametrize(
    "form", ("matmul", "einsum", "listing1", "dense", REGISTERED_PLAIN)
)
@pytest.mark.parametrize("kind", KINDS)
def test_twins_equal_the_source(registered_plain, kind, form, how):
    """A twin runs the production kernel — a spec names none — so a
    problem on it has a twin that is the source to the bit, and a
    problem on any other backend is refused one, by either route."""
    source = build(kind, form)
    if form != "matmul":
        with pytest.raises(ValueError, match="production kernel"):
            make_twin(source, how)
        return
    twin, cleanup = make_twin(source, how)
    try:
        assert type(twin) is type(source)
        assert np.array_equal(twin.precond_diag(), source.precond_diag())
        for dtype, shape in itertools.product(DTYPES, SHAPES):
            assert np.array_equal(
                apply(twin, dtype, shape, True),
                apply(source, dtype, shape, True),
            )
    finally:
        del twin
        cleanup()


@pytest.mark.parametrize("precision", ("fp64", "mixed"))
@pytest.mark.parametrize("kind", KINDS)
def test_service_equals_problem_solve(problems, kind, precision):
    problem = problems[kind, "matmul"]
    inner = getattr(problem, "problem", problem)
    bs = bank(problem, np.float64)
    if kind != "helmholtz":
        bs = bs * inner.interior
    want = [
        problem.solve(b, tol=1e-9, maxiter=200, precision=precision)
        for b in bs
    ]
    with SolveService(problem, max_batch=4, tol=1e-9, maxiter=200) as svc:
        got = svc.solve_many(bs, precision=precision)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.array_equal(g.x, w.x)
        assert g.iterations == w.iterations
        assert g.residual_norm == w.residual_norm
        assert g.residual_history == w.residual_history


class TestHookContract:
    """What ``benchmarks/e2e/semtrace.py`` does to a problem, pinned."""

    @pytest.mark.parametrize("kind", ("poisson", "helmholtz"))
    def test_instance_operator_is_what_operator_hands_out(self, kind):
        problem = build(kind, "matmul")
        names = ("apply_A", "apply_A32")
        calls = []
        for name in names:
            inner = getattr(problem, name)

            def wrapper(u, out=None, inner=inner, name=name):
                calls.append(name)
                return inner(u, out=out)

            setattr(problem, name, wrapper)
        assert problem.operator.__name__ == "wrapper"
        assert problem.operator32.__name__ == "wrapper"
        bs = bank(problem, np.float64)
        if kind == "poisson":
            bs = bs * problem.interior
        res = problem.solve(bs[0], tol=1e-9, maxiter=50, precision="mixed")
        # One fp64 true-residual application per sweep, one fp32
        # application per inner iteration (sweeps + their initial
        # residuals): every one went through the instance attributes.
        assert calls.count(names[0]) >= res.sweeps
        assert calls.count(names[1]) >= res.iterations
        calls.clear()
        problem.solve(bs, tol=1e-9, maxiter=5)
        assert calls and set(calls) == {names[0]}

    def test_replaced_gs_is_called_on_every_application(self):
        problem = build("poisson", "matmul")

        class CountingGS:
            def __init__(self, inner, log, tag):
                self._inner, self._log, self._tag = inner, log, tag
                self._twins = {}

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def scatter(self, global_vec, out=None):
                self._log.append(("scatter", self._tag))
                return self._inner.scatter(global_vec, out=out)

            def gather(self, local, out=None):
                self._log.append(("gather", self._tag))
                return self._inner.gather(local, out=out)

            def as_dtype(self, dtype):
                twin = self._inner.as_dtype(dtype)
                if twin is self._inner:
                    return self
                key = np.dtype(dtype).str
                if key not in self._twins:
                    self._twins[key] = CountingGS(twin, self._log, key)
                return self._twins[key]

        u64, u32 = bank(problem, np.float64), bank(problem, np.float32)
        want64, want32 = problem.apply_A(u64).copy(), problem.apply_A32(u32).copy()

        first, second = [], []
        problem.gs = CountingGS(problem.gs, first, "<f8")
        assert np.array_equal(problem.apply_A(u64), want64)
        assert np.array_equal(problem.apply_A32(u32[0]), want32[0])
        assert first == [
            ("scatter", "<f8"), ("gather", "<f8"),
            ("scatter", "<f4"), ("gather", "<f4"),
        ]
        # Replaced again after the pipeline has run in both dtypes: a
        # pipeline that cached ``gs`` or its fp32 twin would keep
        # logging to the first proxy.
        del first[:]
        problem.gs = CountingGS(problem.gs._inner, second, "<f8")
        problem.apply_A(u64[0])
        problem.apply_A32(u32)
        assert first == []
        assert second == [
            ("scatter", "<f8"), ("gather", "<f8"),
            ("scatter", "<f4"), ("gather", "<f4"),
        ]


# ----------------------------------------------------------------------
# The fused pass: one compiled call per application where it applies.
@pytest.fixture
def fused(monkeypatch):
    """The ``nx`` of every call that reaches the fused C pass, in order;
    skips on a host (or a CI leg) with no compiled kernels."""
    if native.ax_gs_kernel(2, np.dtype(np.float64)) is None:
        pytest.skip("no compiled kernels on this host")
    calls, real = [], native.ax_gs_kernel

    def spying(nx, dtype):
        ax_gs = real(nx, dtype)

        def recorded(*args):
            calls.append(nx)
            ax_gs(*args)

        return recorded

    monkeypatch.setattr(native, "ax_gs_kernel", spying)
    return calls


class Delegating:
    """A gather-scatter that is not a ``GatherScatter``: the pipeline
    runs its layers one by one through it."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def as_dtype(self, dtype):
        return Delegating(self._inner.as_dtype(dtype))


def poisson(degree=DEGREE, box=BOX, backend="matmul"):
    mesh = BoxMesh.build(ReferenceElement.from_degree(degree), box)
    return PoissonProblem(mesh, ax_backend=backend)


def layered(problem, op_name, u, **kwargs):
    """``problem.<op_name>(u)`` with the layers run one by one."""
    fast = problem.gs
    problem.gs = Delegating(fast)
    try:
        return getattr(problem, op_name)(u, **kwargs)
    finally:
        problem.gs = fast


@pytest.mark.parametrize("batch", (None, 1, 3, 8), ids=lambda b: f"B={b}")
@pytest.mark.parametrize("degree", (3, 7))
@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
def test_fused_pass_is_the_layered_pipeline_to_the_bit(
    fused, dtype, degree, batch
):
    """Every byte, NaN payloads included: the last row of a stacked
    block carries NaN, +inf and -inf."""
    problem = poisson(degree, (2, 2, 2))
    op_name = "apply_A" if dtype is np.float64 else "apply_A32"
    rng = np.random.default_rng(degree)
    shape = (problem.n_dofs,) if batch is None else (batch, problem.n_dofs)
    u = rng.standard_normal(shape).astype(dtype)
    if batch and batch > 1:
        u[-1, ::5], u[-1, 1::7], u[-1, 2::9] = np.nan, np.inf, -np.inf
    got = getattr(problem, op_name)(u)
    assert fused == [degree + 1]
    with np.errstate(invalid="ignore"):  # the layers' numpy sees inf * 0
        want = layered(problem, op_name, u)
    assert fused == [degree + 1]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    out = np.full_like(u, np.nan)
    assert getattr(problem, op_name)(u, out=out) is out
    assert out.tobytes() == want.tobytes() and len(fused) == 2


@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
@pytest.mark.parametrize("stacked", (False, True), ids=("solo", "b4"))
def test_out_that_is_u_takes_the_layers(fused, dtype, stacked):
    """The fused pass zero-fills ``out`` before it reads ``u``."""
    problem = poisson()
    op = problem.apply_A if dtype is np.float64 else problem.apply_A32
    u = bank(problem, dtype)
    u = u if stacked else u[0]
    want = op(u).copy()
    del fused[:]
    assert op(u, out=u) is u
    assert u.tobytes() == want.tobytes() and fused == []


class TestOperandsCMustNotWrite:
    """Each keeps the result or the refusal of the layered pipeline."""

    @pytest.fixture
    def case(self, fused):
        problem = poisson()
        u = bank(problem, np.float64)[0]
        return problem, u, problem.apply_A(u).copy(), fused

    def test_strided_out_and_strided_u(self, case):
        problem, u, want, fused = case
        backing = np.full((problem.n_dofs, 2), np.nan)
        out = backing[:, 0]
        strided_u = np.stack([u, u], axis=-1)[:, 1]
        assert problem.apply_A(strided_u, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert np.isnan(backing[:, 1]).all() and fused == [DEGREE + 1]

    def test_misaligned_out(self, case):
        problem, u, want, fused = case
        raw = np.zeros(u.nbytes + 1, dtype=np.uint8)
        out = raw[1:].view(np.float64)
        assert not out.flags.aligned
        problem.apply_A(u, out=out)
        assert out.tobytes() == want.tobytes() and fused == [DEGREE + 1]

    def test_read_only_out_is_refused(self, case):
        problem, u, _, fused = case
        out = np.zeros_like(u)
        out.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            problem.apply_A(u, out=out)
        assert not out.any() and fused == [DEGREE + 1]

    def test_off_dtype_u_and_out(self, case):
        problem, u, _, fused = case
        u32 = u.astype(np.float32)
        assert np.array_equal(
            problem.apply_A(u32), problem.apply_A(u32.astype(np.float64))
        )
        assert fused == [DEGREE + 1, DEGREE + 1]  # the fp64 twin only
        with pytest.raises(ValueError, match="operator's dtype"):
            problem.apply_A(u, out=np.empty(u.shape, np.float32))
        assert fused == [DEGREE + 1, DEGREE + 1]


def test_registered_wrapper_kernel_sees_every_application(fused):
    """A wrapper registered around ``"matmul"`` (what the benchmark's
    traced twin is) is not ``"matmul"``: every application calls it."""
    log = []

    def wrapper(ref, u, g, out=None, workspace=None):
        log.append(u.dtype.str)
        return ax_local_matmul(ref, u, g, out=out, workspace=workspace)

    register_ax_kernel("_test_problem_wrapper", wrapper)
    try:
        wrapped = poisson(backend="_test_problem_wrapper")
    finally:
        _REGISTRY.pop("_test_problem_wrapper", None)
    plain = poisson()
    u64, u32 = bank(plain, np.float64), bank(plain, np.float32)
    for u, op_name in ((u64, "apply_A"), (u64[0], "apply_A"),
                       (u32, "apply_A32"), (u32[:1], "apply_A32")):
        got = getattr(wrapped, op_name)(u)
        assert got.tobytes() == getattr(plain, op_name)(u).tobytes()
    assert log == ["<f8", "<f8", "<f4", "<f4"]
    assert fused == [DEGREE + 1] * 4  # the plain problem's four


def test_helmholtz_runs_its_layers(fused):
    """The mass term rides in the fused pass: Helmholtz's one compiled
    call is its layers — stiffness, ``lam * (mass * u)``, gather — to
    the byte, in both dtypes, stacked and solo."""
    for degree in (3, 7):
        mesh = BoxMesh.build(ReferenceElement.from_degree(degree), (2, 2, 2))
        problem = HelmholtzProblem(mesh, 0.7)
        for op_name, dtype in (("apply", np.float64), ("apply32", np.float32)):
            u = bank(problem, dtype)
            del fused[:]
            got = getattr(problem, op_name)(u)
            solo = getattr(problem, op_name)(u[0])
            assert fused == [degree + 1] * 2
            assert got.tobytes() == layered(problem, op_name, u).tobytes()
            assert solo.tobytes() == layered(problem, op_name, u[0]).tobytes()
            assert fused == [degree + 1] * 2


def renumbered(problem, new_of_old):
    """``problem`` with global node ``i`` renamed ``new_of_old[i]``: its
    gather-scatter over the renamed map (a plain ``GatherScatter``) and,
    for Poisson, its mask moved along."""
    mesh = problem.mesh
    problem.gs = GatherScatter(
        new_of_old[mesh.l2g].reshape(-1), mesh.n_global, mesh.l2g.shape)
    if isinstance(problem, PoissonProblem):
        interior = np.empty_like(problem.interior)
        interior[new_of_old] = problem.interior
        problem.interior = interior
        problem._masks.clear()
    return problem


def deformed_3x2x5():
    mesh = BoxMesh.build(ReferenceElement.from_degree(DEGREE), (3, 2, 5))
    return mesh.deform(lambda x, y, z: (
        x + 0.04 * np.sin(np.pi * y) * np.sin(np.pi * z),
        y + 0.03 * np.sin(np.pi * z) * np.sin(np.pi * x),
        z + 0.02 * np.sin(np.pi * x) * np.sin(np.pi * y),
    ))


def relabelled_twins(fused, kind, dtype, new_of_old):
    """The fused pass's output on a deformed 3x2x5 mesh, and the same
    problem's output over the map relabelled by ``new_of_old``, taken
    back to the mesh's numbering: stacked and solo, each as bytes."""
    mesh = deformed_3x2x5()
    make = {"poisson": lambda: PoissonProblem(mesh),
            "helmholtz": lambda: HelmholtzProblem(mesh, 0.7)}[kind]
    op_name = "apply" if dtype is np.float64 else "apply32"
    plain, relabelled = make(), renumbered(make(), new_of_old)
    assert relabelled._fused(dtype) is None
    u = bank(plain, dtype)
    u_relabelled = np.empty_like(u)
    u_relabelled[:, new_of_old] = u
    del fused[:]
    got = [getattr(plain, op_name)(v).tobytes() for v in (u, u[0])]
    assert fused == [DEGREE + 1] * 2
    want = [getattr(relabelled, op_name)(v)[..., new_of_old].tobytes()
            for v in (u_relabelled, u_relabelled[0])]
    assert fused == [DEGREE + 1] * 2  # the relabelled map ran the layers
    return got, want


@pytest.mark.parametrize("kind", ("poisson", "helmholtz"))
@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
def test_the_z_fastest_numbering_is_an_exact_relabelling(fused, kind, dtype):
    """The fused pass on the mesh's z-fastest numbering gives, to the
    byte, the layers on the x-fastest numbering it replaced, permuted:
    every node takes the same contributions in the same order.  That
    map is affine with a non-unit inner stride, which the fused pass
    does not take."""
    ngx, ngy, ngz = deformed_3x2x5().global_grid
    gx, gy, gz = np.meshgrid(
        np.arange(ngx), np.arange(ngy), np.arange(ngz), indexing="ij")
    x_fastest = ((gz * ngy + gy) * ngx + gx).reshape(-1)
    got, want = relabelled_twins(fused, kind, dtype, x_fastest)
    assert got == want


@pytest.mark.parametrize("kind", ("poisson", "helmholtz"))
@pytest.mark.parametrize("dtype", DTYPES, ids=("fp64", "fp32"))
def test_a_map_without_the_affine_form_runs_the_layers(fused, kind, dtype):
    """A shuffled numbering has no origin-and-strides form: ``_fused``
    steps aside and the layers give the same bytes, permuted."""
    n = deformed_3x2x5().n_global
    shuffled = np.random.default_rng(3).permutation(n)
    got, want = relabelled_twins(fused, kind, dtype, shuffled)
    assert got == want


def test_a_replaced_map_brings_its_own_split_plane(monkeypatch):
    """``problem.gs`` replaced after construction by the mesh mirrored
    in x — still affine, its planes numbered downward (``s0 < 0``), so
    no plane to split at: the compiled solve reads the plane with the
    strides, from the new map, and gives the layers' bytes."""
    f64 = np.dtype(np.float64)
    if (native.ax_gs_kernel(DEGREE + 1, f64) is None
            or native.cg_passes(f64) is None):
        pytest.skip("no compiled kernels on this host")
    monkeypatch.setattr(cg, "SPLIT_MIN_ELEMENTS", 1)
    problem = poisson(box=(4, 4, 4))
    assert problem.gs.split is not None
    s0 = problem.gs.affine[1]
    node = np.arange(problem.n_dofs)
    mirrored = (problem.n_dofs // s0 - 1 - node // s0) * s0 + node % s0
    renumbered(problem, mirrored)
    assert problem.gs.affine[1] == -s0 and problem.gs.split is None
    assert problem._fused(np.float64) is not None
    b = bank(problem, np.float64)[0] * problem.interior
    got = problem.solve(b, tol=1e-8, maxiter=500)
    want = layered(problem, "solve", b, tol=1e-8, maxiter=500)
    assert got.iterations == want.iterations
    assert got.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_a_default_problem_solves_in_one_compiled_call(kind, monkeypatch):
    """No backend named: ``problem.solve(b)`` runs the production kernel
    fused with the gather-scatter inside the compiled CG loop, in both
    precisions — one call per solve, the operator never called back."""
    f64 = np.dtype(np.float64)
    if (native.ax_gs_kernel(DEGREE + 1, f64) is None
            or native.cg_passes(f64) is None):
        pytest.skip("no compiled kernels on this host")
    mesh = BoxMesh.build(ReferenceElement.from_degree(DEGREE), BOX)
    problem = {
        "poisson": lambda: PoissonProblem(mesh),
        "helmholtz": lambda: HelmholtzProblem(mesh),
        "nekbone": lambda: NekboneCase(DEGREE, BOX),
    }[kind]()
    inner = getattr(problem, "problem", problem)
    assert inner.ax_backend is ax_local_matmul
    for op, dtype in ((problem.operator, np.float64),
                      (problem.operator32, np.float32)):
        assert cg._bind_operator(op, True, dtype)[1] is not None

    def no_callback(call):
        raise AssertionError("the compiled loop called the operator back")

    monkeypatch.setattr(native, "OperatorCall", no_callback)
    b = bank(problem, np.float64)[0]
    if kind != "helmholtz":
        b = b * inner.interior
    for precision in ("fp64", "mixed"):
        res = problem.solve(b, tol=1e-8, maxiter=500, precision=precision)
        assert res.converged


def test_warm_fused_application_allocates_nothing_field_sized(fused):
    problem = poisson(7, (3, 3, 3))
    u = np.random.default_rng(0).standard_normal((2, problem.n_dofs))
    out = np.empty_like(u)
    problem.apply_A(u, out=out)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(5):
            problem.apply_A(u, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fused) == 6
    assert peak - baseline < u[0].nbytes // 8
