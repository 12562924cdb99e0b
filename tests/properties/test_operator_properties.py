"""Property-based tests (hypothesis) for the Ax operator invariants.

The operator ``w = D^T G D u`` must be linear, self-adjoint, positive
semi-definite and annihilate constants for *any* valid geometric factors
(symmetric PSD ``G``) — not just ones from meshes.  These properties are
what CG's correctness rests on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sem.element import ReferenceElement
from oracles import ax_local
from repro.sem.operators import ax_local_listing1

DEGREES = st.integers(min_value=1, max_value=3)


def random_psd_g(rng: np.random.Generator, nx: int, num_e: int = 1) -> np.ndarray:
    """Random symmetric-PSD geometric factors in the 6-component layout."""
    m = rng.standard_normal((num_e, nx, nx, nx, 3, 3))
    sym = np.einsum("...ij,...kj->...ik", m, m) + 0.1 * np.eye(3)
    g = np.empty((num_e, 6, nx, nx, nx))
    order = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for c, (p, q) in enumerate(order):
        g[:, c] = sym[..., p, q]
    return g


@given(n=DEGREES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_operator_self_adjoint_for_any_psd_g(n, seed):
    rng = np.random.default_rng(seed)
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    g = random_psd_g(rng, nx)
    u = rng.standard_normal((1, nx, nx, nx))
    v = rng.standard_normal((1, nx, nx, nx))
    left = float(np.sum(v * ax_local(ref, u, g)))
    right = float(np.sum(u * ax_local(ref, v, g)))
    scale = 1.0 + abs(left) + abs(right)
    assert abs(left - right) < 1e-9 * scale


@given(n=DEGREES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_operator_positive_semidefinite_for_any_psd_g(n, seed):
    rng = np.random.default_rng(seed)
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    g = random_psd_g(rng, nx)
    u = rng.standard_normal((1, nx, nx, nx))
    energy = float(np.sum(u * ax_local(ref, u, g)))
    assert energy > -1e-8 * (1.0 + float(np.sum(u * u)))


@given(n=DEGREES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_constants_in_nullspace_for_any_g(n, seed):
    rng = np.random.default_rng(seed)
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    g = random_psd_g(rng, nx)
    c = rng.uniform(-5, 5)
    u = np.full((1, nx, nx, nx), c)
    w = ax_local(ref, u, g)
    gscale = float(np.max(np.abs(g))) * abs(c) + 1.0
    assert np.max(np.abs(w)) < 1e-9 * gscale


@given(
    n=DEGREES,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_linearity(n, seed, a, b):
    rng = np.random.default_rng(seed)
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    g = random_psd_g(rng, nx)
    u = rng.standard_normal((1, nx, nx, nx))
    v = rng.standard_normal((1, nx, nx, nx))
    left = ax_local(ref, a * u + b * v, g)
    right = a * ax_local(ref, u, g) + b * ax_local(ref, v, g)
    scale = np.max(np.abs(left)) + np.max(np.abs(right)) + 1.0
    assert np.max(np.abs(left - right)) < 1e-10 * scale


@given(n=st.integers(min_value=1, max_value=2), seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_listing1_port_agrees_for_any_g(n, seed):
    """The scalar Listing-1 port and the einsum path agree everywhere,
    including for non-mesh (but valid) geometric factors."""
    rng = np.random.default_rng(seed)
    ref = ReferenceElement.from_degree(n)
    nx = ref.n_points
    g = random_psd_g(rng, nx)
    u = rng.standard_normal((1, nx, nx, nx))
    w1 = ax_local(ref, u, g)
    w2 = ax_local_listing1(ref, u, g)
    scale = np.max(np.abs(w1)) + 1.0
    assert np.max(np.abs(w1 - w2)) < 1e-11 * scale
