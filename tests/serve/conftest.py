"""Helpers shared by the serving tests."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    sine_manufactured,
)
from repro.serve import FleetUnavailable, Overloaded


def _serving_shape():
    """A problem of the N=3/E=8 serving shape (343 DOFs)."""
    mesh = BoxMesh.build(ReferenceElement.from_degree(3), (2, 2, 2))
    return PoissonProblem(mesh, ax_backend="matmul")


@pytest.fixture(scope="module")
def serving_problem():
    """``prob, bank``: the serving shape plus a bank of 24 tenant
    right-hand sides (``bank[0]`` is the manufactured rhs itself).
    ``prob`` is the module's *reference*: tests solve through it
    sequentially and hand services a ``fresh_problem`` of their own."""
    prob = _serving_shape()
    _, forcing = sine_manufactured(prob.mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    return prob, [b0 * (1.0 + 0.3 * k) for k in range(24)]


@pytest.fixture
def fresh_problem():
    """A solve-identical problem only this test touches — for a service
    whose dispatcher thread must not share workspaces with the
    reference solves on ``serving_problem``."""
    return _serving_shape()


def _sequential_solve(prob, b, tol=1e-10, maxiter=200):
    return cg_solve(
        prob.apply_A, b, precond_diag=prob.precond_diag(), tol=tol,
        maxiter=maxiter, workspace=prob.workspace,
    )


@pytest.fixture(scope="session")
def sequential_solve():
    """``sequential_solve(prob, b, tol=1e-10, maxiter=200)``: the
    reference every tier is held to — one warm sequential solve."""
    return _sequential_solve


def _assert_same_result(got, want):
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual_norm == want.residual_norm
    assert got.residual_history == want.residual_history


@pytest.fixture(scope="session")
def assert_same_result():
    """``assert_same_result(got, want)``: bit-identity of two results,
    field by field."""
    return _assert_same_result


def _gate_dispatcher(svc):
    """Make ``svc``'s solves wait on the returned ``gate``.  Once
    ``parked`` is set the dispatcher is inside a solve and pops nothing
    more, so whatever is queued stays queued until the gate opens."""
    gate, parked = threading.Event(), threading.Event()
    real_op = svc._operator

    def gated(v, out=None):
        parked.set()
        assert gate.wait(60)
        return real_op(v, out=out)

    svc._operator = gated
    return gate, parked


@pytest.fixture
def gate_dispatcher():
    """``gate, parked = gate_dispatcher(solve_service)``: hold a
    background service's queue full, deterministically."""
    return _gate_dispatcher


def _wait_until(predicate, timeout=120.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def wait_until():
    """``assert wait_until(predicate)``: poll until true or timed out."""
    return _wait_until


def _submit_with_patience(svc, b, timeout=120.0, **knobs):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return svc.submit(b, **knobs)
        except (FleetUnavailable, Overloaded):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


@pytest.fixture
def submit_with_patience():
    """``submit_with_patience(svc, b, **knobs)``: a well-behaved client
    of a degraded fleet — back off and resubmit on the *retryable*
    taxonomy errors (Overloaded, and FleetUnavailable during the window
    where every worker is mid-respawn)."""
    return _submit_with_patience
