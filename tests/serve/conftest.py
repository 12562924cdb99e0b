"""Helpers shared by the serving tests."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import FleetUnavailable, Overloaded


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
