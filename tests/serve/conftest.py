"""Helpers shared by the serving tests."""

from __future__ import annotations

import threading

import pytest


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
