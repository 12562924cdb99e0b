"""Shared fixtures for the test-suite, plus the per-test timeout guard
(the resilience tests crash and respawn worker processes — a bug there
must fail loudly, never hang the suite)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import _timeout_guard
import repro
from repro.sem import BoxMesh, ReferenceElement, geometric_factors


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock budget for the in-tree "
        "SIGALRM guard (0 disables; ignored when pytest-timeout is "
        "installed, which then owns the marker)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_guard.timeout_for(item)
    if seconds is None:
        yield
    else:
        with _timeout_guard.alarm(seconds, item.nodeid):
            yield


@pytest.fixture
def reference_loop(monkeypatch):
    """Run every CG solve of the test through ``oracles.python_cg_loop``
    in place of the compiled loop: the loop of ``_cg_iterate`` in Python
    (the numpy body the loop had before it moved to C), driving C's
    passes and calling the operator back every iteration.  The
    ``...NumpyBody`` classes hold that reference — the one the compiled
    loop's bits are checked against — to the contracts of the compiled
    path, each within itself and never compared with the other."""
    from oracles import python_cg_loop
    from repro.sem import cg

    monkeypatch.setattr(cg, "_compiled_loop", python_cg_loop)


@pytest.fixture
def run_python():
    """``run_python(*args)`` runs ``python *args`` in a fresh interpreter
    that imports this checkout's ``repro``, and returns its
    ``CompletedProcess`` (text output captured): a script that may die
    of a signal fails its test instead of the suite."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=120)

    return run


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(0x5EED)


@pytest.fixture(scope="session")
def ref3() -> ReferenceElement:
    """Degree-3 reference element (small, fast)."""
    return ReferenceElement.from_degree(3)


@pytest.fixture(scope="session")
def mesh3(ref3) -> BoxMesh:
    """2x2x1 box mesh at degree 3."""
    return BoxMesh.build(ref3, (2, 2, 1))


@pytest.fixture(scope="session")
def curved_mesh3(ref3) -> BoxMesh:
    """Smoothly deformed (curvilinear) 2x2x1 mesh at degree 3."""
    base = BoxMesh.build(ref3, (2, 2, 1))
    return base.deform(
        lambda x, y, z: (
            x + 0.05 * np.sin(np.pi * y) * np.sin(np.pi * z),
            y + 0.04 * np.sin(np.pi * z) * np.sin(np.pi * x),
            z + 0.03 * np.sin(np.pi * x) * np.sin(np.pi * y),
        )
    )


@pytest.fixture(scope="session")
def curved_geo3(curved_mesh3):
    """Geometry of the curved mesh (full G tensor exercised)."""
    return geometric_factors(curved_mesh3)
