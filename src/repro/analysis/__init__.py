"""Invariant-checking toolkit: project lint rules + runtime sanitizers.

Nine PRs of serving-stack growth produced a set of correctness
conventions that, until now, lived only in reviewers' heads — each one
born from a real bug (see ``docs/analysis.md`` for the catalog):

* **lock discipline** — attributes declared guarded by a lock must only
  be touched while that lock is held (the unlocked iteration of
  ``WorkspacePool._leased``, PR 5 — a class deleted since, PR 19);
* **monotonic-clock discipline** — no wall-clock reads in serving
  timing paths, and raw ``perf_counter`` stamps must never cross a
  process boundary un-rebased (the cross-process epoch mismatch, PR 5);
* **shared-memory lifecycle** — every created ``SharedMemory`` block
  needs a failure-reachable ``close``/``unlink`` pairing (the
  ctor-failure unlink sweep, PR 5);
* **hot-path allocation** — functions on the solver hot path may not
  allocate fresh arrays or run ``out=``-less array math (the
  allocation-free CG contract, PR 1);
* **``out=`` contiguity** — array outputs taken by keyword must be
  contiguity-guarded before backing a kernel (the silent
  non-contiguous ``out=`` corruption, PR 3).

This package turns those conventions into machine-checked rules:

* a static, stdlib-``ast``-only lint engine — ``python -m
  repro.analysis --check`` walks the tree, applies every registered
  rule, subtracts the justified suppressions in
  ``analysis/baseline.toml``, and exits non-zero on anything new (CI
  gates on it);
* runtime sanitizers (:mod:`repro.analysis.runtime`) — an
  order-tracking lock wrapper that fails tests on lock-acquisition
  cycles, and a guarded-state race checker (``REPRO_RACECHECK=1``)
  that asserts lock ownership on every annotated attribute access;
* a consumer census (:mod:`repro.analysis.census`) — ``python -m
  repro.analysis census`` runs the examples, experiment drivers,
  benchmarks and docs under a trace hook and lists the functions none
  of them called;
* the annotation vocabulary the rules consume
  (:mod:`repro.analysis.annotations`): ``# guarded-by: _lock``
  trailing comments, per-class ``_GUARDED_BY`` registries, the
  :func:`~repro.analysis.annotations.hot_path` marker decorator,
  ``# requires-lock: _lock`` caller-holds-the-lock declarations, and
  ``# lint: ignore[rule]`` / ``# lint: file-ignore[rule]``
  suppressions.

Only :mod:`repro.analysis.annotations` and
:mod:`repro.analysis.runtime` are imported by production code (both
stdlib-only, numpy-free); the engine itself is a dev/CI tool.
"""

from __future__ import annotations

from repro.analysis.annotations import hot_path
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_paths, analyze_source
from repro.analysis.findings import Finding
from repro.analysis.runtime import (
    LockOrderError,
    LockOrderGraph,
    RaceError,
    TrackedLock,
    instrument,
    race_checked,
)

__all__ = [
    "AnalysisConfig",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LockOrderError",
    "LockOrderGraph",
    "RaceError",
    "TrackedLock",
    "analyze_paths",
    "analyze_source",
    "hot_path",
    "instrument",
    "race_checked",
]
