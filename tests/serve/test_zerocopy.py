"""Tests for the zero-copy slot rings of ProcessShardedSolveService:
the copy_bytes audit (0 — no payload crosses a copying hop), bit-identity
to the sequential solves for fp64 (all routing policies) and mixed,
crash-mid-slot recovery through respawn, tiny-ring backpressure, and the
worker-side ring attestation."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
)
from repro.serve import (
    FaultPlan,
    ProcessShardedSolveService,
    RestartPolicy,
    RetryPolicy,
)


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestTransportKnob:
    def test_transport_validation(self, serving_problem):
        prob, _ = serving_problem
        # Above the cap a ring could hold more unread doorbells than
        # a pipe buffer takes (repro.serve.replica.MAX_RING_SLOTS).
        for bad in (0, 129):
            with pytest.raises(ValueError, match="ring_slots"):
                ProcessShardedSolveService(
                    prob, workers=1, ring_slots=bad
                )

    def test_ring_is_the_default(self, serving_problem):
        prob, bank = serving_problem
        with ProcessShardedSolveService(prob, workers=1) as svc:
            svc.submit(bank[0]).result(timeout=60)


class TestCopyBytesAudit:
    def test_ring_request_path_copies_zero_bytes(self, serving_problem):
        """The acceptance criterion: a K=2 run on the ring transport
        reports copy_bytes == 0 — no request payload crossed a copying
        transport hop."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            svc.solve_many(bank)
            svc.submit(bank[0]).result(timeout=60)
            assert svc.stats.copy_bytes == 0


    def test_above_ten_thousand_dofs_a_worker_returns_the_parents_bits(
        self, sequential_solve, assert_same_result
    ):
        """N=7 on 3x3x3 elements, 10 648 DOFs: past the length at which
        BLAS may split a dot product across threads.  Workers inherit
        the parent's BLAS thread count with its environment, so the
        reply is still the sequential warm cg_solve bit for bit."""
        ref = ReferenceElement.from_degree(7)
        mesh = BoxMesh.build(ref, (3, 3, 3))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        assert prob.n_dofs == 10648
        rng = np.random.default_rng(5)
        b = rng.standard_normal(prob.n_dofs) * prob.interior
        with ProcessShardedSolveService(
            prob, workers=2, tol=1e-8, maxiter=400,
        ) as svc:
            got = svc.submit(b).result(timeout=120)
            assert svc.stats.copy_bytes == 0
        assert got.converged
        assert_same_result(got, sequential_solve(prob, b, 1e-8, 400))


class TestRingPipeBitIdentity:
    @pytest.mark.parametrize(
        "policy", ("tenant", "least-loaded", "round-robin")
    )
    def test_fp64_identical_across_transports(
        self, serving_problem, policy, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy=policy, max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            keys = [f"tenant-{k % 4}" for k in range(len(bank))]
            results = svc.solve_many(bank, keys=keys)
        for got, b in zip(results, bank):
            assert_same_result(got, sequential_solve(prob, b))

    def test_mixed_precision_identical_across_transports(
        self, serving_problem
    ):
        """Mixed rides the rings too: the serving boundary is fp64 in
        both directions, so one payload dtype carries both paths.  The
        referee is the sequential warm cg_solve_mixed (prob.solve)."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-8, maxiter=200,
        ) as svc:
            results = svc.solve_many(bank[:8], precision="mixed")
        for got, b in zip(results, bank[:8]):
            want = prob.solve(b, tol=1e-8, maxiter=200, precision="mixed")
            assert np.array_equal(got.x, want.x)
            assert got.sweeps == want.sweeps
            assert got.inner_iterations == want.inner_iterations
            assert got.residual_norm == want.residual_norm


class TestRingCrashRecovery:
    def test_crash_mid_slot_respawn_reattaches_and_retries(
        self, serving_problem, submit_with_patience, wait_until,
        sequential_solve, assert_same_result
    ):
        """Kill each worker once mid-stream: the
        respawned workers re-attach the SAME ring blocks (attested by
        block name before and after), orphaned slots are recycled (the
        ring drains back to zero in-use), in-flight requests are
        retried bit-identically, and copy_bytes stays 0 — retries ride
        the rings too."""
        prob, bank = serving_problem
        plan = FaultPlan.kill_each_worker_once(2, first_kill_after=2,
                                               stagger=3)
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200, chaos=plan,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
            restart=RestartPolicy(max_restarts=3, backoff_base=0.02),
        )
        try:
            rings_before = {
                info["pid"]: info["ring_block"]
                for info in svc.worker_info()
            }
            blocks_before = tuple(sorted(rings_before.values()))
            # Both workers die in this burst, so a submit can land in
            # the window where both are mid-respawn and be refused with
            # the retryable FleetUnavailable; back off and resubmit, as
            # docs/serving.md prescribes for that error.
            tickets = [
                submit_with_patience(svc, b, key=f"tenant-{k}")
                for k, b in enumerate(bank)
            ]
            for t, b in zip(tickets, bank):
                assert_same_result(
                    t.result(timeout=120), sequential_solve(prob, b)
                )
            assert wait_until(lambda: svc.restarts == 2)
            assert svc.retried >= 1
            infos = svc.worker_info()
            rings_after = {
                info["pid"]: info["ring_block"] for info in infos
            }
            # Fresh processes...
            assert not (set(rings_after) & set(rings_before))
            # ...attached to the SAME per-slot ring blocks.
            assert tuple(sorted(rings_after.values())) == blocks_before
            # Every orphaned slot was recycled on the way.
            assert wait_until(
                lambda: all(len(w.ring._slot_of) == 0 for w in svc._workers)
            )
            assert svc.stats.copy_bytes == 0
        finally:
            svc.close()
        assert not any(shm_exists(name) for name in blocks_before)


class TestRingBackpressure:
    def test_tiny_ring_blocks_instead_of_overwriting(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """ring_slots=2 with far more requests in flight than slots:
        submission simply blocks until slots free up, every request
        resolves bit-identically, and nothing is lost or overwritten."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=1, policy="round-robin", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200, ring_slots=2,
        ) as svc:
            tickets = [svc.submit(b) for b in bank]
            for t, b in zip(tickets, bank):
                assert_same_result(
                    t.result(timeout=120), sequential_solve(prob, b)
                )
            assert svc.stats.copy_bytes == 0


class TestRingAttestation:
    def test_worker_info_attests_ring(self, serving_problem):
        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, ring_slots=8
        ) as svc:
            infos = svc.worker_info()
            assert len(infos) == 2
            for info in infos:
                assert "transport" not in info
                assert info["ring_slots"] == 8
                assert info["ring_n"] == prob.n_dofs
                assert info["ring_dtype"] == "float64"
                assert info["ring_rhs_writeable"] is False
                assert shm_exists(info["ring_block"])
            # Per-worker rings: two distinct blocks.
            assert len({info["ring_block"] for info in infos}) == 2
