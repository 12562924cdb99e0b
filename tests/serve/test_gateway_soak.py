"""Deterministic soak/load tests for the gateway over a real 2-worker
ring fleet, plus a fake-clock latency harness.

Two halves, two determinism strategies:

* The **real-fleet soak** drives a seeded multi-tenant mix (steady
  flow-solver sessions + bursty batch tenants) through the gateway over
  a ``ProcessShardedSolveService`` on the zero-copy ring transport, and
  asserts *exact* outcomes: every admitted solve bit-identical to the
  sequential warm reference, ``copy_bytes == 0``, quota totals equal to
  completed work, and no ``/dev/shm`` block surviving close.  No
  latency assertions here — wall-clock on a shared CI box is noise.
* The **fake-clock harness** asserts the latency/SLO story instead:
  request service times are simulated deterministically on an injected
  clock (the chaos-harness pattern — ordinals and seeds, not sleeps),
  so p99 bounds and run-to-run reproducibility are exact assertions, no
  flakiness budget needed.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    Gateway,
    GatewayServer,
    ProcessShardedSolveService,
    TenantRegistry,
)


def build_mix(b0, seed, steady=8, bursts=2, burst_size=6):
    """A seeded multi-tenant request mix.

    ``steady`` requests from a flow tenant (one per "timestep", fixed
    tolerance) interleaved with ``bursts`` batch tenants that each dump
    ``burst_size`` requests at once at their own tolerance — the
    heterogeneous traffic the cost model exists for.  Deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    jobs = []  # (tenant_id, b, tol)
    for step in range(steady):
        scale = 1.0 + 0.05 * step
        jobs.append(("flow", b0 * scale, 1e-10))
    for burst in range(bursts):
        tol = (1e-4, 1e-8)[burst % 2]
        for k in range(burst_size):
            scale = float(rng.uniform(0.5, 2.0))
            jobs.append((f"batch{burst}", b0 * scale, tol))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


class TestGatewaySoakRealFleet:
    @pytest.mark.timeout(600)
    def test_seeded_multitenant_mix_over_ring_fleet(
        self, serving_problem, sequential_solve
    ):
        prob, (b0, *_) = serving_problem
        jobs = build_mix(b0, seed=1234)
        shm_before = set(os.listdir("/dev/shm"))

        async def run():
            svc = ProcessShardedSolveService(
                prob, workers=2, policy="cost", max_batch=4,
                max_wait=0.002, tol=1e-10, maxiter=200,
            )
            registry = TenantRegistry()
            tokens = {}
            for tenant_id in {tenant for tenant, _b, _tol in jobs}:
                tokens[tenant_id] = registry.provision(
                    tenant_id, quota=len(jobs)
                ).token
            gateway = Gateway(
                svc, registry,
                admission=AdmissionPolicy(
                    soft_limit=64, hard_limit=128
                ),
            )
            results = await asyncio.gather(*(
                gateway.solve(
                    tokens[tenant], b, tol=tol, maxiter=200
                )
                for tenant, b, tol in jobs
            ))
            counters = gateway.counters
            charged = gateway.ledger.totals()
            copy_bytes = svc.stats.copy_bytes
            history = gateway.tenant_stats.snapshot().tenant_iterations
            await gateway.aclose()
            return results, counters, charged, copy_bytes, history

        results, counters, charged, copy_bytes, history = asyncio.run(
            run()
        )
        # Bit-identical to the sequential warm reference, request by
        # request — concurrency, batching, sharding, process transport
        # and the gateway hop are all invisible to the numbers.
        for (tenant, b, tol), got in zip(jobs, results):
            want = sequential_solve(prob, b, tol=tol)
            assert np.array_equal(got.x, want.x)
            assert got.iterations == want.iterations
            assert got.residual_norm == want.residual_norm
        # Zero-copy end to end.
        assert copy_bytes == 0
        # Everything admitted exactly once; quota sums to solved work.
        assert counters["completed"] == len(jobs)
        assert counters["shed"] == 0
        assert sum(charged.values()) == len(jobs)
        # Per-tenant history covers every (tenant, tol) class served.
        served = {(t, tol) for t, _b, tol in jobs}
        assert {
            (tenant, tol) for (tenant, tol, _p) in history
        } == served
        assert sum(c for c, _t in history.values()) == len(jobs)
        # No shared-memory blocks leak past close.
        leaked = set(os.listdir("/dev/shm")) - shm_before
        assert not leaked

    @pytest.mark.timeout(600)
    def test_http_soak_sessions_and_oneshots(
        self, serving_problem, sequential_solve
    ):
        """The same mix through the real wire: steady tenant on one
        WebSocket session, bursty tenants as one-shot POSTs, all
        concurrent over localhost."""
        import base64
        import json

        prob, (b0, *_) = serving_problem
        jobs = build_mix(b0, seed=99, steady=4, bursts=2, burst_size=3)
        flow_jobs = [j for j in jobs if j[0] == "flow"]
        burst_jobs = [j for j in jobs if j[0] != "flow"]

        async def post_solve(port, token, b, tol):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            body = json.dumps(
                {"b": b.tolist(), "tol": tol, "maxiter": 200}
            ).encode()
            writer.write((
                "POST /v1/solve HTTP/1.1\r\nHost: gw\r\n"
                f"Authorization: Bearer {token}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body)
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            payload = json.loads(await reader.readexactly(length))
            writer.close()
            await writer.wait_closed()
            return status, payload

        async def ws_session(port, token, session_jobs):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            key = base64.b64encode(os.urandom(16)).decode()
            writer.write((
                "GET /v1/session HTTP/1.1\r\nHost: gw\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                f"Authorization: Bearer {token}\r\n\r\n"
            ).encode())
            await writer.drain()
            assert b"101" in await reader.readline()
            while (await reader.readline()) not in (b"\r\n", b""):
                pass

            def frame(payload):
                mask = os.urandom(4)
                n = len(payload)
                head = bytes([0x81])
                if n < 126:
                    head += bytes([0x80 | n])
                else:
                    head += bytes([0x80 | 126]) + n.to_bytes(2, "big")
                return head + mask + bytes(
                    c ^ mask[i & 3] for i, c in enumerate(payload)
                )

            for i, (_tenant, b, tol) in enumerate(session_jobs):
                writer.write(frame(json.dumps({
                    "id": i, "b": b.tolist(), "tol": tol,
                    "maxiter": 200,
                }).encode()))
            await writer.drain()
            replies = {}
            while len(replies) < len(session_jobs):
                head = await reader.readexactly(2)
                length = head[1] & 0x7F
                if length == 126:
                    length = int.from_bytes(
                        await reader.readexactly(2), "big"
                    )
                doc = json.loads(await reader.readexactly(length))
                replies[doc["id"]] = doc
            writer.close()
            await writer.wait_closed()
            return replies

        async def run():
            svc = ProcessShardedSolveService(
                prob, workers=2, policy="cost", max_batch=4,
                max_wait=0.002, tol=1e-10, maxiter=200,
            )
            registry = TenantRegistry()
            tokens = {
                tenant: registry.provision(tenant).token
                for tenant in {t for t, _b, _tol in jobs}
            }
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                session_task = asyncio.ensure_future(ws_session(
                    server.port, tokens["flow"], flow_jobs
                ))
                posts = await asyncio.gather(*(
                    post_solve(server.port, tokens[tenant], b, tol)
                    for tenant, b, tol in burst_jobs
                ))
                replies = await session_task
                copy_bytes = svc.stats.copy_bytes
            await gateway.aclose()
            return posts, replies, copy_bytes

        posts, replies, copy_bytes = asyncio.run(run())
        for (tenant, b, tol), (status, payload) in zip(
            burst_jobs, posts
        ):
            assert status == 200
            want = sequential_solve(prob, b, tol=tol)
            # JSON round-trips float64 exactly: bit-identity holds
            # across the network boundary.
            assert np.array_equal(np.asarray(payload["x"]), want.x)
            assert payload["iterations"] == want.iterations
        for i, (_tenant, b, tol) in enumerate(flow_jobs):
            want = sequential_solve(prob, b, tol=tol)
            assert replies[i]["status"] == 200
            assert np.array_equal(
                np.asarray(replies[i]["x"]), want.x
            )
        assert copy_bytes == 0


class SimClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SimTicket:
    def __init__(self):
        self._callbacks = []
        self._done = False
        self._cancelled = False
        self._result = None

    def add_done_callback(self, fn):
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def cancel(self):
        self._cancelled = True
        return True

    def cancelled(self):
        return self._cancelled

    def done(self):
        return self._done

    def exception(self, timeout=None):
        return None

    def result(self, timeout=None):
        return self._result

    def resolve(self, result):
        self._result = result
        self._done = True
        for fn in self._callbacks:
            fn(self)


class SimResult:
    def __init__(self, iterations):
        self.x = np.zeros(1)
        self.iterations = iterations
        self.converged = True
        self.residual_norm = 0.0


class SimBackend:
    """A deterministic service simulator: each request costs
    ``iterations(tol) * seconds_per_iteration`` of simulated time on
    one of ``workers`` servers (earliest-free wins, FIFO)."""

    SECONDS_PER_ITERATION = 0.001

    def __init__(self, clock, workers=2):
        self.clock = clock
        self.free_at = [0.0] * workers
        self.pending = []  # (finish_time, ticket, iterations)

    @property
    def queue_depths(self):
        return tuple(
            sum(1 for t, _ticket, _i in self.pending if t > self.clock.now)
            for _ in self.free_at
        )

    def iterations_for(self, tol):
        return max(int(round(-np.log10(tol) * 10)), 1)

    def submit(self, b, tol=None, maxiter=None, key=None,
               deadline=None, precision=None):
        iterations = self.iterations_for(tol if tol else 1e-10)
        worker = min(range(len(self.free_at)),
                     key=lambda i: self.free_at[i])
        start = max(self.free_at[worker], self.clock.now)
        finish = start + iterations * self.SECONDS_PER_ITERATION
        self.free_at[worker] = finish
        ticket = SimTicket()
        self.pending.append((finish, ticket, iterations))
        return ticket

    try_submit = submit  # never full

    def advance_until_drained(self):
        """Run simulated time forward, resolving tickets in finish
        order — the discrete-event analogue of the dispatcher."""
        while self.pending:
            self.pending.sort(key=lambda item: item[0])
            finish, ticket, iterations = self.pending.pop(0)
            self.clock.now = max(self.clock.now, finish)
            ticket.resolve(SimResult(iterations))

    def close(self):
        pass


def percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class TestGatewayLatencyFakeClock:
    def run_sim(self, seed):
        clock = SimClock()
        backend = SimBackend(clock, workers=2)
        registry = TenantRegistry(clock=clock)
        tokens = {
            t: registry.provision(t).token
            for t in ("flow", "batch0", "batch1")
        }
        gateway = Gateway(
            backend, registry, admission=None
        )
        rng = np.random.default_rng(seed)
        jobs = []
        for _ in range(40):
            tenant = ("flow", "batch0", "batch1")[rng.integers(3)]
            tol = (1e-10, 1e-4, 1e-8)[rng.integers(3)]
            jobs.append((tenant, tol))

        latencies = []

        async def timed(tenant, tol):
            start = clock()
            await gateway.solve(tokens[tenant], np.zeros(1), tol=tol)
            latencies.append(clock() - start)

        async def run():
            tasks = [
                asyncio.ensure_future(timed(tenant, tol))
                for tenant, tol in jobs
            ]
            # Let every submit reach the backend, then drain simulated
            # time.  No wall-clock sleeps measure anything: latency is
            # clock arithmetic.
            while len(backend.pending) < len(jobs):
                await asyncio.sleep(0)
            backend.advance_until_drained()
            await asyncio.gather(*tasks)

        asyncio.run(run())
        return latencies

    def test_p99_bounded_and_reproducible(self):
        latencies = self.run_sim(seed=7)
        assert len(latencies) == 40
        # Analytic bound: 40 requests, worst tol = 1e-10 -> 100 sim
        # iterations each, two servers -> the slowest request waits at
        # most the whole backlog on its server.
        worst_case = 40 * 100 * SimBackend.SECONDS_PER_ITERATION / 2
        p99 = percentile(latencies, 0.99)
        assert 0.0 < p99 <= worst_case
        # Determinism: same seed, same fake clock => bit-equal latency
        # profile.  This is the no-wall-clock-flakiness guarantee.
        assert self.run_sim(seed=7) == latencies

    def test_different_seeds_differ(self):
        # The harness actually exercises seed-dependent paths (guards
        # against a simulator that ignores its workload).
        assert self.run_sim(seed=7) != self.run_sim(seed=8)
