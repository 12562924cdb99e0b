#!/usr/bin/env python
"""Multi-tenant gateway: auth, SLOs, and cost-predicted scheduling.

The serving stack below the gateway speaks *tickets*; the gateway is
the front door that makes it safe to share between tenants.  This demo
runs the full admission pipeline end to end:

1. provision two tenants against a :class:`~repro.serve.TenantRegistry`
   — ``flow`` (interactive: priority 2, unmetered) and ``batch``
   (throughput: rate-limited, hard quota) — and stand a
   :class:`~repro.serve.Gateway` over a K=2
   :class:`~repro.serve.ProcessShardedSolveService` with the ``"cost"``
   routing policy,
2. drive concurrent solves for both tenants through
   :meth:`~repro.serve.Gateway.solve` and assert every result is
   **bit-identical** to a sequential warm ``cg_solve``,
3. show the refusal taxonomy doing its job: the rate limiter bounces
   the batch tenant's burst with an *exact* ``retry_after`` hint, the
   quota ledger refuses work past the cap (and charges exactly the
   admitted solves), and a bad token never learns anything but 401,
4. serve the same solves over the wire — a stdlib HTTP/1.1 ``POST
   /v1/solve`` round-trip plus ``/v1/healthz`` and ``/v1/stats`` — via
   :class:`~repro.serve.GatewayServer` on a loopback port,
5. read back what the :class:`~repro.serve.CostModel` learned: per
   (tenant, tol) expected iterations, the signal the ``"cost"`` router
   balances by.

Run:  PYTHONPATH=src python examples/serve_gateway.py
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem import sine_manufactured
from repro.serve import (
    AdmissionPolicy,
    Gateway,
    GatewayServer,
    ProcessShardedSolveService,
    QuotaExceeded,
    RateLimited,
    TenantRegistry,
)


def build_problem():
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2))
    problem = PoissonProblem(mesh)
    _, forcing = sine_manufactured(mesh.extent)
    b0 = problem.rhs_from_forcing(forcing)
    requests = [b0 * (1.0 + 0.25 * k) for k in range(12)]
    return problem, requests


def sequential(problem, b, tol):
    return cg_solve(
        problem.apply_A, b, precond_diag=problem.precond_diag(),
        tol=tol, maxiter=200, workspace=problem.workspace,
    )


async def http_solve(port, token, b, tol):
    """One stdlib HTTP/1.1 POST /v1/solve round-trip."""
    body = json.dumps(
        {"b": np.asarray(b).tolist(), "tol": tol, "maxiter": 200}
    ).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((
        "POST /v1/solve HTTP/1.1\r\nHost: gw\r\n"
        f"Authorization: Bearer {token}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = json.loads(
        await reader.readexactly(int(headers.get("content-length", 0)))
    )
    writer.close()
    await writer.wait_closed()
    return status, payload


async def main() -> None:
    problem, requests = build_problem()

    registry = TenantRegistry()
    flow = registry.provision("flow", priority=2)
    batch = registry.provision(
        "batch", rate=50.0, burst=4, quota=len(requests) + 4
    )

    svc = ProcessShardedSolveService(
        problem, workers=2, policy="cost", max_batch=4, max_wait=0.002,
        tol=1e-10, maxiter=200,
    )
    gateway = Gateway(
        svc, registry,
        admission=AdmissionPolicy(soft_limit=32, hard_limit=64),
    )

    # -- concurrent multi-tenant traffic, bit-identical ---------------
    flow_jobs = [
        gateway.solve(flow.token, b, tol=1e-10, maxiter=200)
        for b in requests[:8]
    ]
    batch_jobs = [
        gateway.solve(batch.token, b, tol=1e-2, maxiter=200)
        for b in requests[8:]
    ]
    results = await asyncio.gather(*flow_jobs, *batch_jobs)
    for b, got in zip(requests[:8], results[:8]):
        want = sequential(problem, b, 1e-10)
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
    for b, got in zip(requests[8:], results[8:]):
        want = sequential(problem, b, 1e-2)
        assert np.array_equal(got.x, want.x)
    print(f"[gateway] {len(results)} solves, 2 tenants: bit-identical")

    # -- the refusal taxonomy -----------------------------------------
    # The batch tenant's bucket holds burst=4 tokens; the 4 solves just
    # served drained it faster than rate=50/s refills, so a tight burst
    # trips the limiter with an exact, deterministic retry hint.
    hits, hint = 0, None
    for _ in range(8):
        try:
            gateway.admit(batch.token)
            gateway.refund(batch)  # undo the probe's quota charge
        except RateLimited as exc:
            hits += 1
            hint = exc.retry_after
        except QuotaExceeded:
            break
    assert hits > 0 and hint is not None and hint > 0.0
    print(f"[gateway] rate limiter: {hits} bounced, "
          f"retry_after={hint:.4f}s")

    charged = gateway.ledger.charged("batch")
    assert charged == len(requests) - 8, charged  # exactly the solves
    try:
        registry.authenticate("not-a-token")
        raise AssertionError("bad token authenticated")
    except Exception as exc:
        assert type(exc).__name__ == "AuthError"
    print(f"[gateway] quota ledger: batch charged exactly {charged}")

    # -- over the wire -------------------------------------------------
    async with GatewayServer(gateway) as server:
        status, payload = await http_solve(
            server.port, flow.token, requests[0], 1e-10
        )
        assert status == 200
        want = sequential(problem, requests[0], 1e-10)
        got_x = np.asarray(payload["x"], dtype=np.float64)
        assert np.array_equal(got_x, want.x)  # JSON floats round-trip
        assert payload["iterations"] == want.iterations

        status, _ = await http_solve(
            server.port, "wrong-token", requests[0], 1e-10
        )
        assert status == 401

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: gw\r\n\r\n")
        await writer.drain()
        health_status = int((await reader.readline()).split()[1])
        writer.close()
        await writer.wait_closed()
        assert health_status == 200
        print(f"[gateway] wire: POST /v1/solve bit-identical over "
              f"JSON, 401 on bad token, healthz on :{server.port}")

    # -- what the cost model learned ----------------------------------
    snapshot = gateway.cost_model.snapshot()
    learned = {
        (tenant, tol): (count, round(mean, 1))
        for (tenant, tol, _prec), (count, mean) in snapshot.items()
        if tenant in ("flow", "batch")
    }
    assert ("flow", 1e-10) in learned and ("batch", 1e-2) in learned
    tight = learned[("flow", 1e-10)][1]
    loose = learned[("batch", 1e-2)][1]
    assert tight > loose  # tighter tolerance costs more iterations
    print(f"[gateway] cost model: flow@1e-10 ~{tight} iters, "
          f"batch@1e-2 ~{loose} iters — the signal 'cost' routes by")

    await gateway.aclose()
    print("[gateway] OK")


if __name__ == "__main__":
    asyncio.run(main())
