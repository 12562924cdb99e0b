"""Tests for repro.serve.gateway: the admission core (auth -> rate ->
shed -> quota -> deadline -> cost feedback) and the HTTP/WebSocket wire
protocol on top of it."""

from __future__ import annotations

import asyncio
import base64
import json
import os

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    AuthError,
    CostAwareRouter,
    CostModel,
    DeadlineExceeded,
    FleetUnavailable,
    Gateway,
    GatewayServer,
    Overloaded,
    ProcessShardedSolveService,
    QuotaExceeded,
    RateLimited,
    ServiceClosed,
    SolveService,
    Tenant,
    TenantRegistry,
)
from repro.serve.gateway import _WSClose, _ws_read_frame, _ws_unmask


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeTicket:
    """A SolveTicket stand-in that resolves only when told to."""

    def __init__(self):
        self._callbacks = []
        self._done = False
        self._cancelled = False
        self._result = None
        self._error = None

    def add_done_callback(self, fn):
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def cancel(self):
        self._cancelled = True
        self._fire()
        return True

    def cancelled(self):
        return self._cancelled

    def done(self):
        return self._done or self._cancelled

    def exception(self, timeout=None):
        return self._error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result

    def resolve(self, result):
        self._result = result
        self._fire()

    def fail(self, error):
        self._error = error
        self._fire()

    def _fire(self):
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class FakeResult:
    def __init__(self, iterations=10):
        self.x = np.zeros(3)
        self.iterations = iterations
        self.converged = True
        self.residual_norm = 0.0


class FakeBackend:
    """Just enough surface for AsyncSolveService + Gateway: submit,
    close, queue depths.  Tickets resolve on demand."""

    def __init__(self, depths=(0, 0)):
        self.depths = list(depths)
        self.tickets = []
        self.submits = []
        self.submit_error = None

    @property
    def queue_depths(self):
        return tuple(self.depths)

    def submit(self, b, tol=None, maxiter=None, key=None,
               deadline=None, precision=None):
        if self.submit_error is not None:
            raise self.submit_error
        self.submits.append(
            {"key": key, "tol": tol, "deadline": deadline,
             "precision": precision}
        )
        ticket = FakeTicket()
        self.tickets.append(ticket)
        return ticket

    try_submit = submit  # never full

    def close(self):
        pass


def make_gateway(backend=None, clock=None, admission=AdmissionPolicy(),
                 **tenant_kwargs):
    clock = clock if clock is not None else FakeClock()
    registry = TenantRegistry(clock=clock)
    tenant = registry.provision("acme", **tenant_kwargs)
    gateway = Gateway(
        backend if backend is not None else FakeBackend(),
        registry, admission=admission,
    )
    return gateway, tenant, clock


class TestAdmissionPipeline:
    def test_unknown_token_raises_and_counts(self):
        gateway, _tenant, _clock = make_gateway()
        with pytest.raises(AuthError):
            gateway.admit("nope")
        assert gateway.counters["auth_failures"] == 1
        assert gateway.counters["requests"] == 1

    def test_priority_is_capped_not_self_declared(self):
        gateway, tenant, _clock = make_gateway(priority=1)
        _t, effective = gateway.admit(tenant.token, priority=2)
        assert effective == 1
        _t, effective = gateway.admit(tenant.token, priority=0)
        assert effective == 0

    def test_priority_defaults_to_tenant_cap(self):
        gateway, tenant, _clock = make_gateway(priority=2)
        _t, effective = gateway.admit(tenant.token)
        assert effective == 2

    def test_rate_limit_carries_exact_retry_after(self):
        gateway, tenant, _clock = make_gateway(rate=2.0, burst=1)
        gateway.admit(tenant.token)
        with pytest.raises(RateLimited) as excinfo:
            gateway.admit(tenant.token)
        assert excinfo.value.retry_after == pytest.approx(0.5)
        assert gateway.counters["rate_limited"] == 1
        # A rate-limited request never reached the quota ledger.
        assert gateway.ledger.charged("acme") == 1

    def test_rate_limit_recovers_with_the_clock(self):
        gateway, tenant, clock = make_gateway(rate=1.0, burst=1)
        gateway.admit(tenant.token)
        with pytest.raises(RateLimited):
            gateway.admit(tenant.token)
        clock.advance(1.0)
        gateway.admit(tenant.token)

    def test_sheds_before_watermark_with_backoff_hint(self):
        backend = FakeBackend(depths=(5, 5))  # 5/replica, soft limit 4
        gateway, tenant, _clock = make_gateway(
            backend=backend,
            admission=AdmissionPolicy(soft_limit=4, hard_limit=8),
        )
        with pytest.raises(Overloaded) as excinfo:
            gateway.admit(tenant.token, priority=0)
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0.0
        assert gateway.counters["shed"] == 1
        # Shed requests are never charged.
        assert gateway.ledger.charged("acme") == 0

    def test_high_priority_rides_through_the_soft_limit(self):
        backend = FakeBackend(depths=(5, 5))
        gateway, tenant, _clock = make_gateway(
            backend=backend, priority=2,
            admission=AdmissionPolicy(soft_limit=4, hard_limit=8),
        )
        tenant_out, effective = gateway.admit(tenant.token, priority=2)
        assert effective == 2
        assert gateway.counters["shed"] == 0

    def test_quota_exhaustion_is_terminal(self):
        gateway, tenant, _clock = make_gateway(quota=2)
        gateway.admit(tenant.token)
        gateway.admit(tenant.token)
        with pytest.raises(QuotaExceeded):
            gateway.admit(tenant.token)
        assert gateway.counters["quota_exceeded"] == 1
        assert gateway.ledger.charged("acme") == 2

    def test_admission_none_disables_shedding(self):
        backend = FakeBackend(depths=(1000, 1000))
        gateway, tenant, _clock = make_gateway(
            backend=backend, admission=None
        )
        gateway.admit(tenant.token)  # no shed


class TestGatewaySolve:
    @pytest.mark.parametrize("refusal", [
        pytest.param(
            FleetUnavailable("no worker in rotation"), id="unavailable"
        ),
        pytest.param(ServiceClosed("submit on a closed service"), id="closed"),
        pytest.param({"b": np.zeros(3)}, id="mis-sized-rhs"),
        pytest.param({"tol": -1.0}, id="negative-tol"),
        pytest.param({"maxiter": 2.7}, id="fractional-maxiter"),
    ])
    def test_fleet_refusal_refunds_quota(
        self, refusal, serving_problem, fresh_problem
    ):
        """Every refusal a backend still has — no worker in rotation, a
        closed service, and the ValueErrors of a real SolveService's
        request check — is charged at admit and refunded exactly:
        nothing counts as admitted and the counters conserve."""
        _prob, bank = serving_problem
        if isinstance(refusal, Exception):
            backend = FakeBackend()
            backend.submit_error = refusal
            expected, request = type(refusal), {"b": np.zeros(3)}
        else:
            backend = SolveService(
                fresh_problem, max_wait=0.002, background=True
            )
            expected, request = ValueError, {"b": bank[0], **refusal}
        gateway, tenant, _clock = make_gateway(backend=backend, quota=5)

        async def run():
            try:
                with pytest.raises(expected):
                    await gateway.solve(tenant.token, **request)
            finally:
                await gateway.aclose()

        asyncio.run(run())
        counters = gateway.counters
        assert gateway.ledger.charged("acme") == 0
        assert counters["requests"] == 1
        assert counters["admitted"] == 0
        assert counters["admitted"] == (
            counters["completed"] + counters["failed"]
            + counters["expired"]
        )

    def test_completion_records_history_and_cost(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(
                gateway.solve(tenant.token, np.zeros(3), tol=1e-8)
            )
            while not backend.tickets:
                await asyncio.sleep(0.001)
            loop.call_soon(backend.tickets[0].resolve, FakeResult(17))
            return await task

        result = asyncio.run(run())
        assert result.iterations == 17
        assert gateway.counters["completed"] == 1
        hist = gateway.tenant_stats.snapshot().tenant_iterations
        assert hist[("acme", 1e-8, None)] == (1, 17.0)
        assert gateway.cost_model.predict("acme", 1e-8, None) == 17.0

    def test_routes_by_tenant_key_on_sharded_backends(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            task = asyncio.ensure_future(
                gateway.solve(tenant.token, np.zeros(3))
            )
            while not backend.tickets:
                await asyncio.sleep(0.001)
            backend.tickets[0].resolve(FakeResult())
            await task

        asyncio.run(run())
        assert backend.submits[0]["key"] == "acme"

    def test_deadline_expiry_cancels_the_ticket(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            with pytest.raises(DeadlineExceeded):
                # The fake ticket never resolves: the gateway must give
                # up at its own deadline and disown the request.
                await gateway.solve(
                    tenant.token, np.zeros(3), deadline=0.05
                )

        asyncio.run(run())
        assert backend.tickets[0].cancelled()
        assert backend.submits[0]["deadline"] == 0.05
        assert gateway.counters["expired"] == 1

    def test_skips_double_observe_with_cost_router_backend(self):
        model = CostModel()
        backend = FakeBackend()
        backend._router = CostAwareRouter(2, model=model)
        registry = TenantRegistry()
        tenant = registry.provision("acme")
        gateway = Gateway(backend, registry, cost_model=model)
        assert gateway._router_observes
        # A gateway with its *own* model still observes.
        other = Gateway(backend, registry, cost_model=CostModel())
        assert not other._router_observes

    def test_healthz_reports_fleet_shape(self):
        backend = FakeBackend(depths=(1, 2))
        gateway, _tenant, _clock = make_gateway(backend=backend)
        doc = gateway.healthz()
        assert doc["status"] == "ok"
        assert doc["replicas"] == 2
        assert doc["pending"] == 3


async def read_http_response(reader):
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = json.loads(await reader.readexactly(length)) if length else {}
    return status, headers, body


def http_request(method, path, token=None, body=b""):
    lines = [f"{method} {path} HTTP/1.1", "Host: gw"]
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


#: Integer knobs a request document may not carry: out of range,
#: fractional, boolean, a string or a list.
BAD_INTEGER_KNOBS = (
    b'"maxiter": 1e400', b'"priority": 1e400', b'"maxiter": -1e400',
    b'"maxiter": 2.5', b'"maxiter": true', b'"priority": true',
    b'"priority": 0.5', b'"maxiter": "5"', b'"maxiter": [5]',
    b'"maxiter": NaN',
)


#: Request documents whose float fields hold a JSON integer too large
#: for a float64: the rhs, ``tol`` and ``deadline``.
HUGE_INTEGER = b"1" + b"0" * 400
OVERFLOWING_FLOAT_DOCS = (
    b'{"b": [' + HUGE_INTEGER + b"]}",
    b'{"b": [0.0], "tol": ' + HUGE_INTEGER + b"}",
    b'{"b": [0.0], "deadline": ' + HUGE_INTEGER + b"}",
)


def solve_body(b, **knobs):
    doc = {"b": np.asarray(b).tolist(), **knobs}
    return json.dumps(doc).encode()


class TestGatewayHTTP:
    def test_solve_roundtrip_bit_identical(
        self, serving_problem, sequential_solve, fresh_problem
    ):
        _, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body(bank[0], tol=1e-10, maxiter=200),
                ))
                await writer.drain()
                status, _headers, payload = await read_http_response(
                    reader
                )
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return status, payload

        status, payload = asyncio.run(run())
        assert status == 200
        want = sequential_solve(serving_problem[0], serving_problem[1][0])
        # JSON numbers round-trip float64 exactly: bit-identical across
        # the wire, not just close.
        assert np.array_equal(np.asarray(payload["x"]), want.x)
        assert payload["iterations"] == want.iterations
        assert payload["converged"] is True
        assert payload["residual_norm"] == want.residual_norm

    def test_error_statuses_over_http(self):
        backend = FakeBackend(depths=(100,))

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision(
                "acme", rate=1000.0, burst=1, quota=1000
            )
            gateway = Gateway(
                backend, registry,
                admission=AdmissionPolicy(soft_limit=4, hard_limit=8),
            )
            out = {}
            async with GatewayServer(gateway) as server:
                async def roundtrip(raw):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(raw)
                    await writer.drain()
                    response = await read_http_response(reader)
                    writer.close()
                    await writer.wait_closed()
                    return response

                out["no_token"] = await roundtrip(http_request(
                    "POST", "/v1/solve", None, solve_body([0.0])
                ))
                out["bad_token"] = await roundtrip(http_request(
                    "POST", "/v1/solve", "nope", solve_body([0.0])
                ))
                # 401 outranks 400: malformed body + bad token.
                out["bad_both"] = await roundtrip(http_request(
                    "POST", "/v1/solve", "nope", b"{}"
                ))
                out["missing_b"] = await roundtrip(http_request(
                    "POST", "/v1/solve", tenant.token, b"{}"
                ))
                out["not_found"] = await roundtrip(http_request(
                    "GET", "/v1/nope", tenant.token
                ))
                # Deep fake queue (100 pending / 1 replica): shed.
                out["overloaded"] = await roundtrip(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body([0.0]),
                ))
            return out

        out = asyncio.run(run())
        assert out["no_token"][0] == 401
        assert out["bad_token"][0] == 401
        assert out["bad_both"][0] == 401
        assert out["missing_b"][0] == 400
        assert out["not_found"][0] == 404
        status, headers, body = out["overloaded"]
        assert status == 429
        assert body["error"] == "overloaded"
        assert body["retryable"] is True
        assert float(headers["retry-after"]) > 0.0

    def test_bad_integer_knobs_are_400_not_a_dropped_connection(self):
        """Every bad integer knob is a 400 before admission.  Cast with
        ``int()``, ``1e400`` raises ``OverflowError``, which no status
        maps (the connection would close with no reply), and ``2.5`` /
        ``true`` would be solved as 2 / 1."""
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            out = []
            async with GatewayServer(gateway) as server:
                for knob in BAD_INTEGER_KNOBS:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(http_request(
                        "POST", "/v1/solve", tenant.token,
                        b'{"b": [0.0], ' + knob + b"}",
                    ))
                    await writer.drain()
                    out.append(await asyncio.wait_for(
                        read_http_response(reader), 10.0
                    ))
                    writer.close()
                    await writer.wait_closed()
            return out

        for knob, (status, _headers, body) in zip(
            BAD_INTEGER_KNOBS, asyncio.run(run())
        ):
            assert (status, body["error"]) == (400, "bad_request"), knob
        assert backend.submits == []

    def test_float_knobs_too_big_for_a_float_are_400(self):
        """A JSON integer too large for a float64 in ``b``, ``tol`` or
        ``deadline`` is a 400 before admission.  The conversion raises
        ``OverflowError``, which no status maps: unconverted, the
        connection closed with no reply."""
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            out = []
            async with GatewayServer(gateway) as server:
                for doc in OVERFLOWING_FLOAT_DOCS:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(http_request(
                        "POST", "/v1/solve", tenant.token, doc
                    ))
                    await writer.drain()
                    out.append(await asyncio.wait_for(
                        read_http_response(reader), 10.0
                    ))
                    writer.close()
                    await writer.wait_closed()
            return out

        for doc, (status, _headers, body) in zip(
            OVERFLOWING_FLOAT_DOCS, asyncio.run(run())
        ):
            assert (status, body["error"]) == (400, "bad_request"), doc[:30]
        assert backend.submits == []

    def test_rate_limit_and_quota_over_http(self):
        backend = FakeBackend()

        async def run():
            clock = FakeClock()
            registry = TenantRegistry(clock=clock)
            limited = registry.provision("limited", rate=0.5, burst=1)
            metered = registry.provision("metered", quota=0)
            gateway = Gateway(backend, registry)
            out = {}
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )

                async def roundtrip(raw):
                    writer.write(raw)
                    await writer.drain()
                    return await read_http_response(reader)

                # Burst of 1: first admitted (resolve it), second 429.
                first = asyncio.ensure_future(roundtrip(http_request(
                    "POST", "/v1/solve", limited.token,
                    solve_body([0.0]),
                )))
                while not backend.tickets:
                    await asyncio.sleep(0.001)
                backend.tickets[0].resolve(FakeResult())
                out["ok"] = await first
                out["limited"] = await roundtrip(http_request(
                    "POST", "/v1/solve", limited.token,
                    solve_body([0.0]),
                ))
                out["quota"] = await roundtrip(http_request(
                    "POST", "/v1/solve", metered.token,
                    solve_body([0.0]),
                ))
                writer.close()
                await writer.wait_closed()
            return out

        out = asyncio.run(run())
        assert out["ok"][0] == 200
        status, headers, body = out["limited"]
        assert status == 429
        assert body["error"] == "rate_limited"
        assert body["retryable"] is True
        # Bucket at 0.5/s, empty: exactly 2 seconds to the next token.
        assert float(headers["retry-after"]) == pytest.approx(2.0)
        status, _headers, body = out["quota"]
        assert status == 429
        assert body["error"] == "quota_exceeded"
        assert body["retryable"] is False

    def test_deadline_maps_to_504(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body([0.0], deadline=0.05),
                ))
                await writer.drain()
                response = await read_http_response(reader)
                writer.close()
                await writer.wait_closed()
            return response

        status, _headers, body = asyncio.run(run())
        assert status == 504
        assert body["error"] == "deadline_exceeded"
        assert backend.tickets[0].cancelled()

    def test_keep_alive_and_stats_and_healthz(self):
        backend = FakeBackend(depths=(0, 0))
        backend.stats = _FakeFleetStats()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                # One connection, three requests: HTTP/1.1 keep-alive.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )

                async def roundtrip(raw):
                    writer.write(raw)
                    await writer.drain()
                    return await read_http_response(reader)

                health = await roundtrip(
                    http_request("GET", "/v1/healthz")
                )
                denied = await roundtrip(
                    http_request("GET", "/v1/stats")
                )
                stats = await roundtrip(
                    http_request("GET", "/v1/stats", tenant.token)
                )
                writer.close()
                await writer.wait_closed()
            return health, denied, stats

        health, denied, stats = asyncio.run(run())
        assert health[0] == 200
        assert health[2]["status"] == "ok"
        assert health[2]["replicas"] == 2
        assert denied[0] == 401
        assert stats[0] == 200
        assert "gateway" in stats[2]
        assert "fleet" in stats[2]
        assert stats[2]["fleet"]["copy_bytes"] == 0


class _FakeFleetStats:
    submitted = 0
    completed = 0
    failed = 0
    expired = 0
    shed = 0
    queue_depth = 0
    copy_bytes = 0
    solves_per_second = 0.0


def per_byte_unmask(payload, mask):
    """The reference (un)masking — XOR is its own inverse — one Python
    byte at a time, as the gateway did before the XOR was vectorised."""
    return bytes(c ^ mask[i & 3] for i, c in enumerate(payload))


def client_frame(opcode, payload):
    mask = os.urandom(4)
    n = len(payload)
    head = bytes([0x80 | opcode])
    if n < 126:
        head += bytes([0x80 | n])
    elif n < 1 << 16:
        head += bytes([0x80 | 126]) + n.to_bytes(2, "big")
    else:
        head += bytes([0x80 | 127]) + n.to_bytes(8, "big")
    return head + mask + per_byte_unmask(payload, mask)


async def read_frame(reader):
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    return opcode, await reader.readexactly(length)


async def ws_connect(port, token):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    key = base64.b64encode(os.urandom(16)).decode()
    lines = [
        "GET /v1/session HTTP/1.1", "Host: gw",
        "Upgrade: websocket", "Connection: Upgrade",
        f"Sec-WebSocket-Key: {key}",
    ]
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return reader, writer, status, headers


class TestGatewayWebSocket:
    def test_session_pipelines_and_matches(
        self, serving_problem, sequential_solve, fresh_problem
    ):
        _, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("flow")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _headers = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                # Pipeline 4 timesteps without awaiting between sends.
                for i in range(4):
                    doc = {
                        "id": i, "b": bank[i].tolist(),
                        "tol": 1e-10, "maxiter": 200,
                    }
                    writer.write(
                        client_frame(0x1, json.dumps(doc).encode())
                    )
                await writer.drain()
                replies = {}
                while len(replies) < 4:
                    opcode, payload = await read_frame(reader)
                    assert opcode == 0x1
                    doc = json.loads(payload)
                    replies[doc["id"]] = doc
                # Ping keeps the session alive mid-stream.
                writer.write(client_frame(0x9, b"hb"))
                await writer.drain()
                opcode, payload = await read_frame(reader)
                assert opcode == 0xA and payload == b"hb"
                writer.write(
                    client_frame(0x8, (1000).to_bytes(2, "big"))
                )
                await writer.drain()
                opcode, _payload = await read_frame(reader)
                assert opcode == 0x8
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return replies

        replies = asyncio.run(run())
        for i in range(4):
            want = sequential_solve(serving_problem[0], serving_problem[1][i])
            assert replies[i]["status"] == 200
            assert np.array_equal(
                np.asarray(replies[i]["x"]), want.x
            )
            assert replies[i]["iterations"] == want.iterations

    def test_handshake_rejects_bad_token(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                _r, writer, status, _h = await ws_connect(
                    server.port, "nope"
                )
                writer.close()
                await writer.wait_closed()
            return status

        assert asyncio.run(run()) == 401

    def test_session_survives_per_message_errors(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _h = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                # Malformed request: error reply, session stays up.
                writer.write(client_frame(
                    0x1, json.dumps({"id": "bad"}).encode()
                ))
                await writer.drain()
                _op, payload = await read_frame(reader)
                error_reply = json.loads(payload)
                # Valid request on the same session afterwards.
                writer.write(client_frame(0x1, json.dumps(
                    {"id": "good", "b": [0.0, 0.0]}
                ).encode()))
                await writer.drain()
                while not backend.tickets:
                    await asyncio.sleep(0.001)
                backend.tickets[0].resolve(FakeResult(3))
                _op, payload = await read_frame(reader)
                ok_reply = json.loads(payload)
                writer.close()
                await writer.wait_closed()
            return error_reply, ok_reply

        error_reply, ok_reply = asyncio.run(run())
        assert error_reply["id"] == "bad"
        assert error_reply["status"] == 400
        assert ok_reply["id"] == "good"
        assert ok_reply["status"] == 200
        assert ok_reply["iterations"] == 3

    def test_bad_integer_knobs_get_a_400_reply(self):
        """Over a session a bad integer knob is the client's error: a
        400 on the request's own id (an unmapped ``OverflowError``
        would be a 500 ``internal``), and the session stays up for the
        next frame."""
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _h = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                for i, knob in enumerate(BAD_INTEGER_KNOBS):
                    writer.write(client_frame(0x1, (
                        f'{{"id": {i}, "b": [0.0], '.encode() + knob + b"}"
                    )))
                await writer.drain()
                replies = {}
                while len(replies) < len(BAD_INTEGER_KNOBS):
                    _op, payload = await asyncio.wait_for(
                        read_frame(reader), 10.0
                    )
                    reply = json.loads(payload)
                    replies[reply["id"]] = reply
                writer.close()
                await writer.wait_closed()
            return replies

        replies = asyncio.run(run())
        for i, knob in enumerate(BAD_INTEGER_KNOBS):
            got = (replies[i]["status"], replies[i]["error"])
            assert got == (400, "bad_request"), knob
        assert backend.submits == []


    def test_float_knobs_too_big_for_a_float_get_a_400_reply(self):
        """Over a session, a JSON integer too large for a float64 in
        ``b``, ``tol`` or ``deadline`` is a 400 on the request's own id
        (unconverted, the ``OverflowError`` was a 500 ``internal``)."""
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _h = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                for i, doc in enumerate(OVERFLOWING_FLOAT_DOCS):
                    writer.write(client_frame(
                        0x1, f'{{"id": {i}, '.encode() + doc[1:]
                    ))
                await writer.drain()
                replies = {}
                while len(replies) < len(OVERFLOWING_FLOAT_DOCS):
                    _op, payload = await asyncio.wait_for(
                        read_frame(reader), 10.0
                    )
                    reply = json.loads(payload)
                    replies[reply["id"]] = reply
                writer.close()
                await writer.wait_closed()
            return replies

        replies = asyncio.run(run())
        for i, doc in enumerate(OVERFLOWING_FLOAT_DOCS):
            got = (replies[i]["status"], replies[i]["error"])
            assert got == (400, "bad_request"), doc[:30]
        assert backend.submits == []


FRAME_LENGTHS = (
    0, 1, 2, 3, 4, 5, 125, 126, 127, 65_535, 65_536, 1 << 20,
)


class TestWebSocketFrames:
    @pytest.mark.parametrize("length", FRAME_LENGTHS)
    def test_unmask_equals_per_byte_reference(self, length):
        rng = np.random.default_rng([0x6455, length])
        payload = rng.bytes(length)
        masks = [rng.bytes(4) for _ in range(3)] + [
            b"\x00\x00\x00\x00", b"\x00\xff\x00\x5a", b"\x9c\x00\x00\x01",
        ]
        for mask in masks:
            got = _ws_unmask(payload, mask)
            assert type(got) is bytes
            assert got == per_byte_unmask(payload, mask)

    @pytest.mark.parametrize("length", FRAME_LENGTHS)
    def test_read_frame_roundtrip_at_length_boundaries(self, length):
        """Every length encoding (7-bit, 16-bit, 64-bit) parses back to
        the payload, with the next frame still aligned behind it."""
        rng = np.random.default_rng([0x6456, length])
        payload = rng.bytes(length)

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(client_frame(0x2, payload))
            reader.feed_data(client_frame(0x9, b"next"))
            reader.feed_eof()
            first = await _ws_read_frame(reader, 1 << 20)
            second = await _ws_read_frame(reader, 1 << 20)
            return first, second

        first, second = asyncio.run(run())
        assert first == (0x2, payload)
        assert second == (0x9, b"next")

    def test_cap_is_checked_on_the_declared_length(self):
        """A 64-bit length over the cap is refused from the header
        alone: the payload is never awaited, let alone buffered."""

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                bytes([0x81, 0x80 | 127]) + (1 << 62).to_bytes(8, "big")
            )
            with pytest.raises(_WSClose) as caught:
                await _ws_read_frame(reader, 4096)
            return caught.value.payload

        assert asyncio.run(run())[:2] == (1009).to_bytes(2, "big")

    @pytest.mark.parametrize("length", (126, 1 << 20))
    def test_control_frames_are_capped_at_125_bytes(self, length):
        """RFC 6455 section 5.5: a ping over 125 bytes is refused (1002)
        from its header alone, however far under the cap it is, and not
        echoed as an equally large pong; 125 bytes still pass."""

        async def run(size):
            reader = asyncio.StreamReader()
            reader.feed_data(client_frame(0x9, bytes(size)))
            reader.feed_eof()
            try:
                return await _ws_read_frame(reader, 8 << 20)
            except _WSClose as exc:
                return exc.payload

        refused = asyncio.run(run(length))
        assert refused[:2] == (1002).to_bytes(2, "big")
        assert asyncio.run(run(125)) == (0x9, bytes(125))

    @pytest.mark.parametrize("bad_frame, status", [
        pytest.param(
            bytes([0x81, 0x80 | 127]) + (1 << 62).to_bytes(8, "big")
            + b"mask",
            1009, id="oversized-64bit",
        ),
        pytest.param(
            bytes([0x81, 0x80 | 126]) + (60_000).to_bytes(2, "big")
            + b"mask",
            1009, id="oversized-16bit",
        ),
        pytest.param(bytes([0x81, 5]) + b"hello", 1002, id="unmasked"),
        pytest.param(
            bytes([0x01, 0x80 | 5]) + b"\0\0\0\0hello", 1003,
            id="fragment-fin-clear",
        ),
        pytest.param(
            bytes([0x80, 0x80 | 5]) + b"\0\0\0\0hello", 1003,
            id="continuation",
        ),
        pytest.param(client_frame(0x9, bytes(126)), 1002,
                     id="ping-over-125-bytes"),
        pytest.param(client_frame(0x8, b"\x03"), 1002,
                     id="close-of-one-byte"),
    ])
    def test_unservable_frame_closes_session_cleanly(
        self, serving_problem, bad_frame, status, sequential_solve,
        fresh_problem
    ):
        """In-flight replies go out, then the typed close, then EOF;
        the frame behind the bad one is never served, no task is left
        pending and the gateway counters still conserve."""
        prob, bank = serving_problem

        def request(i):
            return client_frame(0x1, json.dumps({
                "id": i, "b": bank[i].tolist(), "tol": 1e-10,
                "maxiter": 200,
            }).encode())

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("flow")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway, max_body=50_000) as server:
                reader, writer, http_status, _h = await ws_connect(
                    server.port, tenant.token
                )
                assert http_status == 101
                writer.write(
                    request(0) + request(1) + request(2) + bad_frame
                    + request(3)
                )
                await writer.drain()
                replies = {}
                while True:
                    opcode, payload = await read_frame(reader)
                    if opcode == 0x8:
                        break
                    doc = json.loads(payload)
                    replies[doc["id"]] = doc
                try:
                    rest = await reader.read()
                except ConnectionError:
                    # The server closed with our last frame unread, so
                    # the kernel may answer with a reset, not a FIN.
                    rest = b""
                writer.close()
                await writer.wait_closed()
                # The session handler has returned by the time its
                # socket reads EOF; give the loop one turn to retire it.
                await asyncio.sleep(0.01)
                stranded = [
                    t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task() and not t.done()
                ]
            await gateway.aclose()
            return replies, payload, rest, stranded, gateway.counters

        replies, close, rest, stranded, counters = asyncio.run(run())
        assert int.from_bytes(close[:2], "big") == status
        assert rest == b""  # nothing follows the close frame
        assert stranded == []
        assert sorted(replies) == [0, 1, 2]
        for i, doc in replies.items():
            want = sequential_solve(prob, bank[i])
            assert doc["status"] == 200
            assert np.array_equal(np.asarray(doc["x"]), want.x)
        assert counters["admitted"] == 3
        assert counters["admitted"] == (
            counters["completed"] + counters["failed"]
            + counters["expired"]
        )

    def test_client_close_is_answered_after_inflight_replies(
        self, serving_problem, fresh_problem
    ):
        """No data frame may follow a close frame (RFC 6455 5.5.1): a
        close sent with solves outstanding is echoed only once their
        replies are out."""
        _, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("flow")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, _status, _h = await ws_connect(
                    server.port, tenant.token
                )
                for i in range(2):
                    writer.write(client_frame(0x1, json.dumps(
                        {"id": i, "b": bank[i].tolist()}
                    ).encode()))
                writer.write(
                    client_frame(0x8, (1000).to_bytes(2, "big"))
                )
                await writer.drain()
                opcodes = []
                while not opcodes or opcodes[-1] != 0x8:
                    opcode, payload = await read_frame(reader)
                    opcodes.append(opcode)
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return opcodes, payload

        opcodes, close = asyncio.run(run())
        assert opcodes == [0x1, 0x1, 0x8]
        assert close == (1000).to_bytes(2, "big")


class TestGatewayOverShardedFleet:
    def test_multi_tenant_traffic_bit_identical(
        self, serving_problem, sequential_solve
    ):
        prob, bank = serving_problem

        async def run():
            model = CostModel()
            router = CostAwareRouter(2, model=model)
            svc = ProcessShardedSolveService(
                prob, workers=2, policy=router, max_batch=4,
                max_wait=0.002,
            )
            registry = TenantRegistry()
            tenants = [
                registry.provision(f"tenant{k}", priority=k % 3)
                for k in range(3)
            ]
            gateway = Gateway(svc, registry, cost_model=model)
            jobs = [(tenants[i % 3], bank[i]) for i in range(8)]
            results = await asyncio.gather(*(
                gateway.solve(t.token, b, tol=1e-10, maxiter=200)
                for t, b in jobs
            ))
            counters = gateway.counters
            charged = gateway.ledger.totals()
            await gateway.aclose()
            return results, counters, charged

        results, counters, charged = asyncio.run(run())
        for b, got in zip(serving_problem[1], results):
            want = sequential_solve(serving_problem[0], b)
            assert np.array_equal(got.x, want.x)
            assert got.iterations == want.iterations
        assert counters["completed"] == len(results)
        # Quota exactness: everything admitted, nothing refunded.
        assert sum(charged.values()) == len(results)
