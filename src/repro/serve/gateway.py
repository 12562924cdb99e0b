"""The multi-tenant network front door of the serving fleet.

Every tier below this one trusts its caller: :class:`~repro.serve.
service.SolveService` and the shards assume an in-process client that
plays fair, and :class:`~repro.serve.asyncio_front.AsyncSolveService`
only changes the calling convention.  :class:`Gateway` is where the
"millions of users" tier starts — the first layer that *doesn't* trust
the caller, and therefore the layer that owns tenancy:

1. **Authentication** — bearer tokens resolved through a
   :class:`~repro.serve.auth.TenantRegistry` (401 for strangers).
2. **Rate limiting** — per-tenant deterministic token buckets; an
   empty bucket refuses with the exact seconds until refill
   (:class:`~repro.serve.errors.RateLimited`, HTTP 429 +
   ``Retry-After``).
3. **Admission control** — an :class:`~repro.serve.health.
   AdmissionPolicy`, the stack's one shed point, sheds load
   priority-aware (background traffic sheds first, interactive last),
   returning retryable :class:`~repro.serve.errors.Overloaded` with a
   deterministic backoff hint instead of queueing the fleet into
   timeout storms.
4. **Quota accounting** — a :class:`~repro.serve.auth.QuotaLedger`
   charged before a request is handed to the fleet and refunded
   exactly when the backend refuses it, so charged totals equal
   admitted work to the unit.
5. **Deadline propagation** — a request's time budget rides the
   existing ``deadline=`` machinery down to the workers *and* is
   enforced gateway-side: a reply that misses its budget is answered
   504 and the underlying ticket is cancelled (drop-only; the staged
   ring slot is reclaimed by the process shard's deadline watchdog).
6. **Cost-predicted scheduling** — completed solves feed a
   :class:`~repro.serve.costmodel.CostModel` (actual iterations per
   ``(tenant, tol, precision)``) and the per-tenant history behind
   :attr:`~repro.serve.stats.StatsSnapshot.tenant_iterations`; share
   the model with a :class:`~repro.serve.costmodel.CostAwareRouter` on
   the backend and routing places requests by *predicted work* instead
   of queue depth.

The protocol layer (:class:`GatewayServer`) is a dependency-free
asyncio HTTP/1.1 + WebSocket server: ``POST /v1/solve`` for one-shot
requests, ``GET /v1/session`` upgrading to an RFC 6455 WebSocket for
long-lived flow-solver sessions (one solve per timestep, pipelined —
requests in one session may resolve out of order and are matched by
client-chosen ``id``), ``GET /v1/healthz`` and ``GET /v1/stats`` for
operators.  Solutions cross the wire as JSON numbers, which round-trip
``float64`` exactly (``repr``-based encoding), so the end-to-end
bit-identity contract — gateway result == sequential warm
:func:`~repro.sem.cg.cg_solve` — holds across the network boundary,
not just in memory.

The core (:class:`Gateway`) is protocol-independent and reads time only
through its registry (``TenantRegistry(clock=...)``), so the whole
admission pipeline is testable without sockets and without wall-clock
flakiness.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import threading

import numpy as np

from repro.sem.cg import check_integral
from repro.serve.asyncio_front import AsyncSolveService
from repro.serve.auth import QuotaLedger, Tenant, TenantRegistry
from repro.serve.costmodel import CostAwareRouter, CostModel
from repro.serve.errors import (
    AuthError,
    DeadlineExceeded,
    FleetUnavailable,
    Overloaded,
    QuotaExceeded,
    RateLimited,
    ServiceClosed,
)
from repro.serve.health import AdmissionPolicy
from repro.serve.stats import ServiceStats

__all__ = ["Gateway", "GatewayServer"]

#: RFC 6455 magic GUID for the Sec-WebSocket-Accept digest.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Counter names the gateway tracks (in reporting order).
_COUNTERS = (
    "requests", "auth_failures", "rate_limited", "quota_exceeded",
    "shed", "admitted", "completed", "failed", "expired",
)


class Gateway:
    """Protocol-independent multi-tenant admission core.

    Parameters
    ----------
    service:
        The backend — an :class:`~repro.serve.asyncio_front.
        AsyncSolveService`, or any solve service (plain, sharded,
        process-sharded), which is wrapped in one.  The gateway does
        not own the backend's lifecycle unless you close it through
        :meth:`aclose`.
    registry:
        The :class:`~repro.serve.auth.TenantRegistry` of provisioned
        tenants.
    admission:
        The :class:`~repro.serve.health.AdmissionPolicy`; the default
        policy sheds priority-0 load at 8 pending requests per healthy
        replica.  ``None`` disables shedding.
    cost_model:
        The :class:`~repro.serve.costmodel.CostModel` fed by completed
        solves.  Pass the same instance to a backend
        :class:`~repro.serve.costmodel.CostAwareRouter` so routing
        predictions warm up from gateway observations; when the
        backend's router is a cost-aware router over this same model,
        it observes on its own and the gateway skips the duplicate
        model update (the per-tenant stats history is recorded either
        way).

    Thread safety / loop affinity
    -----------------------------
    :meth:`solve` must run on one event loop (the usual asyncio rule);
    counters are lock-guarded because completion hooks fire on
    dispatcher threads.
    """

    def __init__(
        self,
        service,
        registry: TenantRegistry,
        admission: AdmissionPolicy | None = AdmissionPolicy(),
        cost_model: CostModel | None = None,
    ) -> None:
        if isinstance(service, AsyncSolveService):
            self.async_service = service
        else:
            self.async_service = AsyncSolveService(service)
        self.backend = self.async_service.service
        self.registry = registry
        self.admission = admission
        self.cost_model = (
            cost_model if cost_model is not None else CostModel()
        )
        self.ledger = QuotaLedger()
        #: Per-tenant iteration history (the
        #: ``StatsSnapshot.tenant_iterations`` source for this fleet).
        self.tenant_stats = ServiceStats()
        # The backend router observes into its own model when it is
        # cost-aware; observing the same completion into the same model
        # twice would double-weight it.
        router = getattr(self.backend, "_router", None)
        self._router_observes = (
            isinstance(router, CostAwareRouter)
            and router.model is self.cost_model
        )
        # Sharded backends route by key (tenant affinity); a plain
        # SolveService takes no `key` argument at all.
        self._routes_by_key = (
            getattr(self.backend, "queue_depths", None) is not None
        )
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in _COUNTERS}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------
    def _fleet_load(self) -> tuple[int, int]:
        """``(total pending requests, healthy replica count)`` of the
        backend, across the tiers' different introspection surfaces."""
        depths = getattr(self.backend, "queue_depths", None)
        if depths is None:
            total = int(getattr(self.backend, "queue_depth", 0))
            replicas = 1
        else:
            total = int(sum(depths))
            replicas = len(depths)
        health = getattr(self.backend, "health", None)
        healthy = replicas if health is None else health.healthy_count
        return total, healthy

    def healthz(self) -> dict:
        """Liveness/readiness payload (no auth required)."""
        total, healthy = self._fleet_load()
        depths = getattr(self.backend, "queue_depths", None)
        replicas = 1 if depths is None else len(depths)
        return {
            "status": "ok" if healthy > 0 else "unavailable",
            "healthy_replicas": healthy,
            "replicas": replicas,
            "pending": total,
        }

    @property
    def counters(self) -> dict[str, int]:
        """Point-in-time copy of the gateway counters."""
        with self._lock:
            return dict(self._counters)

    # census: outside input: the GET /v1/stats handler
    def stats_payload(self) -> dict:
        """The ``/v1/stats`` document: gateway counters, quota totals,
        per-tenant iteration history, and the backend fleet summary."""
        fleet = self.backend.stats
        history = self.tenant_stats.snapshot().tenant_iterations
        return {
            "gateway": self.counters,
            "quota_charged": self.ledger.totals(),
            "tenant_iterations": [
                {
                    "tenant": tenant,
                    "tol": tol,
                    "precision": precision,
                    "count": count,
                    "iterations_sum": total,
                }
                for (tenant, tol, precision), (count, total)
                in sorted(history.items(), key=repr)
            ],
            "fleet": {
                "submitted": fleet.submitted,
                "completed": fleet.completed,
                "failed": fleet.failed,
                "expired": fleet.expired,
                "queue_depth": fleet.queue_depth,
                "copy_bytes": fleet.copy_bytes,
                "solves_per_second": fleet.solves_per_second,
            },
        }

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    # ------------------------------------------------------------------
    # The admission pipeline
    # ------------------------------------------------------------------
    def admit(
        self,
        token: str | None,
        priority: int | None = None,
    ) -> tuple[Tenant, int]:
        """Run the pre-submit pipeline for one request: authenticate,
        rate-limit, shed, charge quota.

        Returns ``(tenant, effective_priority)`` on admission, with the
        quota already charged (callers that then fail to hand the
        request to the fleet must :meth:`refund`).  The effective
        priority is the requested one capped by the tenant's
        provisioned :attr:`~repro.serve.auth.Tenant.priority` — tenants
        cannot self-declare importance.

        Raises
        ------
        ~repro.serve.errors.AuthError
            Unknown/missing token.
        ~repro.serve.errors.RateLimited
            Token bucket empty (``retry_after`` carries the refill
            time).
        ~repro.serve.errors.Overloaded
            Admission policy shed the request (``retry_after`` carries
            the backoff hint).
        ~repro.serve.errors.QuotaExceeded
            The tenant's admitted-work quota is exhausted.
        """
        self._count("requests")
        try:
            tenant = self.registry.authenticate(token)
        except AuthError:
            self._count("auth_failures")
            raise
        requested = tenant.priority if priority is None else int(priority)
        effective = min(requested, tenant.priority)
        if self.admission is not None:
            effective = self.admission.clamp_priority(effective)
        bucket = self.registry.bucket(tenant)
        if bucket is not None:
            ok, retry_after = bucket.acquire()
            if not ok:
                self._count("rate_limited")
                raise RateLimited(
                    f"tenant {tenant.tenant_id!r} exceeded its rate of "
                    f"{tenant.rate}/s; retry in {retry_after:.3f}s",
                    retry_after,
                )
        if self.admission is not None:
            total, healthy = self._fleet_load()
            if self.admission.should_shed(total, healthy, effective):
                self._count("shed")
                error = Overloaded(
                    f"gateway shed priority-{effective} request: "
                    f"{total} pending across {healthy} healthy "
                    "replica(s); retry after backoff"
                )
                error.retry_after = self.admission.retry_after(
                    total, healthy, effective
                )
                raise error
        try:
            self.ledger.charge(tenant)
        except QuotaExceeded:
            self._count("quota_exceeded")
            raise
        return tenant, effective

    def refund(self, tenant: Tenant) -> None:
        """Return one quota charge for a request the fleet refused
        after :meth:`admit` (keeps charged == admitted exact)."""
        self.ledger.refund(tenant)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def solve(
        self,
        token: str | None,
        b,
        tol: float | None = None,
        maxiter: int | None = None,
        deadline: float | None = None,
        precision: str | None = None,
        priority: int | None = None,
    ):
        """Serve one authenticated solve end to end.

        Parameters
        ----------
        token:
            The tenant's bearer token.
        b:
            Right-hand side, shape ``(n_dofs,)``.
        tol / maxiter / precision:
            Per-request solve knobs (service defaults apply when
            omitted), validated by the backend at submit.
        deadline:
            Time budget in seconds (``None``: unbounded).  Propagated
            into the fleet's ``deadline=`` machinery *and* enforced
            here: a reply that misses the budget raises
            :class:`~repro.serve.errors.DeadlineExceeded` and the
            underlying ticket is cancelled (drop-only — its batch is
            undisturbed; a staged ring slot is reclaimed by the
            process shard's watchdog).
        priority:
            Requested priority, capped by the tenant's provisioned
            priority.

        Returns
        -------
        ~repro.sem.cg.CGResult
            Bit-identical to a sequential warm solve of the same
            system.
        """
        tenant, effective = self.admit(token, priority)
        try:
            future = await self.async_service.submit(
                b, tol=tol, maxiter=maxiter,
                key=tenant.tenant_id if self._routes_by_key else None,
                deadline=deadline, precision=precision,
            )
        except BaseException:
            # The backend refused after the charge (unavailable, closed,
            # a request it rejects): the work was never admitted, so the
            # quota must not count it.
            self.refund(tenant)
            raise
        self._count("admitted")
        try:
            if deadline is not None:
                result = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline
                )
            else:
                result = await future
        except (TimeoutError, asyncio.TimeoutError):
            # Gateway-side expiry: disown the request.  Cancelling the
            # ticket (not just the future) is what lets the process
            # shard's watchdog reclaim the staged ring slot of a
            # request that will never be read.
            ticket = getattr(future, "solve_ticket", None)
            if ticket is not None:
                ticket.cancel()
            future.cancel()
            self._count("expired")
            raise DeadlineExceeded(
                f"no reply within the {deadline:.3f}s budget; the "
                "request was disowned"
            ) from None
        except DeadlineExceeded:
            self._count("expired")
            raise
        except BaseException:
            self._count("failed")
            raise
        self._count("completed")
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            self.tenant_stats.record_tenant(
                tenant.tenant_id, tol, precision, iterations
            )
            if not self._router_observes:
                self.cost_model.observe(
                    tenant.tenant_id, tol, precision, iterations
                )
        return result

    async def aclose(self) -> None:
        """Drain and close the backend (via the async facade)."""
        await self.async_service.aclose()


# ----------------------------------------------------------------------
# Wire protocol: HTTP/1.1 + WebSocket, stdlib only
# ----------------------------------------------------------------------
class _HTTPRequest:
    """One parsed HTTP/1.1 request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def bearer_token(self) -> str | None:
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None


async def _read_http_request(
    reader: asyncio.StreamReader, max_body: int
) -> _HTTPRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    if length > max_body:
        raise ValueError(
            f"request body of {length} bytes exceeds the "
            f"{max_body}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return _HTTPRequest(method, path, headers, body)


def _http_response(
    status: int,
    payload: dict,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    reasons = {
        200: "OK", 400: "Bad Request", 401: "Unauthorized",
        404: "Not Found", 429: "Too Many Requests",
        500: "Internal Server Error", 503: "Service Unavailable",
        504: "Gateway Timeout",
    }
    body = json.dumps(payload).encode()
    headers = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


def _error_payload(exc: BaseException) -> tuple[int, dict, dict]:
    """Map a taxonomy error to ``(status, body, extra_headers)``.

    Clients see exactly two shapes of refusal: retryable (429/503 with
    a ``Retry-After`` hint where one exists) and terminal (400/401/
    429-quota/504) — never an internal error class name they'd have to
    parse.
    """
    retry_headers: dict[str, str] = {}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        retry_headers["Retry-After"] = f"{max(retry_after, 0.0):.3f}"
    if isinstance(exc, AuthError):
        return 401, {"error": "unauthenticated", "detail": str(exc)}, {}
    if isinstance(exc, RateLimited):
        return 429, {
            "error": "rate_limited", "retryable": True,
            "detail": str(exc),
        }, retry_headers
    if isinstance(exc, QuotaExceeded):
        return 429, {
            "error": "quota_exceeded", "retryable": False,
            "detail": str(exc),
        }, {}
    if isinstance(exc, Overloaded):
        return 429, {
            "error": "overloaded", "retryable": True,
            "detail": str(exc),
        }, retry_headers
    if isinstance(exc, FleetUnavailable):
        return 503, {
            "error": "fleet_unavailable", "retryable": True,
            "detail": str(exc),
        }, retry_headers
    if isinstance(exc, ServiceClosed):
        return 503, {
            "error": "service_closed", "retryable": False,
            "detail": str(exc),
        }, {}
    if isinstance(exc, DeadlineExceeded):
        return 504, {
            "error": "deadline_exceeded", "retryable": False,
            "detail": str(exc),
        }, {}
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return 400, {"error": "bad_request", "detail": str(exc)}, {}
    return 500, {"error": "internal", "detail": str(exc)}, {}


def _result_payload(result) -> dict:
    """JSON-encode one solve outcome.  JSON numbers round-trip float64
    exactly, so the bit-identity contract survives the wire."""
    payload = {
        "x": np.asarray(result.x).tolist(),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "residual_norm": float(result.residual_norm),
    }
    sweeps = getattr(result, "sweeps", None)
    if sweeps is not None:
        payload["sweeps"] = int(sweeps)
    return payload


def _solve_kwargs(doc: dict) -> dict:
    """Extract/validate the solve knobs of one request document.

    JSON integers are unbounded: one too large for a float64 is a
    ``ValueError`` (a 400) like any other bad value, not the
    ``OverflowError`` the conversion raises.
    """
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    if "b" not in doc:
        raise ValueError("request is missing the rhs field 'b'")
    try:
        kwargs = {"b": np.asarray(doc["b"], dtype=np.float64)}
        for knob in ("tol", "deadline"):
            if doc.get(knob) is not None:
                kwargs[knob] = float(doc[knob])
    except OverflowError as exc:
        raise ValueError(f"number out of float64 range: {exc}") from None
    for knob in ("maxiter", "priority"):
        value = doc.get(knob)
        if value is not None:
            if np.ndim(value):
                raise ValueError(f"{knob} must be a number, got {value!r}")
            kwargs[knob] = int(check_integral(value, knob))
    if doc.get("precision") is not None:
        kwargs["precision"] = str(doc["precision"])
    return kwargs


class GatewayServer:
    """Asyncio TCP front end speaking HTTP/1.1 + WebSocket.

    Endpoints
    ---------
    ``POST /v1/solve``
        One-shot solve.  JSON body ``{"b": [...], "tol":?, "maxiter":?,
        "deadline":?, "precision":?, "priority":?}``; bearer token in
        ``Authorization``.  200 with the solution, or the error shapes
        of :func:`_error_payload`.
    ``GET /v1/session``
        WebSocket upgrade (authenticated at the handshake).  Each text
        frame carries the same document plus a client-chosen ``"id"``;
        replies carry the ``id`` back.  Solves are pipelined — frames
        are served concurrently and may resolve out of order, which is
        what a flow-solver tenant streaming one solve per timestep
        wants.  Per-message errors come back as normal replies with an
        ``"error"`` field; the session survives them.  A frame the
        server cannot serve ends the session instead — in-flight
        replies are sent first, then a close frame with status 1002
        (unmasked client frame), 1003 (fragmented message: the server
        does not reassemble) or 1009 (payload over ``max_body``).
    ``GET /v1/healthz``
        Unauthenticated liveness (``status``/``healthy_replicas``).
    ``GET /v1/stats``
        Authenticated operator stats: ``gateway`` counters,
        ``quota_charged``, ``tenant_iterations`` and a ``fleet``
        summary (``submitted``, ``completed``, ``failed``, ``expired``,
        ``queue_depth``, ``copy_bytes``, ``solves_per_second``).

    Parameters
    ----------
    gateway:
        The :class:`Gateway` core.
    host / port:
        Bind address; port 0 (the default) picks a free one — read
        :attr:`port` after :meth:`start`.
    max_body:
        Size limit in bytes of an HTTP request body and of a WebSocket
        frame payload; a larger one is refused on its declared length,
        before any of it is buffered (HTTP 400; WebSocket close 1009).
    """

    def __init__(
        self,
        gateway: Gateway,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = 8 << 20,
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_body = max_body
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "GatewayServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_http_request(
                        reader, self.max_body
                    )
                except ValueError as exc:
                    status, body, extra = _error_payload(exc)
                    writer.write(_http_response(status, body, extra))
                    await writer.drain()
                    break
                if request is None:
                    break
                if (
                    request.path == "/v1/session"
                    and "upgrade"
                    in request.headers.get("connection", "").lower()
                ):
                    await self._handle_websocket(
                        request, reader, writer
                    )
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if (
                    request.headers.get("connection", "").lower()
                    == "close"
                ):
                    break
        except (
            ConnectionError, asyncio.IncompleteReadError, OSError
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: _HTTPRequest) -> bytes:
        route = (request.method, request.path)
        if route == ("GET", "/v1/healthz"):
            return _http_response(200, self.gateway.healthz())
        if route == ("GET", "/v1/stats"):
            try:
                self.gateway.registry.authenticate(
                    request.bearer_token()
                )
            except AuthError as exc:
                status, body, extra = _error_payload(exc)
                return _http_response(status, body, extra)
            return _http_response(200, self.gateway.stats_payload())
        if route == ("POST", "/v1/solve"):
            try:
                doc = json.loads(request.body.decode() or "{}")
                kwargs = _solve_kwargs(doc)
            except (ValueError, TypeError, KeyError) as exc:
                # 401 outranks 400: an unauthenticated caller learns
                # nothing about the request schema.
                try:
                    self.gateway.registry.authenticate(
                        request.bearer_token()
                    )
                except AuthError as auth_exc:
                    exc = auth_exc
                status, body, extra = _error_payload(exc)
                return _http_response(status, body, extra)
            try:
                result = await self.gateway.solve(
                    request.bearer_token(), **kwargs
                )
            except BaseException as exc:  # mapped, never swallowed
                status, body, extra = _error_payload(exc)
                return _http_response(status, body, extra)
            return _http_response(200, _result_payload(result))
        return _http_response(
            404,
            {"error": "not_found", "detail": request.path},
        )

    # ------------------------------------------------------------------
    # WebSocket sessions (RFC 6455, server side, no extensions)
    # ------------------------------------------------------------------
    async def _handle_websocket(
        self,
        request: _HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(_http_response(
                400,
                {"error": "bad_request",
                 "detail": "missing Sec-WebSocket-Key"},
            ))
            await writer.drain()
            return
        # Authenticate at the handshake: a stranger never gets a
        # socket to spray frames at.
        token = request.bearer_token()
        try:
            self.gateway.registry.authenticate(token)
        except AuthError as exc:
            status, body, extra = _error_payload(exc)
            writer.write(_http_response(status, body, extra))
            await writer.drain()
            return
        accept = base64.b64encode(hashlib.sha1(
            (key + _WS_GUID).encode()
        ).digest()).decode()
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
        ).encode())
        await writer.drain()
        send_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()

        async def send(opcode: int, payload: bytes) -> None:
            async with send_lock:
                writer.write(_ws_frame(opcode, payload))
                await writer.drain()

        async def serve_one(doc: dict) -> None:
            reply = {"id": doc.get("id")}
            try:
                kwargs = _solve_kwargs(doc)
                result = await self.gateway.solve(token, **kwargs)
            except BaseException as exc:
                status, body, _extra = _error_payload(exc)
                reply.update(body)
                reply["status"] = status
            else:
                reply.update(_result_payload(result))
                reply["status"] = 200
            await send(0x1, json.dumps(reply).encode())

        # The close frame to answer with, once every reply is out (no
        # data frame may follow a close): the client's status echoed, or
        # the status of the frame that ended the session.
        close: bytes | None = None
        try:
            while True:
                try:
                    opcode, payload = await _ws_read_frame(
                        reader, self.max_body
                    )
                except (
                    asyncio.IncompleteReadError, ConnectionError
                ):
                    break
                except _WSClose as exc:
                    close = exc.payload
                    break
                if opcode == 0x8:  # close
                    close = payload[:2]
                    break
                if opcode == 0x9:  # ping -> pong
                    await send(0xA, payload)
                    continue
                if opcode != 0x1:  # only text frames carry requests
                    continue
                try:
                    doc = json.loads(payload.decode())
                except ValueError:
                    await send(0x1, json.dumps({
                        "id": None, "status": 400,
                        "error": "bad_request",
                        "detail": "frame is not valid JSON",
                    }).encode())
                    continue
                # Pipelined: each frame solves concurrently; replies
                # carry the client's id and may arrive out of order.
                task = asyncio.ensure_future(serve_one(doc))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            if inflight:
                await asyncio.gather(
                    *inflight, return_exceptions=True
                )
        if close is not None:
            await send(0x8, close)


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One unmasked server->client frame (FIN set, no fragmentation)."""
    header = bytes([0x80 | opcode])
    n = len(payload)
    if n < 126:
        header += bytes([n])
    elif n < 1 << 16:
        header += bytes([126]) + n.to_bytes(2, "big")
    else:
        header += bytes([127]) + n.to_bytes(8, "big")
    return header + payload


class _WSClose(Exception):
    """A frame the server answers by closing the session with
    ``status`` (RFC 6455 section 7.4.1)."""

    # census: refusal: the close frame answering a malformed WebSocket frame
    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.payload = status.to_bytes(2, "big") + reason.encode()


def _ws_unmask(payload: bytes, mask: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte masking key repeated along it,
    as one ``uint8`` array operation."""
    n = len(payload)
    key = np.frombuffer(mask * (n // 4 + 1), dtype=np.uint8)[:n]
    return (np.frombuffer(payload, dtype=np.uint8) ^ key).tobytes()


async def _ws_read_frame(
    reader: asyncio.StreamReader, max_payload: int
) -> tuple[int, bytes]:
    """Read one client frame and unmask it.

    Two reads for a 7-bit length (header, then key + payload), three
    for an extended one (the length in between).  Frames the server
    will not serve raise :class:`_WSClose` with nothing further read,
    so the stream is not usable afterwards: an unmasked frame (1002), a
    fragment — ``FIN`` clear or a continuation opcode, which the server
    does not reassemble (1003) — a control frame of over 125 bytes or
    a close frame of one byte, which RFC 6455 section 5.5 forbids
    (1002), and a payload over ``max_payload`` bytes (1009).  Lengths
    are refused as declared, before the payload is read.
    """
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    if not head[1] & 0x80:
        raise _WSClose(1002, "client frames must be masked")
    if not head[0] & 0x80 or opcode == 0x0:
        raise _WSClose(1003, "fragmented messages are not supported")
    length = head[1] & 0x7F
    if opcode & 0x8 and (length > 125 or opcode == 0x8 and length == 1):
        raise _WSClose(1002, "control frame over 125 bytes or 1-byte close")
    if length >= 126:
        length = int.from_bytes(
            await reader.readexactly(2 if length == 126 else 8), "big"
        )
    if length > max_payload:
        raise _WSClose(
            1009,
            f"frame of {length} bytes exceeds the {max_payload}-byte limit",
        )
    body = await reader.readexactly(4 + length)
    return opcode, _ws_unmask(body[4:], body[:4])
