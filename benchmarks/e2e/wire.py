"""``ws_small_closed``: one pipelined WebSocket session, a fixed window
of outstanding 343-DOF solves.

The mirror image of ``solve_n7_e512``.  The solve is the minority of
each request, so what this workload prices is everything around it:
the gateway's wire code (per-byte unmasking, ``json.loads``,
``tolist()``), admission, the asyncio hop, micro-batching, and the
interpreter-bound CG loop at a size where the kernels barely register.

Closed loop: one client, ``WINDOW`` requests outstanding, the next one
sent when a reply arrives.  Client and server share one event-loop
thread of one process, as the sizing host has two cores and the solver
thread wants the other.
"""

from __future__ import annotations

import array
import asyncio
import base64
import collections
import itertools
import json
import statistics
import time

import numpy as np

from repro.sem import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem.cg import cg_solve_batched
from repro.serve import Gateway, GatewayServer, SolveService, TenantRegistry

from benchmarks.e2e import semtrace
from benchmarks.e2e.harness import (
    HostProbe,
    SpanRecorder,
    mask_client_frame,
    peak_rss_mb,
    percentile,
    subwindow_tail,
    timed_setups,
)
from benchmarks.e2e.result import RunResult

DEGREE, ELEMENTS = 3, (2, 2, 2)
TOL: float = 1e-8
MAX_BATCH, MAX_WAIT = 8, 0.002
#: Requests outstanding on the session at any time.
WINDOW: int = 16
#: Distinct seeded right-hand sides; request ``k`` carries rhs and id
#: ``k % POOL``.  At least twice the window, so an id is never
#: outstanding twice.
POOL: int = 64
#: The window runs as this many back-to-back segments, the host
#: yardstick sampled between them (the host's speed moves by the
#: second, so many short samples beat few long ones).
SEGMENTS: int = 8
#: The tail printed beside the metrics is p99: the median over this many
#: sub-windows of each sub-window's p99 (at 20 s each keeps > 10
#: samples beyond it).
TAIL_PCT, SUB_WINDOWS = 99.0, 4
#: Priority the tenant is provisioned with — the top class of the
#: default ``AdmissionPolicy``, whose shed point (16 pending) a window
#: of 16 cannot reach while any request is being solved.
TENANT_PRIORITY: int = 2


def build_problem(backend: str = "matmul") -> PoissonProblem:
    ref = ReferenceElement.from_degree(DEGREE)
    return PoissonProblem(BoxMesh.build(ref, ELEMENTS), ax_backend=backend)


class Inputs:
    """Seeded request stream and the references it is checked against,
    all built before any timed window."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0x3153])
        self.problem = build_problem()  # reference solver, never served from
        p = self.problem
        self.diag = p.precond_diag()
        self.rhs = rng.standard_normal((POOL, p.n_dofs)) * p.interior
        self.refs = [
            cg_solve(p.apply_A, b, precond_diag=self.diag, tol=TOL,
                     workspace=p.workspace)
            for b in self.rhs
        ]
        #: The reference solutions as raw bytes: the comparison of a
        #: JSON-decoded reply is one ``bytes ==``, and is bit-for-bit.
        self.ref_bytes = [r.x.tobytes() for r in self.refs]
        # JSON-encoded and RFC 6455-masked here, not in the window: the
        # client's encoding cost is not the gateway's.
        self.frames = [
            mask_client_frame(
                json.dumps({"id": k, "b": b.tolist(), "tol": TOL}).encode(),
                rng.bytes(4),
            )
            for k, b in enumerate(self.rhs)
        ]

    def breach(self, k: int, x_bytes: bytes, iterations: int) -> str | None:
        if x_bytes != self.ref_bytes[k]:
            return f"rhs {k}: x is not bit-identical to the sequential cg_solve"
        if iterations != self.refs[k].iterations:
            return f"rhs {k}: {iterations} iterations, reference {self.refs[k].iterations}"
        return None


class Session:
    """Minimal RFC 6455 client over asyncio streams."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int, token: str) -> "Session":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        key = base64.b64encode(b"benchmarks.e2e!!").decode()
        writer.write((
            "GET /v1/session HTTP/1.1\r\nHost: localhost\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n"
            f"Authorization: Bearer {token}\r\n\r\n"
        ).encode())
        status = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in status.split(b"\r\n", 1)[0]:
            raise ConnectionError(f"no upgrade: {status[:80]!r}")
        return cls(reader, writer)

    async def read(self) -> tuple[int, bytes]:
        head = await self.reader.readexactly(2)
        n = head[1] & 0x7F
        if n == 126:
            n = int.from_bytes(await self.reader.readexactly(2), "big")
        elif n == 127:
            n = int.from_bytes(await self.reader.readexactly(8), "big")
        return head[0] & 0x0F, await self.reader.readexactly(n) if n else b""

    async def close(self) -> None:
        self.writer.write(mask_client_frame(b"\x03\xe8", b"\0\0\0\0", opcode=0x8))
        try:
            while (await self.read())[0] != 0x8:
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        self.writer.close()
        await self.writer.wait_closed()


class Stack:
    """``GatewayServer -> Gateway -> AsyncSolveService -> SolveService``
    on the serving shape, plus the one client session.  With a recorder,
    every layer's public front gets a timing proxy (and the problem the
    traced kernel) before the layer above binds it."""

    def __init__(self, rec: SpanRecorder | None = None, work=None) -> None:
        if rec is None:
            self.problem = build_problem()
        else:
            self.problem = build_problem(semtrace.register_traced_kernel(rec, work))
            semtrace.instrument_problem(self.problem, rec, work)
        self.service = SolveService(
            self.problem, max_batch=MAX_BATCH, max_wait=MAX_WAIT,
            background=True,
        )
        registry = TenantRegistry()
        self.token = registry.provision("flow", priority=TENANT_PRIORITY).token
        self.gateway = Gateway(self.service, registry)
        if rec is not None:
            _trace_fronts(self.service, self.gateway, rec)
        self.server = GatewayServer(self.gateway)
        self.session: Session | None = None

    async def open(self) -> None:
        await self.server.start()
        self.session = await Session.open(self.server.port, self.token)

    async def aclose(self) -> None:
        if self.session is not None:
            await self.session.close()
        await self.server.aclose()
        await self.gateway.aclose()


def trace_tickets(service, rec: SpanRecorder, name_of) -> None:
    """A span from ``service.submit`` to the ticket's done-callback,
    named ``name_of(kwargs)``.  A request starts on one thread and
    completes on another, so its ends are stamped here and logged with
    :meth:`SpanRecorder.add`."""
    submit = service.submit

    def traced_submit(b, **kwargs):
        t0 = time.perf_counter()
        ticket = submit(b, **kwargs)
        name = name_of(kwargs)
        ticket.add_done_callback(lambda _t: rec.add(name, t0, time.perf_counter()))
        return ticket

    service.submit = traced_submit


def trace_coroutine(owner, attr: str, rec: SpanRecorder, name: str) -> None:
    """A span around every ``await owner.attr(...)``."""
    inner = getattr(owner, attr)

    async def traced(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return await inner(*args, **kwargs)
        finally:
            rec.add(name, t0, time.perf_counter())

    setattr(owner, attr, traced)


def _trace_fronts(service, gateway: Gateway, rec: SpanRecorder) -> None:
    """Spans around ``service.submit`` -> ticket done, the asyncio
    front's ``submit`` and ``Gateway.solve``."""
    trace_tickets(service, rec, lambda kwargs: "service.ticket")
    trace_coroutine(gateway.async_service, "submit", rec, "asyncio_front.submit")
    trace_coroutine(gateway, "solve", rec, "gateway.solve")


async def drive_wire(
    session: Session, inputs: Inputs, seconds: float, result: RunResult,
    rec: SpanRecorder | None = None,
):
    """The closed loop over the wire.  Returns ``(latencies, arrival
    stamps, start, deadline, replies inside the window)``."""
    write, drain = session.writer.write, session.writer.drain
    sent_at = [0.0] * POOL
    latencies: list[float] = []
    stamps: list[float] = []
    sent = outstanding = in_window = 0
    start = time.perf_counter()
    deadline = start + seconds
    while outstanding or sent == 0:
        while outstanding < WINDOW and (sent == 0 or time.perf_counter() < deadline):
            k = sent % POOL
            sent_at[k] = time.perf_counter()
            write(inputs.frames[k])
            sent += 1
            outstanding += 1
        await drain()
        _, payload = await session.read()
        now = time.perf_counter()
        outstanding -= 1
        doc = json.loads(payload)
        k = doc.get("id")
        result.attempted += 1
        if doc.get("status") != 200:
            result.refused(f"request {k}: status {doc.get('status')} {doc.get('error')}")
            continue
        why = inputs.breach(
            k, array.array("d", doc["x"]).tobytes(), doc["iterations"]
        )
        if why:
            result.wrong(why)
            continue
        latencies.append(now - sent_at[k])
        stamps.append(now)
        in_window += now <= deadline
        if rec is not None:
            rec.add("client.request", sent_at[k], now)
    return latencies, stamps, start, deadline, in_window


def _first_reply(loop, stack: Stack, inputs: Inputs) -> None:
    async def one():
        stack.session.writer.write(inputs.frames[0])
        _, payload = await stack.session.read()
        return json.loads(payload)

    doc = loop.run_until_complete(one())
    why = (
        f"status {doc.get('status')}" if doc.get("status") != 200
        else inputs.breach(0, array.array("d", doc["x"]).tobytes(), doc["iterations"])
    )
    if why:
        raise AssertionError(f"ws_small_closed: first reply: {why}")


def _setup(loop, inputs: Inputs, rec=None, work=None) -> Stack:
    """Set-up through the first verified reply over the wire."""
    stack = Stack(rec, work)
    loop.run_until_complete(stack.open())
    _first_reply(loop, stack, inputs)
    return stack


# ----------------------------------------------------------------------
# The tiers below the wire, driven with the same stream and window
# ----------------------------------------------------------------------
def tier_sem(inputs: Inputs, seconds: float, result: RunResult) -> float:
    """Pre-formed blocks of ``MAX_BATCH`` straight into the batched
    solver: the solve work with no serving layer at all."""
    p = inputs.problem
    ws = p.batch_workspace(MAX_BATCH)
    blocks = [
        (k0, inputs.rhs[k0:k0 + MAX_BATCH])
        for k0 in range(0, POOL, MAX_BATCH)
    ]
    done = 0
    start = time.perf_counter()
    for k0, bs in itertools.cycle(blocks):
        res = cg_solve_batched(
            p.apply_A, bs, precond_diag=inputs.diag, tol=TOL, workspace=ws
        )
        for j in range(MAX_BATCH):
            result.attempted += 1
            why = inputs.breach(k0 + j, res.x[j].tobytes(), int(res.iterations[j]))
            if why:
                result.wrong(f"tier.sem: {why}")
        done += MAX_BATCH
        if time.perf_counter() - start >= seconds:
            return done / (time.perf_counter() - start)


def tier_service(service, inputs: Inputs, seconds: float, result: RunResult) -> float:
    """``SolveService.submit`` from one thread, ``WINDOW`` tickets out."""
    pending: collections.deque = collections.deque()
    sent = done = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        while len(pending) < WINDOW and time.perf_counter() < deadline:
            k = sent % POOL
            pending.append((k, service.submit(inputs.rhs[k], tol=TOL)))
            sent += 1
        if not pending:
            return done / seconds
        k, ticket = pending.popleft()
        res = ticket.result(timeout=60)
        done += time.perf_counter() <= deadline
        result.attempted += 1
        why = inputs.breach(k, res.x.tobytes(), res.iterations)
        if why:
            result.wrong(f"tier.service: {why}")


async def tier_async(call, inputs: Inputs, seconds: float, result: RunResult, label: str) -> float:
    """``WINDOW`` coroutines, each awaiting one solve after another,
    through ``call(b)`` — the asyncio front or the gateway core."""
    counter = itertools.count()
    done = 0
    deadline = time.perf_counter() + seconds

    async def caller():
        nonlocal done
        while time.perf_counter() < deadline:
            k = next(counter) % POOL
            res = await call(inputs.rhs[k])
            done += time.perf_counter() <= deadline
            result.attempted += 1
            why = inputs.breach(k, res.x.tobytes(), res.iterations)
            if why:
                result.wrong(f"{label}: {why}")

    await asyncio.gather(*(caller() for _ in range(WINDOW)))
    return done / seconds


# ----------------------------------------------------------------------
def admit_us(gateway: Gateway, token: str, calls: int = 2000) -> float:
    """A direct ``admit()`` + ``refund()`` pair on the idle gateway."""
    t0 = time.perf_counter()
    for _ in range(calls):
        tenant, _ = gateway.admit(token)
        gateway.refund(tenant)
    return 1e6 * (time.perf_counter() - t0) / calls


def conservation_breach(gateway: Gateway) -> str | None:
    c = gateway.counters
    if c["admitted"] != c["completed"] + c["failed"] + c["expired"]:
        return f"gateway counters do not conserve: {c}"
    return None


def run(
    seed: int, seconds: float, trace: bool,
    host: dict[str, float] | None = None, setup_repeats: int | None = None,
) -> RunResult:
    result = RunResult()
    inputs = Inputs(seed)
    loop = asyncio.new_event_loop()
    try:
        _run(loop, inputs, seconds, trace, host or {}, setup_repeats, result)
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
    return result


def _end_to_end(loop, stack, inputs, seconds, result, probe) -> None:
    """The untraced window, in ``SEGMENTS`` back-to-back closed loops
    with the host yardstick sampled between them (the pipeline drains
    at a segment's end: 16 requests, ~30 ms in 2.5 s)."""
    span = seconds / SEGMENTS
    nominal: list[float] = []   # latencies at nominal host speed
    raw: list[float] = []       # ... and as measured
    axis: list[float] = []      # reply stamps on a gap-free 0..seconds axis
    rates: list[float] = []     # replies per nominal second, by segment
    in_window = 0
    for k in range(SEGMENTS):
        (lat, stamps, start, _, n), slowdown = probe.around(
            lambda: loop.run_until_complete(
                drive_wire(stack.session, inputs, span, result)
            )
        )
        raw += lat
        nominal += [v / slowdown for v in lat]
        axis += [k * span + min(t - start, span) for t in stamps]
        in_window += n
        rates.append(n * slowdown / span)
    tail, n_sub = subwindow_tail(axis, raw, 0.0, seconds, SUB_WINDOWS, TAIL_PCT)
    result.metrics.update({
        "lat_p50_ms": 1e3 * statistics.median(nominal),
        # The median segment: a burst of interference from the host
        # lands in one or two of them, not in the reported rate.
        "throughput_rps": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    })
    result.samples.update({"lat_p50_ms": len(raw), "throughput_rps": in_window})
    result.notes.update({
        # Printed, not gated: over ten seeds it spread 27 % (45-84 ms).
        "raw_lat_p99_ms": round(1e3 * tail, 3), "p99_sub_windows": n_sub,
        "host_slowdown": round(probe.median(), 4),
        "raw_lat_p50_ms": round(1e3 * statistics.median(raw), 3),
        "raw_throughput_rps": round(in_window / seconds, 2),
    })


def _run(loop, inputs, seconds, trace, host, setup_repeats, result) -> None:
    probe = HostProbe()
    stack, setup_s, n_setups = timed_setups(
        lambda: _setup(loop, inputs),
        lambda stack: loop.run_until_complete(stack.aclose()),
        probe, setup_repeats,
    )
    result.metrics["setup_s"] = setup_s
    result.samples["setup_s"] = n_setups
    try:
        if not trace:
            _end_to_end(loop, stack, inputs, seconds, result, probe)
            return
        # Bottom up, same stream and window, each tier's own front.
        window = seconds / 6
        tiers = {
            "tier.sem_rps": tier_sem(inputs, window, result),
            "tier.service_rps": tier_service(stack.service, inputs, window, result),
        }
        front = stack.gateway.async_service
        tiers["tier.asyncio_front_rps"] = loop.run_until_complete(tier_async(
            lambda b: front.solve(b, tol=TOL), inputs, window, result,
            "tier.asyncio_front",
        ))
        gateway, token = stack.gateway, stack.token
        tiers["tier.gateway_rps"] = loop.run_until_complete(tier_async(
            lambda b: gateway.solve(token, b, tol=TOL), inputs, window, result,
            "tier.gateway",
        ))
        lat, stamps, start, deadline, in_window = loop.run_until_complete(
            drive_wire(stack.session, inputs, window, result)
        )
        rps = in_window / window
        p99, _ = subwindow_tail(stamps, lat, start, deadline, 1, TAIL_PCT)
        result.metrics.update({
            "wire.lat_p50_ms": 1e3 * statistics.median(lat),
            "wire.lat_p99_ms": 1e3 * p99,
        })
    finally:
        why = conservation_breach(stack.gateway)
        if why:
            result.breaches.append(why)
        loop.run_until_complete(stack.aclose())

    tiers["tier.wire_rps"] = rps
    order = ("sem", "service", "asyncio_front", "gateway", "wire")
    cost = {t: 1e6 / tiers[f"tier.{t}_rps"] for t in order}
    result.metrics.update(tiers)
    # What each tier adds per request; the four telescope to the wire
    # tier's 1/rps, so a negative one is noise, not a speed-up.
    result.metrics.update({
        "service.self_us": cost["service"] - cost["sem"],
        "asyncio_front.self_us": cost["asyncio_front"] - cost["service"],
        "gateway.admit_self_us": cost["gateway"] - cost["asyncio_front"],
        "gateway.wire_self_us": cost["wire"] - cost["gateway"],
    })

    rec, work = SpanRecorder(), semtrace.KernelWork()
    traced = _setup(loop, inputs, rec, work)
    rec.spans.clear()
    work.clear()
    before = traced.service.stats
    *_, t_in_window = loop.run_until_complete(
        drive_wire(traced.session, inputs, window, result, rec)
    )
    probe.sample()
    stats = traced.service.stats
    result.metrics["gateway.admit_us"] = admit_us(traced.gateway, traced.token)
    counters = traced.gateway.counters
    why = conservation_breach(traced.gateway)
    if why:
        result.breaches.append(why)
    loop.run_until_complete(traced.aclose())

    batches = stats.batches - before.batches
    busy = stats.busy_seconds - before.busy_seconds
    served = (stats.completed + stats.failed) - (before.completed + before.failed)
    full = stats.batch_histogram.get(MAX_BATCH, 0) - before.batch_histogram.get(MAX_BATCH, 0)
    # No solver call to wrap here (the service makes it): the operator
    # application is the outermost sem span, the service publishes the
    # time inside solves, and a solve applies the operator once per
    # iteration plus once for the initial residual.
    applies = sum(s.name == semtrace.APPLY and s.parent < 0 for s in rec.spans)
    result.metrics.update(semtrace.layer_metrics(
        rec, work, semtrace.APPLY, busy, batches, applies - batches, host,
    ))
    batch_solve_ms = 1e3 * busy / max(batches, 1)
    ticket_ms_p50 = 1e3 * percentile(rec.durations("service.ticket"), 50.0)
    result.metrics.update({
        "cg.iterations": statistics.mean(r.iterations for r in inputs.refs),
        "service.mean_batch": served / max(batches, 1),
        "service.batch_full_share": full / max(batches, 1),
        "service.busy_share": busy / window,
        "service.batch_solve_ms": batch_solve_ms,
        "service.queue_wait_ms": ticket_ms_p50 - batch_solve_ms,
        "service.max_queue_depth": float(stats.max_queue_depth),
        "gateway.expired": float(counters["expired"]),
        "gateway.conservation_ok": float(why is None),
        "gateway.solve_ms_p50": 1e3 * percentile(rec.durations("gateway.solve"), 50.0),
        "service.ticket_ms_p50": ticket_ms_p50,
        "trace.overhead_share": rps / (t_in_window / window) - 1.0,
        "host.probe_slowdown": probe.median(),
    })
    result.spans = rec.spans
