"""Measurement primitives shared by the four workloads.

Everything here is independent of ``repro``: the percentile rule, the
sub-window tail estimator, span bookkeeping with self-time arithmetic,
the seeded open-loop schedule, RFC 6455 client frames, the host-speed
yardstick and the process accounting.  ``tests/test_e2e_harness.py``
pins each of them.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import statistics
import threading
import time
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

#: A tail percentile is only reported when this many samples lie beyond
#: it; with fewer, one stall owns the figure.
MIN_BEYOND: int = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def _rank(n: int, pct: float) -> int:
    """Nearest rank of the ``pct`` percentile among ``n`` samples (the
    epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991)."""
    return max(math.ceil(pct * n / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported
    latency is one that was actually observed)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(sorted(values)[_rank(len(values), pct) - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``pct`` percentile."""
    return n - _rank(n, pct)


def subwindow_tail(
    stamps: Sequence[float],
    values: Sequence[float],
    start: float,
    end: float,
    n_sub: int,
    pct: float,
) -> tuple[float, int]:
    """Median over ``n_sub`` equal sub-windows of each sub-window's
    ``pct`` percentile, so that one hypervisor stall moves one
    sub-window and not the reported tail.

    ``stamps[i]`` places ``values[i]`` on the ``[start, end)`` axis.
    The sub-window count is halved until every sub-window keeps
    :data:`MIN_BEYOND` samples beyond the percentile (one window at the
    least).  Returns ``(tail, sub-windows used)``.
    """
    if len(stamps) != len(values):
        raise ValueError("stamps and values differ in length")
    if not values:
        raise ValueError("tail of an empty sample")
    n_sub = max(int(n_sub), 1)
    while True:
        width = (end - start) / n_sub
        buckets: list[list[float]] = [[] for _ in range(n_sub)]
        for stamp, value in zip(stamps, values):
            k = int((stamp - start) / width) if width > 0 else 0
            buckets[min(max(k, 0), n_sub - 1)].append(value)
        if n_sub == 1 or all(
            samples_beyond(len(b), pct) >= MIN_BEYOND for b in buckets
        ):
            tails = [percentile(b, pct) for b in buckets if b]
            return float(statistics.median(tails)), n_sub
        n_sub //= 2


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the
    repeatability figure the acceptance check uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span(NamedTuple):
    """One timed call at a layer boundary."""

    name: str
    ident: int
    parent: int  # ident of the enclosing span on the same thread, or -1
    start: float
    end: float


class SpanRecorder:
    """In-memory span log with one nesting stack per thread.

    The recorder belongs to the benchmark: the proxies the workloads
    install *around* public entry points call :meth:`begin` /
    :meth:`finish`; nothing in ``src/repro`` knows it exists.
    ``list.append`` is atomic under the interpreter lock, which is all
    the cross-thread coordination a write-only log needs.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()  # next() is atomic under the GIL

    def begin(self, name: str) -> tuple[str, int, int, float]:
        stack = self._local.__dict__.setdefault("stack", [])
        ident = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(ident)
        return name, ident, parent, time.perf_counter()

    def finish(self, token: tuple[str, int, int, float]) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        name, ident, parent, start = token
        self.spans.append(Span(name, ident, parent, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call (synchronous callables)."""

        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(token)

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose ends were stamped elsewhere (a request
        that starts on one thread and completes on another)."""
        self.spans.append(Span(name, next(self._ids), -1, start, end))

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def covered(
    start: float, end: float, intervals: Iterable[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (clipped to it; overlapping children are counted once)."""
    clipped = sorted(
        (max(a, start), min(b, end))
        for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.ident: (s.end - s.start)
        - covered(s.start, s.end, children.get(s.ident, ()))
        for s in spans
    }


def self_time_by_name(
    spans: Sequence[Span], root_name: str
) -> tuple[dict[str, float], dict[str, int], float]:
    """Aggregate self time and call counts by span name over every tree
    whose top is a ``root_name`` span.

    Returns ``(self_seconds, calls, root_seconds)``.  The self times of
    one tree add up to its top span's duration, so shares derived from
    this reconcile by construction; a sum that does not is a bug in the
    proxies.
    """
    own = self_times(spans)
    in_tree: dict[int, bool] = {}
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_seconds = 0.0
    # Idents are handed out at begin(), so a parent sorts before its
    # children although it finishes after them.
    for s in sorted(spans, key=lambda s: s.ident):
        below = in_tree.get(s.parent, False)
        in_tree[s.ident] = below or s.name == root_name
        if not in_tree[s.ident]:
            continue
        seconds[s.name] = seconds.get(s.name, 0.0) + own[s.ident]
        calls[s.name] = calls.get(s.name, 0) + 1
        if not below:
            root_seconds += s.end - s.start
    return seconds, calls, root_seconds


# ----------------------------------------------------------------------
# Open-loop schedule
# ----------------------------------------------------------------------
class Arrival(NamedTuple):
    due: float       # seconds from the start of the ladder
    phase: int       # index into the rate ladder
    tenant: int      # index into the tenant classes
    rhs: int         # index into the rhs pool


def open_loop_schedule(
    seed: int,
    rates: Sequence[float],
    phase_seconds: float,
    class_shares: Sequence[float],
    pool: int,
) -> list[Arrival]:
    """Seeded Poisson arrivals, one phase per ladder rate.

    A pure function of its arguments: the same seed gives the same due
    times, tenant classes and rhs picks, whatever the system under test
    does with them (that independence is what makes the loop open).

    Each phase holds exactly ``rate * phase_seconds`` arrivals (a
    Poisson process conditioned on its count is that many uniform
    points, sorted) in exactly the stated class shares, shuffled: what
    differs between seeds is the order and the gaps, not the offered
    load or the mix, either of which moved the median latency of a
    270-request phase more than the host did.
    """
    rng = np.random.default_rng([int(seed), 0xF1EE7])
    arrivals: list[Arrival] = []
    for phase, rate in enumerate(rates):
        n = round(rate * phase_seconds)
        due = phase * phase_seconds + np.sort(rng.uniform(0.0, phase_seconds, n))
        bounds = np.round(np.cumsum(class_shares) * n).astype(int)
        bounds[-1] = n
        tenants = np.repeat(
            np.arange(len(class_shares)), np.diff(bounds, prepend=0)
        )
        rng.shuffle(tenants)
        rhs = rng.integers(pool, size=n)
        arrivals += [
            Arrival(float(t), phase, int(c), int(k))
            for t, c, k in zip(due, tenants, rhs)
        ]
    return arrivals


# ----------------------------------------------------------------------
# WebSocket client frames (RFC 6455)
# ----------------------------------------------------------------------
def mask_client_frame(payload: bytes, mask: bytes, opcode: int = 0x1) -> bytes:
    """One masked client->server frame (FIN set, no fragmentation)."""
    if len(mask) != 4:
        raise ValueError("the masking key is four bytes")
    n = len(payload)
    header = bytes([0x80 | opcode])
    if n < 126:
        header += bytes([0x80 | n])
    elif n < 1 << 16:
        header += bytes([0x80 | 126]) + n.to_bytes(2, "big")
    else:
        header += bytes([0x80 | 127]) + n.to_bytes(8, "big")
    data = np.frombuffer(payload, dtype=np.uint8)
    key = np.resize(np.frombuffer(mask, dtype=np.uint8), n)
    return header + mask + np.bitwise_xor(data, key).tobytes()


# ----------------------------------------------------------------------
# Host-speed yardstick
# ----------------------------------------------------------------------
def _median_seconds(work: Callable[[], object], reps: int, warmup: int) -> float:
    """Median time of ``reps`` calls after ``warmup`` untimed ones (which
    let the core clock up and the operands reach the cache)."""
    times = []
    for k in range(warmup + reps):
        t0 = time.perf_counter()
        work()
        if k >= warmup:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostProbe:
    """A fixed piece of work timed between the measured intervals, so
    that a timing can be stated at the host's *nominal* speed.

    The sizing host is a shared VM whose speed drifts by tens of per
    cent over minutes (ten back-to-back runs of one solve read 2.7 s to
    4.6 s with nothing else running), far more than any bound a
    regression gate could use.  The drift hits this probe — work no
    change to the library can touch — about as it hits the workloads.
    Every end-to-end *time* is therefore divided, and every rate
    multiplied, by the slowdown measured around its interval; the raw
    figures and the slowdown are printed beside them, and the per-layer
    metrics stay raw.

    Two kinds of drift were seen, so the probe has two parts.  The
    *compute* part, a single-thread 256^3 dgemm, follows what happens
    to the core (over 300 s a bare ``apply_A`` loop spread 12.7 % raw
    and 2.9 % against it; a JSON loop 21.5 % raw, 5.5 %).  It does not
    see all of what moves the 512-element solve: its 25 MB an iteration
    stream through the last-level cache the guest shares with its
    neighbours, and over ten minutes a fixed 60-iteration CG chunk
    moved 44 % while the dgemm moved 20 %.  The *stream* part, a triad
    over three 32 MiB arrays, does (smaller buffers do not: an in-place
    pass over 32 MiB left 17 % of that movement, the triad 11 %).  A
    workload bound by that traffic asks for both, and its slowdown is
    their mean — the even blend is what a least-squares fit of the
    chunk on the two parts gave (0.53, 0.49).

    The guest's CPUs do not drift together (one reads 0.85 while the
    other reads 1.05), and a sample lands on whichever the thread is
    on.  That matches a workload whose one thread was just there.  For
    worker processes pinned one to a CPU it does not: ``every_cpu``
    samples each in turn and averages, and against that the 20 s
    medians of the fleet's unloaded latency — which is the workers'
    solve time plus a steady 5.5 ms — spread 6.9 % over eight minutes
    where raw they spread 13.3 % (against a floating sample, 12.2 %).
    """

    #: Seconds one probe dgemm / triad takes on the sizing host in its
    #: usual state; the slowdown is measured against them.  Frozen:
    #: changing one rescales every end-to-end time.
    NOMINAL_S: float = 0.85e-3
    STREAM_NOMINAL_S: float = 7.0e-3
    N: int = 256
    STREAM_BYTES: int = 32 << 20
    #: Timed repetitions per sample and untimed ones before them.
    REPS, WARMUP = 200, 30
    STREAM_REPS, STREAM_WARMUP = 18, 2

    def __init__(self, stream: bool = False, every_cpu: bool = False) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((self.N, self.N))
        self._b = rng.standard_normal((self.N, self.N))
        self._out = np.empty((self.N, self.N))
        self._stream = None
        if stream:
            n = self.STREAM_BYTES // 8
            self._stream = (np.zeros(n), np.ones(n), np.full(n, 2.0))
        self._every_cpu = every_cpu and hasattr(os, "sched_setaffinity")
        self.samples: list[float] = []
        self._last_at = float("-inf")

    def _dgemm(self) -> None:
        np.matmul(self._a, self._b, out=self._out)

    def _triad(self) -> None:
        a, b, c = self._stream
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    def _slowdown(self) -> float:
        slowdown = _median_seconds(self._dgemm, self.REPS, self.WARMUP) / self.NOMINAL_S
        if self._stream is not None:
            stream = _median_seconds(
                self._triad, self.STREAM_REPS, self.STREAM_WARMUP
            ) / self.STREAM_NOMINAL_S
            slowdown = (slowdown + stream) / 2.0
        return slowdown

    def sample(self) -> float:
        """Slowdown right now: 1.0 at nominal speed, 1.3 when the host
        is 30 % slower.  With ``every_cpu`` the calling thread visits
        each CPU it may run on and the slowdowns are averaged."""
        if self._every_cpu:
            allowed = os.sched_getaffinity(0)
            try:
                parts = []
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    parts.append(self._slowdown())
            finally:
                os.sched_setaffinity(0, allowed)
            slowdown = statistics.mean(parts)
        else:
            slowdown = self._slowdown()
        self.samples.append(slowdown)
        self._last_at = time.perf_counter()
        return slowdown

    def now(self, max_age: float = 0.05) -> float:
        """The latest sample if it is at most ``max_age`` seconds old,
        else a new one."""
        if time.perf_counter() - self._last_at <= max_age:
            return self.samples[-1]
        return self.sample()

    def around(self, work: Callable[[], object], max_age: float = 0.0):
        """Run ``work`` between two samples; returns ``(its result, the
        mean slowdown of the two)``.  Back-to-back intervals share the
        sample between them; ``max_age`` lets work that takes
        milliseconds share the one after it too."""
        before = self.now()
        product = work()
        return product, (before + self.now(max_age)) / 2.0

    def median(self) -> float:
        return float(statistics.median(self.samples))


# ----------------------------------------------------------------------
# Process accounting and set-up timing
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the maximum over waited-for
    descendants, so a fleet's workers are counted once closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: Fresh set-ups per run: at least this many ...
SETUP_MIN_REPEATS: int = 3
#: ... and, for set-ups that take milliseconds, as many as fit in this
#: budget (seconds), so the median is not three samples of scheduler
#: noise; never more than the cap.
SETUP_BUDGET_S: float = 2.5
SETUP_MAX_REPEATS: int = 15


def timed_setups(
    build: Callable[[], object],
    close: Callable[[object], None],
    probe: HostProbe | None,
    repeats: int | None = None,
):
    """Run ``build`` several times from scratch; returns ``(last build's
    product, median seconds, count)`` — seconds at nominal host speed
    when a yardstick is given.  Every product but the last is closed
    again, the last one is what the workload then measures."""
    times: list[float] = []  # at nominal host speed
    product = None
    spent = 0.0
    while True:
        if product is not None:
            close(product)
            product = None  # never two set-ups' memory at once

        def timed():
            t0 = time.perf_counter()
            built = build()
            return built, time.perf_counter() - t0

        if probe is None:
            (product, seconds), slowdown = timed(), 1.0
        else:
            (product, seconds), slowdown = probe.around(timed, max_age=0.5)
        times.append(seconds / slowdown)
        spent += seconds
        if repeats is not None:
            if len(times) >= repeats:
                break
        elif len(times) >= SETUP_MAX_REPEATS or (
            len(times) >= SETUP_MIN_REPEATS and spent >= SETUP_BUDGET_S
        ):
            break
    return product, float(statistics.median(times)), len(times)


def shm_entries() -> set[str]:
    """Names currently present in ``/dev/shm`` (empty where absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
