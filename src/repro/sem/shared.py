"""Shared-memory export/attach of the SEM layer's immutable arrays.

The paper's core observation is that SEM throughput is bound by how well
the memory system is exploited, not by FLOPs — and the serving analogue
of that observation is that a fleet of worker *processes* should share
one physical copy of the large immutable state (geometric factors,
gather-scatter maps, nodal coordinates) rather than rebuild or
duplicate it per worker.  This module is the substrate for that sharing:

* :func:`export_shared_arrays` packs a dict of numpy arrays into one
  POSIX shared-memory block (:class:`multiprocessing.shared_memory.
  SharedMemory`) and returns a **picklable** :class:`SharedArrayManifest`
  describing where each array lives;
* :func:`attach_shared_arrays` maps the block in any process and
  returns zero-copy, read-only numpy views onto the same physical pages.

Ownership protocol
------------------
The *exporting* process owns the block.  :func:`export_shared_arrays`
creates it, packs it and closes its own mapping at once; the
``SharedMemory`` handle it returns is kept only to ``unlink()`` the
block when the fleet is done (:class:`repro.sem.spec.SharedProblemExport`
and :class:`SlotRing` do this on ``close``), and, through the
``multiprocessing`` resource tracker it registered with, to reclaim the
block should the exporter die first.

Everyone, the exporter included, reads the block through
:func:`attach_shared_arrays`: it maps the block's file (Linux:
``/dev/shm/<name>``) and builds every view with ``np.frombuffer`` over
that one mapping, so each view keeps the mapping alive — the pages stay
mapped while any view (or a slice of one) lives and go with the last.
An attach makes no ``SharedMemory``: nothing registers with a resource
tracker, and there is nothing to close.  Unlinking removes only the
name; views already taken stay valid.

Attached views are marked non-writeable: the shared state is immutable
by contract, and a stray in-place write in one worker corrupting every
other worker's geometry is exactly the class of bug the flag turns into
an immediate ``ValueError``.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
from numpy.typing import NDArray

#: Byte alignment of each packed array inside a block (cache-line sized,
#: so attached views start aligned like a fresh np.empty would).
_ALIGN: int = 64

#: Where POSIX shared-memory blocks live as files.
_SHM_DIR: str = "/dev/shm"


@dataclass(frozen=True)
class SharedArrayManifest:
    """Picklable description of arrays packed into one shared block.

    Attributes
    ----------
    block:
        The ``SharedMemory`` name (the file under ``/dev/shm`` on
        Linux); every attacher maps this one block.
    nbytes:
        Total block size in bytes.
    entries:
        One ``(key, offset, shape, dtype_str)`` record per packed
        array, in packing order.
    """

    block: str
    nbytes: int
    entries: tuple[tuple[str, int, tuple[int, ...], str], ...]


def _aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`_ALIGN` boundary."""
    return -(-offset // _ALIGN) * _ALIGN


def _map(name: str, nbytes: int) -> mmap.mmap:
    """Map block ``name`` read-write from its file, closing the file
    descriptor at once (the mapping alone keeps the pages)."""
    fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
    try:
        return mmap.mmap(fd, nbytes)
    finally:
        os.close(fd)


def unlink_shared_block(shm: shared_memory.SharedMemory) -> None:
    """Unlink an exported block; ``FileNotFoundError`` (an
    already-unlinked block) is swallowed — unlink is idempotent here."""
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def export_shared_arrays(
    arrays: "dict[str, NDArray]",
) -> tuple[shared_memory.SharedMemory, SharedArrayManifest]:
    """Pack ``arrays`` into one newly created shared-memory block.

    Parameters
    ----------
    arrays:
        ``{key: array}`` to export.  Each array is copied once into the
        block (C-contiguous); the originals are left untouched.

    Returns
    -------
    (SharedMemory, SharedArrayManifest)
        The owning handle, its mapping already closed — keep it to
        unlink the block (:func:`unlink_shared_block`) — and the
        picklable manifest :func:`attach_shared_arrays` maps.

    Raises
    ------
    ValueError
        If ``arrays`` is empty (an empty export is always a caller bug).
    """
    if not arrays:
        raise ValueError("export_shared_arrays needs at least one array")
    packed: list[tuple[str, int, NDArray]] = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = _aligned(offset)
        packed.append((key, offset, arr))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for _, off, arr in packed:
            np.frombuffer(shm.buf, arr.dtype, arr.size, off)[:] = arr.ravel()
        shm.close()
    except BaseException:
        unlink_shared_block(shm)
        raise
    manifest = SharedArrayManifest(
        block=shm.name,
        nbytes=shm.size,
        entries=tuple(
            (key, off, arr.shape, arr.dtype.str) for key, off, arr in packed
        ),
    )
    return shm, manifest


def attach_shared_arrays(manifest: SharedArrayManifest) -> "dict[str, NDArray]":
    """Map a manifest's block and return read-only zero-copy views.

    Parameters
    ----------
    manifest:
        A :class:`SharedArrayManifest` produced by
        :func:`export_shared_arrays` (typically received pickled from
        the exporting process).

    Returns
    -------
    dict[str, NDArray]
        One non-writeable view per manifest entry, each holding the
        block's one mapping.  No bytes are copied.

    Raises
    ------
    FileNotFoundError
        If the block no longer exists (the exporter unlinked it).
    """
    mapping = _map(manifest.block, manifest.nbytes)
    views: dict[str, NDArray] = {}
    for key, off, shape, dtype_str in manifest.entries:
        view = np.frombuffer(
            mapping, dtype_str, math.prod(shape), off
        ).reshape(shape)
        view.flags.writeable = False
        views[key] = view
    return views


def mapped_block(view: NDArray) -> "NDArray | None":
    """The whole shared block ``view`` lies in, as ``uint8`` over the
    view's own mapping — or ``None`` for an array on no shared block.

    Attestation only: ``np.may_share_memory(a, mapped_block(v))`` says
    that ``a`` reads the very pages ``v`` does.
    """
    base = view
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap):
        return np.frombuffer(base.obj, np.uint8)
    return None


# ----------------------------------------------------------------------
# Request/response slot rings (the zero-copy serving transport)
# ----------------------------------------------------------------------
class SlotRing:
    """A fixed-size shared-memory request/response ring.

    The zero-copy transport primitive of the process-sharded serving
    tier (:class:`repro.serve.procshard.ProcessShardedSolveService`):
    instead of pickling every rhs into a pipe and every solution out of
    one, the client writes rhs vectors **directly into ring slots** and
    the worker writes solutions back **in place** — the pipe is demoted
    to a doorbell that carries slot ordinals and scalar knobs.

    Layout (one :func:`export_shared_arrays` block, one entry each)::

        req_seq  : int64  (slots,)   request sequence headers
        resp_seq : int64  (slots,)   response sequence headers
        rhs      : dtype  (slots, n) request payload slab
        x        : dtype  (slots, n) response payload slab

    Hand-off protocol — a slot is never read while writable:

    1. The parent :meth:`acquire`\\ s a free slot, which stamps a fresh
       **monotonic ordinal** (1-based, never reused) into
       ``req_seq[slot]``, then writes the rhs into ``rhs[slot]`` and
       sends the ``(ordinal, slot)`` doorbell.
    2. The worker checks ``req_seq[slot] == ordinal`` (a torn or stale
       doorbell is detectable), treats ``rhs[slot]`` as read-only,
       solves, writes the solution into ``x[slot]`` and only *then*
       stamps ``resp_seq[slot] = ordinal`` before ringing back.
    3. The parent verifies ``resp_seq[slot] == ordinal``, copies the
       solution out, and :meth:`release`\\ s the slot for reuse.

    Free-slot accounting lives entirely in the *creating* process
    (acquire/release are parent-side concepts); :meth:`acquire` blocks
    when every slot is in flight — that blocking **is** the transport's
    backpressure, and it guarantees an unread slot is never overwritten.
    :meth:`interrupt` wakes blocked acquirers with an error (used when
    the slot-owning worker dies or the service closes);
    :meth:`resume` re-opens the ring after a respawn re-attaches it.

    Ownership is :func:`export_shared_arrays`'s: the creator keeps the
    block's handle and unlinks it on :meth:`close`; both sides read
    through :func:`attach_shared_arrays`.  Each side can write only its
    own two views: the creator ``req_seq`` and ``rhs``, a worker
    ``resp_seq`` and ``x`` (its reply channel) — a worker can never
    corrupt a request in flight.
    """

    def __init__(
        self,
        manifest: SharedArrayManifest,
        block: shared_memory.SharedMemory | None = None,
    ) -> None:
        views = attach_shared_arrays(manifest)
        self.manifest = manifest
        #: The creator's handle, kept to unlink the block; None when
        #: attached.
        self._block = block
        self.owner = block is not None
        self.req_seq, self.resp_seq = views["req_seq"], views["resp_seq"]
        self.rhs, self.x = views["rhs"], views["x"]
        written = ("req_seq", "rhs") if self.owner else ("resp_seq", "x")
        for key in written:
            views[key].flags.writeable = True
        # Parent-side slot accounting (meaningless on attached rings).
        self._cond = threading.Condition()
        self._free: list[int] = list(range(len(self.req_seq)))
        self._slot_of: dict[int, int] = {}  # live ordinal -> slot
        self._next_ordinal = 1
        self._error: BaseException | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls, slots: int, n: int, dtype=np.float64
    ) -> "SlotRing":
        """Create a fresh ring (parent side, owning the block)."""
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        block, manifest = export_shared_arrays({
            "req_seq": np.zeros(slots, np.int64),
            "resp_seq": np.zeros(slots, np.int64),
            "rhs": np.zeros((slots, n), dtype),
            "x": np.zeros((slots, n), dtype),
        })
        try:
            return cls(manifest, block)
        except BaseException:
            unlink_shared_block(block)
            raise

    @classmethod
    def attach(cls, manifest: SharedArrayManifest) -> "SlotRing":
        """Map an existing ring (worker side, non-owning)."""
        return cls(manifest)

    # -- parent-side slot accounting -------------------------------------
    def acquire(self, timeout: float | None = None) -> tuple[int, int]:
        """Claim a free slot; blocks while the ring is full.

        Returns ``(ordinal, slot)`` with the fresh monotonic ordinal
        already stamped into ``req_seq[slot]``.  The blocking is the
        transport's backpressure: no slot is ever handed out twice, so
        an unread request can never be overwritten.

        Raises
        ------
        BaseException
            Whatever :meth:`interrupt` installed (e.g. ``WorkerCrashed``
            while the slot owner respawns, ``ServiceClosed`` on
            teardown) — re-raised as a fresh instance per waiter.
        TimeoutError
            If ``timeout`` elapses with the ring still full.
        """
        with self._cond:
            # wait_for looks at the ring once more when the wait times
            # out: release() notifies one waiter, and one whose wait
            # expired as the notify came would otherwise swallow it and
            # leave a free slot beside an acquirer blocked for good.
            self._cond.wait_for(
                lambda: self._error is not None or self._free, timeout)
            if self._error is not None:
                raise type(self._error)(*self._error.args)
            if not self._free:
                raise TimeoutError(
                    f"no free ring slot within {timeout}s "
                    f"({len(self._slot_of)} slots all in flight)"
                )
            return self._claim_locked()

    def _claim_locked(self) -> tuple[int, int]:
        slot = self._free.pop()
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._slot_of[ordinal] = slot
        self.req_seq[slot] = ordinal
        return ordinal, slot

    def release(self, ordinal: int) -> None:
        """Return an acquired slot to the free list (idempotent per
        ordinal) and wake one blocked acquirer."""
        with self._cond:
            slot = self._slot_of.pop(ordinal, None)
            if slot is None:
                return
            self._free.append(slot)
            self._cond.notify()

    def interrupt(self, exc: BaseException) -> None:
        """Fail current and future acquirers with ``exc`` (by type +
        args) until :meth:`resume`.  In-flight slots are untouched —
        the holder still owns their data and must release them."""
        with self._cond:
            self._error = exc
            self._cond.notify_all()

    def resume(self) -> None:
        """Clear an :meth:`interrupt` (the slot owner respawned and
        re-attached); acquires proceed again."""
        with self._cond:
            self._error = None
            self._cond.notify_all()

    # -- lifecycle --------------------------------------------------------
    def close(self, unlink: bool = True) -> None:
        """Drop this side's views and, on the creator, unlink the block
        unless ``unlink=False``.  Idempotent.  A view taken from the
        ring before reads its bytes for as long as it lives."""
        self.req_seq = self.resp_seq = self.rhs = self.x = None
        if unlink and self._block is not None:
            unlink_shared_block(self._block)
            self._block = None
