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
The *exporting* process owns the block: it keeps the returned
``SharedMemory`` handle and must eventually ``close()`` + ``unlink()``
it (:class:`repro.sem.spec.SharedProblemExport` and
:class:`repro.serve.procshard.ProcessShardedSolveService` do this on
``close``).  *Attaching* processes only ever ``close()`` their mapping,
and no attacher's ``multiprocessing`` resource tracker may tear the
block down under the exporter: a worker the exporter started shares
the exporter's tracker, where its attach dedupes into the exporter's
own entry, and any other process unregisters its attachment
(:func:`_untrack`).

Attached views are marked non-writeable: the shared state is immutable
by contract, and a stray in-place write in one worker corrupting every
other worker's geometry is exactly the class of bug the flag turns into
an immediate ``ValueError``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
from numpy.typing import NDArray

#: Byte alignment of each packed array inside a block (cache-line sized,
#: so attached views start aligned like a fresh np.empty would).
_ALIGN: int = 64


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
    creator_pid:
        PID of the exporting process.  Attaches outside it and its
        ``multiprocessing`` children are untracked from the resource
        tracker (:func:`_untrack`).
    """

    block: str
    nbytes: int
    entries: tuple[tuple[str, int, tuple[int, ...], str], ...]
    creator_pid: int = -1


def _aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`_ALIGN` boundary."""
    return -(-offset // _ALIGN) * _ALIGN


def _untrack(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Keep an *attached* block from being unlinked by this process's
    resource tracker.

    The stdlib registers every ``SharedMemory`` with the
    ``multiprocessing`` resource tracker, which unlinks whatever it
    still tracks when it exits.  A process that ``multiprocessing``
    started shares its parent's tracker, where registrations dedupe
    into one set: an attach there only re-adds the exporter's own entry
    (the tracker outlives every worker, and the exporter's unlink
    removes the entry once), so it is left alone — unregistering it too
    made two workers attaching at once remove the one entry twice, and
    the tracker logged a ``KeyError``.  Any other process has a tracker
    of its own, which would destroy the block every other process is
    still mapping when that process exits: its attach is untracked.
    """
    parent = multiprocessing.parent_process()
    if creator_pid in (os.getpid(), parent and parent.pid):
        return
    try:  # pragma: no cover - exercised indirectly; stdlib-internal name
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        # Tracker layouts differ across Python patch versions; failing
        # to untrack degrades to a spurious unlink warning at exit,
        # never to corruption.
        pass


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
        The owning handle (caller must eventually ``close()`` +
        ``unlink()`` it) and the picklable manifest attachers consume.

    Raises
    ------
    ValueError
        If ``arrays`` is empty (an empty export is always a caller bug).
    """
    if not arrays:
        raise ValueError("export_shared_arrays needs at least one array")
    packed: list[tuple[str, int, tuple[int, ...], str, NDArray]] = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = _aligned(offset)
        packed.append((key, offset, arr.shape, arr.dtype.str, arr))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for key, off, shape, dtype_str, arr in packed:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=off
            )
            view[...] = arr
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    manifest = SharedArrayManifest(
        block=shm.name,
        nbytes=shm.size,
        entries=tuple(
            (key, off, tuple(shape), dtype_str)
            for key, off, shape, dtype_str, _ in packed
        ),
        creator_pid=os.getpid(),
    )
    return shm, manifest


def attach_shared_arrays(
    manifest: SharedArrayManifest,
) -> tuple[shared_memory.SharedMemory, "dict[str, NDArray]"]:
    """Map a manifest's block and return read-only zero-copy views.

    Parameters
    ----------
    manifest:
        A :class:`SharedArrayManifest` produced by
        :func:`export_shared_arrays` (typically received pickled from
        the exporting process).

    Returns
    -------
    (SharedMemory, dict[str, NDArray])
        The mapping handle — it must stay referenced as long as any view
        is in use (callers tie it to the owning object's lifetime) — and
        one non-writeable view per manifest entry.  No bytes are copied.

    Raises
    ------
    FileNotFoundError
        If the block no longer exists (the exporter unlinked it).
    """
    shm = shared_memory.SharedMemory(name=manifest.block, create=False)
    _untrack(shm, manifest.creator_pid)
    views: dict[str, NDArray] = {}
    for key, off, shape, dtype_str in manifest.entries:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=off
        )
        view.flags.writeable = False
        views[key] = view
    return shm, views


# ----------------------------------------------------------------------
# Request/response slot rings (the zero-copy serving transport)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotRingManifest:
    """Picklable description of one request/response slot ring.

    Attributes
    ----------
    block:
        The ``SharedMemory`` name of the ring's backing block.
    slots:
        Number of request/response slots in the ring.
    n:
        Payload vector length: each slot holds one ``(n,)`` rhs and one
        ``(n,)`` solution vector.
    dtype:
        Numpy dtype string of the payload slabs (the serving boundary
        is fp64 for both the fp64 and mixed-precision solve paths, so
        one payload dtype carries both).
    creator_pid:
        PID of the creating (parent) process; attaches are tracked or
        untracked exactly like :class:`SharedArrayManifest` attaches.
    """

    block: str
    slots: int
    n: int
    dtype: str
    creator_pid: int = -1


class SlotRing:
    """A fixed-size shared-memory request/response ring.

    The zero-copy transport primitive of the process-sharded serving
    tier (:class:`repro.serve.procshard.ProcessShardedSolveService`):
    instead of pickling every rhs into a pipe and every solution out of
    one, the client writes rhs vectors **directly into ring slots** and
    the worker writes solutions back **in place** — the pipe is demoted
    to a doorbell that carries slot ordinals and scalar knobs.

    Layout (one ``SharedMemory`` block, 64-byte-aligned sections)::

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

    Ownership mirrors :func:`export_shared_arrays`: the creator keeps
    the handle and eventually ``close(unlink=True)``\\ s; attachers (the
    workers) only ever ``close()`` their mapping.
    Attached ``rhs`` and ``req_seq`` views are read-only — a worker can
    never corrupt a request in flight; ``x`` and ``resp_seq`` stay
    writable (they are the worker's reply channel).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: SlotRingManifest,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        slots, n = manifest.slots, manifest.n
        dtype = np.dtype(manifest.dtype)
        seq = np.dtype(np.int64)
        off = 0
        self.req_seq = np.ndarray(
            (slots,), dtype=seq, buffer=shm.buf, offset=off
        )
        off = _aligned(off + self.req_seq.nbytes)
        self.resp_seq = np.ndarray(
            (slots,), dtype=seq, buffer=shm.buf, offset=off
        )
        off = _aligned(off + self.resp_seq.nbytes)
        self.rhs = np.ndarray(
            (slots, n), dtype=dtype, buffer=shm.buf, offset=off
        )
        off = _aligned(off + self.rhs.nbytes)
        self.x = np.ndarray(
            (slots, n), dtype=dtype, buffer=shm.buf, offset=off
        )
        if not owner:
            # The worker side replies through x/resp_seq only.
            self.req_seq.flags.writeable = False
            self.rhs.flags.writeable = False
        # Parent-side slot accounting (meaningless on attached rings).
        self._cond = threading.Condition()
        self._free: list[int] = list(range(slots))
        self._slot_of: dict[int, int] = {}  # live ordinal -> slot
        self._next_ordinal = 1
        self._error: BaseException | None = None
        self._closed = False

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
        dtype = np.dtype(dtype)
        seq_nbytes = slots * np.dtype(np.int64).itemsize
        slab_nbytes = slots * n * dtype.itemsize
        size = (
            _aligned(seq_nbytes) + _aligned(seq_nbytes)
            + _aligned(slab_nbytes) + slab_nbytes
        )
        shm = shared_memory.SharedMemory(create=True, size=size)
        try:
            manifest = SlotRingManifest(
                block=shm.name, slots=int(slots), n=int(n), dtype=dtype.str,
                creator_pid=os.getpid(),
            )
            ring = cls(shm, manifest, owner=True)
            ring.req_seq[:] = 0
            ring.resp_seq[:] = 0
        except BaseException:
            # The segment is kernel-side state: if ring construction
            # dies between create and handoff, release it here or it
            # leaks in /dev/shm until reboot.
            shm.close()
            shm.unlink()
            raise
        return ring

    @classmethod
    def attach(cls, manifest: SlotRingManifest) -> "SlotRing":
        """Map an existing ring (worker side, non-owning).

        No attacher's resource tracker may unlink the parent's ring
        (:func:`_untrack`).
        """
        shm = shared_memory.SharedMemory(name=manifest.block, create=False)
        _untrack(shm, manifest.creator_pid)
        return cls(shm, manifest, owner=False)

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
                    f"({self.manifest.slots} slots all in flight)"
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
    def close(self, unlink: bool | None = None) -> None:
        """Unmap the block; the owner unlinks it too (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if unlink is None:
            unlink = self.owner
        # Views alias shm.buf; drop them before closing the mapping or
        # SharedMemory.close() raises BufferError on exported pointers.
        self.req_seq = self.resp_seq = self.rhs = self.x = None
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass
        if unlink:
            unlink_shared_block(self._shm)
