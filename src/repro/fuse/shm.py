"""Zero-copy shared-memory batch transport for process workers.

A process worker's child posts each batch's predictions (often float64
scores reinterpreted as int64 bit patterns) in a
:class:`multiprocessing.shared_memory` segment: the child writes the
prediction array into a named segment once, the queue carries only a tiny
:class:`ShmBatchRef` descriptor, and the parent maps the segment, copies the
batch out (decoupling array lifetime from the segment), and unlinks it.

Lifecycle rules:

* the **publisher** (child) creates and fills the segment and forgets it --
  ownership transfers with the descriptor;
* the **consumer** (parent) unlinks on attach, so a delivered batch leaves
  nothing behind;
* segments whose descriptor never arrives (worker killed mid-flight) carry
  a per-worker name prefix, and :meth:`ShmBatchTransport.sweep` removes
  every leftover ``/dev/shm`` entry under that prefix -- the parent sweeps
  on kill and close, so crashes cannot leak.

Platforms without ``multiprocessing.shared_memory`` (or callers forcing it)
fall back to inlining the raw bytes in the descriptor; round-trip results
are identical either way, including NaN payloads and subnormals, because
both paths move raw IEEE-754 bytes.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - import success is the normal path
    from multiprocessing import shared_memory as _shared_memory
    HAS_SHM = True
except ImportError:  # pragma: no cover - exercised via force_inline tests
    _shared_memory = None
    HAS_SHM = False

#: Where POSIX shared memory appears as files (Linux); sweeps scan it.
SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ShmBatchRef:
    """Picklable descriptor of one published batch.

    Exactly one of ``name`` (shared-memory segment) or ``inline`` (raw
    bytes fallback) is set; ``shape``/``dtype`` reconstruct the array.
    """

    shape: tuple[int, ...]
    dtype: str
    name: str | None = None
    inline: bytes | None = None

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape,
                                                               dtype=np.int64)))


class ShmBatchTransport:
    """Publish/attach endpoint of the shared-memory batch channel.

    One transport lives on each side of a worker process boundary, built
    with the same ``prefix``: the child publishes under it, the parent
    attaches by descriptor and sweeps by prefix.  ``force_inline=True``
    (or a platform without shared memory) degrades to inline bytes with
    identical semantics.
    """

    def __init__(self, prefix: str, force_inline: bool = False) -> None:
        if not prefix or "/" in prefix:
            raise ValueError(f"invalid shm prefix {prefix!r}")
        self._prefix = prefix
        self._inline = bool(force_inline) or not HAS_SHM
        self._lock = threading.Lock()
        self._sequence = 0
        self.published = 0
        self.attached = 0
        self.inline_batches = 0
        self.swept = 0

    @property
    def prefix(self) -> str:
        """The per-worker segment name prefix."""
        return self._prefix

    @property
    def uses_shm(self) -> bool:
        """True when batches ride shared memory (not the inline fallback)."""
        return not self._inline

    def _next_name(self) -> str:
        with self._lock:
            self._sequence += 1
            return f"{self._prefix}{self._sequence}"

    def publish(self, array: np.ndarray) -> ShmBatchRef:
        """Publish one array; returns the descriptor to send over the queue."""
        array = np.ascontiguousarray(array)
        shape = tuple(int(dim) for dim in array.shape)
        dtype = array.dtype.str
        if self._inline or array.nbytes == 0:
            with self._lock:
                self.published += 1
                self.inline_batches += 1
            return ShmBatchRef(shape=shape, dtype=dtype,
                               inline=array.tobytes())
        name = self._next_name()
        segment = _shared_memory.SharedMemory(name=name, create=True,
                                              size=array.nbytes)
        try:
            view = np.ndarray(shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            del view
        finally:
            segment.close()
        # Ownership transfers to the consumer: keep this process's resource
        # tracker from unlinking (and warning about) the segment when the
        # publisher exits before the parent has read it.
        _untrack(name)
        with self._lock:
            self.published += 1
        return ShmBatchRef(shape=shape, dtype=dtype, name=name)

    def attach(self, ref: ShmBatchRef) -> np.ndarray:
        """Materialize a published batch; unlinks the segment (shm path).

        The returned array is a private copy, so its lifetime is decoupled
        from the segment.  Raises ``FileNotFoundError`` when the segment
        was already swept (publisher killed and cleaned up).
        """
        if ref.inline is not None:
            with self._lock:
                self.attached += 1
            return np.frombuffer(ref.inline,
                                 dtype=ref.dtype).reshape(ref.shape).copy()
        if not HAS_SHM:  # pragma: no cover - shm ref on a no-shm platform
            raise FileNotFoundError(
                f"segment {ref.name!r}: shared memory unavailable"
            )
        # Attaching registers with this process's resource tracker and the
        # unlink below unregisters -- balanced, so no extra untrack here.
        segment = _shared_memory.SharedMemory(name=ref.name)
        try:
            batch = np.ndarray(ref.shape, dtype=ref.dtype,
                               buffer=segment.buf).copy()
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent sweep
                pass
        with self._lock:
            self.attached += 1
        return batch

    def sweep(self) -> list[str]:
        """Remove every leftover segment under this transport's prefix.

        Returns the removed names.  Call after killing the publisher (and
        at close) so in-flight batches whose descriptors never arrived do
        not leak ``/dev/shm`` entries.
        """
        removed: list[str] = []
        if self._inline or not os.path.isdir(SHM_DIR):
            return removed
        try:
            entries = os.listdir(SHM_DIR)
        except OSError:  # pragma: no cover - /dev/shm unreadable
            return removed
        for entry in entries:
            if not entry.startswith(self._prefix):
                continue
            try:
                os.unlink(os.path.join(SHM_DIR, entry))
            except OSError:  # pragma: no cover - concurrent unlink
                continue
            removed.append(entry)
        with self._lock:
            self.swept += len(removed)
        return removed


def _untrack(name: str) -> None:
    """Best-effort: drop ``name`` from this process's resource tracker."""
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def worker_shm_prefix(worker_id: str, pid: int | None = None) -> str:
    """The deterministic segment prefix for one worker's batches.

    Deterministic given (parent pid, worker id) so the parent can sweep a
    killed child's leftovers without having seen their descriptors.
    """
    if pid is None:
        pid = os.getpid()
    safe = "".join(ch if ch.isalnum() else "-" for ch in worker_id)
    return f"smolfuse-{pid}-{safe}-"
