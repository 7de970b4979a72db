"""Smol-Store: the persistent, content-addressed rendition and score store.

The paper's central measurement is that preprocessing -- decode + resize --
dominates end-to-end cost, which makes decoded low-resolution renditions and
the per-frame scores computed from them first-class, *reusable* artifacts.
:class:`RenditionStore` persists both so repeat queries become cache hits:

* **Renditions** -- decoded low-resolution pixel arrays, chunked along the
  frame axis and losslessly compressed with the chunk codec
  (:mod:`repro.codecs.chunked`).
* **Scores** -- per-item model outputs keyed by
  ``(item, model, rendition-spec)`` (:class:`ScoreKey`), stored the same
  chunked way so shard scans can stream a frame range without loading the
  whole table.

On-disk layout (all under one ``root`` directory)::

    root/
      manifest.json           # checkpoint: every entry as of sequence S
      manifest.log            # one checksummed record per commit since S
      objects/<aa>/<sha256>   # content-addressed chunk payloads

Chunks are content-addressed: an object's filename is the SHA-256 of its
encoded payload, so concurrent writers that race on the same deterministic
computation write identical bytes to identical names -- last rename wins and
nothing is corrupted.  The manifest maps logical keys to chunk hashes and
records the *fingerprint* (DAG spec, model identity) each entry was computed
under; a fingerprint mismatch is a miss, which is how a changed
preprocessing DAG or retrained model invalidates stale entries without a
flush (see :mod:`repro.store.manifest`).

An in-memory byte-budgeted LRU tier (:class:`~repro.store.lru.ByteLruCache`)
fronts the disk objects, so hot chunks decode once per process.  The memory
bound of a store-backed reader is ``O(chunk_frames x itemsize)`` per
in-flight chunk plus the shared LRU budget -- *not* ``O(total frames)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import time
import warnings
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.codecs.chunked import decode_array, encode_array
from repro.errors import StoreCorruptionError, StoreError
from repro.obs import NULL_OBS
from repro.store.lru import ByteLruCache, ChunkCacheStats
from repro.store.manifest import Manifest, ManifestEntry, ManifestVersion

DEFAULT_CHUNK_FRAMES = 2048
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

#: A ``.tmp`` file this old is a crashed writer's leftover, not an
#: in-flight write (writers hold their temp files for milliseconds); GC
#: reaps only temps past this age so it never races a live rename.
TMP_REAP_SECONDS = 60.0

#: One-time flag for the non-POSIX degraded-locking warning, so a busy
#: store does not spam a warning per manifest mutation.
_FCNTL_WARNING_EMITTED = False


def _warn_no_flock() -> None:
    global _FCNTL_WARNING_EMITTED
    if _FCNTL_WARNING_EMITTED:
        return
    _FCNTL_WARNING_EMITTED = True
    warnings.warn(
        "fcntl is unavailable on this platform: manifest mutations are "
        "serialized in-process only, and cross-process writers on the "
        "same store root may clobber each other's commits",
        RuntimeWarning,
        stacklevel=3,
    )


def fingerprint_of(*parts: object) -> str:
    """A short stable fingerprint of the given computation identifiers.

    Feed it everything that, when changed, must invalidate stored results:
    the preprocessing-DAG description, the model name/variant, codec
    parameters.  Readers and writers must derive fingerprints from the same
    parts.
    """
    text = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class StoreEvent:
    """One observable change to the store's catalog state.

    Delivered to :meth:`RenditionStore.subscribe` listeners whenever an
    entry lands (``kind`` ``"rendition"`` / ``"scores"``) or entries are
    dropped (``kind`` ``"invalidate"``).  The adaptive replanning loop
    (:mod:`repro.adapt`) listens for these to notice *catalog drift* -- a
    rendition becoming warm mid-query changes which plan is cheapest even
    though no measured cost moved.

    Attributes
    ----------
    kind:
        ``"rendition"``, ``"scores"``, or ``"invalidate"``.
    key:
        The manifest key written (or the invalidated prefix).
    """

    kind: str
    key: str


@dataclass(frozen=True)
class ScoreKey:
    """Identity of one stored score table: (item, model, rendition-spec).

    ``item`` is the corpus the scores cover (a dataset name), ``model`` the
    scoring network, ``rendition`` the input format the model read, and
    ``params`` any scoring parameters that change the values (e.g. the
    specialized NN's accuracy factor and the frame count).
    """

    item: str
    model: str
    rendition: str
    params: tuple[tuple[str, str], ...] = ()

    @classmethod
    def for_scan(cls, dataset: str, model: str, rendition: str,
                 accuracy: float, frames: int) -> "ScoreKey":
        """The key of one cheap-pass scan's score table."""
        return cls(item=dataset, model=model, rendition=rendition,
                   params=(("accuracy", repr(float(accuracy))),
                           ("frames", str(int(frames)))))

    def key(self) -> str:
        """The manifest key string."""
        suffix = "/".join(f"{name}={value}" for name, value in self.params)
        base = f"scores/{self.item}/{self.model}/{self.rendition}"
        return f"{base}/{suffix}" if suffix else base


@dataclass(frozen=True)
class RenditionKey:
    """Identity of one stored decoded rendition: (item, rendition-spec)."""

    item: str
    rendition: str

    def key(self) -> str:
        """The manifest key string."""
        return f"rendition/{self.item}/{self.rendition}"


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of the store's contents and traffic."""

    score_entries: int
    rendition_entries: int
    objects: int
    disk_bytes: int
    read_through_hits: int
    read_through_misses: int
    chunk_cache: ChunkCacheStats
    manifest_sequence: int
    manifest_log_records: int
    manifest_checkpoints: int

    def describe(self) -> str:
        """Multi-line human-readable summary (the ``store stats`` CLI)."""
        total = self.read_through_hits + self.read_through_misses
        hit_rate = self.read_through_hits / total if total else 0.0
        return "\n".join([
            f"entries:      {self.score_entries} score tables, "
            f"{self.rendition_entries} renditions",
            f"objects:      {self.objects} chunks, "
            f"{self.disk_bytes / 1e6:.2f} MB on disk",
            f"manifest:     sequence {self.manifest_sequence}, "
            f"{self.manifest_log_records} log records since checkpoint "
            f"{self.manifest_checkpoints}",
            f"read-through: {self.read_through_hits}/{total} warm "
            f"({hit_rate * 100:.1f}%)",
            f"chunk cache:  {self.chunk_cache.entries} chunks, "
            f"{self.chunk_cache.bytes_used / 1e6:.2f}/"
            f"{self.chunk_cache.bytes_budget / 1e6:.0f} MB, "
            f"{self.chunk_cache.hit_rate * 100:.1f}% hits",
        ])


@dataclass(frozen=True)
class GcReport:
    """Outcome of one garbage-collection pass."""

    removed_objects: int
    freed_bytes: int
    live_objects: int


class ChunkedReader:
    """Streaming view over one stored entry's chunks.

    Reads decode only the chunks covering the requested frame range, through
    the store's shared LRU tier, so a shard scan over a huge table holds at
    most a few chunks in memory (``chunk_frames x row nbytes`` each) instead
    of the whole array.
    """

    def __init__(self, store: "RenditionStore", entry: ManifestEntry) -> None:
        self._store = store
        self._entry = entry
        starts = np.cumsum([0] + list(entry.chunk_lengths))
        self._starts = starts          # chunk i covers [starts[i], starts[i+1])
        self._length = int(starts[-1])

    @property
    def length(self) -> int:
        """Total leading-axis length (frames)."""
        return self._length

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the stored array."""
        return np.dtype(self._entry.dtype)

    def _chunk(self, index: int) -> np.ndarray:
        return self._store._load_chunk(self._entry, index)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """The rows in ``[lo, hi)``, decoded chunk by chunk."""
        if not 0 <= lo <= hi <= self._length:
            raise StoreError(
                f"range [{lo}, {hi}) outside stored length {self._length}"
            )
        obs = self._store._obs
        if obs.enabled:
            with obs.span("store.read", rows=hi - lo, mode="range"):
                return self._read_impl(lo, hi)
        return self._read_impl(lo, hi)

    def _read_impl(self, lo: int, hi: int) -> np.ndarray:
        if lo == hi:
            shape = (0, *self._entry.shape_suffix)
            return np.empty(shape, dtype=self.dtype)
        first = int(np.searchsorted(self._starts, lo, side="right")) - 1
        last = int(np.searchsorted(self._starts, hi, side="left"))
        parts = []
        for index in range(first, last):
            chunk = self._chunk(index)
            start = int(self._starts[index])
            begin = max(lo - start, 0)
            end = min(hi - start, chunk.shape[0])
            parts.append(chunk[begin:end])
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts, axis=0)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """The rows at ``indices`` (any order), decoded chunk by chunk."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, *self._entry.shape_suffix), dtype=self.dtype)
        if idx.min() < 0 or idx.max() >= self._length:
            raise StoreError(
                f"index outside the stored range [0, {self._length})"
            )
        obs = self._store._obs
        if obs.enabled:
            with obs.span("store.read", rows=int(idx.size), mode="gather"):
                return self._gather_impl(idx)
        return self._gather_impl(idx)

    def _gather_impl(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty((idx.size, *self._entry.shape_suffix),
                       dtype=self.dtype)
        owner = np.searchsorted(self._starts, idx, side="right") - 1
        for chunk_index in np.unique(owner):
            mask = owner == chunk_index
            chunk = self._chunk(int(chunk_index))
            out[mask] = chunk[idx[mask] - int(self._starts[chunk_index])]
        return out

    def read_all(self) -> np.ndarray:
        """The whole array (convenience; defeats the streaming bound)."""
        return self.read(0, self._length)


class RenditionStore:
    """Persistent content-addressed store for renditions and score tables.

    Parameters
    ----------
    root:
        Directory holding the manifest and object files; created on demand.
    chunk_frames:
        Leading-axis rows per chunk.  This fixes the streaming memory bound:
        a reader touches one chunk (``chunk_frames`` rows) at a time.
    cache_bytes:
        Budget of the in-memory decoded-chunk LRU tier.
    obs:
        Observability handle (:mod:`repro.obs`).  With tracing enabled,
        reads, puts, and invalidations open ``store.*`` spans parented to
        the ambient trace context (so a traced query shows its store
        traffic), and cache/read-through traffic ticks registry counters.
        The default :data:`~repro.obs.NULL_OBS` keeps every store path
        observation-free; :meth:`attach_obs` rebinds a live handle later.

    The store is safe for concurrent use from multiple threads, handles
    and processes: manifest commits serialize on the root's writer lock
    and readers take none of it (:mod:`repro.store.manifest`), object
    writes are write-to-temp-then-rename, and identical content always
    lands at the same content-addressed name, so racing writers are
    idempotent.
    """

    def __init__(self, root: str | Path,
                 chunk_frames: int = DEFAULT_CHUNK_FRAMES,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 obs=NULL_OBS,
                 faults=NULL_FAULTS) -> None:
        if chunk_frames <= 0:
            raise StoreError("chunk_frames must be positive")
        self._faults = faults if faults is not None else NULL_FAULTS
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._chunk_frames = chunk_frames
        self._writer = threading.Lock()     # this handle's commits, in turn
        self._lock = threading.RLock()      # the fields below
        self._manifest = Manifest.load(self._root, self._faults)
        self._readers: weakref.WeakSet[ChunkedReader] = weakref.WeakSet()
        self._cache = ByteLruCache(cache_bytes)
        self._read_through_hits = 0
        self._read_through_misses = 0
        self._listeners: list = []
        self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Bind an observability handle (pre-binding the hot counters)."""
        self._obs = obs if obs is not None else NULL_OBS
        self._chunk_hits_metric = self._obs.counter(
            "store_chunk_cache_hits_total")
        self._chunk_misses_metric = self._obs.counter(
            "store_chunk_cache_misses_total")
        self._warm_metric = self._obs.counter(
            "store_read_through_total", result="hit")
        self._cold_metric = self._obs.counter(
            "store_read_through_total", result="miss")
        self._puts_metric = self._obs.counter("store_puts_total")
        self._invalidations_metric = self._obs.counter(
            "store_invalidated_entries_total")
        self._appends_metric = self._obs.counter(
            "store_manifest_appends_total")
        self._checkpoints_metric = self._obs.counter(
            "store_manifest_checkpoints_total")
        self._log_bytes_metric = self._obs.gauge("store_manifest_log_bytes")
        self._sequence_metric = self._obs.gauge("store_manifest_sequence")

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @property
    def chunk_frames(self) -> int:
        """Rows per chunk (the streaming granularity)."""
        return self._chunk_frames

    # ------------------------------------------------------------------
    # Object layer (content-addressed chunks)
    # ------------------------------------------------------------------
    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / digest

    def _write_object(self, payload: bytes) -> str:
        digest = hashlib.sha256(payload).hexdigest()
        shard = f"{self._objects}/{digest[:2]}"
        path = f"{shard}/{digest}"
        try:
            # Refresh the mtime: GC's age guard treats young objects as
            # possibly-uncommitted, so a re-put of content that already
            # exists (e.g. after an invalidation) must look young again or
            # a concurrent GC could sweep it between this dedupe and the
            # manifest commit.
            os.utime(path)
            return digest
        except FileNotFoundError:
            pass  # new content (or reaped concurrently): write it
        tmp = f"{path}.tmp{os.getpid()}-{threading.get_ident()}"
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(shard, exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(payload)
        os.replace(tmp, path)
        return digest

    def _load_chunk(self, entry: ManifestEntry, index: int) -> np.ndarray:
        digest = entry.objects[index]
        cached = self._cache.get(digest)
        if cached is not None:
            self._chunk_hits_metric.inc()
            return cached
        self._chunk_misses_metric.inc()
        path = self._object_path(digest)
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise StoreCorruptionError(
                f"chunk object {digest} is missing from {self._objects}"
            ) from exc
        if hashlib.sha256(payload).hexdigest() != digest:
            raise StoreCorruptionError(
                f"chunk object {digest} fails its content address"
            )
        array = decode_array(payload)
        self._cache.put(digest, array)
        return array

    # ------------------------------------------------------------------
    # Entry layer (put / get / read-through)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _manifest_lock(self):
        """Serialize manifest *writers* across handles & processes.

        The in-process lock puts this handle's writing threads in turn;
        the ``flock`` on a sibling lockfile does the same for *other*
        handles and processes on the same root, so every commit's
        sequence follows the one before it and a GC sweep sees no commit
        land under it.  Readers never come here.  (On platforms without
        ``fcntl`` only the in-process lock applies.)
        """
        with self._writer:
            if fcntl is None:
                _warn_no_flock()
                yield
                return
            with open(self._root / "manifest.lock", "w") as lockfile:
                fcntl.flock(lockfile, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(lockfile, fcntl.LOCK_UN)

    def _put_entry(self, key: str, kind: str, array: np.ndarray,
                   fingerprint: str, meta: dict | None = None) -> None:
        arr = np.asarray(array)
        if arr.ndim < 1:
            raise StoreError("stored arrays need at least a frame axis")
        arr = np.ascontiguousarray(arr)
        objects: list[str] = []
        chunk_lengths: list[int] = []
        for offset in range(0, arr.shape[0], self._chunk_frames):
            chunk = arr[offset:offset + self._chunk_frames]
            objects.append(
                self._write_object(encode_array(chunk))
            )
            chunk_lengths.append(int(chunk.shape[0]))
        entry = ManifestEntry(
            kind=kind, fingerprint=fingerprint, objects=objects,
            chunk_lengths=chunk_lengths, dtype=arr.dtype.str,
            shape_suffix=list(arr.shape[1:]), meta=dict(meta or {}),
        )
        self._puts_metric.inc()
        if self._obs.enabled:
            self._obs.record("store.put", 0.0, key=key, kind=kind,
                             chunks=len(objects), rows=int(arr.shape[0]))
        with self._manifest_lock():
            # Chaos seam: a torn-manifest fault here leaves a torn record
            # at the log's tail (and aborts the commit) exactly where a
            # crashed writer would -- the entry must NOT become visible.
            self._faults.hit("store.manifest.save", store=self,
                             root=self._root, key=key)
            self._commit("put", key=key, entry=entry)
        self._notify(StoreEvent(kind=kind, key=key))

    def _commit(self, op: str, **fields) -> None:
        """One manifest commit; the caller holds :meth:`_manifest_lock`."""
        with self._lock:
            manifest = self._manifest
            checkpoints = manifest.checkpoints
            version = manifest.commit(op, **fields)
            checkpointed = manifest.checkpoints - checkpoints
            log_bytes, base = manifest.log_bytes, manifest.log_base
            seconds = manifest.checkpoint_seconds
        self._appends_metric.inc()
        self._log_bytes_metric.set(log_bytes)
        self._sequence_metric.set(version.sequence)
        if checkpointed:
            self._checkpoints_metric.inc(checkpointed)
            if self._obs.enabled:
                self._obs.record("store.checkpoint", seconds, sequence=base)

    def _refresh(self) -> ManifestVersion:
        """The newest committed version, other handles' commits included.

        Reads only the log bytes past this handle's offset and takes no
        ``flock``: a half-written record fails its check and is simply
        not committed yet.  The version returned is immutable, so callers
        use it after the mutex is released.
        """
        with self._lock:
            return self._manifest.refresh()

    def _open_entry(self, key: str, kind: str,
                    fingerprint: str) -> ChunkedReader | None:
        entry = self._refresh().entries.get(key)
        if entry is None or entry.fingerprint != fingerprint \
                or entry.kind != kind:
            return None
        reader = ChunkedReader(self, entry)
        with self._lock:
            self._readers.add(reader)   # pins the entry's objects against gc
        return reader

    # -- scores --------------------------------------------------------
    def put_scores(self, key: ScoreKey, scores: np.ndarray,
                   fingerprint: str = "") -> None:
        """Write-through one score table (chunked, lossless)."""
        self._put_entry(key.key(), "scores", np.asarray(scores), fingerprint,
                        meta={"item": key.item, "model": key.model,
                              "rendition": key.rendition})

    def open_scores(self, key: ScoreKey,
                    fingerprint: str = "") -> ChunkedReader | None:
        """A streaming reader over a stored score table; None on miss."""
        return self._open_entry(key.key(), "scores", fingerprint)

    def get_scores(self, key: ScoreKey,
                   fingerprint: str = "") -> np.ndarray | None:
        """The full score table; None on miss (prefer :meth:`open_scores`)."""
        reader = self.open_scores(key, fingerprint)
        return None if reader is None else reader.read_all()

    def scores_or_compute(self, key: ScoreKey,
                          compute: Callable[[], np.ndarray],
                          fingerprint: str = "") -> ChunkedReader:
        """Read-through: open the stored table or compute-and-store it.

        ``compute`` runs at most once per miss; concurrent misses on the
        same key may each compute, but the results are deterministic and
        content-addressed, so the duplicate writes are idempotent.
        """
        reader = self.open_scores(key, fingerprint)
        if reader is not None:
            with self._lock:
                self._read_through_hits += 1
            self._warm_metric.inc()
            return reader
        with self._lock:
            self._read_through_misses += 1
        self._cold_metric.inc()
        self.put_scores(key, compute(), fingerprint)
        reader = self.open_scores(key, fingerprint)
        if reader is None:  # pragma: no cover - write-then-open cannot miss
            raise StoreError(f"entry {key.key()!r} vanished after write")
        return reader

    # -- renditions ----------------------------------------------------
    def put_rendition(self, key: RenditionKey, frames: np.ndarray,
                      fingerprint: str = "") -> None:
        """Write-through one decoded rendition (frames on the leading axis)."""
        self._put_entry(key.key(), "rendition", np.asarray(frames),
                        fingerprint,
                        meta={"item": key.item, "rendition": key.rendition})

    def open_rendition(self, key: RenditionKey,
                       fingerprint: str = "") -> ChunkedReader | None:
        """A streaming reader over a stored rendition; None on miss."""
        return self._open_entry(key.key(), "rendition", fingerprint)

    def rendition_materialized(self, rendition: str,
                               item: str | None = None,
                               fingerprint: str | None = None) -> bool:
        """True when a decoded rendition with this spec is stored.

        ``item`` restricts the check to one dataset; without it, any stored
        rendition of the spec counts (the planner-facing question).
        ``fingerprint`` (when not None) additionally requires the entry to
        match that version -- a rendition invalidated by a DAG or model
        change must not count as materialized, or the planner would price
        a discount the read path cannot deliver.
        """
        return rendition in self.materialized_renditions(item, fingerprint)

    def materialized_renditions(self, item: str | None = None,
                                fingerprint: str | None = None) -> set[str]:
        """Rendition spec names with at least one stored decoded copy."""
        return {
            entry.meta.get("rendition", "")
            for entry in self._refresh().entries.values()
            if entry.kind == "rendition"
            and (item is None or entry.meta.get("item") == item)
            and (fingerprint is None or entry.fingerprint == fingerprint)
        }

    def catalog(self, item: str | None = None,
                fingerprint: str | None = None):
        """A planner-facing :class:`~repro.store.catalog.StoreCatalog`."""
        from repro.store.catalog import StoreCatalog

        return StoreCatalog(self, item=item, fingerprint=fingerprint)

    # ------------------------------------------------------------------
    # Change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register ``listener(event: StoreEvent)`` for catalog changes.

        Fired after an entry commits (``put_scores`` / ``put_rendition``,
        including read-through computes) and after :meth:`invalidate`
        drops entries -- the moments a cache-aware plan's relative price
        changes.  Listeners run on the writing thread, outside the
        manifest lock; exceptions are swallowed (notification is advisory,
        persistence is not allowed to fail because a subscriber did).
        """
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, event: StoreEvent) -> None:
        # Catalog changes are replan triggers; a breadcrumb in the flight
        # recorder lets a postmortem correlate a swap with what moved.
        self._obs.note("store.event", event_kind=event.kind, key=event.key)
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(event)
            except Exception:
                continue

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate(self, prefix: str = "") -> int:
        """Drop every entry whose key starts with ``prefix``; returns count.

        Dropping the entries leaves their chunk objects unreferenced; run
        :meth:`gc` afterwards to reclaim the disk space.
        """
        with self._manifest_lock():
            doomed = [key for key in self._refresh().entries
                      if key.startswith(prefix)]
            if doomed:
                self._commit("drop", keys=doomed)
        if doomed:
            self._invalidations_metric.inc(len(doomed))
            if self._obs.enabled:
                self._obs.record("store.invalidate", 0.0, prefix=prefix,
                                 dropped=len(doomed))
            self._notify(StoreEvent(kind="invalidate", key=prefix))
        return len(doomed)

    def gc(self, min_age_seconds: float = TMP_REAP_SECONDS) -> GcReport:
        """Remove object files no manifest entry references.

        The manifest is refreshed first, so entries committed by other
        store handles (or processes) on the same root are counted as live
        -- GC never deletes data a committed manifest references -- and so
        are the objects of every :class:`ChunkedReader` this handle opened
        that is still alive: a scan outlives the invalidation of its entry.

        ``min_age_seconds`` guards against racing in-flight writers: a
        concurrent ``put`` renames its chunk objects into place *before*
        committing the manifest entry that references them, so a young
        unreferenced object (and likewise a young ``.tmp`` file) may
        belong to a write still in progress and is left alone.  The
        default (:data:`TMP_REAP_SECONDS`) is far above any real write's
        window; pass ``0.0`` only when no other writer can be active
        (tests, single-process demos) to reclaim immediately.

        On platforms without ``fcntl`` the cross-process manifest lock is
        unavailable, so the age guard cannot be trusted against writers
        in other processes: age-guarded GC refuses to run
        (:class:`~repro.errors.StoreError`).  An explicit
        ``min_age_seconds=0.0`` -- the caller asserting no other writer
        exists -- is still honored.
        """
        if fcntl is None and min_age_seconds > 0:
            raise StoreError(
                "gc with an age guard needs cross-process manifest "
                "locking (fcntl), which this platform lacks; pass "
                "min_age_seconds=0.0 only if no other writer can be "
                "active"
            )
        now = time.time()
        removed = 0
        freed = 0
        live = 0

        def stale(path: Path) -> bool:
            return now - path.stat().st_mtime > min_age_seconds

        # Hold the cross-process manifest lock for the whole sweep: no
        # writer can commit a manifest entry mid-GC, so the referenced
        # set cannot go stale between snapshot and unlink.  (A writer's
        # pre-commit object writes/utimes can still interleave -- the
        # age guard covers those.)
        with self._manifest_lock():
            with self._lock:
                pinned = [self._refresh().entries.values(),
                          [reader._entry for reader in self._readers]]
            referenced = {digest for entries in pinned
                          for entry in entries for digest in entry.objects}
            temps = [path
                     for path in (list(self._objects.glob("*/*"))
                                  + [p for p in self._root.iterdir()
                                     if p.is_file()])
                     if ".tmp" in path.name]
            for path in temps:
                try:
                    if stale(path):
                        path.unlink()
                except OSError:
                    pass  # already renamed or reaped by its writer
            for path in self._objects.glob("*/*"):
                if ".tmp" in path.name:
                    continue
                if path.name in referenced:
                    live += 1
                    continue
                try:
                    if not stale(path):
                        # Possibly an in-flight put's uncommitted chunk
                        # (fresh writes and re-put dedupes both refresh
                        # the mtime).
                        continue
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue  # committed or reaped concurrently
                freed += size
                removed += 1
        return GcReport(removed_objects=removed, freed_bytes=freed,
                        live_objects=live)

    def stats(self) -> StoreStats:
        """Snapshot of entries, disk usage, and cache traffic.

        Entry counts reflect the on-disk manifest (refreshed here, so
        entries committed by other handles are visible); in-flight or
        crashed writers' ``.tmp`` files are not counted as objects --
        they are uncommitted, the same view :meth:`gc` takes.
        """
        with self._lock:
            version = self._refresh()
            log_records = self._manifest.log_records
            checkpoints = self._manifest.checkpoints
            hits = self._read_through_hits
            misses = self._read_through_misses
        kinds = [entry.kind for entry in version.entries.values()]
        objects = 0
        disk = 0
        for path in self._objects.glob("*/*"):
            if ".tmp" in path.name:
                continue
            objects += 1
            disk += path.stat().st_size
        return StoreStats(
            score_entries=kinds.count("scores"),
            rendition_entries=kinds.count("rendition"),
            objects=objects,
            disk_bytes=disk,
            read_through_hits=hits,
            read_through_misses=misses,
            chunk_cache=self._cache.stats(),
            manifest_sequence=version.sequence,
            manifest_log_records=log_records,
            manifest_checkpoints=checkpoints,
        )
