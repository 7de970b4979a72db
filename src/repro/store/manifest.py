"""The store's manifest: a checkpoint plus an append-only, versioned log.

The manifest is the single source of truth for what the store contains: a
mapping from logical entry keys (``scores/...``, ``rendition/...``) to the
content-addressed objects holding their chunks, plus the fingerprint each
entry was computed under.  On disk it is two files:

* ``manifest.json`` -- the *checkpoint*: every entry as of sequence ``S``,
  one compact JSON document written to a writer-unique temp file and
  ``os.replace``\\ d into place.
* ``manifest.log`` -- a fixed-size header naming the sequence the log
  continues from, then one line per commit, ``<crc32> <json>\\n``, where the
  JSON carries ``seq``, ``op`` (``put`` with ``key`` + ``entry``, or
  ``drop`` with ``keys``).

What makes that safe:

* **A commit is one ``O_APPEND`` write** under the root's writer lock.  A
  line that is incomplete or fails its CRC is *not committed*: readers stop
  in front of it, and the next writer truncates it away before appending.
* **Readers take no lock.**  A handle keeps an immutable
  :class:`ManifestVersion` and its byte offset into the log;
  :meth:`Manifest.refresh` reads only the bytes past that offset.  A log
  whose header names another base was reset by a checkpoint: the handle
  reads that log first and the checkpoint second, so the checkpoint is
  never older than the log's base.
* **Checkpoint, then reset.**  Once the log outgrows the checkpoint it
  extends, the writer replaces ``manifest.json`` and only then replaces the
  log with an empty one.  Records at or below the checkpoint's sequence are
  skipped on replay, so a crash between the two steps loses nothing.
* **Versioned invalidation.**  Each entry records the ``fingerprint`` of
  the computation that produced it; a reader presents its own, and a
  mismatch is a miss.  ``schema_version`` guards the layout the same way:
  version 1 (one whole-file ``manifest.json``, no log) still opens, and the
  first mutation checkpoints it as version 2 so the code that wrote it
  refuses the root rather than miss what the log holds.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.faults import NULL_FAULTS
from repro.errors import StoreCorruptionError, StoreError

SCHEMA_VERSION = 2
MANIFEST_NAME = "manifest.json"
LOG_NAME = "manifest.log"

#: The log is folded into a new checkpoint once it is larger than both this
#: and the checkpoint it extends, so the bytes checkpointing rewrites stay
#: proportional to the bytes commits appended.
MIN_CHECKPOINT_LOG_BYTES = 64 * 1024

_HEADER = b"smol-manifest-log base=%020d\n"
_HEADER_BYTES = len(_HEADER % 0)
_HEADER_RE = re.compile(rb"smol-manifest-log base=(\d{20})\n")


@dataclass
class ManifestEntry:
    """One logical array stored as a sequence of content-addressed chunks.

    Attributes
    ----------
    kind:
        ``"scores"`` or ``"rendition"``.
    fingerprint:
        Version tag of the producing computation; compared on every read.
    objects:
        Content hashes of the entry's chunks, in order.
    chunk_lengths:
        Leading-axis length of each chunk (frames per chunk), so a reader
        can map a frame range onto chunk indices without decoding anything.
    dtype / shape_suffix:
        Array dtype string and the per-frame shape (everything after the
        leading frame axis).
    meta:
        Free-form producer metadata (dataset, model, rendition parameters).
    """

    kind: str
    fingerprint: str
    objects: list[str]
    chunk_lengths: list[int]
    dtype: str
    shape_suffix: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Total leading-axis length across all chunks."""
        return sum(self.chunk_lengths)


@dataclass(frozen=True)
class ManifestVersion:
    """The catalog as of one commit: immutable once published.

    A handle swaps in a new version (a fresh ``entries`` dict) per refresh
    that found commits, so whoever holds a version can iterate it without a
    lock while writers move on.
    """

    sequence: int = 0
    entries: dict[str, ManifestEntry] = field(default_factory=dict)


def _entry(key: str, raw: dict) -> ManifestEntry:
    try:
        return ManifestEntry(**raw)
    except TypeError as exc:
        raise StoreCorruptionError(
            f"manifest entry {key!r} is malformed: {exc}") from exc


def _record(line: bytes) -> dict | None:
    """The record one log line carries; None when it fails its check."""
    crc, _, body = line.partition(b" ")
    try:
        if len(crc) != 8 or int(crc, 16) != zlib.crc32(body):
            return None
        return json.loads(body)
    except ValueError:
        return None


def _replace(path: str, data: bytes) -> None:
    """Write ``data`` to a writer-unique sibling temp, then rename it in."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


class Manifest:
    """One handle's view of a root's manifest, and the writer protocol.

    ``version`` is the newest :class:`ManifestVersion` this handle has
    read.  :meth:`refresh` needs no lock against other handles or
    processes; :meth:`commit` and :meth:`checkpoint` must run under the
    root's writer lock.  The object itself is not thread-safe: the store
    calls it under its own mutex.
    """

    def __init__(self, directory: Path, faults=NULL_FAULTS) -> None:
        self._checkpoint_path = os.path.join(directory, MANIFEST_NAME)
        self._log_path = os.path.join(directory, LOG_NAME)
        self._faults = faults
        self.version = ManifestVersion()
        self._checkpoint_id = None      # (inode, mtime) of the one read
        self.checkpoints = 0            # ever written to this root
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0   # what the latest one took
        self.log_base: int | None = None    # None: the root has no log
        self._log_inode = None          # of the log file last read
        self.log_bytes = 0              # consumed: ends the last good record
        self.log_records = 0

    @classmethod
    def load(cls, directory: Path, faults=NULL_FAULTS) -> "Manifest":
        """Open the manifest in ``directory`` (empty if absent)."""
        manifest = cls(directory, faults)
        manifest.refresh()
        return manifest

    def refresh(self) -> ManifestVersion:
        """Catch up with what other handles committed; the newest version."""
        self._catch_up()
        return self.version

    def _catch_up(self) -> int:
        """Apply the log past this handle's offset, without any lock.

        Returns how many bytes follow the last good record: a commit in
        flight, or a crashed writer's torn tail.  One ``stat`` when the
        log is the file last read and ends at this handle's offset.
        """
        try:
            stat = os.stat(self._log_path)
            if (stat.st_ino, stat.st_size) == (self._log_inode,
                                               self.log_bytes):
                # (A later log reusing this inode at exactly this length
                # would only defer the catch-up to the next append: every
                # read checks the header.)
                return 0
            with open(self._log_path, "rb", buffering=0) as log:
                self._log_inode = os.fstat(log.fileno()).st_ino
                header = _HEADER_RE.fullmatch(log.read(_HEADER_BYTES))
                if header is None:
                    raise StoreCorruptionError(
                        f"{self._log_path} does not start with a "
                        "manifest-log header")
                base = int(header[1])
                if base == self.log_base:
                    log.seek(self.log_bytes)
                tail = log.read()
        except FileNotFoundError:
            base, tail = None, b""
        if base != self.log_base or (base is None
                                     and self._checkpoint_replaced()):
            # A log some checkpoint started since this handle last looked
            # (the log was read first: the checkpoint on disk now cannot
            # predate its base), or a root without a log (fresh, or
            # version 1) whose ``manifest.json`` is not the one last read.
            self._load_checkpoint()
            if base is not None and base > self.version.sequence:
                raise StoreCorruptionError(
                    f"{self._log_path} continues from sequence {base} but "
                    f"the checkpoint ends at {self.version.sequence}")
            self.log_base, self.log_records = base, 0
            self.log_bytes = 0 if base is None else _HEADER_BYTES
        return self._apply(tail)

    def _checkpoint_replaced(self) -> bool:
        try:
            stat = os.stat(self._checkpoint_path)
        except FileNotFoundError:
            return self._checkpoint_id is not None
        return (stat.st_ino, stat.st_mtime_ns) != self._checkpoint_id

    def _load_checkpoint(self) -> None:
        try:
            with open(self._checkpoint_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                self._checkpoint_id = stat.st_ino, stat.st_mtime_ns
                data = handle.read()
        except FileNotFoundError:
            self.version, self.checkpoint_bytes = ManifestVersion(), 0
            self._checkpoint_id = None
            return
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise StoreCorruptionError(
                f"manifest at {self._checkpoint_path} is unreadable: {exc}"
            ) from exc
        schema = payload.get("schema_version")
        if schema not in (1, SCHEMA_VERSION):
            raise StoreCorruptionError(
                f"manifest schema {schema!r} is not a supported version "
                f"(1 or {SCHEMA_VERSION})")
        self.checkpoint_bytes = len(data)
        self.checkpoints = int(payload.get("checkpoints", 0))
        self.version = ManifestVersion(
            int(payload.get("sequence", 0)),
            {key: _entry(key, raw)
             for key, raw in payload.get("entries", {}).items()})

    def _apply(self, data: bytes) -> int:
        """Replay whole, valid records of ``data``; returns the bytes left."""
        sequence, entries, done, records = self.version.sequence, None, 0, 0
        while (end := data.find(b"\n", done)) >= 0:
            record = _record(data[done:end])
            if record is None:
                break
            done, records = end + 1, records + 1
            if record["seq"] <= sequence:
                continue        # the checkpoint already holds it
            if record["seq"] != sequence + 1:
                raise StoreCorruptionError(
                    f"{self._log_path} jumps from sequence {sequence} to "
                    f"{record['seq']}")
            sequence += 1
            if entries is None:
                entries = dict(self.version.entries)
            if record["op"] == "put":
                entries[record["key"]] = _entry(record["key"],
                                                record["entry"])
            else:
                for key in record["keys"]:
                    entries.pop(key, None)
        self.log_bytes += done
        self.log_records += records
        if entries is not None:
            self.version = ManifestVersion(sequence, entries)
        return len(data) - done

    def commit(self, op: str, **fields) -> ManifestVersion:
        """Append one record (the caller holds the root's writer lock).

        Catches up first, so the record's sequence follows whatever other
        writers committed; a torn tail is truncated away, and a log that
        has outgrown its checkpoint (or a root that has no log yet) is
        checkpointed *before* the append, so a failure there fails the
        commit instead of following it.
        """
        torn = self._catch_up()
        if self.log_base is None or self.log_bytes > max(
                MIN_CHECKPOINT_LOG_BYTES, self.checkpoint_bytes):
            self.checkpoint()
        elif torn:
            os.truncate(self._log_path, self.log_bytes)
        body = json.dumps({"seq": self.version.sequence + 1, "op": op,
                           **fields},
                          separators=(",", ":"), default=vars).encode()
        line = b"%08x %s\n" % (zlib.crc32(body), body)
        fd = os.open(self._log_path, os.O_WRONLY | os.O_APPEND)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise StoreError(
                f"short write to {self._log_path}: the record is not "
                "committed (the next commit truncates it away)")
        self._apply(line)
        return self.version

    def checkpoint(self) -> None:
        """Fold the log into ``manifest.json``, then start an empty log."""
        start = time.perf_counter()
        version = self.version
        payload = json.dumps(
            {"schema_version": SCHEMA_VERSION, "sequence": version.sequence,
             "checkpoints": self.checkpoints + 1,
             "entries": version.entries},
            separators=(",", ":"), default=vars).encode()
        _replace(self._checkpoint_path, payload)
        self.checkpoint_bytes = len(payload)
        self.checkpoints += 1
        # Chaos seam: a crash here leaves the new checkpoint beside the
        # old log, whose records replay skips.
        self._faults.hit("store.checkpoint", sequence=version.sequence)
        _replace(self._log_path, _HEADER % version.sequence)
        self._log_inode = None
        self.log_base, self.log_records = version.sequence, 0
        self.log_bytes = _HEADER_BYTES
        self.checkpoint_seconds = time.perf_counter() - start
