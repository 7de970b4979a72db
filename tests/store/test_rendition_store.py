"""Tests for the persistent rendition/score store itself.

Covers the PR 4 acceptance surface: read-through/write-through behavior,
fingerprint invalidation when a preprocessing DAG changes, crash-safety of
the manifest (checkpoint + log; ``test_manifest_log.py`` has the log's own
cases), content-address verification, and GC.
"""

import gc
import json

import numpy as np
import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import CenterCropOp, NormalizeOp, ResizeOp
from repro.store import (
    RenditionKey,
    RenditionStore,
    ScoreKey,
    dag_fingerprint,
)
from repro.store.manifest import LOG_NAME, MANIFEST_NAME
from repro.utils.rng import deterministic_rng


@pytest.fixture()
def scores() -> np.ndarray:
    values = deterministic_rng("store-scores").normal(size=5000)
    values[0] = np.nan
    return values


@pytest.fixture()
def key() -> ScoreKey:
    return ScoreKey.for_scan("taipei", "specialized-nn", "480p-h264",
                             accuracy=0.9, frames=5000)


def make_store(tmp_path, **kwargs) -> RenditionStore:
    return RenditionStore(tmp_path / "store", chunk_frames=512, **kwargs)


# ----------------------------------------------------------------------
# Read-through / write-through
# ----------------------------------------------------------------------
def test_read_through_computes_once(tmp_path, scores, key):
    store = make_store(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return scores

    first = store.scores_or_compute(key, compute, fingerprint="v1")
    second = store.scores_or_compute(key, compute, fingerprint="v1")
    assert len(calls) == 1
    assert first.read_all().tobytes() == second.read_all().tobytes()
    stats = store.stats()
    assert (stats.read_through_misses, stats.read_through_hits) == (1, 1)


def test_write_through_survives_process_restart(tmp_path, scores, key):
    make_store(tmp_path).put_scores(key, scores, fingerprint="v1")
    # A brand-new handle (fresh in-memory tier) must serve from disk.
    reborn = make_store(tmp_path)
    got = reborn.get_scores(key, fingerprint="v1")
    assert got is not None
    assert got.view(np.int64).tobytes() == scores.view(np.int64).tobytes()


def test_streaming_reader_ranges_and_gather(tmp_path, scores, key):
    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    reader = store.open_scores(key, fingerprint="v1")
    assert reader.length == scores.size
    assert reader.read(0, 0).size == 0
    # Ranges spanning chunk boundaries (chunk_frames=512).
    assert reader.read(500, 1500).tobytes() == scores[500:1500].tobytes()
    indices = np.array([4999, 0, 512, 511, 513, 2048])
    got = reader.gather(indices)
    assert got.view(np.int64).tobytes() == \
        scores[indices].view(np.int64).tobytes()
    with pytest.raises(StoreError):
        reader.read(0, scores.size + 1)
    with pytest.raises(StoreError):
        reader.gather(np.array([scores.size]))


def test_streaming_memory_is_bounded_by_the_chunk_tier(tmp_path, key):
    # A tier that fits only ~2 chunks must still serve the full range,
    # holding at most its byte budget in memory.
    values = deterministic_rng("store-big").normal(size=8192)
    store = RenditionStore(tmp_path / "store", chunk_frames=512,
                           cache_bytes=2 * 512 * 8 + 1)
    store.put_scores(key, values, fingerprint="v1")
    reader = store.open_scores(key, fingerprint="v1")
    assert reader.read_all().tobytes() == values.tobytes()
    stats = store.stats().chunk_cache
    assert stats.bytes_used <= stats.bytes_budget
    assert stats.entries <= 2
    assert stats.evictions > 0


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_dag_spec_change_invalidates_entries(tmp_path, scores, key):
    dag_v1 = PreprocessingDAG.from_ops(
        [ResizeOp(short_side=48), CenterCropOp(size=32), NormalizeOp()]
    )
    dag_v2 = PreprocessingDAG.from_ops(
        [ResizeOp(short_side=64), CenterCropOp(size=32), NormalizeOp()]
    )
    assert dag_fingerprint(dag_v1) != dag_fingerprint(dag_v2)
    # Same op sequence => same fingerprint (it is a spec hash, not id()).
    dag_v1_again = PreprocessingDAG.from_ops(
        [ResizeOp(short_side=48), CenterCropOp(size=32), NormalizeOp()]
    )
    assert dag_fingerprint(dag_v1) == dag_fingerprint(dag_v1_again)

    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint=dag_fingerprint(dag_v1))
    assert store.get_scores(key, fingerprint=dag_fingerprint(dag_v1)) is not None
    # Under the changed DAG the entry is a miss...
    assert store.get_scores(key, fingerprint=dag_fingerprint(dag_v2)) is None
    # ...and a read-through recomputes and replaces it.
    fresh = store.scores_or_compute(key, lambda: scores * 2,
                                    fingerprint=dag_fingerprint(dag_v2))
    assert fresh.read_all()[1] == scores[1] * 2
    assert store.get_scores(key, fingerprint=dag_fingerprint(dag_v1)) is None


def test_invalidate_prefix_then_gc_reclaims_disk(tmp_path, scores, key):
    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    store.put_rendition(
        RenditionKey("taipei", "480p-h264"),
        np.zeros((4, 8, 8, 3), dtype=np.uint8), fingerprint="v1",
    )
    assert store.invalidate("scores/") == 1
    # Default GC ages: the just-written chunks are younger than the reap
    # threshold, so they are left alone (they could belong to a put whose
    # manifest commit is still in flight).
    assert store.gc().removed_objects == 0
    report = store.gc(min_age_seconds=0.0)
    assert report.removed_objects > 0
    assert report.freed_bytes > 0
    # The rendition survives both the invalidation and the GC.
    assert store.rendition_materialized("480p-h264", item="taipei")
    assert store.gc(min_age_seconds=0.0).removed_objects == 0


def test_open_reader_survives_invalidate_and_gc(tmp_path, scores, key):
    # A scan in flight pins its entry: gc must count a live reader's
    # objects as referenced even after the entry left the manifest.
    store = make_store(tmp_path, cache_bytes=1)     # every read hits disk
    store.put_scores(key, scores, fingerprint="v1")
    reader = store.open_scores(key, fingerprint="v1")
    assert reader.read(0, 16).tobytes() == scores[:16].tobytes()
    assert store.invalidate("scores/") == 1
    assert store.gc(min_age_seconds=0.0).removed_objects == 0
    got = reader.read_all()
    assert got.view(np.int64).tobytes() == scores.view(np.int64).tobytes()
    # Once the reader is gone its objects are ordinary garbage.
    del reader, got
    gc.collect()
    assert store.gc(min_age_seconds=0.0).removed_objects == 10


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def test_torn_manifest_tmp_is_ignored(tmp_path, scores, key):
    import os

    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    # Simulate a writer that crashed mid-checkpoint: a torn temp file
    # exists, but the rename that publishes it never happened.
    torn = store.root / (MANIFEST_NAME + ".123-456.tmp")
    torn.write_text("{ torn garbage")
    reborn = make_store(tmp_path)
    assert reborn.get_scores(key, fingerprint="v1") is not None
    # A *fresh* temp might belong to a live writer: GC must leave it.
    assert torn.exists()
    reborn.gc()
    assert torn.exists()
    # Once provably stale (older than the reap threshold), GC removes it.
    ancient = 0
    os.utime(torn, (ancient, ancient))
    reborn.gc()
    assert not torn.exists()


def test_reads_see_entries_committed_by_other_handles(tmp_path, scores,
                                                      key):
    # A long-lived handle must notice entries another handle (stand-in
    # for another process, e.g. `store warm`) commits after it opened:
    # every open reads what the log gained since the handle last looked.
    handle_a = make_store(tmp_path)
    handle_b = make_store(tmp_path)
    assert handle_a.get_scores(key, fingerprint="v1") is None
    handle_b.put_scores(key, scores, fingerprint="v1")
    got = handle_a.get_scores(key, fingerprint="v1")
    assert got is not None
    assert got.view(np.int64).tobytes() == scores.view(np.int64).tobytes()
    handle_b.put_rendition(
        RenditionKey("taipei", "480p-h264"),
        np.zeros((2, 4, 4, 3), dtype=np.uint8), fingerprint="v1",
    )
    assert handle_a.rendition_materialized("480p-h264", item="taipei",
                                           fingerprint="v1")


def test_concurrent_writers_merge_instead_of_clobbering(tmp_path, scores):
    # Interleaved puts from two handles (catch up, then append, under the
    # cross-process lock) must both survive in the final manifest.
    handle_a = make_store(tmp_path)
    handle_b = make_store(tmp_path)
    key_a = ScoreKey.for_scan("taipei", "specialized-nn", "480p-h264",
                              accuracy=0.9, frames=100)
    key_b = ScoreKey.for_scan("rialto", "specialized-nn", "480p-h264",
                              accuracy=0.9, frames=100)
    handle_a.put_scores(key_a, scores[:100], fingerprint="v1")
    handle_b.put_scores(key_b, scores[100:200] * 2, fingerprint="v1")
    fresh = make_store(tmp_path)
    assert fresh.get_scores(key_a, fingerprint="v1") is not None
    assert fresh.get_scores(key_b, fingerprint="v1") is not None


def test_gc_sees_entries_committed_by_other_handles(tmp_path, scores, key):
    # Handle A opens first; handle B then commits a new entry on the same
    # root.  A's gc() must refresh its manifest and treat B's chunks as
    # live, not sweep them as unreferenced.
    handle_a = make_store(tmp_path)
    handle_b = make_store(tmp_path)
    handle_b.put_scores(key, scores, fingerprint="v1")
    # min_age_seconds=0 defeats the age guard on purpose: only the
    # manifest refresh protects B's chunks here.
    report = handle_a.gc(min_age_seconds=0.0)
    assert report.removed_objects == 0
    assert report.live_objects > 0
    assert handle_a.get_scores(key, fingerprint="v1") is not None


def test_crash_before_rename_keeps_previous_manifest(tmp_path, scores, key):
    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    committed = (store.root / LOG_NAME).read_bytes()
    other = ScoreKey.for_scan("rialto", "specialized-nn", "480p-h264",
                              accuracy=0.9, frames=10)
    store.put_scores(other, np.arange(10.0), fingerprint="v1")
    # Roll the log back to the pre-crash state: the second put's chunks
    # exist on disk but are unreferenced -- exactly what a crash between
    # object writes and the manifest commit leaves behind.
    (store.root / LOG_NAME).write_bytes(committed)
    reborn = make_store(tmp_path)
    assert reborn.get_scores(key, fingerprint="v1") is not None
    assert reborn.get_scores(other, fingerprint="v1") is None
    # GC reclaims the orphaned chunks of the uncommitted write.
    assert reborn.gc(min_age_seconds=0.0).removed_objects > 0


def test_corrupt_manifest_raises_store_corruption(tmp_path, scores, key):
    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    (store.root / MANIFEST_NAME).write_text("not json at all")
    with pytest.raises(StoreCorruptionError):
        make_store(tmp_path)


def test_unsupported_schema_version_is_rejected(tmp_path):
    store = make_store(tmp_path)
    store.put_scores(ScoreKey("d", "m", "r"), np.arange(4.0),
                     fingerprint="v1")
    path = store.root / MANIFEST_NAME
    payload = json.loads(path.read_text())
    payload["schema_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(StoreCorruptionError):
        make_store(tmp_path)


def test_flipped_bit_in_object_fails_content_address(tmp_path, scores, key):
    store = make_store(tmp_path)
    store.put_scores(key, scores, fingerprint="v1")
    victim = next(store.root.glob("objects/*/*"))
    corrupted = bytearray(victim.read_bytes())
    corrupted[-1] ^= 0xFF
    victim.write_bytes(bytes(corrupted))
    reborn = make_store(tmp_path)
    with pytest.raises(StoreCorruptionError):
        reborn.get_scores(key, fingerprint="v1")


# ----------------------------------------------------------------------
# Misc surface
# ----------------------------------------------------------------------
def test_rejects_bad_parameters(tmp_path):
    with pytest.raises(StoreError):
        RenditionStore(tmp_path / "s", chunk_frames=0)
    for level in (-2, 10, 42):      # zlib takes -1 (its default) to 9
        with pytest.raises(StoreError, match="compression_level"):
            RenditionStore(tmp_path / "s", compression_level=level)
    for level in (-1, 0, 9):
        RenditionStore(tmp_path / "s", compression_level=level).put_scores(
            ScoreKey("d", "m", str(level)), np.arange(4.0))
    store = make_store(tmp_path)
    with pytest.raises(StoreError):
        store.put_scores(ScoreKey("d", "m", "r"), np.float64(3.0),
                         fingerprint="v1")


def test_rendition_roundtrip_and_catalog_scope(tmp_path):
    store = make_store(tmp_path)
    frames = deterministic_rng("store-frames").integers(
        0, 256, size=(10, 6, 6, 3)
    ).astype(np.uint8)
    store.put_rendition(RenditionKey("taipei", "480p-h264"), frames,
                        fingerprint="v1")
    reader = store.open_rendition(RenditionKey("taipei", "480p-h264"),
                                  fingerprint="v1")
    assert reader.read(2, 7).tobytes() == frames[2:7].tobytes()
    assert store.materialized_renditions() == {"480p-h264"}
    assert store.rendition_materialized("480p-h264", item="taipei")
    assert not store.rendition_materialized("480p-h264", item="rialto")
    assert not store.rendition_materialized("1080p-h264")
