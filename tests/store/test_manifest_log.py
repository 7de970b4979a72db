"""The manifest as a checkpoint plus an append-only log.

What a put costs (one record, whatever the catalog's size), what a crashed
writer can leave behind (a torn tail; a new checkpoint beside the old log)
and what every handle sees afterwards, the version-1 root recorded at the
parent commit, and the store's manifest instruments.
"""

import gc
import json
import shutil
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.store.manifest as manifest_module
from repro.chaos.faults import ChaosFault
from repro.errors import StoreCorruptionError
from repro.obs import Observability
from repro.store import Manifest, RenditionKey, RenditionStore, ScoreKey
from repro.store.manifest import LOG_NAME, MANIFEST_NAME
from repro.utils.rng import deterministic_rng
from store_testlib import DieInCheckpoint

V1_ROOT = Path(__file__).parent / "fixtures" / "v1_root"


def table(index: int) -> np.ndarray:
    return np.arange(6, dtype=np.float32) + index


def score_key(index: int) -> ScoreKey:
    return ScoreKey(f"item-{index:05d}", "mini", "32px")


def make_store(tmp_path, **kwargs) -> RenditionStore:
    return RenditionStore(tmp_path / "store", chunk_frames=4, **kwargs)


def stored(store: RenditionStore) -> dict[str, bytes]:
    """Every committed score table as the handle serves it right now."""
    keys = Manifest.load(store.root).version.entries
    return {key: store.get_scores(ScoreKey(*key.split("/")[1:])).tobytes()
            for key in keys}


@pytest.fixture()
def eager_checkpoints(monkeypatch):
    """Checkpoint whenever the log is larger than the checkpoint."""
    monkeypatch.setattr(manifest_module, "MIN_CHECKPOINT_LOG_BYTES", 0)


# ----------------------------------------------------------------------
# A put commits one record
# ----------------------------------------------------------------------
def python_calls(function, *args):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    collecting = gc.isenabled()
    gc.disable()        # a collection would count other tests' finalizers
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_put_cost_does_not_grow_with_the_catalog(tmp_path):
    # Clock-free, in the style of tests/codecs/test_no_per_block_loop.py:
    # the bytes a put writes to the manifest files and the Python calls it
    # makes are the same in front of 10 entries and in front of 1 000.
    per_size = {}
    for entries in (10, 1000):
        store = RenditionStore(tmp_path / str(entries), chunk_frames=4)
        for index in range(entries):
            store.put_scores(score_key(index), table(index))
        log, checkpoint = store.root / LOG_NAME, store.root / MANIFEST_NAME
        for index in range(entries, entries + 3):
            before = (log.stat().st_size, checkpoint.stat().st_mtime_ns,
                      checkpoint.stat().st_ino)
            calls = python_calls(store.put_scores, score_key(index),
                                 table(index))
            if (checkpoint.stat().st_mtime_ns,
                    checkpoint.stat().st_ino) == before[1:]:
                break       # a put that did not fall on a checkpoint
        sequence = store.stats().manifest_sequence
        assert sequence == index + 1
        appended = log.stat().st_size - before[0]
        per_size[entries] = (appended - len(str(sequence)), calls)
    (small_bytes, small_calls), (large_bytes, large_calls) = \
        per_size[10], per_size[1000]
    assert 0 < small_bytes == large_bytes < 1024
    # Fewer, if anything: the small root still has shard directories of
    # objects/ to create.  A put makes about 60 Python calls.
    assert large_calls <= small_calls <= 100


def test_checkpoint_folds_the_log_once_it_outgrows_the_checkpoint(tmp_path):
    store = make_store(tmp_path)
    sizes = []
    for index in range(300):
        store.put_scores(score_key(index), table(index))
        sizes.append((store.root / LOG_NAME).stat().st_size)
    stats = store.stats()
    # The first commit checkpoints the empty root; afterwards only a log
    # larger than 64 KiB and than the checkpoint it extends is folded:
    # once in 300 records of about 370 bytes.
    assert stats.manifest_checkpoints == 2
    assert max(sizes) <= 64 * 1024 + 1024
    assert stats.manifest_sequence == 300
    folded = json.loads((store.root / MANIFEST_NAME).read_text())["sequence"]
    assert 150 < folded < 200
    assert stats.manifest_log_records == 300 - folded
    fresh = make_store(tmp_path)
    assert fresh.stats().score_entries == 300
    assert fresh.get_scores(score_key(0)).tobytes() == table(0).tobytes()
    assert fresh.get_scores(score_key(299)).tobytes() == table(299).tobytes()


# ----------------------------------------------------------------------
# Torn tails
# ----------------------------------------------------------------------
def whole_line_with_bad_check() -> bytes:
    body = b'{"seq":3,"op":"put","key":"scores/x/mini/32px","entry":{}}'
    return b"%08x %s\n" % (zlib.crc32(body) ^ 1, body)


@pytest.mark.parametrize("torn", [
    b'5f3a9c01 {"seq":3,"op":"put","key":"scores/item-9',
    whole_line_with_bad_check(),
    b"\x00\xff garbage",
], ids=["half-record", "bad-check", "garbage"])
def test_torn_tail_is_invisible_and_the_next_put_lands_after_it(
        tmp_path, torn):
    store = make_store(tmp_path)
    other = make_store(tmp_path)
    store.put_scores(score_key(0), table(0))
    store.put_scores(score_key(1), table(1))
    log = store.root / LOG_NAME
    good = log.read_bytes()
    log.write_bytes(good + torn)
    expected = {score_key(i).key(): table(i).tobytes() for i in (0, 1)}
    for handle in (store, other, make_store(tmp_path)):
        assert stored(handle) == expected
        assert handle.stats().manifest_sequence == 2
    assert log.read_bytes() == good + torn      # readers repair nothing
    other.put_scores(score_key(2), table(2))
    assert log.read_bytes().startswith(good)
    assert torn not in log.read_bytes()
    expected[score_key(2).key()] = table(2).tobytes()
    for handle in (store, other, make_store(tmp_path)):
        assert stored(handle) == expected
    assert store.gc(min_age_seconds=0.0).removed_objects == 0


# ----------------------------------------------------------------------
# Checkpoint, then log reset
# ----------------------------------------------------------------------
def test_writer_dying_between_checkpoint_and_log_reset_loses_nothing(
        tmp_path, eager_checkpoints):
    faults = DieInCheckpoint()
    store = make_store(tmp_path, faults=faults)
    bystander = make_store(tmp_path)
    expected = {}
    for index in range(5):
        store.put_scores(score_key(index), table(index))
        expected[score_key(index).key()] = table(index).tobytes()
    checkpoints = store.stats().manifest_checkpoints
    old_log = (store.root / LOG_NAME).read_bytes()
    faults.armed = True
    with pytest.raises(ChaosFault):
        for index in range(5, 9):       # one of these falls on a checkpoint
            store.put_scores(score_key(index), table(index + 100))
            expected[score_key(index).key()] = table(index + 100).tobytes()
    failed = score_key(index)
    # The new checkpoint sits beside the old, longer log ...
    on_disk = json.loads((store.root / MANIFEST_NAME).read_text())
    assert on_disk["checkpoints"] == checkpoints + 1
    assert (store.root / LOG_NAME).read_bytes().startswith(old_log[:64])
    # ... whose records at or below its sequence replay skips: no handle
    # lost a committed put, none sees the put that failed.
    for handle in (store, bystander, make_store(tmp_path)):
        assert stored(handle) == expected
        assert handle.get_scores(failed) is None
    bystander.put_scores(failed, table(7))
    expected[failed.key()] = table(7).tobytes()
    for handle in (store, bystander, make_store(tmp_path)):
        assert stored(handle) == expected
    assert store.gc(min_age_seconds=0.0).removed_objects > 0   # the orphan


def test_handles_follow_a_log_that_other_handles_reset(tmp_path,
                                                      eager_checkpoints):
    writer = make_store(tmp_path)
    follower = make_store(tmp_path)
    for index in range(12):
        writer.put_scores(score_key(index), table(index))
        assert follower.get_scores(score_key(index)).tobytes() == \
            table(index).tobytes()
        assert follower.stats().manifest_sequence == index + 1
    assert writer.stats().manifest_checkpoints >= 4
    # Two handles trading commits keep one gap-free sequence.
    for index in range(12, 24):
        (writer, follower)[index % 2].put_scores(score_key(index),
                                                 table(index))
    assert follower.invalidate("scores/item-0000") == 10
    assert Manifest.load(writer.root).version.sequence == 25
    assert writer.stats().score_entries == 14


# ----------------------------------------------------------------------
# Damage that is not a torn tail
# ----------------------------------------------------------------------
def test_log_without_its_header_is_corruption(tmp_path):
    store = make_store(tmp_path)
    store.put_scores(score_key(0), table(0))
    log = store.root / LOG_NAME
    log.write_bytes(b"x" + log.read_bytes()[1:])
    with pytest.raises(StoreCorruptionError, match="header"):
        make_store(tmp_path)


def test_log_ahead_of_its_checkpoint_is_corruption(tmp_path):
    store = make_store(tmp_path)
    store.put_scores(score_key(0), table(0))
    (store.root / MANIFEST_NAME).unlink()
    log = store.root / LOG_NAME
    log.write_bytes(log.read_bytes().replace(b"base=" + b"0" * 20,
                                             b"base=" + b"0" * 19 + b"7"))
    with pytest.raises(StoreCorruptionError, match="continues from"):
        make_store(tmp_path)


def test_sequence_gap_in_the_log_is_corruption(tmp_path):
    store = make_store(tmp_path)
    for index in range(3):
        store.put_scores(score_key(index), table(index))
    log = store.root / LOG_NAME
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:2] + lines[3:]))    # drop sequence 2
    with pytest.raises(StoreCorruptionError, match="jumps"):
        make_store(tmp_path)


# ----------------------------------------------------------------------
# A root written by the parent commit (schema_version 1, no log)
# ----------------------------------------------------------------------
def test_version_1_root_opens_reads_and_upgrades_on_first_write(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(V1_ROOT, root)
    objects = sorted(p.name for p in root.glob("objects/*/*"))
    scores = deterministic_rng("legacy-v1-scores").normal(size=20)
    scores[3] = np.nan
    frames = deterministic_rng("legacy-v1-frames").integers(
        0, 256, size=(10, 4, 4, 3)).astype(np.uint8)
    scan_key = ScoreKey.for_scan("taipei", "specialized-nn", "480p-h264",
                                 accuracy=0.9, frames=20)

    def check(store: RenditionStore) -> None:
        got = store.get_scores(scan_key, fingerprint="v1")
        assert got.view(np.int64).tobytes() == \
            scores.view(np.int64).tobytes()
        reader = store.open_rendition(RenditionKey("taipei", "480p-h264"),
                                      fingerprint="v1")
        assert reader.read_all().tobytes() == frames.tobytes()
        assert store.get_scores(ScoreKey("rialto", "mini", "32px")) \
            .tobytes() == np.arange(5, dtype=np.float32).tobytes()

    store = RenditionStore(root, chunk_frames=8)
    reader_only = RenditionStore(root, chunk_frames=8)
    check(store)
    stats = store.stats()
    assert (stats.score_entries, stats.rendition_entries) == (2, 1)
    assert (stats.manifest_sequence, stats.manifest_checkpoints) == (3, 0)
    # Reading upgraded nothing.
    assert json.loads((root / MANIFEST_NAME).read_text())[
        "schema_version"] == 1
    assert not (root / LOG_NAME).exists()
    # The first mutation checkpoints as version 2 (which the code that
    # wrote this root refuses) before it appends.
    store.put_scores(score_key(0), table(0))
    checkpoint = json.loads((root / MANIFEST_NAME).read_text())
    assert checkpoint["schema_version"] == 2
    assert checkpoint["sequence"] == 3
    assert len(checkpoint["entries"]) == 3
    assert (root / LOG_NAME).read_bytes().count(b"\n") == 2
    for handle in (store, reader_only, RenditionStore(root, chunk_frames=8)):
        check(handle)
        assert handle.get_scores(score_key(0)).tobytes() == \
            table(0).tobytes()
        assert handle.stats().manifest_sequence == 4
    assert set(objects) < {p.name for p in root.glob("objects/*/*")}
    assert store.gc(min_age_seconds=0.0).removed_objects == 0


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_manifest_metrics_span_and_stats(tmp_path, eager_checkpoints):
    obs = Observability()
    store = make_store(tmp_path, obs=obs)
    for index in range(6):
        store.put_scores(score_key(index), table(index))
    store.invalidate("scores/item-00000")
    stats = store.stats()
    assert obs.counter("store_manifest_appends_total").value == 7
    assert obs.counter("store_manifest_checkpoints_total").value == \
        stats.manifest_checkpoints >= 2
    assert obs.gauge("store_manifest_sequence").value == \
        stats.manifest_sequence == 7
    assert obs.gauge("store_manifest_log_bytes").value == \
        (store.root / LOG_NAME).stat().st_size
    spans = [span for span in obs.spans() if span.name == "store.checkpoint"]
    assert len(spans) == stats.manifest_checkpoints
    assert all(span.duration_s > 0 for span in spans)
    assert (f"manifest:     sequence 7, {stats.manifest_log_records} log "
            f"records since checkpoint {stats.manifest_checkpoints}") \
        in stats.describe()
