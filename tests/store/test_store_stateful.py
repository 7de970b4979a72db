"""Model-based test: a dict against stores sharing one root.

Hypothesis drives puts, overwrites, invalidations, re-opens, extra
handles, eager checkpoints, torn log tails and a writer dying between the
checkpoint's rename and the log's.  After every step each live handle, and
the manifest read fresh from disk, must agree with the dict exactly: every
committed put served byte-for-byte, nothing torn or failed visible.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.store.manifest as manifest_module
from repro.chaos.faults import ChaosFault
from repro.store import Manifest, RenditionStore, ScoreKey
from repro.store.manifest import LOG_NAME
from store_testlib import DieInCheckpoint

ITEMS = [f"{group}-{index}" for group in "ab" for index in range(3)]
TORN_TAILS = [b'0badc0de {"seq":9,"op":"put","key":"scores/torn',
              b'00000000 {"seq":1,"op":"drop","keys":["scores/a-0/m/r"]}\n',
              b"\xff\x00\n\n"]


def table(value: int) -> np.ndarray:
    return np.arange(10, dtype=np.float64) * value


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-stateful-")
        self.faults = DieInCheckpoint()
        self.handles = [self.open()]
        self.model: dict[str, int] = {}
        self.threshold = manifest_module.MIN_CHECKPOINT_LOG_BYTES

    def open(self) -> RenditionStore:
        return RenditionStore(self.root, chunk_frames=4, faults=self.faults)

    def teardown(self) -> None:
        manifest_module.MIN_CHECKPOINT_LOG_BYTES = self.threshold
        shutil.rmtree(self.root, ignore_errors=True)

    handle = st.integers(min_value=0, max_value=2)

    @rule(handle=handle, item=st.sampled_from(ITEMS),
          value=st.integers(min_value=1, max_value=1 << 20))
    def put(self, handle, item, value):
        store = self.handles[handle % len(self.handles)]
        try:
            store.put_scores(ScoreKey(item, "m", "r"), table(value))
        except ChaosFault:
            return      # died in a checkpoint: the put must not be there
        self.model[item] = value

    @rule(handle=handle, prefix=st.sampled_from(["a-", "b-", "a-1", ""]))
    def invalidate(self, handle, prefix):
        store = self.handles[handle % len(self.handles)]
        doomed = [item for item in self.model if item.startswith(prefix)]
        try:
            assert store.invalidate(f"scores/{prefix}") == len(doomed)
        except ChaosFault:
            return
        for item in doomed:
            del self.model[item]

    @rule(handle=handle)
    def reopen(self, handle):
        self.handles[handle % len(self.handles)] = self.open()

    @precondition(lambda self: len(self.handles) < 3)
    @rule()
    def second_handle(self):
        self.handles.append(self.open())

    @rule(eager=st.booleans())
    def checkpoint_eagerly(self, eager):
        # 0: fold whenever the log is larger than the checkpoint.
        manifest_module.MIN_CHECKPOINT_LOG_BYTES = \
            0 if eager else self.threshold

    @rule()
    def next_checkpoint_dies_half_way(self):
        self.faults.armed = True

    @precondition(lambda self: self.model)      # a log exists by then
    @rule(tail=st.sampled_from(TORN_TAILS))
    def tear_the_log_tail(self, tail):
        with open(f"{self.root}/{LOG_NAME}", "ab") as log:
            log.write(tail)

    @rule(handle=handle)
    def gc(self, handle):
        self.handles[handle % len(self.handles)].gc(min_age_seconds=0.0)

    @invariant()
    def every_handle_agrees_with_the_model(self):
        on_disk = Manifest.load(self.root).version
        assert sorted(on_disk.entries) == sorted(
            ScoreKey(item, "m", "r").key() for item in self.model)
        for store in self.handles:
            assert store.stats().manifest_sequence == on_disk.sequence
            for item in ITEMS:
                got = store.get_scores(ScoreKey(item, "m", "r"))
                if item not in self.model:
                    assert got is None, item
                else:
                    assert got.tobytes() == \
                        table(self.model[item]).tobytes(), item


StoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestStoreAgainstModel = StoreMachine.TestCase
