"""Helpers shared by the store's manifest tests."""

from repro.chaos.faults import ChaosFault, FaultHook


class DieInCheckpoint(FaultHook):
    """Once armed, kills the next writer between the checkpoint's rename
    and the log's (the ``store.checkpoint`` seam)."""

    __slots__ = ("armed",)

    def __init__(self) -> None:
        self.armed = False

    def hit(self, site: str, **ctx) -> None:
        if site == "store.checkpoint" and self.armed:
            self.armed = False
            raise ChaosFault("died between checkpoint and log reset")
