"""Deadline-aware plan selection: a ladder of pre-warmed renditions.

When a micro-batch's tightest remaining deadline cannot afford the
current plan's modelled execution time, the server asks the
:class:`PlanLadder` for a cheaper rendition instead of knowingly missing
the deadline.  The ladder holds a small set of pre-warmed sessions along
the planner's Pareto frontier, ordered slowest (most accurate) first --
on the frontier, throughput and accuracy are monotone against each
other, so "first rung that fits the budget" is also "most accurate plan
that fits the budget".

Selection is pure arithmetic over modelled per-image costs and therefore
deterministic: the golden-trace test replays a tight-deadline request
and asserts both the chosen rung and that its predictions are
bit-identical to that plan's serial oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServingError, TenantError
from repro.serving.session import EngineSession

__all__ = ["LadderRung", "PlanLadder"]


@dataclass(frozen=True)
class LadderRung:
    """One pre-warmed rendition of the serving plan."""

    session: EngineSession
    per_image_s: float

    def __post_init__(self) -> None:
        if self.per_image_s <= 0:
            raise TenantError("per_image_s must be positive")

    @property
    def plan_key(self) -> str:
        """The rung's plan identity (cache key / oracle key)."""
        return self.session.plan_key


class PlanLadder:
    """Pre-warmed plan renditions ordered slowest (most accurate) first.

    ``safety`` inflates the modelled batch cost before comparing it to
    the deadline budget, absorbing modelling error: a rung *fits* when
    ``per_image_s * batch_size * safety <= budget``.
    """

    def __init__(self, rungs: Sequence[LadderRung],
                 safety: float = 1.25) -> None:
        if not rungs:
            raise TenantError("PlanLadder needs at least one rung")
        if safety < 1.0:
            raise TenantError("safety multiplier must be >= 1")
        ordered = sorted(rungs, key=lambda r: -r.per_image_s)
        keys = [r.plan_key for r in ordered]
        if len(set(keys)) != len(keys):
            raise TenantError(f"duplicate ladder plan keys: {sorted(keys)}")
        self._rungs = tuple(ordered)
        self._safety = safety
        self._downgrades = 0
        self._lock = threading.Lock()  # select() runs on every serving lane

    @property
    def rungs(self) -> tuple[LadderRung, ...]:
        """Rungs, slowest first."""
        return self._rungs

    @property
    def downgrades(self) -> int:
        """How many selections moved off the requested plan."""
        return self._downgrades

    def select(self, current: EngineSession, budget_s: float | None,
               batch_size: int) -> EngineSession:
        """The session to execute a batch of ``batch_size`` under ``budget_s``.

        ``budget_s`` is the tightest remaining deadline across the batch
        (None when no request carries a deadline -- keep the current
        plan).  Returns ``current`` when it fits; otherwise the slowest
        rung that fits; otherwise the fastest rung (best effort: a
        doomed deadline still deserves the cheapest miss).
        """
        if budget_s is None or batch_size <= 0:
            return current
        if self._fits(self._cost_of(current), batch_size, budget_s):
            return current
        chosen = next((rung.session for rung in self._rungs
                       if self._fits(rung.per_image_s, batch_size, budget_s)),
                      self._rungs[-1].session)
        if chosen is not current:
            with self._lock:
                self._downgrades += 1
        return chosen

    def _fits(self, per_image_s: float | None, batch_size: int,
              budget_s: float) -> bool:
        if per_image_s is None:
            # Unpriceable session (e.g. not warmed): never declared
            # fitting, so selection falls through to a priced rung.
            return False
        return per_image_s * batch_size * self._safety <= budget_s

    def _cost_of(self, session: EngineSession) -> float | None:
        for rung in self._rungs:
            if rung.session is session:
                return rung.per_image_s
        try:
            throughput = session.modelled_throughput
        except ServingError:  # an unwarmed simulated session
            return None
        return 1.0 / throughput if throughput else None

    def describe(self) -> str:
        """Human-readable rung table."""
        return " > ".join(
            f"{r.plan_key} ({r.per_image_s * 1e3:.3f} ms/img)"
            for r in self._rungs)

    @classmethod
    def from_sessions(cls, sessions: Sequence[EngineSession],
                      safety: float = 1.25) -> "PlanLadder":
        """Build a ladder from warmed sessions exposing modelled throughput."""
        rungs = []
        for session in sessions:
            if not session.warmed:
                session.warmup()
            throughput = session.modelled_throughput
            if not throughput:
                raise TenantError(
                    f"session {session.plan_key!r} has no modelled "
                    "throughput; ladder rungs must be priceable")
            rungs.append(LadderRung(session, 1.0 / throughput))
        return cls(rungs, safety=safety)

    @classmethod
    def from_planner(cls, planner, performance_model, config=None,
                     max_rungs: int = 3, safety: float = 1.25,
                     ) -> "PlanLadder":
        """Build a ladder from the planner's Pareto frontier.

        Takes up to ``max_rungs`` plans spread evenly along the frontier
        (always including the slowest/most-accurate and fastest ends) and
        pre-warms a simulated session per rung.
        """
        from repro.serving.session import SimulatedSession

        frontier = planner.pareto_frontier()
        if not frontier:
            raise TenantError("planner returned an empty Pareto frontier")
        count = min(max_rungs, len(frontier))
        if count == 1:
            picks = [frontier[0]]
        else:
            step = (len(frontier) - 1) / (count - 1)
            picks = [frontier[round(i * step)] for i in range(count)]
        sessions = []
        seen = set()
        for estimate in picks:
            session = SimulatedSession(estimate.plan, performance_model,
                                       config=config)
            session.warmup()
            if session.plan_key in seen:
                continue
            seen.add(session.plan_key)
            sessions.append(session)
        return cls.from_sessions(sessions, safety=safety)
