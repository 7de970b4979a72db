"""Property-based tests for the DRR scheduler and tenant quotas.

Four theorems the serving layer rests on:

* **one class is FIFO micro-batching** -- with a single class the
  scheduler emits exactly the consecutive arrival-order chunks a
  reference FIFO micro-batcher emits, for every arrival sequence and
  batch size (why a server without tenants needs no queue+batcher of
  its own);
* **work conservation** -- a ``next_batch`` call never comes back empty
  while any class queue holds work, for every backlog shape, and waits
  on work in hand only while told its executor is busy;
* **bounded unfairness** -- under saturation each class's served count
  stays within one micro-batch of its weighted share, for every weight
  vector;
* **quota monotonicity** -- replaying any arrival sequence against a
  token bucket with an equal-or-greater (rate, burst) admits at least as
  many requests at every step (raising a tenant's quota can only help).
"""

from collections import deque
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.serving.scheduler import BatchPolicy
from repro.serving.scheduler import ClassPolicy, DrrScheduler
from repro.tenant.quota import TokenBucket


@dataclass
class Item:
    class_name: str
    index: int = 0


def make_scheduler(weights, max_batch, max_wait_ms=0.0):
    classes = tuple(
        ClassPolicy(f"class-{i}", weight=weight, rank=i)
        for i, weight in enumerate(weights)
    )
    policy = BatchPolicy(name="drr-prop", max_batch_size=max_batch,
                        max_wait_ms=max_wait_ms)
    return classes, DrrScheduler(classes, policy, capacity=100_000)


weights_strategy = st.lists(
    st.floats(min_value=0.25, max_value=32.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(arrivals=st.lists(st.integers(0, 20), min_size=1, max_size=12),
       max_batch=st.integers(1, 16),
       max_wait_ms=st.sampled_from([0.0, 0.5]),
       busy=st.booleans())
def test_one_class_scheduler_is_a_fifo_micro_batcher(
        arrivals, max_batch, max_wait_ms, busy):
    # Each step admits a burst, then forms one batch.  The reference FIFO
    # micro-batcher takes the oldest min(max_batch, depth) requests; with
    # nothing arriving mid-batch the wait bound only delays a partial one
    # -- and only when the executor is busy.
    scheduler = DrrScheduler(
        (ClassPolicy("only", weight=1.0, rank=0),),
        BatchPolicy(name="fifo-prop", max_batch_size=max_batch,
                    max_wait_ms=max_wait_ms),
        capacity=100_000)
    reference: deque[int] = deque()
    admitted = 0
    for burst in arrivals:
        for _ in range(burst):
            scheduler.admit(Item("only", admitted))
            reference.append(admitted)
            admitted += 1
        want = [reference.popleft()
                for _ in range(min(max_batch, len(reference)))]
        got = scheduler.next_batch(poll_timeout=0.0, busy=lambda: busy)
        assert [item.index for item in got] == want
    # Draining the backlog keeps emitting consecutive full chunks.
    while reference:
        want = [reference.popleft()
                for _ in range(min(max_batch, len(reference)))]
        got = scheduler.next_batch(poll_timeout=0.0, busy=lambda: busy)
        assert [item.index for item in got] == want
    assert len(scheduler) == 0
    assert scheduler.stats()["classes"]["only"]["served"] == admitted
    if not busy:
        assert scheduler.batch_stats().hold_s == 0.0


@settings(max_examples=80, deadline=None)
@given(weights=weights_strategy,
       backlog=st.lists(st.integers(0, 40), min_size=1, max_size=5),
       max_batch=st.integers(1, 16))
def test_work_conservation_for_every_backlog_shape(
        weights, backlog, max_batch):
    # Pad/truncate so every class has a backlog entry.
    backlog = (backlog + [0] * len(weights))[:len(weights)]
    classes, scheduler = make_scheduler(weights, max_batch)
    for policy, count in zip(classes, backlog):
        for _ in range(count):
            scheduler.admit(Item(policy.name))
    served = 0
    while len(scheduler) > 0:
        batch = scheduler.next_batch(poll_timeout=0.0)
        assert batch, "empty batch despite backlog (work conservation)"
        assert len(batch) <= max_batch
        served += len(batch)
    assert served == sum(backlog)


@settings(max_examples=80, deadline=None)
@given(weights=weights_strategy,
       arrivals=st.lists(st.lists(st.integers(0, 12), min_size=1,
                                  max_size=5), min_size=1, max_size=6),
       max_batch=st.integers(1, 16),
       max_wait_ms=st.sampled_from([0.0, 0.3]),
       busy=st.booleans())
def test_a_batch_is_held_only_for_a_busy_executor(
        weights, arrivals, max_batch, max_wait_ms, busy):
    # Each step admits a burst per class, then drains.  Idle executor:
    # next_batch never waits while any queue is non-empty.  Busy: exactly
    # the old wait-fill -- the bound runs out once per partial batch that
    # emptied every queue (nothing arrives mid-hold here), and never else.
    classes, scheduler = make_scheduler(weights, max_batch, max_wait_ms)
    holds = 0
    for burst in arrivals:
        for policy, count in zip(classes, burst):
            for _ in range(count):
                scheduler.admit(Item(policy.name))
        while len(scheduler) > 0:
            batch = scheduler.next_batch(poll_timeout=0.0,
                                         busy=lambda: busy)
            assert batch, "empty batch despite backlog (work conservation)"
            holds += (busy and max_wait_ms > 0 and len(batch) < max_batch
                      and len(scheduler) == 0)
    stats = scheduler.batch_stats()
    assert stats.timeout_batches == holds
    if holds:
        assert stats.hold_s >= holds * max_wait_ms / 1000.0 * 0.5
    else:
        assert stats.hold_s == 0.0


@settings(max_examples=60, deadline=None)
@given(weights=weights_strategy,
       max_batch=st.integers(1, 16),
       rounds=st.integers(1, 12))
def test_unfairness_is_bounded_by_one_batch_under_saturation(
        weights, max_batch, rounds):
    classes, scheduler = make_scheduler(weights, max_batch)
    quanta = {name: state["quantum"]
              for name, state in scheduler.stats()["classes"].items()}
    # Saturate: every class holds more than it could possibly be served.
    headroom = int(max(quanta.values()) * rounds) + max_batch + 1
    for policy in classes:
        for _ in range(headroom):
            scheduler.admit(Item(policy.name))
    # One round = one visit per class (every class stays backlogged, so
    # the cursor walk is exactly round-robin over all of them).
    for _ in range(rounds * len(classes)):
        assert scheduler.next_batch(poll_timeout=0.0)
    for name, state in scheduler.stats()["classes"].items():
        share = rounds * quanta[name]
        assert abs(state["served"] - share) <= max_batch, (
            f"{name}: served {state['served']} vs weighted share "
            f"{share} (bound: one batch of {max_batch})")


class SteppedClock:
    """A clock the monotonicity replay advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=60),
       rate_lo=st.floats(min_value=0.1, max_value=50.0),
       rate_extra=st.floats(min_value=0.0, max_value=50.0),
       burst_lo=st.integers(1, 20),
       burst_extra=st.integers(0, 20))
def test_quota_admission_is_monotone_in_rate_and_burst(
        gaps, rate_lo, rate_extra, burst_lo, burst_extra):
    clock_lo, clock_hi = SteppedClock(), SteppedClock()
    lo = TokenBucket(rate_lo, burst_lo, clock=clock_lo)
    hi = TokenBucket(rate_lo + rate_extra, burst_lo + burst_extra,
                     clock=clock_hi)
    admitted_lo = admitted_hi = 0
    for gap in gaps:
        clock_lo.now += gap
        clock_hi.now += gap
        admitted_lo += lo.try_acquire()
        admitted_hi += hi.try_acquire()
        # Pointwise: the bigger quota has admitted at least as much
        # after every single arrival, not just in aggregate.
        assert admitted_hi >= admitted_lo
