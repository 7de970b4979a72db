"""Exact, mergeable sufficient statistics for sharded analytics queries.

Sharding an analytics scan across workers must not change its answer: the
paper's statistical guarantees (control-variate variance reduction, CI
half-widths) are stated for the whole corpus, and a distributed runtime that
introduces split-dependent floating-point drift silently voids them.  This
module provides sufficient statistics whose merges are *exact*:

* :class:`ExactSum` -- a Shewchuk-style error-free accumulator (the algorithm
  behind :func:`math.fsum`).  The accumulated partials represent the real-
  number sum exactly, so adding values one by one, in any order, or merging
  per-shard accumulators all round to the *same* float.  Totals are therefore
  bit-identical regardless of how the corpus was sharded -- including empty
  and size-1 shards.
* :class:`MomentSketch` -- count plus exact first and second moments of one
  variable; supports associative :meth:`merge` and derives mean, sample
  variance, and 95% CI half-widths deterministically from the merged sums.

Integer statistics (counts, confusion matrices) merge exactly by int64
addition and live in :mod:`repro.cluster.runner`'s ``ShardAggregate``; this
module adds the floating-point side of the story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import QueryError

#: Two-sided 95% normal quantile used for all confidence intervals.
Z_95 = 1.96


class ExactSum:
    """Error-free float accumulator with exact, order-independent merges.

    Maintains a list of non-overlapping partials whose mathematical sum is
    *exactly* the sum of everything added (Shewchuk's grow-expansion, as used
    by :func:`math.fsum`).  Because the representation is exact, the rounded
    :attr:`value` does not depend on insertion order or on how the inputs
    were grouped into merged sub-accumulators.
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._partials: list[float] = []
        for value in values:
            self.add(value)

    def add(self, value: float) -> None:
        """Add one value exactly."""
        x = float(value)
        if not math.isfinite(x):
            raise QueryError(f"cannot accumulate non-finite value {value!r}")
        partials = self._partials
        count = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[count] = lo
                count += 1
            x = hi
        partials[count:] = [x]

    def add_array(self, values: np.ndarray | Sequence[float]) -> None:
        """Add every element of ``values`` exactly."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.add(float(value))

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in; exactness makes this associative."""
        for partial in list(other._partials):
            self.add(partial)

    @property
    def value(self) -> float:
        """The correctly rounded sum of everything accumulated."""
        return math.fsum(self._partials)

    def copy(self) -> "ExactSum":
        """Independent copy of this accumulator."""
        clone = ExactSum()
        clone._partials = list(self._partials)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSum({self.value!r})"


def exact_sum(values: np.ndarray | Sequence[float]) -> float:
    """Correctly rounded sum of ``values`` (grouping-independent).

    Delegates to :func:`math.fsum`, which is bit-identical to accumulating
    through :class:`ExactSum` (whose own ``value`` is the fsum of its exact
    partials) but far faster for the one-shot case.
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size and not np.isfinite(array).all():
        raise QueryError("cannot sum non-finite values")
    return math.fsum(array)


def exact_mean(values: np.ndarray | Sequence[float]) -> float:
    """Mean computed from the correctly rounded sum."""
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise QueryError("cannot take the mean of an empty array")
    return exact_sum(array) / array.size


def ci_half_width(variance: float, count: int, z: float = Z_95) -> float:
    """Half-width of the ``z``-level CI for a mean with ``count`` samples."""
    if count <= 0:
        return math.inf
    if variance < 0:
        raise QueryError("variance cannot be negative")
    return z * math.sqrt(variance / count)


@dataclass
class MomentSketch:
    """Mergeable count/sum/sum-of-squares statistics for one variable.

    All merge paths produce bit-identical derived statistics because the
    underlying sums are exact (:class:`ExactSum`): the derived mean, sample
    variance, and CI half-width are each a fixed expression over the exact
    merged sums.
    """

    count: int = 0
    total: ExactSum = field(default_factory=ExactSum)
    total_sq: ExactSum = field(default_factory=ExactSum)

    @classmethod
    def from_values(cls, values: np.ndarray | Sequence[float]) -> "MomentSketch":
        """Build a sketch covering every element of ``values``."""
        sketch = cls()
        sketch.observe_array(values)
        return sketch

    def observe(self, value: float) -> None:
        """Fold in one observation."""
        x = float(value)
        self.count += 1
        self.total.add(x)
        self.total_sq.add(x * x)

    def observe_array(self, values: np.ndarray | Sequence[float]) -> None:
        """Fold in every element of ``values``."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.observe(float(value))

    def merge(self, other: "MomentSketch") -> "MomentSketch":
        """Exact associative merge (returns a new sketch)."""
        merged = MomentSketch(count=self.count + other.count,
                              total=self.total.copy(),
                              total_sq=self.total_sq.copy())
        merged.total.merge(other.total)
        merged.total_sq.merge(other.total_sq)
        return merged

    @classmethod
    def merge_all(cls, sketches: Sequence["MomentSketch"]) -> "MomentSketch":
        """Merge any number of sketches into one total."""
        total = cls()
        for sketch in sketches:
            total = total.merge(sketch)
        return total

    @property
    def mean(self) -> float:
        """Mean derived from the exact sum."""
        if self.count == 0:
            raise QueryError("cannot take the mean of an empty sketch")
        return self.total.value / self.count

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1) derived from the exact moments."""
        if self.count < 2:
            return 0.0
        total = self.total.value
        centered = self.total_sq.value - total * total / self.count
        return max(0.0, centered / (self.count - 1))

    def half_width(self, z: float = Z_95) -> float:
        """CI half-width for the mean at level ``z``."""
        return ci_half_width(self.variance, self.count, z=z)
