"""Streaming statistics for the simulator.

Welford accumulators for sample means, time-weighted averages for
utilizations and queue lengths, and batch-means confidence intervals
for the steady-state estimates reported against the MVA.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field


@functools.lru_cache(maxsize=None)
def t_quantile(q: float, df: int) -> float:
    """Student-t critical value ``t.ppf(q, df)``, memoized.

    SciPy is imported here, on the first call, rather than at module
    level: loading ``scipy.stats`` costs about a second and tens of MB,
    and only a confidence interval after a DES run needs it, so MVA-only
    processes never pay for it.
    """
    import scipy.stats

    return float(scipy.stats.t.ppf(q, df=df))


class Welford:
    """Numerically stable streaming mean / variance."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running mean/variance."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """Running mean (0.0 before the first sample)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Running sample standard deviation (ddof=1)."""
        return math.sqrt(self.variance)

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators (parallel Welford)."""
        merged = Welford()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other.mean - self.mean
        merged.count = n
        merged._mean = self.mean + delta * other.count / n
        merged._m2 = (self._m2 + other._m2
                      + delta * delta * self.count * other.count / n)
        return merged


class TimeWeightedAverage:
    """Integral of a piecewise-constant signal divided by elapsed time.

    Used for utilizations (value in {0,1}) and queue lengths.
    """

    def __init__(self, start_time: float = 0.0, value: float = 0.0) -> None:
        self._last_time = start_time
        self._value = value
        self._integral = 0.0
        self._origin = start_time

    def update(self, now: float, value: float) -> None:
        """Record that the signal changes to ``value`` at ``now``."""
        if now < self._last_time - 1e-9:
            raise ValueError("time went backwards")
        self._integral += self._value * (now - self._last_time)
        self._last_time = max(now, self._last_time)
        self._value = value

    def reset(self, now: float) -> None:
        """Restart the integral (end of warm-up)."""
        self._integral = 0.0
        self._last_time = now
        self._origin = now

    def average(self, now: float) -> float:
        """Time-weighted mean of the tracked level."""
        elapsed = now - self._origin
        if elapsed <= 0.0:
            return 0.0
        pending = self._value * (now - self._last_time)
        return (self._integral + pending) / elapsed

    @property
    def current(self) -> float:
        """Level as of the last update."""
        return self._value


@dataclass
class BatchMeans:
    """Batch-means point estimate and confidence interval.

    Observations are appended in arrival order and split into
    ``n_batches`` equal batches; the CI treats batch means as i.i.d.
    normal (standard steady-state simulation practice).
    """

    n_batches: int = 10
    _values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Append one observation to the current batch."""
        self._values.append(value)

    @property
    def count(self) -> int:
        """Observations folded in so far."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Grand mean over all observations."""
        return sum(self._values) / len(self._values) if self._values else 0.0

    def batch_means(self) -> list[float]:
        """Per-batch means for the completed batches."""
        n = len(self._values)
        if n < self.n_batches:
            return [sum(self._values) / n] if n else []
        size = n // self.n_batches
        return [
            sum(self._values[i * size:(i + 1) * size]) / size
            for i in range(self.n_batches)
        ]

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """(half-width, mean) CI from the batch means; half-width is 0
        when fewer than two batches exist."""
        means = self.batch_means()
        if len(means) < 2:
            return 0.0, self.mean
        k = len(means)
        grand = sum(means) / k
        var = sum((m - grand) ** 2 for m in means) / (k - 1)
        t_crit = t_quantile(0.5 + level / 2.0, k - 1)
        half = t_crit * math.sqrt(var / k)
        return half, grand
