"""Named counters, gauges and histograms with hierarchical scopes.

A :class:`MetricRegistry` is the flat namespace one observed run
writes into: counters for monotone totals, gauges for instantaneous
levels (with a high-water mark), histograms for millisecond samples.
Scopes (:meth:`MetricRegistry.scope`) prefix metric names with a dotted
path — ``isn3.queue_wait_ms`` — so a cluster run keeps per-server and
cluster-wide metrics in one registry and one snapshot.

Histograms keep the full sample and compute quantiles on demand,
which keeps the observe path to a list append — cheap enough for the
<15 % tracing-overhead budget.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigError, SimulationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry", "MetricScope"]

#: Quantiles a histogram reports (matches LatencySummary).
QUANTILES = (50.0, 95.0, 99.0, 99.9)


class Counter:
    """A monotone event count, bumped as ``counter.value += 1``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def snapshot(self) -> dict[str, float]:
        return {self.name: float(self.value)}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """An instantaneous level plus its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        """Record the current level (tracks the maximum seen)."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> dict[str, float]:
        return {
            self.name: float(self.value),
            f"{self.name}.max": float(self.max_value),
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, max={self.max_value})"


class Histogram:
    """A millisecond-sample distribution: count/sum/min/max + quantiles.

    Observations are appended to a list and every statistic is derived
    on demand — ``observe`` *is* the bound ``list.append``, so the hot
    path pays exactly one call per sample.
    """

    __slots__ = ("name", "observe", "_sample")

    def __init__(self, name: str) -> None:
        self.name = name
        self._sample: list[float] = []
        self.observe = self._sample.append

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._sample)

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return float(sum(self._sample))

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` while empty)."""
        return min(self._sample) if self._sample else float("inf")

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` while empty)."""
        return max(self._sample) if self._sample else float("-inf")

    @property
    def mean(self) -> float:
        """Mean of all observations."""
        count = self.count
        if count == 0:
            raise SimulationError(f"histogram {self.name!r} is empty")
        return self.sum / count

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0 < q < 100) of the sample."""
        if self.count == 0:
            raise SimulationError(f"histogram {self.name!r} is empty")
        return float(np.percentile(np.asarray(self._sample, dtype=np.float64), q))

    def snapshot(self) -> dict[str, float]:
        out = {
            f"{self.name}.count": float(self.count),
        }
        if self.count:
            out[f"{self.name}.mean"] = self.mean
            out[f"{self.name}.min"] = self.min
            out[f"{self.name}.max"] = self.max
            for q in QUANTILES:
                out[f"{self.name}.p{q:g}"] = self.quantile(q)
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


class MetricRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name returns the existing instance; requesting it
    as a different metric type raises :class:`ConfigError` (one name,
    one meaning).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, lambda: Histogram(name), Histogram)

    def scope(self, prefix: str) -> "MetricScope":
        """A view creating metrics under ``prefix.`` (nested scopes ok)."""
        return MetricScope(self, prefix)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[str]:
        return iter(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, float]:
        """All metrics flattened to ``{dotted_name: value}``."""
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            out.update(self._metrics[name].snapshot())
        return out


class MetricScope:
    """A dotted-prefix view over a :class:`MetricRegistry`."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricRegistry, prefix: str) -> None:
        if not prefix:
            raise ConfigError("scope prefix must be non-empty")
        self._registry = registry
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._qualify(name))

    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self._registry, self._qualify(prefix))
