"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` (reachable via
:func:`metrics`) unifies the counters that previously lived only in
scattered per-instance dataclasses or nowhere at all.  Instruments are
created on first use and are thread-safe; names are dotted paths
(``fixpoint.pops``, ``scheduler.queue_wait_seconds``), and
:meth:`MetricsRegistry.snapshot` renders everything as one JSON-friendly
dict for the daemon's ``stats`` RPC and ``repro stats --json``.

Instruments never feed back into analysis decisions — they are written,
never read, by the instrumented code — so their presence cannot perturb
result keys or the deterministic schedule.  The hot-path discipline is
to accumulate into local variables inside a fixpoint and publish once
per solve (see :mod:`repro.analysis.multicolor`), keeping the per-pop
cost at zero even when telemetry is active.
"""

from __future__ import annotations

import bisect
import threading
from typing import Mapping, Sequence

#: Default histogram bucket edges, in seconds: spans analysis phases from
#: sub-millisecond transfers to multi-minute service jobs.
DEFAULT_TIME_EDGES = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A settable point-in-time value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket-edge histogram with count/sum/min/max accounting.

    ``edges`` are the *upper* bounds of the finite buckets; observations
    above the last edge land in the implicit overflow bucket.  Edges are
    fixed at creation so concurrent observers never disagree about the
    bucket layout.
    """

    __slots__ = ("name", "edges", "_buckets", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES):
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges!r}")
        self.name = name
        self.edges = tuple(float(edge) for edge in edges)
        self._buckets = [0] * (len(self.edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._buckets[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (see
        :func:`histogram_quantile`); ``None`` when empty."""
        return histogram_quantile(self.to_dict(), q)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "type": "histogram",
                "edges": list(self.edges),
                "buckets": list(self._buckets),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


class MetricsRegistry:
    """A named collection of instruments, created on first use.

    Re-requesting a name returns the same instrument; requesting an
    existing name as a different instrument type raises, so two call
    sites can never silently split one logical metric.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, edges))

    def snapshot(self) -> dict[str, dict]:
        """All instruments as one JSON-friendly ``{name: payload}`` dict,
        sorted by name for stable output."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: instrument.to_dict() for name, instrument in sorted(instruments)}


def histogram_quantile(payload: Mapping, q: float) -> float | None:
    """Bucket-interpolated quantile from a histogram snapshot payload.

    Works on the JSON dict produced by :meth:`Histogram.to_dict` (and
    therefore on anything the ``stats``/``metrics`` RPCs return), so the
    CLI can compute p50/p99 from a remote daemon without reconstructing
    instruments.  Linear interpolation within the bucket holding the
    requested rank, tightened by the recorded ``min``/``max`` for the
    first and overflow buckets; ``None`` when the histogram is empty.
    """
    count = int(payload.get("count") or 0)
    if count <= 0:
        return None
    q = min(max(float(q), 0.0), 1.0)
    edges = [float(edge) for edge in payload["edges"]]
    buckets = [int(value) for value in payload["buckets"]]
    minimum = payload.get("min")
    maximum = payload.get("max")
    rank = q * count
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            if index == 0:
                lower = minimum if minimum is not None else 0.0
                upper = edges[0]
            elif index == len(edges):
                lower = edges[-1]
                upper = maximum if maximum is not None else edges[-1]
            else:
                lower = edges[index - 1]
                upper = edges[index]
            lower = min(float(lower), float(upper))
            if maximum is not None:
                upper = min(float(upper), float(maximum))
            if minimum is not None:
                lower = max(lower, float(minimum))
            if upper <= lower or bucket_count == 0:
                return float(upper)
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return float(maximum) if maximum is not None else edges[-1]


def _prometheus_name(name: str) -> str:
    """Dotted metric path -> legal Prometheus metric name."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prometheus_value(value) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: Mapping[str, Mapping]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in Prometheus text
    exposition format (version 0.0.4).

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series ending in ``+Inf`` plus
    ``_sum`` and ``_count``.  Output is sorted by metric name so two
    scrapes of the same snapshot are byte-identical.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        payload = snapshot[name]
        kind = payload.get("type")
        base = _prometheus_name(name)
        if kind == "counter":
            lines.append(f"# HELP {base}_total {name}")
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {_prometheus_value(payload['value'])}")
        elif kind == "gauge":
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_prometheus_value(payload['value'])}")
        elif kind == "histogram":
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for edge, bucket in zip(payload["edges"], payload["buckets"]):
                cumulative += int(bucket)
                lines.append(
                    f'{base}_bucket{{le="{_prometheus_value(edge)}"}} {cumulative}'
                )
            count = int(payload["count"])
            lines.append(f'{base}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{base}_sum {_prometheus_value(payload['sum'])}")
            lines.append(f"{base}_count {count}")
    return "\n".join(lines) + "\n" if lines else ""


_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry."""
    return _registry
