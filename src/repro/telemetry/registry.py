"""The metrics registry: named, labelled counters, gauges, histograms.

Every component that wants to be observable asks its registry for an
instrument once (at construction, so the hot path is an attribute access
plus an integer add) and then records into it unconditionally. Recording
is *passive*: no instrument ever draws randomness, schedules events, or
touches the simulated clock, so instrumented and uninstrumented runs are
bit-identical — the registry can stay enabled in benchmarks.

Naming convention (see OBSERVABILITY.md): dotted lowercase paths,
hierarchical by subsystem — ``net.link.dropped``, ``mac.csma.collisions``,
``epc.attach.completed`` — with instance identity carried in *labels*
(``link="air:ue3"``, ``cell="ap0-cell"``), so ``site3.mac.harq.retx``
style questions become ``registry.query("mac.harq.*")`` filtered by
label.

Histograms keep fixed buckets (cumulative, Prometheus-style ``le``
bounds) *and* every sample up to :data:`SAMPLE_CAP`, so a quantile read
is exact; past the cap they fold samples into a log-bucket sketch
(DDSketch) whose estimates stay within :data:`SKETCH_ALPHA` relative.
Recording a sample is an append; quantiles are computed only on read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BoundCounter", "Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "SAMPLE_CAP", "SKETCH_ALPHA"]

#: Default histogram bucket upper bounds: half-decade geometric ladder
#: wide enough for both latencies in seconds and counts/sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
    1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e6, float("inf"))

#: samples a histogram keeps verbatim; quantiles are exact up to here
SAMPLE_CAP = 4096
#: relative accuracy of the log-bucket sketch past :data:`SAMPLE_CAP`
SKETCH_ALPHA = 0.01
_GAMMA = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
#: the value reported for log key ``k`` is ``_MID_SCALE * gamma**k``,
#: equally far in relative terms from both ends of its bucket
_MID_SCALE = 2.0 / (1.0 + _GAMMA)
#: shifts every finite magnitude's log key above 0 (|key| < 2**16
#: from 5e-324 to 1.8e308), leaving key 0 to the zero bucket
_KEY_BIAS = 1 << 16


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    # nearly every instrument carries zero or one label; skip the
    # generator + sort machinery for those (a sort of one item is a
    # no-op, so the result is identical)
    if len(labels) <= 1:
        return tuple((k, str(v)) for k, v in labels.items())
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity: a dotted name plus a frozen label set."""

    __slots__ = ("name", "labels")
    kind = "instrument"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        """``name{k=v,...}`` rendering used by exporters and tables."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.full_name}>"


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value}


class BoundCounter(Counter):
    """A counter read from integer attributes its sources already keep.

    A hot component that counts an event exactly anyway (a link's
    ``delivered``) binds that attribute here instead of paying a second
    per-event :meth:`Counter.inc`. The value is the float of the sum over
    every bound source, which equals what the per-event increments would
    have accumulated (integer-valued floats add exactly below 2**53).
    Pickling ships a plain :class:`Counter` frozen at the current value,
    so a worker's registry travels without its sources.
    """

    __slots__ = ("_sources",)

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        _Instrument.__init__(self, name, labels)
        self._sources: List[Tuple[Any, str]] = []

    @property
    def value(self) -> float:
        return float(sum(getattr(source, attr)
                         for source, attr in self._sources))

    def inc(self, amount: float = 1.0) -> None:
        raise TypeError(f"counter {self.name} is read from its sources")

    def __reduce__(self):
        return _frozen_counter, (self.name, self.labels, self.value)


def _frozen_counter(name: str, labels: Dict[str, str],
                    value: float) -> Counter:
    counter = Counter(name, labels)
    counter.value = value
    return counter


class Gauge(_Instrument):
    """A value that goes up and down; remembers its extremes."""

    __slots__ = ("value", "min", "max", "updates")
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def add(self, delta: float) -> None:
        """Shift the current level by ``delta``."""
        self.set(self.value + delta)

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value,
                "min": self.min if self.updates else 0.0,
                "max": self.max if self.updates else 0.0}


class Histogram(_Instrument):
    """Fixed cumulative buckets plus quantiles computed on read.

    Observing a sample is an append to a flat ``array('d')`` buffer; no
    quantile work happens until someone reads one, and most histograms
    in a run are never read. While the histogram holds at most
    :data:`SAMPLE_CAP` samples, :meth:`quantile` is exact. When the
    buffer overflows it is folded into a log-bucket sketch (DDSketch,
    Masson et al., VLDB 2019) and emptied, so memory stays bounded.
    The sketch keys a sample by the sign and ``ceil(log_gamma |x|)``,
    with ``gamma = (1 + a) / (1 - a)`` and ``a =``
    :data:`SKETCH_ALPHA`: positive keys are the positive store,
    negative keys the negative store, key 0 the zero bucket. A bucket's
    reported value is within ``a`` relative of every sample in it. Bucket
    counts add, so an estimate never depends on when reads happened.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "_samples", "_sketch", "_bucket_arr")
    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str],
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: buckets must be sorted")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples = array("d")
        self._sketch: Dict[int, int] = {}
        self._bucket_arr: Optional[np.ndarray] = None

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of samples, bit-identically to calling
        :meth:`observe` per element in order.

        The running sum is accumulated sequentially (same additions in
        the same order as the scalar path); bucket placement vectorizes
        through ``np.searchsorted`` (identical index semantics to
        ``bisect_left``). This is the batch TTI engine's per-cell SINR
        observation path.
        """
        vals = np.asarray(values, dtype=float).tolist()
        if not vals:
            return
        self.count += len(vals)
        total = self.sum
        for value in vals:
            total += value
        self.sum = total
        lo = min(vals)
        hi = max(vals)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        if self._bucket_arr is None:
            self._bucket_arr = np.array(self.buckets)
        idx = np.searchsorted(self._bucket_arr, vals, side="left")
        counts = np.bincount(idx, minlength=len(self.bucket_counts))
        bucket_counts = self.bucket_counts
        for i, c in enumerate(counts.tolist()):
            if c:
                bucket_counts[i] += c
        samples = self._samples
        samples.extend(vals)
        if len(samples) > SAMPLE_CAP:
            self._flush()

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # first bound with value <= bound, by binary search — the index
        # bisect_left returns is exactly the one the linear scan found
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        samples = self._samples
        samples.append(value)
        if len(samples) > SAMPLE_CAP:
            self._flush()

    def _flush(self) -> None:
        """Count the buffered samples into the sketch; empty the buffer."""
        values = np.array(self._samples)
        self._samples = array("d")
        mag = np.abs(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = np.sign(values) * (np.ceil(np.log(mag) / _LOG_GAMMA)
                                      + _KEY_BIAS)
        keys = np.where(mag > 0.0, keys, 0.0).astype(np.int64)
        sketch = self._sketch
        for key, n in zip(*(a.tolist() for a in
                            np.unique(keys, return_counts=True))):
            sketch[key] = sketch.get(key, 0) + n

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (nan when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of every sample so far (nan when empty).

        Linear interpolation between closest ranks, the
        ``numpy.quantile`` default: exact up to :data:`SAMPLE_CAP`
        samples; past that, interpolated between bucket values and
        clamped to ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        if not self._sketch:
            return float(np.quantile(np.array(self._samples), q))
        self._flush()
        keys = sorted(self._sketch)
        ranks = np.cumsum([self._sketch[k] for k in keys])
        signed = np.array(keys)
        values = np.sign(signed) * _MID_SCALE * _GAMMA ** (np.abs(signed)
                                                           - _KEY_BIAS)
        pos = q * (self.count - 1)
        below = int(pos)
        # the buckets holding ranks ``below`` and ``below + 1`` (the top
        # bucket twice when ``below`` is the last rank)
        lo, hi = values[np.minimum(
            np.searchsorted(ranks, (below, below + 1), side="right"),
            len(keys) - 1)]
        estimate = float(lo + (pos - below) * (hi - lo))
        return min(max(estimate, self.min), self.max)

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        empty = self.count == 0
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "count": self.count, "sum": self.sum,
                "min": 0.0 if empty else self.min,
                "max": 0.0 if empty else self.max,
                "mean": 0.0 if empty else self.mean,
                "p50": 0.0 if empty else self.quantile(0.5),
                "p95": 0.0 if empty else self.quantile(0.95),
                "p99": 0.0 if empty else self.quantile(0.99)}


class MetricsRegistry:
    """Get-or-create instrument store, keyed by (name, labels).

    Asking twice for the same (name, labels) returns the same object;
    asking for an existing name with a different *kind* raises, which
    catches name collisions between subsystems early.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                                _Instrument] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        if not name:
            raise ValueError("instrument name must be non-empty")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, dict(key[1]), **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"{name} already registered as {instrument.kind}, "
                f"not {cls.kind}")
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, labels)

    def bound_counter(self, name: str, source: Any, attr: str,
                      **labels: Any) -> BoundCounter:
        """Get or create a counter that reads ``source.attr``; every
        source bound under the same (name, labels) adds to its value."""
        counter = self._get(BoundCounter, name, labels)
        counter._sources.append((source, attr))
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        """Get or create a histogram (``buckets`` only applies on
        create)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterable[_Instrument]:
        return iter(sorted(self._instruments.values(),
                           key=lambda i: (i.name, sorted(i.labels.items()))))

    def query(self, pattern: str) -> List[_Instrument]:
        """Instruments whose name matches a dotted prefix pattern.

        ``"mac.csma.*"`` (or ``"mac.csma"``) matches everything under
        that path; an exact name matches just that instrument family.
        """
        prefix = pattern[:-2] if pattern.endswith(".*") else pattern
        return [i for i in self
                if i.name == prefix or i.name.startswith(prefix + ".")]

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value for an exact (name, labels); 0 if absent."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(i.value for i in self
                   if i.name == name and isinstance(i, Counter))

    def subsystems(self) -> List[str]:
        """Distinct first name components with at least one instrument."""
        return sorted({i.name.split(".", 1)[0] for i in self})

    def snapshot(self) -> List[Dict[str, Any]]:
        """All instruments as exporter rows, deterministically ordered."""
        return [i.row() for i in self]

    def clear(self) -> None:
        """Forget every instrument (tests only; cached refs go stale)."""
        self._instruments.clear()
