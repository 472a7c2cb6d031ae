"""Simulation-aware observability: metrics, spans, profiling, export.

Four parts (see OBSERVABILITY.md for conventions):

* :mod:`repro.telemetry.registry` — named, labelled counters / gauges /
  histograms, hierarchical by subsystem, cheap enough to stay on;
* :mod:`repro.telemetry.spans` — causal spans on the simulated clock for
  multi-step procedures (attach, handover, paging, lease renewal);
* :mod:`repro.telemetry.profiler` — wall-clock attribution per callback
  site over the simulator heap loop (opt-in);
* :mod:`repro.telemetry.exporters` — JSONL / CSV / metrics-text /
  terminal-table output, wired into ``python -m repro`` via
  ``--metrics-out``, ``--trace-out``, and ``--profile``.

Every :class:`~repro.simcore.simulator.Simulator` owns a
:class:`Telemetry` (``sim.metrics``, ``sim.span(...)``); the
:data:`~repro.telemetry.hub.HUB` collects across all simulators an
experiment builds.
"""

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, SpanTracker
from repro.telemetry.profiler import RunProfiler
from repro.telemetry.hub import HUB, RunTelemetry, TelemetryHub, ambient_registry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracker",
    "RunProfiler",
    "HUB",
    "RunTelemetry",
    "TelemetryHub",
    "ambient_registry",
    "Telemetry",
]


class Telemetry:
    """Per-simulator telemetry bundle: one registry + one span tracker."""

    __slots__ = ("metrics", "spans")

    def __init__(self, clock) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker(clock, metrics=self.metrics)
