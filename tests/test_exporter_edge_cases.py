"""Exporter edge cases: label escaping, on-read quantiles, folded stacks.

Three corners the happy-path telemetry tests never hit:

* Prometheus text exposition requires backslash-escaping of ``\\``,
  ``"`` and newlines inside label values — a label carrying any of them
  must still produce a one-line, parseable series;
* a histogram read *mid-run* (which may fold its sample buffer into
  the sketch) and then observed into again must export exactly what a
  never-read twin exports, and its buffer stays within the cap;
* the collapsed-stack (``.folded``) export must emit the
  ``frame;frame;leaf <integer>`` grammar flamegraph tooling parses,
  for both wall-clock callback sites and simulated-time span trees.
"""

import pytest

from repro.telemetry.exporters import (tagged_rows, write_folded,
                                       write_metrics_text)
from repro.telemetry.registry import SAMPLE_CAP, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanTracker


# -- Prometheus label-value escaping ------------------------------------------


def test_label_values_with_quotes_backslashes_newlines(tmp_path):
    registry = MetricsRegistry()
    registry.counter("odd.labels", path='C:\\temp\\"run"',
                     note="line one\nline two").inc(3)
    path = tmp_path / "metrics.txt"
    write_metrics_text(tagged_rows([("s0", registry)]), str(path))
    text = path.read_text()
    lines = text.splitlines()
    # escaping keeps the series on one physical line
    assert len(lines) == 1
    line = lines[0]
    assert line.endswith(" 3")
    assert r'path="C:\\temp\\\"run\""' in line
    assert r'note="line one\nline two"' in line
    # round-trip: unescaping recovers the original values
    unescaped = (line.replace("\\n", "\n").replace('\\"', '"')
                 .replace("\\\\", "\\"))
    assert 'C:\\temp\\"run"' in unescaped
    assert "line one\nline two" in unescaped


def test_plain_labels_stay_untouched(tmp_path):
    registry = MetricsRegistry()
    registry.counter("plain", arm="dlte").inc()
    path = tmp_path / "metrics.txt"
    write_metrics_text(tagged_rows([("s0", registry)]), str(path))
    assert 'arm="dlte"' in path.read_text()


# -- on-read quantiles: mid-run reads and the buffer cap ----------------------


def test_midrun_reads_do_not_change_later_results():
    read = Histogram("h", {})
    never = Histogram("h", {})
    samples = [float((i * 7919) % 1013) - 300.0 for i in range(3 * SAMPLE_CAP)]
    for i, v in enumerate(samples):
        read.observe(v)
        never.observe(v)
        if i % 997 == 0:  # reads before, at and past the cap
            read.quantile(0.5)
            read.row()
    row_r, row_n = read.row(), never.row()
    assert row_r == row_n
    for q in (0.001, 0.37, 0.999):
        assert read.quantile(q) == never.quantile(q)


def test_sample_buffer_never_exceeds_cap():
    histogram = Histogram("h", {})
    for i in range(SAMPLE_CAP):
        histogram.observe(float(i))
    # at the cap every sample is still held: quantiles are exact
    assert len(histogram._samples) == SAMPLE_CAP and not histogram._sketch
    histogram.observe(1.0)
    assert len(histogram._samples) <= SAMPLE_CAP and histogram._sketch
    for size in (1, 100, SAMPLE_CAP - 1, SAMPLE_CAP + 1, 3 * SAMPLE_CAP):
        histogram.observe_many([float(i) for i in range(size)])
        assert len(histogram._samples) <= SAMPLE_CAP
    assert histogram.count == 6 * SAMPLE_CAP + 102


# -- folded-stack export ------------------------------------------------------


class _FakeStats:
    def __init__(self, site, wall_s):
        self.site = site
        self.wall_s = wall_s


class _FakeProfiler:
    def __init__(self, stats):
        self.sites = {s.site: s for s in stats}
        self._stats = stats

    def top_sites(self, n):
        return self._stats[:n]


def test_folded_wall_lines_are_integer_microseconds(tmp_path):
    profiler = _FakeProfiler([
        _FakeStats("repro.epc.agents.ControlAgent._finish", 0.0884),
        _FakeStats("weird;site.fn", 0.001),
        _FakeStats("too.fast", 0.0000001),  # rounds to 0 us: dropped
    ])
    path = tmp_path / "p.folded"
    count = write_folded(str(path), profiler=profiler)
    lines = path.read_text().splitlines()
    assert count == len(lines) == 2
    assert "wall;repro;epc;agents;ControlAgent;_finish 88400" in lines
    # semicolons inside a site never produce phantom frames
    assert "wall;weird_site;fn 1000" in lines
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack and int(value) > 0


def test_folded_span_trees_subtract_child_time(tmp_path):
    clock = {"now": 0.0}
    tracker = SpanTracker(lambda: clock["now"])
    root = tracker.begin("attach")
    clock["now"] = 0.5
    child = tracker.begin("paging", parent=root)
    clock["now"] = 0.8
    child.end()
    clock["now"] = 1.0
    root.end()
    path = tmp_path / "spans.folded"
    count = write_folded(str(path), span_trackers=[("dlte", tracker)])
    assert count == 2
    lines = dict(line.rsplit(" ", 1)
                 for line in path.read_text().splitlines())
    # root self-time: 1.0 total - 0.3 child = 0.7 s
    assert int(lines["sim:dlte;attach"]) == 700000
    assert int(lines["sim:dlte;attach;paging"]) == 300000


def test_folded_empty_inputs_write_empty_file(tmp_path):
    path = tmp_path / "empty.folded"
    assert write_folded(str(path)) == 0
    assert path.read_text() == ""
