"""Tests for the telemetry subsystem (repro.telemetry).

Covers the four parts — metrics registry, causal spans, run profiler,
exporters — plus the hub that collects them across an experiment run,
and the determinism guarantee the whole design leans on: recording is
passive, so instrumented runs are bit-identical to uninstrumented ones.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DLTENetwork
from repro.simcore import Simulator
from repro.telemetry import (
    HUB,
    Counter,
    Histogram,
    MetricsRegistry,
    RunProfiler,
    SpanTracker,
)
from repro.telemetry.exporters import (
    summary_table,
    tagged_rows,
    write_events_jsonl,
    write_metrics_csv,
    write_metrics_text,
)
from repro.telemetry.registry import SAMPLE_CAP, SKETCH_ALPHA
from repro.workloads import RuralTown


@pytest.fixture(autouse=True)
def _no_leaked_hub_run():
    """Every test must leave the process-wide hub inactive."""
    yield
    if HUB.active:
        HUB.abort_run()
        pytest.fail("test leaked an active telemetry run")


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("net.link.dropped", link="a")
        c2 = registry.counter("net.link.dropped", link="a")
        assert c1 is c2
        c1.inc()
        c1.inc(3)
        assert registry.value("net.link.dropped", link="a") == 4.0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x", k="1").inc()
        registry.counter("x", k="2").inc(2)
        assert registry.value("x", k="1") == 1.0
        assert registry.value("x", k="2") == 2.0
        assert registry.total("x") == 3.0

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_bound_counter_reads_and_sums_its_sources(self):
        class Source:
            delivered = 0

        registry = MetricsRegistry()
        a, b = Source(), Source()
        counter = registry.bound_counter("net.link.delivered", a,
                                         "delivered", link="l")
        assert registry.bound_counter("net.link.delivered", b, "delivered",
                                      link="l") is counter
        assert registry.counter("net.link.delivered", link="l") is counter
        a.delivered, b.delivered = 3, 4
        assert registry.value("net.link.delivered", link="l") == 7.0
        assert registry.total("net.link.delivered") == 7.0
        assert registry.snapshot()[0]["value"] == 7.0
        with pytest.raises(TypeError):
            counter.inc()
        registry.counter("plain")
        with pytest.raises(TypeError):  # a plain counter cannot be bound
            registry.bound_counter("plain", a, "delivered")

    def test_bound_counter_pickles_as_a_frozen_counter(self):
        import pickle

        class Source:
            bytes_sent = 1500

        registry = MetricsRegistry()
        registry.bound_counter("net.link.bytes_sent", Source(), "bytes_sent")
        shipped = pickle.loads(pickle.dumps(registry))
        counter = shipped.counter("net.link.bytes_sent")
        assert type(counter) is Counter and counter.value == 1500.0

    def test_link_counters_match_per_packet_increments(self):
        from repro.net.links import Link
        from repro.net.packet import Packet

        sim = Simulator(seed=1)
        links = [Link(sim, 1e6, 0.001, queue_packets=2, name="l")
                 for _ in range(2)]
        for link in links:
            link.connect(lambda p: None)
            for size in (100, 1500, 700, 40):
                link.send(Packet(src=None, dst=None, size_bytes=size))
        sim.run()
        metrics = sim.metrics
        assert metrics.value("net.link.delivered", link="l") == \
            float(sum(link.delivered for link in links)) == 6.0
        assert metrics.value("net.link.bytes_sent", link="l") == \
            float(sum(link.bytes_sent for link in links))
        assert metrics.value("net.link.dropped", link="l",
                             cause="overflow") == 2.0

    def test_gauge_tracks_extremes(self):
        gauge = MetricsRegistry().gauge("q")
        for v in (3, 1, 7, 2):
            gauge.set(v)
        assert gauge.value == 2 and gauge.min == 1 and gauge.max == 7
        gauge.add(-2)
        assert gauge.value == 0 and gauge.min == 0

    def test_histogram_buckets_cumulative(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        # buckets get (1.0, 10.0, inf); each sample lands in its first bucket
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3 and hist.sum == 55.5
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.mean == pytest.approx(18.5)

    def test_histogram_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[10.0, 1.0])

    def test_query_prefix(self):
        registry = MetricsRegistry()
        registry.counter("mac.csma.collisions")
        registry.counter("mac.cell.ttis")
        registry.counter("net.link.dropped")
        assert len(registry.query("mac.*")) == 2
        assert len(registry.query("mac.csma.*")) == 1
        assert len(registry.query("net.link.dropped")) == 1
        assert registry.query("ma") == []  # no partial-component match

    def test_subsystems_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("phy.x").inc()
        registry.gauge("mac.y").set(2)
        registry.histogram("epc.z").observe(1.0)
        assert registry.subsystems() == ["epc", "mac", "phy"]
        rows = registry.snapshot()
        assert [r["name"] for r in rows] == ["epc.z", "mac.y", "phy.x"]
        assert {r["kind"] for r in rows} == {"histogram", "gauge", "counter"}


_FINITE = st.one_of(st.floats(-1e9, 1e9, allow_nan=False),
                    st.sampled_from([0.0, -0.0, 1.0, -2.5]))


def _tail_samples(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    if kind == "pareto":
        return rng.pareto(1.2, size=n) + 1e-3
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, size=n)
    return -rng.lognormal(-3.0, 1.5, size=n)


class TestHistogramQuantiles:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(_FINITE, min_size=1, max_size=SAMPLE_CAP),
           q=st.floats(0.0, 1.0), split=st.integers(0, SAMPLE_CAP))
    def test_exact_matches_numpy(self, values, q, split):
        hist = Histogram("h", {})
        hist.observe_many(values[:split])
        for v in values[split:]:
            hist.observe(v)
        assert hist.quantile(q) == np.quantile(values, q)

    def test_exact_up_to_the_cap(self):
        values = np.random.default_rng(2).normal(size=SAMPLE_CAP)
        hist = Histogram("h", {})
        hist.observe_many(values)
        for q in (0.001, 0.5, 0.95, 0.99, 0.999):
            assert hist.quantile(q) == np.quantile(values, q)

    def test_one_sample_is_every_quantile(self):
        hist = Histogram("h", {})
        hist.observe(-3.25)
        assert {hist.quantile(q) for q in (0.0, 0.5, 0.999, 1.0)} == {-3.25}

    def test_nan_when_empty(self):
        assert math.isnan(Histogram("h", {}).quantile(0.5))

    def test_out_of_range_quantile_rejected(self):
        hist = Histogram("h", {})
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_row_quantiles_match_numpy(self):
        # every histogram reports the row's p50/p95/p99, whatever
        # quantiles its owner reads (E18 reads p50 and p99.9)
        hist = MetricsRegistry().histogram("e18.sla.web_s")
        values = [float(v) for v in range(1, 101)]
        for v in values:
            hist.observe(v)
        row = hist.row()
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert row[key] == np.quantile(values, q), key
        assert row["p95"] == 95.05

    @pytest.mark.parametrize("kind", ["pareto", "lognormal", "negative"])
    def test_sketch_within_alpha(self, kind):
        values = _tail_samples(kind, 20_000)
        hist = Histogram("h", {})
        hist.observe_many(values)
        assert hist._sketch  # past the cap: answered by the sketch
        ordered = np.sort(values)
        qs = [0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0]
        qs += [k / (len(values) - 1) for k in (1, 77, 10_000, 19_998)]
        for q in qs:
            exact = np.quantile(values, q)
            estimate = hist.quantile(q)
            assert abs(estimate - exact) <= SKETCH_ALPHA * abs(exact) * (
                1 + 1e-9), (q, estimate, exact)
            assert ordered[0] <= estimate <= ordered[-1]

    def test_mixed_signs_and_zeros_past_the_cap(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.normal(size=6000), np.zeros(3000)])
        rng.shuffle(values)
        hist = Histogram("h", {})
        hist.observe_many(values)
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            # the zero bucket answers the middle ranks exactly
            exact = np.quantile(values, q)
            assert abs(hist.quantile(q) - exact) <= SKETCH_ALPHA * abs(exact)

    def test_observe_and_observe_many_agree(self):
        values = _tail_samples("lognormal", 3 * SAMPLE_CAP + 123)
        one, batched = Histogram("h", {}), Histogram("h", {})
        for v in values.tolist():
            one.observe(v)
        for lo in range(0, len(values), 1000):
            batched.observe_many(values[lo:lo + 1000])
        assert one.row() == batched.row()
        assert one.bucket_counts == batched.bucket_counts
        for q in (0.01, 0.3, 0.999):
            assert one.quantile(q) == batched.quantile(q)


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_explicit_begin_end_times_simulated_clock(self):
        sim = Simulator(0)
        span = sim.span("epc.attach", ue="ue1")
        sim.schedule(0.25, lambda: span.end(status="ok"))
        sim.run()
        assert span.finished and span.duration_s == 0.25
        assert span.status == "ok" and span.attrs == {"ue": "ue1"}

    def test_context_manager_nesting_sets_parent(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        with sim.span("outer") as outer:
            with sim.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracker.children_of(outer) == [inner]

    def test_end_is_idempotent(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        span = sim.span("p")
        span.end(status="ok")
        span.end(status="failed")  # ignored
        assert span.status == "ok" and tracker.ended == 1

    def test_duration_feeds_metrics_histogram(self):
        sim = Simulator(0)
        span = sim.span("nas.attach")
        sim.schedule(0.5, span.end)
        sim.run()
        hist = sim.metrics.histogram("span.nas.attach.duration_s",
                                     status="ok")
        assert hist.count == 1 and hist.sum == 0.5

    def test_zero_duration_event(self):
        sim = Simulator(0)
        span = sim.telemetry.spans.event("fault.activation", fault="f1")
        assert span.finished and span.duration_s == 0.0
        assert span.status == "event"

    def test_end_all_open(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        spans = [tracker.begin(f"p{i}") for i in range(3)]
        spans[0].end()
        assert tracker.end_all_open(status="aborted") == 2
        assert tracker.open_count == 0
        assert {s.status for s in spans} == {"ok", "aborted"}

    def test_error_exit_marks_span(self):
        sim = Simulator(0)
        with pytest.raises(RuntimeError):
            with sim.span("doomed"):
                raise RuntimeError("boom")
        assert sim.telemetry.spans.spans("doomed")[0].status == "error"

    def test_finished_ring_buffer_bounds_memory(self):
        sim = Simulator(0)
        tracker = SpanTracker(lambda: sim.now, max_finished=4)
        for i in range(10):
            tracker.begin(f"s{i}").end()
        assert len(tracker.finished) == 4
        assert tracker.ended == 10

    def test_durations_query(self):
        sim = Simulator(0)
        for delay in (0.1, 0.2):
            span = sim.span("epc.attach")
            sim.schedule(sim.now + delay, span.end)
        sim.run()
        durations = sim.telemetry.spans.durations_s("epc.attach")
        assert durations == pytest.approx([0.1, 0.2])


# -- profiler ---------------------------------------------------------------


class TestProfiler:
    def test_attributes_wall_time_per_site(self):
        sim = Simulator(0)
        sim.profiler = RunProfiler()

        def busy():
            sum(range(2000))

        for i in range(5):
            sim.schedule(0.1 * i, busy)
        sim.run()
        assert sim.profiler.events == 5
        [site] = sim.profiler.top_sites()
        assert site.calls == 5 and site.wall_s > 0
        assert "busy" in site.site
        assert sim.profiler.events_per_sec > 0

    def test_profiled_run_results_unchanged(self):
        """The profiler observes dispatch; it must not alter outcomes."""
        def build_and_run(profile):
            sim = Simulator(seed=5)
            if profile:
                sim.profiler = RunProfiler()
            samples = []
            def draw():
                samples.append(float(sim.rng("x").random()))
            for i in range(20):
                sim.schedule(0.01 * i, draw)
            sim.run()
            return samples, sim.events_executed

        assert build_and_run(False) == build_and_run(True)

    def test_counts_trace_categories_without_tracer(self):
        sim = Simulator(0)
        sim.profiler = RunProfiler()
        sim.schedule(0.0, lambda: sim.trace("drop", "x"))
        sim.schedule(0.1, lambda: sim.trace("drop", "y"))
        sim.run()
        assert sim.profiler.category_counts == {"drop": 2}

    def test_merge(self):
        a, b = RunProfiler(), RunProfiler()
        a.run_callback(sum, (range(10),))
        b.run_callback(sum, (range(10),))
        b.note_category("drop")
        a.merge(b)
        assert a.events == 2
        assert a.sites["builtins.sum"].calls == 2
        assert a.category_counts == {"drop": 1}

    def test_hot_path_table_shape(self):
        profiler = RunProfiler()
        profiler.run_callback(sum, (range(10),))
        table = profiler.hot_path_table()
        assert table.columns == ["callback_site", "calls", "wall_ms",
                                 "wall_frac", "us_per_call"]
        assert len(table) == 1
        assert table.rows[0]["wall_frac"] == pytest.approx(1.0)


# -- exporters --------------------------------------------------------------


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("net.link.dropped", link="a", cause="down").inc(3)
    registry.gauge("epc.agent.queue_depth", agent="mme").set(2)
    hist = registry.histogram("nas.attach.latency_s")
    hist.observe(0.05)
    hist.observe(0.07)
    return registry


class TestExporters:
    def test_csv_snapshot(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        rows = tagged_rows([("s0", _sample_registry())])
        assert write_metrics_csv(rows, path) == 3
        lines = open(path).read().splitlines()
        assert lines[0].startswith("sim,kind,name,labels")
        body = "\n".join(lines[1:])
        assert "net.link.dropped" in body
        assert "cause=down;link=a" in body
        assert "nas.attach.latency_s" in body

    def test_metrics_text_expands_histograms(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        rows = tagged_rows([("s0", _sample_registry())])
        write_metrics_text(rows, path)
        text = open(path).read()
        assert 'net_link_dropped{cause="down",link="a",sim="s0"} 3' in text
        assert 'nas_attach_latency_s_count{sim="s0"} 2' in text
        assert 'quantile="0.95"' in text

    def test_events_jsonl_mixes_traces_and_spans(self, tmp_path):
        from repro.simcore.trace import Tracer

        sim = Simulator(0)
        tracer = Tracer()
        tracer.record(1.0, "drop", "link x: overflow")
        span = sim.span("epc.attach", ue="u")
        span.end()
        path = str(tmp_path / "events.jsonl")
        count = write_events_jsonl(
            path, tracers=[("s0", tracer)],
            span_trackers=[("s0", sim.telemetry.spans)])
        records = [json.loads(line) for line in open(path)]
        assert count == len(records) == 2
        kinds = {r["type"] for r in records}
        assert kinds == {"trace", "span"}
        span_record = next(r for r in records if r["type"] == "span")
        assert span_record["name"] == "epc.attach"
        assert span_record["sim"] == "s0"

    def test_summary_table_groups_by_subsystem(self):
        rows = tagged_rows([("s0", _sample_registry())])
        table = summary_table(rows)
        subsystems = table.column("subsystem")
        assert subsystems == ["epc", "nas", "net"]
        net_row = table.rows[subsystems.index("net")]
        assert net_row["counter_total"] == 3.0


# -- hub: collection across a real experiment-style run ---------------------


class TestHub:
    def test_collects_simulators_built_during_run(self):
        HUB.start_run()
        sims = [Simulator(i) for i in range(2)]
        sims[0].metrics.counter("net.x").inc()
        sims[1].metrics.counter("epc.y").inc(2)
        run = HUB.finish_run()
        tags = [tag for tag, _ in run.registries]
        assert tags == ["s0", "s1"]
        assert run.subsystems() == ["epc", "net"]
        assert not HUB.active

    def test_start_twice_raises(self):
        HUB.start_run()
        with pytest.raises(RuntimeError):
            HUB.start_run()
        HUB.abort_run()

    def test_profile_arms_every_simulator(self):
        HUB.start_run(profile=True)
        sim = Simulator(0)
        sim.schedule(0.0, lambda: None)
        sim.run()
        run = HUB.finish_run()
        assert run.profiler is not None and run.profiler.events == 1

    def test_trace_arms_every_simulator(self):
        HUB.start_run(trace=True)
        sim = Simulator(0)
        sim.schedule(0.0, lambda: sim.trace("c", "m"))
        sim.run()
        run = HUB.finish_run()
        assert len(run.tracers) == 1
        assert run.tracers[0][1].count("c") == 1

    def test_network_run_covers_six_subsystems(self):
        """A real dLTE bring-up emits metrics from >= 6 subsystems."""
        HUB.start_run()
        try:
            town = RuralTown(radius_m=1500, n_ues=4, n_aps=2, seed=2)
            net = DLTENetwork.build(town, seed=2)
            net.run(duration_s=3.0)
        except BaseException:
            HUB.abort_run()
            raise
        run = HUB.finish_run()
        subsystems = set(run.subsystems())
        assert {"phy", "mac", "epc", "nas", "net", "spectrum"} <= subsystems
        rows = run.metrics_rows()
        by_name = {(r["sim"], r["name"], tuple(sorted(r["labels"].items())))
                   for r in rows}
        assert len(by_name) == len(rows)  # tagging keeps rows distinct
        attach = [r for r in rows if r["name"] == "epc.attach.completed"]
        assert sum(r["value"] for r in attach) == 4

    def test_attach_spans_recorded_end_to_end(self):
        HUB.start_run()
        try:
            town = RuralTown(radius_m=1500, n_ues=3, n_aps=1, seed=4)
            net = DLTENetwork.build(town, seed=4)
            net.run(duration_s=3.0)
        except BaseException:
            HUB.abort_run()
            raise
        run = HUB.finish_run()
        all_spans = [span for _tag, tracker in run.span_trackers
                     for span in tracker.spans("nas.attach")]
        ok = [s for s in all_spans if s.status == "ok"]
        assert len(ok) == 3
        for span in ok:
            assert span.duration_s > 0  # attach takes simulated time
