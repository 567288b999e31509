"""Tests for the telemetry layer (:mod:`repro.obs`).

The contract under test is observational soundness: metrics, spans and
provenance stamps may describe an analysis, but they must never change
one.  The determinism tests run the same analysis with tracing on and
off for each pass shape of the speculative engine and compare full wire
fingerprints; the
exporter tests pin the JSONL invariants (every line parses, spans nest,
concurrent writers never interleave); the provenance tests replay a
stamp back into a request and demand the identical verdict.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading

import pytest

from repro.analysis.result import CacheAnalysisResult
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.obs import (
    MetricsRegistry,
    ProvenanceStamp,
    SpanBuffer,
    metrics,
    span,
    stamp_for_request,
    tracer,
)
from repro.obs.tracing import _DisabledSpan
from repro.service.wire import request_from_wire, result_fingerprint
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy

SOURCE = """
char table[4096]; int k;
int main() {
  int x = 0;
  if (k > 0) { x = x + table[k * 64]; }
  if (k > 1) { x = x + table[128]; }
  return x;
}
"""


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Every test starts with tracing off and no leftover sinks."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    before = list(tracer()._sinks)
    yield
    for sink in list(tracer()._sinks):
        if sink not in before:
            tracer().remove_sink(sink)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a.pops").inc(3)
        registry.gauge("a.size").set(7)
        registry.histogram("a.time").observe(0.02)
        snap = registry.snapshot()
        assert snap["a.pops"] == {"type": "counter", "value": 3}
        assert snap["a.size"]["value"] == 7
        assert snap["a.time"]["count"] == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        json.dumps(registry.snapshot())

    def test_prefix_snapshot_serialises_only_matching_instruments(self, monkeypatch):
        registry = MetricsRegistry()
        registry.counter("scheduler.slow_jobs").inc()
        registry.histogram("scheduler.e2e_seconds").observe(0.5)
        registry.counter("fixpoint.pops").inc(9)
        full = registry.snapshot()
        serialised = []
        histogram_type = type(registry.histogram("scheduler.e2e_seconds"))
        to_dict = histogram_type.to_dict

        def spy(instrument):
            serialised.append(instrument)
            return to_dict(instrument)

        monkeypatch.setattr(histogram_type, "to_dict", spy)
        registry.histogram("fixpoint.time").observe(1.0)
        prefixed = registry.snapshot(prefix="scheduler.")
        assert prefixed == {
            name: payload for name, payload in full.items() if name.startswith("scheduler.")
        }
        assert serialised == [registry.histogram("scheduler.e2e_seconds")]


# ----------------------------------------------------------------------
# Tracer: disabled fast path and JSONL exporter
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_the_noop_type_and_still_times(self):
        opened = span("anything", attr=1)
        assert isinstance(opened, _DisabledSpan)
        with opened as s:
            pass
        assert s.duration >= 0.0

    def test_no_file_created_when_disabled(self, tmp_path):
        with span("untraced"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_env_var_attaches_and_detaches_jsonl(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        with span("outer", a=1):
            with span("inner"):
                pass
        monkeypatch.delenv("REPRO_TRACE")
        assert not tracer().enabled
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        spans = [json.loads(line) for line in lines]  # every line parses
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["trace_id"] == by_name["outer"]["trace_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["attrs"] == {"a": 1}

    def test_concurrent_writers_never_interleave(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))

        def worker(index: int) -> None:
            for _ in range(50):
                with span("worker", index=index, pad="x" * 256):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 50
        for line in lines:
            json.loads(line)  # any torn write would fail here

    def test_span_buffer_finds_job_traces(self):
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        with span("scheduler.job", job_id="job-7"):
            with span("analyze"):
                pass
        with span("scheduler.job", job_id="job-8"):
            pass
        with span("unrelated"):
            pass
        tracer().remove_sink(buffer)
        names = {s["name"] for s in buffer.trace_for_job("job-7")}
        assert names == {"scheduler.job", "analyze"}
        assert buffer.trace_for_job("job-9") == []


# ----------------------------------------------------------------------
# Determinism: tracing must never perturb results
# ----------------------------------------------------------------------
class TestTracingDeterminism:
    def test_identical_results_with_tracing_on_and_off(
        self, speculative_run, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        untraced = speculative_run()
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        traced = speculative_run()
        monkeypatch.delenv("REPRO_TRACE")
        assert path.read_text(), "the traced run exported no spans"
        assert result_fingerprint(traced) == result_fingerprint(untraced)
        assert traced.classifications == untraced.classifications
        assert traced.entry_states == untraced.entry_states
        assert traced.iterations == untraced.iterations

    def test_fixpoint_span_hangs_off_analyze_with_its_fields(self, speculative_run):
        """One ``fixpoint`` span per solve, a child of ``analyze`` in the
        same trace, carrying the scenario count and the solve's totals."""
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        try:
            result = speculative_run()
        finally:
            tracer().remove_sink(buffer)
        spans = buffer.spans()
        by_id = {s["span_id"]: s for s in spans}
        fixpoints = [s for s in spans if s["name"] == "fixpoint"]
        assert fixpoints
        for fixpoint in fixpoints:
            parent = by_id[fixpoint["parent_id"]]
            assert parent["name"] == "analyze"
            assert parent["trace_id"] == fixpoint["trace_id"]
            assert set(fixpoint["attrs"]) - {"warm"} == {
                "program", "kind", "scenarios", "iterations", "widenings",
            }
        # The last solve is the one whose result came back.
        assert fixpoints[-1]["attrs"]["iterations"] == result.iterations
        assert fixpoints[-1]["attrs"]["widenings"] == result.widenings

    OP_COUNTERS = ("fixpoint.pops", "fixpoint.slot_retransfers", "fixpoint.widenings")

    def test_op_counters_identical_with_tracing_on_and_off(
        self, speculative_run, tmp_path, monkeypatch
    ):
        def counted() -> dict[str, int]:
            before = {name: metrics().counter(name).value for name in self.OP_COUNTERS}
            speculative_run()
            return {
                name: metrics().counter(name).value - before[name]
                for name in self.OP_COUNTERS
            }

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        untraced = counted()
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.jsonl"))
        traced = counted()
        monkeypatch.delenv("REPRO_TRACE")
        assert traced == untraced
        assert untraced["fixpoint.pops"] > 0

    def test_result_keys_unaffected_by_tracing(self, tmp_path, monkeypatch):
        request = AnalysisRequest.speculative(SOURCE)
        key_off = request.result_key()
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.jsonl"))
        key_on = AnalysisRequest.speculative(SOURCE).result_key()
        assert key_on == key_off

    def test_trace_covers_pipeline_phases(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        engine = AnalysisEngine()
        engine.run(AnalysisRequest.speculative(SOURCE))
        monkeypatch.delenv("REPRO_TRACE")
        names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        for expected in (
            "engine.run", "analyze", "frontend", "parse", "unroll", "typecheck",
            "lower", "inline", "layout", "vcfg", "fixpoint", "classify",
        ):
            assert expected in names, f"missing span {expected!r}"


# ----------------------------------------------------------------------
# Provenance stamps
# ----------------------------------------------------------------------
class TestProvenance:
    def test_results_carry_a_stamp(self):
        request = AnalysisRequest.speculative(SOURCE)
        result = execute_request(request)
        stamp = result.provenance
        assert isinstance(stamp, ProvenanceStamp)
        assert stamp.result_key == request.result_key()
        assert stamp.kind == "speculative"

    def test_stamp_replays_to_the_identical_verdict(self):
        request = AnalysisRequest.speculative(SOURCE)
        result = execute_request(request)
        replayed_request = result.provenance.replay_request()
        assert replayed_request == request
        assert replayed_request.result_key() == request.result_key()
        replay = execute_request(replayed_request)
        assert result_fingerprint(replay) == result_fingerprint(result)

    def test_stamp_replays_every_compared_field(self):
        """Every field that takes part in request identity survives the
        stamp, so a stamp replays to its own result key."""
        non_default = {
            "source": SOURCE,
            "entry": "main",
            "line_size": 32,
            "cache_config": CacheConfig(
                num_lines=8, line_size=32, associativity=2, policy="fifo"
            ),
            "speculation": SpeculationConfig(
                depth_miss=50,
                depth_hit=10,
                merge_strategy=MergeStrategy.MERGE_AT_ROLLBACK,
                dynamic_depth_bounding=False,
                use_shadow_state=False,
            ),
            "use_shadow_state": False,
            "unroll": False,
            "inline": False,
            "max_unroll_iterations": 512,
        }
        compared = {
            f.name: f for f in dataclasses.fields(AnalysisRequest) if f.compare
        }
        assert set(compared) == set(non_default) | {"kind"}, (
            "give every compared request field a non-default value here"
        )
        for name, value in non_default.items():
            assert value != compared[name].default, name
        for kind in AnalysisKind:
            request = AnalysisRequest(kind=kind, **non_default)
            stamp = stamp_for_request(request)
            replayed = stamp.replay_request()
            assert replayed == request
            assert replayed.result_key() == stamp.result_key == request.result_key()

    def test_stamp_request_matches_wire_codec(self):
        request = AnalysisRequest.speculative(SOURCE, label="pin")
        stamp = stamp_for_request(request)
        assert request_from_wire(stamp.request) == request

    def test_stamp_wire_roundtrip(self):
        stamp = stamp_for_request(AnalysisRequest.baseline(SOURCE))
        wire = stamp.to_wire()
        json.dumps(wire)  # JSON-clean
        assert ProvenanceStamp.from_wire(wire) == stamp

    def test_stamp_excluded_from_fingerprint_and_equality(self):
        request = AnalysisRequest.speculative(SOURCE)
        first, second = execute_request(request), execute_request(request)
        # provenance is compare=False: stripping it never changes equality
        assert first == dataclasses.replace(first, provenance=None)
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_stored_artifact_replays_bit_for_bit(self, tmp_path):
        from repro.service.store import ResultStore

        request = AnalysisRequest.speculative(SOURCE)
        engine = AnalysisEngine(result_store=ResultStore(tmp_path / "store"))
        first = engine.run(request)
        stored = ResultStore(tmp_path / "store").get(request.result_key())
        assert stored.provenance is not None
        replay = execute_request(stored.provenance.replay_request())
        assert result_fingerprint(replay) == result_fingerprint(first)

    def test_old_pickles_without_provenance_still_load(self, tmp_path):
        """Artifacts older versions wrote to a result store load and replay
        without a store format bump: results from before the provenance
        stamp, and results from when requests could be sharded, which
        carry ``shard_backend_used`` and a stamp with ``backend`` and
        ``scenario_shards``."""
        from repro.service.store import ResultStore
        from repro.service.wire import result_to_wire

        result = execute_request(AnalysisRequest.baseline(SOURCE))
        state = result.__dict__.copy()
        state.pop("provenance")
        old = CacheAnalysisResult.__new__(CacheAnalysisResult)
        old.__setstate__(state)
        revived = pickle.loads(pickle.dumps(old))
        assert revived.provenance is None
        # the engine's cache-replay copy path must survive such results
        assert dataclasses.replace(revived, from_cache=True).from_cache

        # Pickling instances that carry the removed attributes writes the
        # bytes the older classes wrote: class path plus attribute dict.
        request = AnalysisRequest.speculative(SOURCE)
        fresh = execute_request(request)
        stamp = object.__new__(ProvenanceStamp)
        stamp.__dict__.update(
            fresh.provenance.__dict__, backend="processes", scenario_shards=2
        )
        stamp.__dict__["request"] = dict(
            stamp.request, scenario_shards=2, shard_backend="processes"
        )
        legacy = CacheAnalysisResult.__new__(CacheAnalysisResult)
        legacy.__dict__.update(
            fresh.__dict__, shard_backend_used="processes", provenance=stamp
        )
        ResultStore(tmp_path / "store").put(request.result_key(), legacy)
        loaded = ResultStore(tmp_path / "store").get(request.result_key())
        assert loaded is not None
        assert loaded == fresh
        assert dataclasses.replace(loaded, from_cache=True).from_cache
        json.dumps(result_to_wire(loaded))
        assert result_fingerprint(loaded) == result_fingerprint(fresh)
        loaded_stamp = dataclasses.replace(loaded.provenance, created_at=0.0)
        assert loaded_stamp.to_wire()["result_key"] == request.result_key()
        assert loaded_stamp.replay_request() == request
        assert loaded_stamp.replay_request().result_key() == request.result_key()


# ----------------------------------------------------------------------
# Daemon surface: trace RPC and extended stats
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    @pytest.fixture
    def server(self):
        from repro.service.server import ReproServer

        server = ReproServer(port=0, max_workers=1).start()
        yield server
        server.stop()

    @pytest.fixture
    def client(self, server):
        from repro.service.client import ServiceClient

        with ServiceClient(port=server.port) as client:
            yield client

    def test_trace_rpc_returns_job_span_tree(self, client):
        request = AnalysisRequest.speculative(SOURCE)
        client.analyze(request)
        assert client.last_job_id is not None
        spans = client.trace(client.last_job_id)
        names = {s["name"] for s in spans}
        assert "scheduler.job" in names
        assert "fixpoint" in names
        job_span = next(s for s in spans if s["name"] == "scheduler.job")
        assert job_span["attrs"]["job_id"] == client.last_job_id
        # one trace: every span shares the job span's trace id
        assert {s["trace_id"] for s in spans} == {job_span["trace_id"]}

    def test_trace_rpc_rejects_unknown_jobs(self, client):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError, match="unknown job"):
            client.trace("job-999999")

    def test_stats_rpc_exposes_metrics(self, client):
        client.analyze(AnalysisRequest.speculative(SOURCE))
        stats = client.stats()
        registry = stats["metrics"]
        assert registry["fixpoint.pops"]["value"] > 0
        json.dumps(stats)  # the whole payload is JSON-clean

    def test_result_wire_carries_provenance(self, client):
        request = AnalysisRequest.speculative(SOURCE)
        wire = client.analyze(request)
        stamp = wire["provenance"]
        assert stamp["result_key"] == request.result_key()
        assert request_from_wire(stamp["request"]) == request


# ----------------------------------------------------------------------
# Progress reporters and the watchable event log
# ----------------------------------------------------------------------
class TestProgressPrimitives:
    def test_null_reporter_is_the_default_and_inactive(self):
        from repro.obs.progress import NULL_REPORTER
        from repro.obs import current_reporter

        assert current_reporter() is NULL_REPORTER
        assert NULL_REPORTER.active is False
        NULL_REPORTER.publish("anything", pops=1)  # no-op, never raises

    def test_reporting_scopes_nest_and_restore(self):
        from repro.obs import CallbackReporter, current_reporter, reporting

        outer = CallbackReporter(lambda phase, fields: None)
        inner = CallbackReporter(lambda phase, fields: None)
        with reporting(outer):
            assert current_reporter() is outer
            with reporting(inner):
                assert current_reporter() is inner
            assert current_reporter() is outer
            # None leaves the current reporter installed.
            with reporting(None) as active:
                assert active is outer
        assert current_reporter().active is False

    def test_publish_progress_routes_to_installed_reporter(self):
        from repro.obs import ProgressReporter, publish_progress, reporting

        class Recorder(ProgressReporter):
            def __init__(self):
                self.events: list[tuple[str, dict]] = []

            def publish(self, phase, **fields):
                self.events.append((phase, fields))

        recorder = Recorder()
        publish_progress("fixpoint", program="before")  # nobody listens yet
        with reporting(recorder):
            publish_progress("fixpoint", program="main", scenarios=2)
        publish_progress("classify", program="after")  # the scope has closed
        assert recorder.events == [("fixpoint", {"program": "main", "scenarios": 2})]

    def test_callback_reporter(self):
        from repro.obs import CallbackReporter, reporting, publish_progress

        seen: list[tuple[str, dict]] = []
        with reporting(CallbackReporter(lambda phase, fields: seen.append((phase, fields)))):
            publish_progress("mitigate", leaks=2)
        assert seen == [("mitigate", {"leaks": 2})]

    def test_event_log_stamps_and_orders(self):
        from repro.obs import EventLog

        log = EventLog()
        first = log.append("queued", priority="normal")
        second = log.append("dispatched")
        assert (first["seq"], second["seq"]) == (1, 2)
        assert first["t"] <= second["t"] and first["ts"] <= second["ts"]
        assert log.last_seq == 2
        assert [e["event"] for e in log.snapshot()] == ["queued", "dispatched"]
        assert [e["event"] for e in log.since(1)] == ["dispatched"]

    def test_event_log_reserved_keys_cannot_be_forged(self):
        from repro.obs import EventLog

        log = EventLog()
        entry = log.append("progress", seq=999, t=-1.0, ts=-1.0)
        assert entry["seq"] == 1 and entry["event"] == "progress"
        assert entry["t"] > 0 and entry["ts"] > 0

    def test_event_log_capacity_bounds_memory(self):
        from repro.obs import EventLog

        log = EventLog(capacity=4)
        for index in range(10):
            log.append("progress", index=index)
        snapshot = log.snapshot()
        assert len(snapshot) == 4
        assert [e["index"] for e in snapshot] == [6, 7, 8, 9]
        assert log.last_seq == 10  # seq never resets on drops

    def test_wait_since_blocks_until_append(self):
        import threading

        from repro.obs import EventLog

        log = EventLog()
        results: list[list] = []

        def watcher():
            results.append(log.wait_since(0, timeout=10.0))

        thread = threading.Thread(target=watcher)
        thread.start()
        log.append("done")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [e["event"] for e in results[0]] == ["done"]

    def test_wait_since_times_out_empty(self):
        import time

        from repro.obs import EventLog

        log = EventLog()
        started = time.monotonic()
        assert log.wait_since(0, timeout=0.05) == []
        assert time.monotonic() - started < 5.0

    def test_log_reporter_writes_progress_entries(self):
        from repro.obs import EventLog, LogReporter

        log = EventLog()
        LogReporter(log).publish("fixpoint", pops=4096)
        entry = log.snapshot()[0]
        assert entry["event"] == "progress"
        assert entry["phase"] == "fixpoint" and entry["pops"] == 4096


# ----------------------------------------------------------------------
# Bucket-interpolated quantiles and Prometheus exposition
# ----------------------------------------------------------------------
class TestHistogramQuantile:
    def test_empty_histogram_has_no_quantile(self):
        from repro.obs.metrics import Histogram

        assert Histogram("h").quantile(0.5) is None

    def test_single_observation_pins_all_quantiles(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", edges=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        for q in (0.0, 0.5, 0.99, 1.0):
            value = histogram.quantile(q)
            assert 1.0 <= value <= 2.0, f"q={q} escaped the bucket: {value}"

    def test_quantiles_are_monotone_and_bounded_by_min_max(self):
        import random

        from repro.obs.metrics import Histogram

        histogram = Histogram("h")
        rng = random.Random(7)
        samples = [rng.uniform(0.002, 8.0) for _ in range(500)]
        for sample in samples:
            histogram.observe(sample)
        quantiles = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)
        assert min(samples) <= quantiles[0] and quantiles[-1] <= max(samples)

    def test_quantile_accuracy_within_bucket_width(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", edges=(0.1, 0.2, 0.3, 0.4, 0.5))
        samples = [0.05 + 0.01 * i for i in range(45)]  # 0.05 .. 0.49
        for sample in samples:
            histogram.observe(sample)
        exact = sorted(samples)[len(samples) // 2]
        estimate = histogram.quantile(0.5)
        assert abs(estimate - exact) <= 0.1, "error must stay within one bucket"

    def test_overflow_bucket_tightened_by_max(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", edges=(1.0,))
        histogram.observe(50.0)
        assert 1.0 <= histogram.quantile(0.99) <= 50.0

    def test_works_on_rpc_payloads(self):
        import json

        from repro.obs.metrics import Histogram, histogram_quantile

        histogram = Histogram("h")
        for value in (0.02, 0.04, 0.3):
            histogram.observe(value)
        payload = json.loads(json.dumps(histogram.to_dict()))
        assert histogram_quantile(payload, 0.5) == histogram.quantile(0.5)


class TestPrometheusRendering:
    def test_counter_gauge_histogram_families(self):
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        registry.counter("fixpoint.pops").inc(12)
        registry.gauge("scheduler.queue_depth.high").set(3)
        registry.histogram("scheduler.e2e_seconds").observe(0.02)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_fixpoint_pops_total counter" in text
        assert "repro_fixpoint_pops_total 12" in text
        assert "repro_scheduler_queue_depth_high 3" in text
        assert '# TYPE repro_scheduler_e2e_seconds histogram' in text
        assert 'repro_scheduler_e2e_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_scheduler_e2e_seconds_count 1" in text
        assert text.endswith("\n")

    def test_rendering_is_deterministic(self):
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snapshot = registry.snapshot()
        assert render_prometheus(snapshot) == render_prometheus(snapshot)
        lines = render_prometheus(snapshot).splitlines()
        assert lines.index("repro_a_total 1") < lines.index("repro_b_total 1")

    def test_empty_snapshot_renders_empty(self):
        from repro.obs import render_prometheus

        assert render_prometheus({}) == ""
