"""End-to-end tests for the analysis daemon and its client.

Each test stands up a real :class:`ReproServer` on an ephemeral
localhost port and talks to it through :class:`ServiceClient` — the same
code path ``repro serve`` / ``repro submit`` use.
"""

from __future__ import annotations

import dataclasses
import json
import socket

import pytest

from repro.bench.programs import taint_sparse_kernel_source
from repro.cache.config import CacheConfig
from repro.engine.engine import execute_request
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.obs import metrics
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproServer
from repro.service.wire import (
    WireError,
    request_from_wire,
    request_to_wire,
    result_fingerprint,
)
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy

SOURCE = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"
BROKEN_SOURCE = "int main( { nope"

#: A non-default value for every :class:`AnalysisRequest` field but the
#: (required) source.
NON_DEFAULT_FIELDS = {
    "kind": AnalysisKind.BASELINE,
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
    "label": "every-field",
    "warm_from": "0" * 64,
}


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(store_dir=str(tmp_path / "store"), port=0, max_workers=2).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as cli:
        yield cli


class TestWireFormat:
    def test_request_roundtrip_preserves_keys(self):
        request = AnalysisRequest.speculative(
            SOURCE,
            entry="main",
            line_size=32,
            cache_config=CacheConfig(num_lines=16, line_size=32),
            speculation=SpeculationConfig.paper_default().with_depths(50, 10),
            label="roundtrip",
        )
        restored = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert restored == request
        assert restored.result_key() == request.result_key()
        assert restored.compile_key() == request.compile_key()
        assert restored.label == "roundtrip"

    def test_baseline_request_roundtrip(self):
        request = AnalysisRequest.baseline(SOURCE, use_shadow_state=False)
        restored = request_from_wire(request_to_wire(request))
        assert restored == request
        assert restored.result_key() == request.result_key()

    def test_malformed_requests_rejected(self):
        with pytest.raises(WireError):
            request_from_wire({})
        with pytest.raises(WireError):
            request_from_wire({"source": 42})
        with pytest.raises(WireError):
            request_from_wire({"source": SOURCE, "kind": "quantum"})

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT_FIELDS))
    def test_every_field_survives_the_wire(self, name):
        """Each request field, execution hints included, crosses a JSON
        round trip unchanged when it alone differs from the default."""
        request = AnalysisRequest(**{"source": SOURCE, name: NON_DEFAULT_FIELDS[name]})
        restored = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert getattr(restored, name) == NON_DEFAULT_FIELDS[name]
        assert restored == request
        assert restored.result_key() == request.result_key()

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT_FIELDS))
    def test_omitted_key_decodes_to_the_field_default(self, name):
        """An older client that never sends a key gets the dataclass
        default, so the decoder's fallbacks cannot drift from it."""
        payload = request_to_wire(AnalysisRequest(source=SOURCE))
        del payload[name]
        restored = request_from_wire(payload)
        default = next(
            f.default for f in dataclasses.fields(AnalysisRequest) if f.name == name
        )
        assert getattr(restored, name) == default
        assert restored.result_key() == AnalysisRequest(source=SOURCE).result_key()

    def test_non_default_table_covers_every_field(self):
        fields = {
            f.name: f for f in dataclasses.fields(AnalysisRequest)
            if f.name != "source"
        }
        assert set(NON_DEFAULT_FIELDS) == set(fields), (
            "give every request field a non-default value in NON_DEFAULT_FIELDS"
        )
        for name, value in NON_DEFAULT_FIELDS.items():
            assert value != fields[name].default, name

    def test_fingerprint_ignores_provenance(self):
        request = AnalysisRequest.speculative(SOURCE)
        result = execute_request(request)
        replay = execute_request(request)
        replay.analysis_time = result.analysis_time * 10 + 1.0
        replay.from_cache = True
        assert result_fingerprint(result) == result_fingerprint(replay)


class TestRemovedKnobs:
    """Older clients still send the keys of removed request knobs; the
    decoder ignores them, and the command line no longer offers them."""

    def test_legacy_prune_scenarios_key_is_ignored(self):
        """Older clients always send ``prune_scenarios``; the server decodes
        such a payload to the request it would get without the key."""
        request = AnalysisRequest.speculative(SOURCE)
        plain = request_to_wire(request)
        assert "prune_scenarios" not in plain
        expected = result_fingerprint(execute_request(request))
        for flag in (False, True):
            legacy = request_from_wire(dict(plain, prune_scenarios=flag))
            assert legacy == request
            assert legacy.result_key() == request.result_key()
            assert result_fingerprint(execute_request(legacy)) == expected

    @pytest.mark.parametrize(
        "shards, backend",
        [
            (2, "processes"),
            (2, "threads"),
            (2, "serial"),
            (2, "fork"),
            (0, "serial"),
            (1, "serial"),
            (8, "serial"),
            ("two", "serial"),
        ],
    )
    def test_legacy_shard_keys_are_ignored(self, shards, backend):
        """A sharded request from an older client decodes to the default
        request with the default result key, whatever values it sends:
        ``"threads"`` and ``"fork"`` (which older servers rejected) and a
        malformed shard count (older servers parsed an int) included."""
        request = AnalysisRequest.speculative(SOURCE)
        plain = request_to_wire(request)
        assert "scenario_shards" not in plain and "shard_backend" not in plain
        legacy = request_from_wire(
            dict(plain, scenario_shards=shards, shard_backend=backend)
        )
        assert legacy == request
        assert legacy.result_key() == request.result_key()

    def test_daemon_answers_a_legacy_sharded_payload_with_the_canonical_result(
        self, client
    ):
        request = AnalysisRequest.speculative(SOURCE)
        payload = dict(
            request_to_wire(request), scenario_shards=2, shard_backend="processes"
        )
        wire = client.call("analyze", request=payload, timeout=60)["result"]
        assert result_fingerprint(wire) == result_fingerprint(execute_request(request))
        assert wire["provenance"]["result_key"] == request.result_key()
        assert "scenario_shards" not in wire["provenance"]["request"]

    @pytest.mark.parametrize(
        "target, keyword",
        [
            ("request", "scenario_shards"),
            ("request", "shard_backend"),
            ("analyze_speculative", "scenario_shards"),
            ("analyze_speculative", "shard_backend"),
            ("analysis", "scenario_shards"),
            ("analysis", "shard_backend"),
            ("analysis", "vcfg"),
        ],
    )
    def test_python_api_rejects_the_removed_shard_parameters(self, target, keyword):
        """In-process callers get a TypeError rather than a knob that is
        silently ignored."""
        from repro import compile_source
        from repro.analysis import analyze_speculative
        from repro.analysis.multicolor import SpeculativeCacheAnalysis

        value = {"scenario_shards": 2, "shard_backend": "processes", "vcfg": None}[keyword]
        build = {
            "request": lambda: AnalysisRequest.speculative(SOURCE, **{keyword: value}),
            "analyze_speculative": lambda: analyze_speculative(
                compile_source(SOURCE), **{keyword: value}
            ),
            "analysis": lambda: SpeculativeCacheAnalysis(
                compile_source(SOURCE), **{keyword: value}
            ),
        }[target]
        with pytest.raises(TypeError, match=keyword):
            build()

    def test_cli_rejects_the_removed_prune_flag(self, tmp_path):
        from repro.service.cli import build_parser

        path = tmp_path / "prog.mc"
        path.write_text(SOURCE)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", str(path), "--prune-scenarios"])

    @pytest.mark.parametrize(
        "flag", [["--scenario-shards", "2"], ["--shard-backend", "processes"]]
    )
    def test_cli_rejects_the_removed_shard_flags(self, tmp_path, flag):
        from repro.service.cli import build_parser

        path = tmp_path / "prog.mc"
        path.write_text(SOURCE)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["submit", str(path), *flag])
        assert excinfo.value.code == 2

    def test_removed_prune_environment_variable_is_ignored(self, monkeypatch):
        """``REPRO_PRUNE_SCENARIOS`` no longer exists: setting it leaves the
        result, iteration counts included, and the metrics untouched."""
        request = AnalysisRequest.speculative(taint_sparse_kernel_source(8))
        monkeypatch.delenv("REPRO_PRUNE_SCENARIOS", raising=False)
        expected = result_fingerprint(execute_request(request))
        monkeypatch.setenv("REPRO_PRUNE_SCENARIOS", "1")
        assert result_fingerprint(execute_request(request)) == expected
        assert not any(name.startswith("prune.") for name in metrics().snapshot())


class TestProtocol:
    def test_ping(self, client):
        assert client.ping() > 0

    def test_submit_status_result(self, client):
        request = AnalysisRequest.speculative(SOURCE)
        job_id = client.submit(request)
        assert job_id.startswith("job-")
        wire = client.result(job_id, timeout=60)
        assert wire["misses"] == 3
        status = client.status(job_id)
        assert status["state"] == "done"

    def test_analyze_single_roundtrip(self, client):
        wire = client.analyze(AnalysisRequest.baseline(SOURCE), timeout=60)
        direct = execute_request(AnalysisRequest.baseline(SOURCE))
        assert result_fingerprint(wire) == result_fingerprint(direct)

    def test_unknown_job_is_an_error(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-424242")

    def test_failed_analysis_reported_not_fatal(self, client):
        with pytest.raises(ServiceError):
            client.analyze(AnalysisRequest.speculative(BROKEN_SOURCE), timeout=60)
        # The daemon survives and keeps serving.
        assert client.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)

    def test_stats_payload(self, client):
        client.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["scheduler"]["completed"] >= 1
        assert stats["result_store"]["writes"] >= 1

    def test_malformed_lines_answered_with_errors(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
            reader = conn.makefile("rb")
            for payload in (b"not json\n", b"[1,2,3]\n", b'{"op": "warp"}\n'):
                conn.sendall(payload)
                response = json.loads(reader.readline())
                assert response["ok"] is False and response["error"]
            # The connection is still usable afterwards.
            conn.sendall(b'{"op": "ping"}\n')
            assert json.loads(reader.readline())["ok"] is True

    def test_private_attributes_not_dispatchable(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b'{"op": "_dispatch"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False

    def test_concurrent_clients(self, server):
        import threading

        outcomes: list[str] = []

        def one_client(i: int) -> None:
            with ServiceClient(port=server.port) as cli:
                wire = cli.analyze(
                    AnalysisRequest.speculative(SOURCE, label=f"client-{i}"),
                    timeout=60,
                )
                outcomes.append(result_fingerprint(wire))

        threads = [threading.Thread(target=one_client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(set(outcomes)) == 1 and len(outcomes) == 6

    def test_shutdown_op_stops_server(self, tmp_path):
        server = ReproServer(store_dir=str(tmp_path / "s"), port=0).start()
        with ServiceClient(port=server.port) as cli:
            cli.shutdown()
        # New connections are refused once the listener closes.
        import time

        for _ in range(50):
            try:
                socket.create_connection(("127.0.0.1", server.port), timeout=0.2).close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("server still accepting connections after shutdown")


class TestDaemonRestartServedFromStore:
    """The acceptance criterion: a second identical submission against a
    *restarted* daemon is served from the on-disk store — no recompile,
    no fixpoint — bit-identical to direct execution."""

    def test_warm_restart(self, tmp_path):
        store_dir = str(tmp_path / "store")
        request = AnalysisRequest.speculative(SOURCE, label="restart-me")

        first = ReproServer(store_dir=store_dir, port=0).start()
        with ServiceClient(port=first.port) as cli:
            cold = cli.analyze(request, timeout=60)
            assert cold["from_cache"] is False
        first.stop()

        second = ReproServer(store_dir=store_dir, port=0).start()
        try:
            with ServiceClient(port=second.port) as cli:
                warm = cli.analyze(request, timeout=60)
                stats = cli.stats()
        finally:
            second.stop()

        assert warm["from_cache"] is True, "restarted daemon must hit the store"
        assert result_fingerprint(warm) == result_fingerprint(cold)
        assert result_fingerprint(warm) == result_fingerprint(execute_request(request))
        assert stats["result_store"]["hits"] == 1
        assert stats["compile_cache"]["hits"] == 0
        assert stats["compile_cache"]["misses"] == 0, (
            "a store-served request must never reach the front end"
        )

    def test_restart_with_wire_rebuilt_request(self, tmp_path):
        """A client that round-trips the request through JSON (as real
        clients do) still hits the same store entry after a restart."""
        store_dir = str(tmp_path / "store")
        request = AnalysisRequest.baseline(SOURCE)

        first = ReproServer(store_dir=store_dir, port=0).start()
        with ServiceClient(port=first.port) as cli:
            cli.analyze(request, timeout=60)
        first.stop()

        rebuilt = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        second = ReproServer(store_dir=store_dir, port=0).start()
        try:
            with ServiceClient(port=second.port) as cli:
                warm = cli.analyze(rebuilt, timeout=60)
        finally:
            second.stop()
        assert warm["from_cache"] is True
