"""Differential tests for the shard-backend axis: serial and process-pool
sharded runs must be bit-identical (abstract states, iteration counts,
Table-7 verdicts) across merge strategies, geometries and replacement
policies; plus backend resolution, the broken-pool and dead-worker
fallbacks, equal metric totals and event fields across backends,
wire/plumbing round trips and scheduler fan-out accounting."""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro import compile_source
from repro.analysis import multicolor
from repro.analysis.multicolor import (
    SpeculativeCacheAnalysis,
    resolve_shard_backend,
)
from repro.bench.client import build_client_source
from repro.bench.crypto import crypto_kernel
from repro.bench.programs import (
    branchy_kernel_source,
    taint_sparse_kernel_source,
    wcet_benchmark_source,
)
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.pool import WorkerPoolError
from repro.engine.request import SHARD_BACKENDS, AnalysisRequest
from repro.obs import CollectingReporter, metrics, reporting, tracer
from repro.service.scheduler import JobScheduler
from repro.service.wire import (
    WireError,
    request_from_wire,
    request_to_wire,
    result_fingerprint,
)
from repro.speculation.config import SpeculationConfig
from repro.speculation import vcfg as vcfg_module
from repro.speculation.merge import MergeStrategy

#: The paper's geometry axes, scaled down: fully associative LRU and
#: set-associative FIFO.
GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
]

SHARDS = 4

SEED = 0x7A1A7


def random_secret_source(rng: random.Random, num_statements: int = 10) -> str:
    """Seeded random MiniC mixing memory-condition diamonds, register-only
    diamonds (whose speculative windows may touch no memory) and
    secret-indexed accesses."""
    arrays = 4
    decls = [f"char a{i}[64];" for i in range(arrays)]
    decls += ["char cnd[256];", "char sbox[256];", "secret int key;", "reg int p;"]

    def access() -> str:
        return f"a{rng.randrange(arrays)}[{rng.choice([0, 32])}];"

    body = []
    for _ in range(num_statements):
        roll = rng.random()
        if roll < 0.30:
            body.append("  " + access())
        elif roll < 0.55:
            body.append(
                f"  if (cnd[{rng.randrange(4) * 64}]) "
                f"{{ {access()} }} else {{ {access()} }}"
            )
        elif roll < 0.80:
            bound = rng.randrange(4)
            body.append(f"  if (p > {bound}) {{ p = p + {bound + 1}; }}")
        else:
            body.append("  sbox[key];")
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


@pytest.fixture(scope="module")
def branchy_program():
    return compile_source(branchy_kernel_source(8))


def run_backend(program, backend, *, cache_config, speculation=None, shards=SHARDS):
    analysis = SpeculativeCacheAnalysis(
        program,
        cache_config=cache_config,
        speculation=speculation or SpeculationConfig(depth_miss=64, depth_hit=16),
        scenario_shards=shards,
        shard_backend=backend,
    )
    result = analysis.run()
    assert analysis.shard_backend_used == backend
    return result


def assert_bit_identical(reference, other):
    assert other.entry_states == reference.entry_states
    assert other.iterations == reference.iterations
    assert other.widenings == reference.widenings
    assert other.classifications == reference.classifications


class TestDifferentialBackends:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_backends_bit_identical_across_geometries(
        self, branchy_program, geometry
    ):
        config = GEOMETRIES[geometry]
        serial = run_backend(branchy_program, "serial", cache_config=config)
        assert_bit_identical(
            serial, run_backend(branchy_program, "processes", cache_config=config)
        )

    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    def test_backends_bit_identical_across_merge_strategies(
        self, branchy_program, strategy
    ):
        speculation = SpeculationConfig(
            depth_miss=64, depth_hit=16, merge_strategy=strategy
        )
        serial = run_backend(
            branchy_program, "serial",
            cache_config=GEOMETRIES[0], speculation=speculation,
        )
        assert_bit_identical(
            serial,
            run_backend(
                branchy_program, "processes",
                cache_config=GEOMETRIES[0], speculation=speculation,
            ),
        )

    def test_workers_reuse_the_masters_scenarios(self, branchy_program, monkeypatch):
        """Process workers build their analyses over the master's vcfg: with
        scenario construction broken once the master has built it, the
        solve still runs on the pool (a worker that fails to set up would
        send it back to the serial backend)."""
        serial = run_backend(branchy_program, "serial", cache_config=GEOMETRIES[0])
        analysis = SpeculativeCacheAnalysis(
            branchy_program,
            cache_config=GEOMETRIES[0],
            speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
            scenario_shards=SHARDS,
            shard_backend="processes",
        )

        def rebuild(*args):
            raise AssertionError("a shard worker rebuilt the scenarios")

        monkeypatch.setattr(vcfg_module, "_compute_scenarios", rebuild)
        result = analysis.run()
        assert analysis.shard_backend_used == "processes"
        assert_bit_identical(serial, result)

    def test_constructor_rejects_a_foreign_vcfg(self, branchy_program):
        master = SpeculativeCacheAnalysis(branchy_program, cache_config=GEOMETRIES[0])
        other = compile_source(branchy_kernel_source(4))
        with pytest.raises(ValueError):
            SpeculativeCacheAnalysis(other, cache_config=GEOMETRIES[0], vcfg=master.vcfg)
        with pytest.raises(ValueError):
            SpeculativeCacheAnalysis(
                branchy_program,
                cache_config=GEOMETRIES[0],
                speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
                vcfg=master.vcfg,
            )

    def test_backends_agree_on_table7_kernel(self, bench_cache):
        """The Table-7 harness shape (crypto kernel + client loop): every
        backend must report the same leak verdicts."""
        program = compile_source(
            build_client_source(crypto_kernel("hash", 64, 64), 2880)
        )
        serial = run_backend(program, "serial", cache_config=bench_cache, shards=3)
        processes = run_backend(
            program, "processes", cache_config=bench_cache, shards=3
        )
        assert_bit_identical(serial, processes)
        assert processes.leak_detected == serial.leak_detected

    def test_backends_agree_under_widening_pressure(self, bench_cache):
        """On a widening-active kernel the sharded engines compute the
        exact unwidened lfp regardless of backend."""
        program = compile_source(wcet_benchmark_source("adpcm"))
        serial = run_backend(program, "serial", cache_config=bench_cache, shards=2)
        assert serial.widenings == 0
        assert_bit_identical(
            serial,
            run_backend(program, "processes", cache_config=bench_cache, shards=2),
        )

    @pytest.mark.parametrize("index", range(3))
    def test_backends_bit_identical_on_random_programs(self, index):
        rng = random.Random(SEED + index)
        source = random_secret_source(rng)
        program = compile_source(source)
        for config in GEOMETRIES:
            serial = run_backend(program, "serial", cache_config=config, shards=3)
            processes = run_backend(
                program, "processes", cache_config=config, shards=3
            )
            assert_bit_identical(serial, processes)
            assert processes.leak_detected == serial.leak_detected, source

    def test_unsharded_run_ignores_backend(self, branchy_program):
        analysis = SpeculativeCacheAnalysis(
            branchy_program,
            cache_config=GEOMETRIES[0],
            scenario_shards=1,
            shard_backend="processes",
        )
        analysis.run()
        # No sharded solve ran, so no backend was exercised.
        assert analysis.shard_backend_used is None


class TestBackendResolution:
    def test_default_is_serial_whatever_the_environment(
        self, branchy_program, monkeypatch
    ):
        # The backend is set per request only; the environment variable
        # earlier versions read must have no effect.
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "processes")
        assert resolve_shard_backend(None) == "serial"
        analysis = SpeculativeCacheAnalysis(
            branchy_program, cache_config=GEOMETRIES[0]
        )
        assert analysis.shard_backend == "serial"

    @pytest.mark.parametrize("backend", SHARD_BACKENDS)
    def test_explicit_backend_wins(self, branchy_program, backend, monkeypatch):
        other = next(b for b in SHARD_BACKENDS if b != backend)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", other)
        assert resolve_shard_backend(backend) == backend
        analysis = SpeculativeCacheAnalysis(
            branchy_program, cache_config=GEOMETRIES[0], shard_backend=backend
        )
        assert analysis.shard_backend == backend

    def test_unset_backend_runs_serially(self):
        """A sharded request that names no backend runs serially, and its
        provenance stamp says so."""
        result = execute_request(
            AnalysisRequest.speculative(TestRequestPlumbing.SOURCE, scenario_shards=2)
        )
        assert result.shard_backend_used == "serial"
        assert result.provenance.backend == "serial"

    @pytest.mark.parametrize("bogus", ["fork", "PROCESSES", "", "threads"])
    def test_invalid_backend_rejected(self, bogus):
        with pytest.raises(ValueError):
            resolve_shard_backend(bogus)

    def test_constructor_rejects_invalid_backend(self, branchy_program):
        with pytest.raises(ValueError):
            SpeculativeCacheAnalysis(
                branchy_program,
                cache_config=GEOMETRIES[0],
                shard_backend="bogus",
            )


class TestBrokenPoolFallback:
    def test_falls_back_to_serial_and_stays_correct(
        self, branchy_program, monkeypatch
    ):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise WorkerPoolError("no workers today")

        serial = run_backend(branchy_program, "serial", cache_config=GEOMETRIES[0])
        monkeypatch.setattr(multicolor, "PersistentWorkerPool", ExplodingPool)
        analysis = SpeculativeCacheAnalysis(
            branchy_program,
            cache_config=GEOMETRIES[0],
            speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
            scenario_shards=SHARDS,
            shard_backend="processes",
        )
        fallback = analysis.run()
        assert analysis.shard_backend_used == "serial"
        assert_bit_identical(serial, fallback)

    def test_worker_dying_mid_solve_falls_back_to_serial(
        self, branchy_program, monkeypatch
    ):
        serial = run_backend(branchy_program, "serial", cache_config=GEOMETRIES[0])
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        monkeypatch.setattr(
            multicolor, "_shard_worker_factory", _dies_on_second_round_factory
        )
        analysis = SpeculativeCacheAnalysis(
            branchy_program,
            cache_config=GEOMETRIES[0],
            speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
            scenario_shards=SHARDS,
            shard_backend="processes",
        )
        fallback = analysis.run()
        assert analysis.shard_backend_used == "serial"
        assert_bit_identical(serial, fallback)
        assert not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard")
        ]


_REAL_SHARD_WORKER_FACTORY = multicolor._shard_worker_factory


class _DiesOnSecondRound:
    """Wraps a shard worker; the process exits when its second round
    arrives, without replying."""

    def __init__(self, worker):
        self.worker = worker
        self.rounds = 0

    def __call__(self, message):
        if message[0] == "round":
            self.rounds += 1
            if self.rounds == 2:
                os._exit(3)
        return self.worker(message)


def _dies_on_second_round_factory(*args):
    return _DiesOnSecondRound(_REAL_SHARD_WORKER_FACTORY(*args))


class TestBackendTotals:
    def test_backends_report_the_same_totals_and_event_fields(self):
        """Process-backed runs report the same metric totals as serial ones,
        ship no codec bytes when serial, and publish round and shard
        events with the same fields."""
        totals = {}
        fields = {}
        for backend in SHARD_BACKENDS:
            metrics().clear()
            collector = CollectingReporter()
            with reporting(collector):
                execute_request(
                    AnalysisRequest.speculative(
                        branchy_kernel_source(4),
                        scenario_shards=2,
                        shard_backend=backend,
                    )
                )
            totals[backend] = metrics().snapshot()
            fields[backend] = {
                phase: {
                    frozenset(event) - {"pid"}
                    for event in collector.events
                    if event["phase"] == phase
                }
                for phase in ("fixpoint.round", "fixpoint.shard")
            }
        serial, processes = totals["serial"], totals["processes"]
        for name in (
            "fixpoint.pops",
            "fixpoint.slot_retransfers",
            "fixpoint.widenings",
        ):
            assert serial[name] == processes[name], name
        assert serial["fixpoint.pops"]["value"] > 0
        assert serial["fixpoint.slot_retransfers"]["value"] > 0
        assert "codec.bytes_shipped" not in serial
        assert processes["codec.bytes_shipped"]["value"] > 0
        assert fields["serial"]["fixpoint.round"]
        assert fields["serial"]["fixpoint.shard"]
        assert fields["serial"] == fields["processes"]


class TestWorkerSinks:
    def test_shard_workers_never_export_to_inherited_sinks(self, branchy_program, tmp_path):
        """Forked shard workers inherit the master's span sinks, and
        another master thread may hold a sink's lock at fork time (the
        ``REPRO_TRACE`` file sink holds it while writing), so a worker
        that exports to one can hang forever.  Every span a worker makes
        must be collected and relayed; only the master's pid may export."""
        writers = tmp_path / "writers"

        class WriterPids:
            def export(self, span):
                with open(writers, "a") as handle:
                    handle.write(f"{os.getpid()}\n")

        sink = WriterPids()
        tracer().add_sink(sink)
        try:
            run_backend(branchy_program, "processes", cache_config=GEOMETRIES[0])
        finally:
            tracer().remove_sink(sink)
        assert set(writers.read_text().split()) == {str(os.getpid())}


class TestRequestPlumbing:
    SOURCE = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"

    def test_backend_never_affects_result_key(self):
        keys = {
            AnalysisRequest.speculative(
                self.SOURCE, scenario_shards=4, shard_backend=backend
            ).result_key()
            for backend in (None,) + SHARD_BACKENDS
        }
        assert len(keys) == 1

    def test_backend_never_affects_equality(self):
        plain = AnalysisRequest.speculative(self.SOURCE, scenario_shards=4)
        forced = AnalysisRequest.speculative(
            self.SOURCE, scenario_shards=4, shard_backend="processes"
        )
        assert plain == forced

    def test_wire_round_trip_preserves_backend(self):
        request = AnalysisRequest.speculative(
            self.SOURCE, scenario_shards=4, shard_backend="processes"
        )
        restored = request_from_wire(request_to_wire(request))
        assert restored.shard_backend == "processes"
        assert restored == request

    def test_legacy_payload_defaults_to_unset_backend(self):
        payload = request_to_wire(AnalysisRequest.speculative(self.SOURCE))
        del payload["shard_backend"]
        restored = request_from_wire(payload)
        assert restored.shard_backend is None

    @pytest.mark.parametrize("bogus", ["fork", "threads"])
    def test_wire_rejects_unknown_backend(self, bogus):
        payload = request_to_wire(AnalysisRequest.speculative(self.SOURCE))
        payload["shard_backend"] = bogus
        with pytest.raises(WireError, match="shard backend") as excinfo:
            request_from_wire(payload)
        assert all(backend in str(excinfo.value) for backend in SHARD_BACKENDS)

    def test_legacy_prune_scenarios_key_is_ignored(self):
        """Older clients always send ``prune_scenarios``; the server decodes
        such a payload to the request it would get without the key."""
        request = AnalysisRequest.speculative(self.SOURCE)
        plain = request_to_wire(request)
        assert "prune_scenarios" not in plain
        expected = result_fingerprint(execute_request(request))
        for flag in (False, True):
            legacy = request_from_wire(dict(plain, prune_scenarios=flag))
            assert legacy == request
            assert legacy.result_key() == request.result_key()
            assert result_fingerprint(execute_request(legacy)) == expected

    def test_cli_offers_exactly_the_request_backends(self, tmp_path):
        from repro.service.cli import build_parser

        path = tmp_path / "prog.mc"
        path.write_text(self.SOURCE)
        parser = build_parser()
        for backend in SHARD_BACKENDS:
            args = parser.parse_args(
                ["submit", str(path), "--shard-backend", backend]
            )
            assert args.shard_backend == backend
        with pytest.raises(SystemExit):
            parser.parse_args(["submit", str(path), "--shard-backend", "threads"])


    def test_cli_flags_reach_request(self, tmp_path):
        from repro.service.cli import _build_request, build_parser

        path = tmp_path / "prog.mc"
        path.write_text(self.SOURCE)
        parser = build_parser()
        args = parser.parse_args(
            ["submit", str(path), "--scenario-shards", "4",
             "--shard-backend", "processes"]
        )
        request = _build_request(args, self.SOURCE)
        assert request.scenario_shards == 4
        assert request.shard_backend == "processes"
        default = _build_request(parser.parse_args(["submit", str(path)]), self.SOURCE)
        assert default.scenario_shards == 1
        assert default.shard_backend is None
        assert default == AnalysisRequest.speculative(self.SOURCE)

    def test_cli_rejects_the_removed_prune_flag(self, tmp_path):
        from repro.service.cli import build_parser

        path = tmp_path / "prog.mc"
        path.write_text(self.SOURCE)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", str(path), "--prune-scenarios"])

    def test_removed_prune_environment_variable_is_ignored(self, monkeypatch):
        """``REPRO_PRUNE_SCENARIOS`` no longer exists: setting it leaves the
        result, iteration counts included, and the metrics untouched."""
        request = AnalysisRequest.speculative(taint_sparse_kernel_source(8))
        monkeypatch.delenv("REPRO_PRUNE_SCENARIOS", raising=False)
        expected = result_fingerprint(execute_request(request))
        monkeypatch.setenv("REPRO_PRUNE_SCENARIOS", "1")
        assert result_fingerprint(execute_request(request)) == expected
        assert not any(name.startswith("prune.") for name in metrics().snapshot())


class TestSchedulerFanOut:
    SOURCE = TestRequestPlumbing.SOURCE

    def test_fans_out_predicate(self):
        fan = AnalysisRequest.speculative(
            self.SOURCE, scenario_shards=4, shard_backend="processes"
        )
        assert JobScheduler._fans_out(fan)
        assert not JobScheduler._fans_out(
            AnalysisRequest.speculative(
                self.SOURCE, scenario_shards=4, shard_backend="serial"
            )
        )
        assert not JobScheduler._fans_out(
            AnalysisRequest.speculative(self.SOURCE, shard_backend="processes")
        )
        assert not JobScheduler._fans_out(
            AnalysisRequest.baseline(
                self.SOURCE, scenario_shards=4, shard_backend="processes"
            )
        )

    def test_fans_out_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "processes")
        assert not JobScheduler._fans_out(
            AnalysisRequest.speculative(self.SOURCE, scenario_shards=4)
        )

    def test_sharded_fanout_jobs_complete_and_are_counted(self):
        with JobScheduler(AnalysisEngine(), max_workers=2, batch_size=4) as sched:
            fan = sched.submit(
                AnalysisRequest.speculative(
                    self.SOURCE, scenario_shards=2, shard_backend="processes"
                )
            )
            plain = sched.submit(AnalysisRequest.speculative(self.SOURCE))
            fan_result = fan.result(timeout=120)
            plain.result(timeout=120)
            stats = sched.stats
            assert stats.sharded_jobs == 1
            assert stats.fanout_dispatches == 1
        # The backend is an execution hint: the fan-out job's result is
        # bit-identical to running the same sharded request serially,
        # directly on an engine.
        direct = AnalysisEngine().run(
            AnalysisRequest.speculative(
                self.SOURCE, scenario_shards=2, shard_backend="serial"
            )
        )
        assert result_fingerprint(fan_result) == result_fingerprint(direct)
