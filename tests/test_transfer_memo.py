"""Committed-path transfers shared among the analyses of one program.

Each access table memoises the whole-block transfers of the committed
path, the speculative analysis's S transfer and the baseline's transfer,
keyed by ``(block, state in)`` (:class:`CommittedTransfers`).  These
tests hold every memo entry to the unmemoised walk
(``transfer_reference``) and every analysis that reads a shared memo to
the same request run alone on a fresh engine: the Table-5 analyses of a
program in every order, the Table-7 pairs in both orders, one program
under several cache geometries, and two scheduler workers on one program
at once.  They pin the memo's counters on a cold ``tables`` pass, show
that an edit the graph index sees starts an empty memo, and that a
``branchy`` pass keeps only its S transfers, which go away with the
program.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import sys
import threading
import weakref
from pathlib import Path

import pytest

import transfer_reference
from repro.analysis.baseline import analyze_baseline
from repro.analysis.transfer import access_table
from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.programs import WCET_BENCHMARKS
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, compile_request, execute_request
from repro.engine.request import AnalysisRequest
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Load, MemoryRef, Temp
from repro.obs import metrics
from repro.service.scheduler import JobScheduler

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from catalogue import branchy_requests, tables_requests  # noqa: E402

BY_ID = dict(tables_requests())

#: Memo hits and misses of one cold ``tables`` pass, whatever its order:
#: what each analysis transfers never depends on what the memo holds.
TABLES_PASS_HITS = 123
TABLES_PASS_MISSES = 249

#: S transfers of one cold ``branchy`` pass: one per reachable block.
BRANCHY_PASS_ENTRIES = 219


def memo_counts() -> tuple[int, int]:
    registry = metrics()
    return (
        registry.counter("access_table.memo_hits").value,
        registry.counter("access_table.memo_misses").value,
    )


def outcome(result) -> tuple:
    """What a shared memo must not move: each classification, in order,
    the iterations, and the hit and miss counts."""
    return (
        list(result.classifications),
        result.iterations,
        result.hit_count,
        result.miss_count,
    )


_alone: dict[str, tuple] = {}


def alone(request: AnalysisRequest) -> tuple:
    """The outcome of ``request`` run alone on a fresh engine."""
    key = request.result_key()
    if key not in _alone:
        _alone[key] = outcome(AnalysisEngine().run(request))
    return _alone[key]


def assert_memos_match_walks(engine: AnalysisEngine, requests) -> int:
    """Every entry of the memos the requests' programs read equals a
    fresh walk; returns the number of entries."""
    tables = {}
    for request in requests:
        program = engine.compile(request)
        table = access_table(program.cfg, program.layout)
        tables[id(table)] = table
    return sum(transfer_reference.assert_memo_matches_walks(t) for t in tables.values())


def flavour(state) -> tuple:
    """The state's class, geometry and policy (a set-associative state's
    per-set class included)."""
    if hasattr(state, "sets"):
        return (type(state), state.num_sets, state.ways, type(state.sets[0]), state.policy)
    return (type(state), state.num_lines, state.policy)


def table5_ids(name: str) -> list[str]:
    return [f"t5/{name}/{kind}" for kind in ("baseline", "jit", "rollback")]


class TestCounters:
    @pytest.mark.parametrize("order", ["catalogue", "reversed", "seed-1", "seed-2"])
    def test_cold_tables_pass(self, order):
        """A cold ``tables`` pass through a fresh engine serves 123 of its
        372 committed-path transfers from the memo, in every order, and
        keeps one entry per miss."""
        requests = [request for _, request in tables_requests()]
        if order == "reversed":
            requests.reverse()
        elif order != "catalogue":
            random.Random(order).shuffle(requests)
        engine = AnalysisEngine()
        before = memo_counts()
        for request in requests:
            engine.run(request)
        hits, misses = memo_counts()
        assert (hits - before[0], misses - before[1]) == (
            TABLES_PASS_HITS,
            TABLES_PASS_MISSES,
        )
        assert assert_memos_match_walks(engine, requests) == TABLES_PASS_MISSES


class TestSharedMemoMatchesFreshEngine:
    @pytest.mark.parametrize("name", WCET_BENCHMARKS)
    def test_table5_program_in_every_order(self, name):
        """The baseline, JIT and rollback analyses of one program, in all
        six orders on one engine, each equal the request run alone."""
        ids = table5_ids(name)
        for order in itertools.permutations(ids):
            engine = AnalysisEngine()
            for request_id in order:
                assert outcome(engine.run(BY_ID[request_id])) == alone(BY_ID[request_id]), (
                    order,
                    request_id,
                )
            assert assert_memos_match_walks(engine, [BY_ID[i] for i in ids]) > 0

    @pytest.mark.parametrize("name", CRYPTO_BENCHMARKS)
    def test_table7_pair_in_both_orders(self, name):
        ids = [f"t7/{name}/baseline", f"t7/{name}/speculative"]
        for order in (ids, ids[::-1]):
            engine = AnalysisEngine()
            for request_id in order:
                assert outcome(engine.run(BY_ID[request_id])) == alone(BY_ID[request_id]), (
                    order,
                    request_id,
                )
            assert assert_memos_match_walks(engine, [BY_ID[i] for i in ids]) > 0

    def test_one_program_under_several_geometries(self):
        """One compiled program analysed under 64 and 512 lines, FIFO and
        4-way set-associative caches, with and without the shadow state,
        baseline and speculative, shuffled through one engine: every state
        flavour shares the program's memo and no entry answers for
        another, so each analysis equals the request run alone."""
        source = BY_ID["t5/gtk/baseline"].source
        caches = [
            BENCH_CACHE,
            CacheConfig(num_lines=512, line_size=64),
            CacheConfig(num_lines=64, line_size=64, policy="fifo"),
            CacheConfig(num_lines=64, line_size=64, associativity=4),
        ]
        requests = []
        for cache in caches:
            for shadow in (True, False):
                requests.append(
                    AnalysisRequest.baseline(
                        source=source, line_size=64, cache_config=cache, use_shadow_state=shadow
                    )
                )
                requests.append(
                    AnalysisRequest.speculative(
                        source=source,
                        line_size=64,
                        cache_config=cache,
                        speculation=dataclasses.replace(
                            BENCH_SPECULATION, use_shadow_state=shadow
                        ),
                    )
                )
        random.Random(30).shuffle(requests)
        expected = [alone(request) for request in requests]
        engine = AnalysisEngine()
        before = memo_counts()
        for request, want in zip(requests, expected):
            assert outcome(engine.run(request)) == want, request
        program = engine.compile(requests[0])
        assert all(engine.compile(request) is program for request in requests)
        table = access_table(program.cfg, program.layout)
        assert len({flavour(state) for _, state in table.memo}) == 8
        assert transfer_reference.assert_memo_matches_walks(table) == memo_counts()[1] - before[1]

    def test_two_workers_on_one_program_at_once(self):
        """The baseline, JIT and rollback requests of one program, queued
        before two scheduler workers start, read and fill one memo at once
        on a short switch interval: every result equals the request run
        alone, and every entry equals a fresh walk."""
        requests = [BY_ID[request_id] for request_id in table5_ids("jcmarker")]
        expected = [alone(request) for request in requests]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(6):
                engine = AnalysisEngine()
                program = engine.compile(requests[0])
                assert all(engine.compile(request) is program for request in requests)
                with JobScheduler(engine, max_workers=2, autostart=False) as scheduler:
                    jobs = [scheduler.submit(request) for request in requests]
                    scheduler.start_workers()
                    got = [outcome(job.result(timeout=120)) for job in jobs]
                assert got == expected
                assert assert_memos_match_walks(engine, requests) > 0
        finally:
            sys.setswitchinterval(previous)

    def test_threads_fill_one_memo_at_once(self):
        """Six threads (more than the cores) run the three Table-5
        analyses of one compiled program at once, each in its own order, on
        a short switch interval.  Two threads may walk one key together;
        each keeps an equal record, so every result still equals the
        request run alone and every entry equals a fresh walk."""
        requests = [BY_ID[request_id] for request_id in table5_ids("layer3")]
        expected = [alone(request) for request in requests]
        program = compile_request(requests[0])
        orders = list(itertools.permutations(range(len(requests))))
        barrier = threading.Barrier(len(orders))
        errors: list[Exception] = []

        def worker(order) -> None:
            try:
                barrier.wait(timeout=30)
                for position in order:
                    got = outcome(execute_request(requests[position], program))
                    assert got == expected[position], (order, position)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        table = access_table(program.cfg, program.layout)
        assert transfer_reference.assert_memo_matches_walks(table) > 0


class TestLifetime:
    def test_edit_starts_an_empty_memo(self):
        """An edit the graph index sees gets a fresh table and so an empty
        memo: adding an unreachable block re-runs every transfer (no hit)
        to the same result, and a new access is walked afresh."""
        program = compile_request(BY_ID["t5/susan/baseline"])
        cfg, layout = program.cfg, program.layout
        first = analyze_baseline(program, BENCH_CACHE)
        old = access_table(cfg, layout)
        assert old.memo

        entry = cfg.blocks[cfg.entry]
        cfg.add_block(BasicBlock("detour", [], entry.terminator))
        table = access_table(cfg, layout)
        assert table is not old and table.memo == {}
        before = memo_counts()
        again = analyze_baseline(program, BENCH_CACHE)
        hits, misses = memo_counts()
        assert hits == before[0] and misses - before[1] == len(old.memo)
        assert outcome(again) == outcome(first)

        ref = MemoryRef(symbol=first.classifications[0].ref.symbol, index_const=0, line=99)
        entry.instructions = [Load(dest=Temp("edit"), ref=ref), *entry.instructions]
        edited = access_table(cfg, layout)
        assert edited is not table and edited.memo == {}
        before = memo_counts()
        result = analyze_baseline(program, BENCH_CACHE)
        assert memo_counts()[0] == before[0]
        assert len(result.classifications) == len(first.classifications) + 1
        assert transfer_reference.assert_memo_matches_walks(edited) == len(edited.memo)

    def test_branchy_pass_memoises_only_s_transfers(self):
        """A cold ``branchy`` pass keeps exactly its S transfers, one per
        block with a live committed state (the programs are loop-free, so
        each S is transferred once, on its final state); no window or
        resume transfer is memoised and no entry is ever hit.  Once the
        compile cache drops a program, and no snapshot keeps its CFG, its
        table and memo are freed."""
        engine = AnalysisEngine(compile_cache_size=1, snapshot_cache_size=1)
        before = memo_counts()
        tables = []
        entries = 0
        for _, request in branchy_requests():
            result = engine.run(request)
            program = engine.compile(request)
            table = access_table(program.cfg, program.layout)
            s_inputs = {
                (block, state)
                for block, state in result.entry_states.items()
                if not state.is_bottom
            }
            assert set(table.memo) == s_inputs
            assert transfer_reference.assert_memo_matches_walks(table) == len(s_inputs)
            entries += len(table.memo)
            tables.append(weakref.ref(table))
            del program, table, result
        hits, misses = memo_counts()
        assert entries == BRANCHY_PASS_ENTRIES
        assert (hits - before[0], misses - before[1]) == (0, BRANCHY_PASS_ENTRIES)
        gc.collect()
        assert [table() is None for table in tables] == [True, True, False]
        engine.clear_caches()
        gc.collect()
        assert tables[-1]() is None
