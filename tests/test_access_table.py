"""One access table per CFG and layout, resolved in one step.

:func:`repro.analysis.transfer.access_table` keeps one table per CFG and
layout against the CFG's graph index, and :meth:`MemoryLayout.resolve`
builds each bound access in one step.  These tests hold both to the
two-step resolution they replaced (``access_reference``): every site of
a shared table must equal the oracle's, field by field, on the
benchmark catalogue's programs and on generated ones; the analyses of
one program must read one table; an edit the graph index sees must get
a fresh table; and a cold ``tables`` pass must build one table per
distinct program.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from pathlib import Path

import pytest

import access_reference
from repro import compile_source
from repro.analysis.transfer import AccessTable, SiteAccess, access_table
from repro.engine.engine import AnalysisEngine, compile_request
from repro.engine.request import AnalysisRequest
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Jump, Load, MemoryRef, Temp
from repro.ir.memory import AccessKind, BlockAccess, LaneTable, MemoryBlock, MemoryLayout
from repro.obs import metrics
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from catalogue import branchy_requests, tables_requests  # noqa: E402


def catalogue_programs() -> dict:
    """``{program key: request}`` for the 23 distinct programs of the
    ``tables`` and ``branchy`` catalogues, keyed as the CI gate keys them."""
    programs: dict = {}
    for request_id, request in tables_requests() + branchy_requests():
        programs.setdefault("/".join(request_id.split("/")[:2]), request)
    return programs


CATALOGUE = catalogue_programs()


def assert_matches_oracle(cfg, layout: MemoryLayout) -> None:
    """Every site of ``cfg``'s shared table equals the two-step
    resolution's, field by field, and reads its blocks from the lane table."""
    table = access_table(cfg, layout)
    lanes = layout.lanes
    expected = access_reference.sites(cfg, layout)
    assert list(expected) == list(cfg.graph().reachable)
    for name, oracle_sites in expected.items():
        sites = table.sites(name)
        assert [site.instruction_index for site in sites] == [
            index for index, _ in oracle_sites
        ], name
        for site, (_, want) in zip(sites, oracle_sites):
            got = site.access
            assert type(site) is SiteAccess and type(got) is BlockAccess
            for field in dataclasses.fields(BlockAccess):
                assert getattr(got, field.name) == getattr(want, field.name), (
                    name,
                    site.instruction_index,
                    field.name,
                )
            assert all(
                block is lanes.blocks[lane] for block, lane in zip(got.blocks, got.lanes)
            )


@pytest.fixture(scope="module")
def catalogue_compiled() -> dict:
    return {key: compile_request(request) for key, request in CATALOGUE.items()}


class TestAgainstTwoStepResolution:
    def test_catalogue_has_the_gated_programs(self):
        assert len(CATALOGUE) == 23

    @pytest.mark.parametrize("key", sorted(CATALOGUE))
    def test_catalogue_program(self, catalogue_compiled, key):
        program = catalogue_compiled[key]
        assert_matches_oracle(program.cfg, program.layout)

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_program(self, seed):
        program = compile_source(generated_source(random.Random(seed)))
        assert_matches_oracle(program.cfg, program.layout)
        # A layout built without the CFG has no placeholder lines, so its
        # unknown-index accesses resolve without placeholder lanes.
        bare = MemoryLayout.from_program(program.info, line_size=program.layout.line_size)
        assert not bare.unknown_indexed
        assert_matches_oracle(program.cfg, bare)

    def test_generated_programs_cover_every_kind(self):
        kinds: set = set()
        scalar = write = placeholders = 0
        for seed in range(12):
            program = compile_source(generated_source(random.Random(seed)))
            table = access_table(program.cfg, program.layout)
            for name in program.cfg.graph().reachable:
                for site in table.sites(name):
                    access = site.access
                    kinds.add(access.kind)
                    scalar += program.layout.objects[access.symbol].num_blocks == 1
                    write += access.is_write
                    placeholders += bool(access.placeholder_lanes)
        assert kinds == set(AccessKind)
        assert scalar and write and placeholders

    @pytest.mark.parametrize("seed", range(20))
    def test_lane_numbering(self, seed):
        """Lanes follow ``MemoryBlock``'s generated order, whatever order
        and duplicates the blocks come in."""
        rng = random.Random(seed)
        symbols = ["a", "a0", "a_b", "b", "B", "sbox", "t"]
        blocks = [
            MemoryBlock(rng.choice(symbols), rng.randrange(-4, 12))
            for _ in range(rng.randrange(1, 60))
        ]
        table = LaneTable(blocks)
        assert table.blocks == access_reference.lane_order(blocks)
        assert table == LaneTable(reversed(blocks))
        for lane, block in enumerate(table.blocks):
            assert table.lane(block) == lane
            assert table.lane_at(block.symbol, block.index) == lane
            assert table.lane_of(MemoryBlock(block.symbol, block.index)) == lane
        assert table.lane_of(MemoryBlock("absent", 0)) is None
        with pytest.raises(ValueError, match="absent"):
            table.lane_at("absent", 0)


def generated_source(rng: random.Random, statements: int = 14) -> str:
    """A random MiniC program with concrete, unknown-index and
    secret-index accesses to arrays of one to a dozen lines, reads and
    writes of scalars, branches and a loop the front end unrolls."""
    arrays = {f"t{i}": rng.choice([4, 64, 200, 700]) for i in range(3)}
    decls = [f"char {name}[{size}];" for name, size in arrays.items()]
    decls += ["int w[40];", "int x;", "int y;", "int m;", "secret int key;", "char sbox[256];"]
    names = [*arrays, "w"]

    def access() -> str:
        name = rng.choice(names)
        roll = rng.random()
        if roll < 0.45:
            bound = 40 if name == "w" else arrays[name]
            return f"{name}[{rng.randrange(bound)}];"
        if roll < 0.60:
            return f"{name}[m];"
        if roll < 0.70:
            return rng.choice(["sbox[key];", f"{name}[key];"])
        if roll < 0.85:
            return rng.choice(["x = x + y;", "y = x;", f"{name}[1] = x;", "w[m] = y;"])
        return "x;"

    body = []
    for _ in range(statements):
        roll = rng.random()
        if roll < 0.6:
            body.append(f"  {access()}")
        elif roll < 0.85:
            body.append(
                f"  if (x > {rng.randrange(3)}) {{ {access()} {access()} }} "
                f"else {{ {access()} }}"
            )
        else:
            body.append(f"  for (i = 0; i < 3; i = i + 1) {{ {access()} y = w[i]; }}")
    return (
        "\n".join(decls)
        + "\n\nint main() {\n  reg int i;\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
def counts() -> tuple[int, int]:
    registry = metrics()
    return (
        registry.counter("access_table.builds").value,
        registry.counter("access_table.reuses").value,
    )


class TestSharing:
    def test_analyses_of_one_program_read_one_table(self, monkeypatch):
        """The baseline, JIT and rollback analyses of one compiled
        program, and a warm re-run over the same CFG, read one table.
        (``susan``'s loops unroll fully: a pass that can widen refuses
        the warm start.)"""
        import repro.analysis.baseline as baseline_module
        import repro.analysis.multicolor as multicolor_module

        read: list[AccessTable] = []

        def recording(cfg, layout):
            table = access_table(cfg, layout)
            read.append(table)
            return table

        monkeypatch.setattr(baseline_module, "access_table", recording)
        monkeypatch.setattr(multicolor_module, "access_table", recording)
        request = CATALOGUE["t5/susan"]
        engine = AnalysisEngine()
        program = engine.compile(request)
        before = counts()
        jit = AnalysisRequest.speculative(
            source=request.source,
            line_size=request.line_size,
            cache_config=request.cache_config,
            speculation=SpeculationConfig.paper_default().with_strategy(
                MergeStrategy.JUST_IN_TIME
            ),
        )
        rollback = dataclasses.replace(
            jit,
            speculation=jit.speculation.with_strategy(MergeStrategy.MERGE_AT_ROLLBACK),
        )
        for each in (request, jit, rollback):
            engine.run(each)
        engine.run_ephemeral(dataclasses.replace(jit, warm_from=jit.result_key()), program)
        assert engine.stats.incremental.warm_hits == 1
        assert len(read) == 4
        assert all(table is read[0] for table in read)
        assert read[0] is access_table(program.cfg, program.layout)
        assert counts() == (before[0] + 1, before[1] + 4)

    def test_each_layout_has_its_own_table(self):
        program = compile_source(generated_source(random.Random(3)))
        bare = MemoryLayout.from_program(program.info, line_size=program.layout.line_size)
        table = access_table(program.cfg, program.layout)
        other = access_table(program.cfg, bare)
        assert other is not table and other.layout is bare
        assert access_table(program.cfg, program.layout) is table
        assert access_table(program.cfg, bare) is other

    def test_cold_tables_pass_builds_one_table_per_program(self):
        """One cold pass of the ``tables`` catalogue through a fresh
        engine analyses 20 programs 50 times: 20 builds, 30 reuses.  A
        table built per analysis would move no verdict or op count."""
        engine = AnalysisEngine()
        before = counts()
        for _, request in tables_requests():
            engine.run(request)
        builds, reuses = counts()
        assert (builds - before[0], reuses - before[1]) == (20, 30)


class TestConcurrentReads:
    def test_threads_take_one_fresh_table_at_once(self):
        """Eight threads take a fresh program's table, resolving its refs
        and filling its prefixes at once on a short switch interval:
        every read equals the two-step resolution, every call counts once
        as a build or a reuse, and afterwards one table stays."""
        program = compile_request(CATALOGUE["t5/gtk"])
        cfg, layout = program.cfg, program.layout
        expected = access_reference.sites(cfg, layout)
        threads_run, rounds = 8, 10
        barrier = threading.Barrier(threads_run)
        errors: list[Exception] = []

        def worker() -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    table = access_table(cfg, layout)
                    for name, want in expected.items():
                        for limit in (None, 1, 3):
                            got = [
                                (site.instruction_index, site.access)
                                for site in table.sites_up_to(name, limit)
                            ]
                            assert got == [
                                (index, access)
                                for index, access in want
                                if limit is None or index < limit
                            ], (name, limit)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        before = counts()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_run)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        builds, reuses = counts()
        assert builds - before[0] >= 1
        assert (builds - before[0]) + (reuses - before[1]) == threads_run * rounds
        table = access_table(cfg, layout)
        assert access_table(cfg, layout) is table


# ----------------------------------------------------------------------
# Edits the graph index sees
# ----------------------------------------------------------------------
def assert_fresh_after(edit) -> None:
    """After ``edit(cfg)``, the CFG's table is a new object equal to a
    fresh build and to the two-step resolution."""
    program = compile_source(generated_source(random.Random(7)))
    cfg, layout = program.cfg, program.layout
    old = access_table(cfg, layout)
    edit(cfg)
    new = access_table(cfg, layout)
    assert new is not old
    fresh = AccessTable(cfg, layout)
    for name in cfg.graph().reachable:
        assert new.sites(name) == fresh.sites(name)
        assert new.sites_up_to(name, 1) == fresh.sites_up_to(name, 1)
    assert access_table(cfg, layout) is new
    assert_matches_oracle(cfg, layout)


def _load(symbol: str, index: int = 0) -> Load:
    return Load(dest=Temp("edit"), ref=MemoryRef(symbol=symbol, index_const=index, line=99))


class TestEdits:
    def test_add_block(self):
        def edit(cfg):
            cfg.add_block(BasicBlock("extra", [_load("t1", 1)], cfg.blocks[cfg.entry].terminator))

        assert_fresh_after(edit)

    def test_assign_instructions(self):
        def edit(cfg):
            block = cfg.blocks[cfg.entry]
            block.instructions = [_load("x"), *block.instructions, _load("w", 9)]

        assert_fresh_after(edit)

    def test_assign_terminator(self):
        """A block added unreachable gets its site only in the table taken
        after a terminator moves to it."""
        program = compile_source(generated_source(random.Random(7)))
        cfg, layout = program.cfg, program.layout
        entry = cfg.blocks[cfg.entry]
        cfg.add_block(BasicBlock("detour", [_load("t2", 3)], entry.terminator))
        before = access_table(cfg, layout)
        assert before.sites("detour") == ()
        entry.terminator = Jump(target="detour")
        after = access_table(cfg, layout)
        assert after is not before
        assert [site.access.ref.line for site in after.sites("detour")] == [99]
        assert_matches_oracle(cfg, layout)

    def test_append(self):
        def edit(cfg):
            cfg.blocks[cfg.entry].append(_load("y"))

        assert_fresh_after(edit)
