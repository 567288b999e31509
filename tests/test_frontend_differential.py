"""The front end's unrolling, lowering and inlining against the passes
they replaced.

``tests/unroll_reference.py``, ``tests/lowering_reference.py`` and
``tests/inline_reference.py`` keep the replaced passes verbatim.  Each
program is parsed once and compiled twice, through the current passes
and through the kept ones, and must give the same:

* unrolled syntax tree and ``unroll_stats``;
* blocks (name, instruction ``repr``\\s, terminator ``repr``) of every
  function's CFG, and of the entry CFG after inlining;
* layout fingerprint;
* access-table sites, field by field (the kept passes' CFG resolved by
  the two-step oracle in ``tests/access_reference.py``).

The programs are the 23 of the ``tables`` and ``branchy`` benchmarks and
:data:`GENERATED` programs of ``tests/program_generator.py``.

One difference is allowed, and checked where it shows.  The kept
lowering records a condition's refs in ``frozenset`` order among refs
that print alike (the same variable on several lines), and that order
follows ``PYTHONHASHSEED``; the current one records them in evaluation
order.  Such a condition is compared as a multiset, and its current
order is checked to be the evaluation order (source order here).
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import access_reference
import inline_reference
import lowering_reference
import unroll_reference
from program_generator import generate_program
from repro.analysis.transfer import access_table
from repro.errors import ReproError
from repro.frontend import CompiledProgram, _pick_entry
from repro.ir.inline import inline_calls
from repro.ir.instructions import CondBranch
from repro.ir.lowering import lower_program
from repro.ir.memory import MemoryLayout
from repro.ir.unroll import UnrollStats, unroll_fixed_loops
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from catalogue import branchy_requests, tables_requests  # noqa: E402

#: Generated programs compared with the kept passes.
GENERATED = 200


def _catalogue() -> dict:
    programs: dict = {}
    for request_id, request in tables_requests() + branchy_requests():
        programs.setdefault("/".join(request_id.split("/")[:2]), request)
    return programs


CATALOGUE = _catalogue()


def _compile(source: str, passes, *, entry=None, line_size=64, unroll=True, inline=True,
             max_unroll_iterations=4096):
    """``(unrolled program, stats, per-function CFGs, entry CFG, layout)``
    through ``passes``: ``(unroll, lower, inline)`` functions."""
    unroll_pass, lower_pass, inline_pass = passes
    program = parse_program(source)
    if unroll:
        program, stats = unroll_pass(program, max_iterations=max_unroll_iterations)
    else:
        stats = UnrollStats()
    info = check_program(program)
    cfgs = lower_pass(info)
    name = _pick_entry(entry, cfgs)
    cfg = inline_pass(cfgs, name, info) if inline else cfgs[name]
    layout = MemoryLayout.from_program(info, line_size=line_size, cfg=cfg)
    return program, stats, cfgs, cfg, layout, info


CURRENT = (unroll_fixed_loops, lower_program, inline_calls)
REFERENCE = (
    unroll_reference.unroll_fixed_loops,
    lowering_reference.lower_program,
    inline_reference.inline_calls,
)


def _prints_alike(refs) -> bool:
    texts = [str(ref) for ref in refs]
    return len(set(texts)) < len(texts)


def _terminator(terminator) -> str:
    if type(terminator) is CondBranch and _prints_alike(terminator.cond_refs):
        return repr(replace(terminator, cond_refs=tuple(sorted(terminator.cond_refs, key=repr))))
    return repr(terminator)


def _blocks(cfg) -> list:
    return [
        (
            name,
            [repr(instruction) for instruction in block.instructions],
            _terminator(block.terminator),
        )
        for name, block in cfg.blocks.items()
    ]


def _check_cond_refs_order(cfg) -> None:
    """Refs that print alike follow evaluation order (here: source lines)."""
    for block in cfg.blocks.values():
        terminator = block.terminator
        if type(terminator) is not CondBranch:
            continue
        refs = terminator.cond_refs
        assert [str(ref) for ref in refs] == sorted(str(ref) for ref in refs)
        for first, second in zip(refs, refs[1:]):
            if str(first) == str(second):
                assert first.line < second.line, refs


def _fingerprint(cfg, info, layout) -> str:
    compiled = CompiledProgram(
        source="", info=info, cfgs={}, cfg=cfg, layout=layout, unroll_stats=UnrollStats()
    )
    return compiled.layout_fingerprint()


def _sites(cfg, layout) -> dict:
    table = access_table(cfg, layout)
    return {
        name: [(site.instruction_index, site.access) for site in table.sites(name)]
        for name in cfg.graph().reachable
    }


def assert_same_compile(source: str, **options) -> None:
    try:
        ref_program, ref_stats, ref_cfgs, ref_cfg, ref_layout, ref_info = _compile(
            source, REFERENCE, **options
        )
    except ReproError as error:
        # The same error, with the same message.
        with pytest.raises(type(error)) as raised:
            _compile(source, CURRENT, **options)
        assert str(raised.value) == str(error)
        return
    program, stats, cfgs, cfg, layout, info = _compile(source, CURRENT, **options)
    assert program == ref_program
    assert asdict(stats) == asdict(ref_stats)
    assert list(cfgs) == list(ref_cfgs)
    for name in cfgs:
        assert (cfgs[name].name, cfgs[name].entry, cfgs[name].params) == (
            ref_cfgs[name].name,
            ref_cfgs[name].entry,
            ref_cfgs[name].params,
        )
        assert _blocks(cfgs[name]) == _blocks(ref_cfgs[name]), name
        _check_cond_refs_order(cfgs[name])
    assert (cfg.name, cfg.entry, cfg.params) == (ref_cfg.name, ref_cfg.entry, ref_cfg.params)
    assert _blocks(cfg) == _blocks(ref_cfg)
    _check_cond_refs_order(cfg)
    assert _fingerprint(cfg, info, layout) == _fingerprint(ref_cfg, ref_info, ref_layout)
    assert _sites(cfg, layout) == access_reference.sites(ref_cfg, ref_layout)


class TestAgainstTheReplacedPasses:
    def test_catalogue_has_the_benchmark_programs(self):
        assert len(CATALOGUE) == 23

    @pytest.mark.parametrize("key", sorted(CATALOGUE))
    def test_benchmark_program(self, key):
        request = CATALOGUE[key]
        assert_same_compile(
            request.source,
            entry=request.entry,
            line_size=request.line_size,
            unroll=request.unroll,
            inline=request.inline,
            max_unroll_iterations=request.max_unroll_iterations,
        )

    @pytest.mark.parametrize("chunk", range(8))
    def test_generated_programs(self, chunk):
        for seed in range(chunk, GENERATED, 8):
            source = generate_program(random.Random(seed))
            try:
                assert_same_compile(source)
            except AssertionError as error:
                raise AssertionError(f"generated program, seed {seed}:\n{source}") from error

    @pytest.mark.parametrize(
        "source",
        [
            "int main() { break; return 0; }",
            "int main() { continue; }",
            "int a[4]; int main() { return a; }",
            "int a[4]; int main() { if (a) { return 1; } return 0; }",
            "int a[4]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i] = a; } return 0; }",
            "int x; int main() { x[1] = 2; return 0; }",
            # An unknown external compiles to an opaque call.
            "int f(int a) { return a; } int main() { return f(1, 2) + g(3); }",
            "int main() { return 1 / 0 + 5 % 0; }",
        ],
    )
    def test_source_errors_and_edge_cases(self, source):
        """The same error, message and all, or the same program."""
        assert_same_compile(source)

    def test_generated_programs_without_unrolling_or_inlining(self):
        for seed in range(0, GENERATED, 12):
            assert_same_compile(generate_program(random.Random(seed)), unroll=False, inline=False)


class TestTheGeneratorCoversTheKernelShapes:
    """Over the generated programs, every shape the module docstring of
    ``tests/program_generator.py`` lists shows up in the compiled IR."""

    def test_shapes(self):
        seen = dict.fromkeys(
            [
                "unrolled", "rolled", "inlined", "reg param", "memory param",
                "known element", "unknown element", "secret element",
                "spread condition", "alike refs", "fence", "negative step",
            ],
            0,
        )
        for seed in range(GENERATED):
            source = generate_program(random.Random(seed))
            _, stats, cfgs, cfg, _, info = _compile(source, CURRENT)
            seen["unrolled"] += stats.loops_unrolled
            seen["rolled"] += stats.loops_seen - stats.loops_unrolled
            seen["inlined"] += any(name.startswith("inl") for name in cfg.blocks)
            seen["negative step"] += "-=" in source
            for name, function in info.functions.items():
                if name == "main":
                    continue
                for param in function.definition.params:
                    key = "reg param" if param.qualifiers.is_reg else "memory param"
                    seen[key] += 1
            for block in cfg.blocks.values():
                for instruction in block.instructions:
                    seen["fence"] += type(instruction).__name__ == "Fence"
                    for ref in instruction.memory_refs():
                        if ref.index_secret:
                            seen["secret element"] += 1
                        elif ref.index_const is None:
                            seen["unknown element"] += 1
                        elif ref.index_const > 0:
                            seen["known element"] += 1
                terminator = block.terminator
                if type(terminator) is CondBranch and terminator.cond_refs:
                    lines = {ref.line for ref in terminator.cond_refs}
                    seen["spread condition"] += len(lines) > 1
                    seen["alike refs"] += _prints_alike(terminator.cond_refs)
        assert all(seen.values()), seen
