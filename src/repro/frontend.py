"""High-level driver: MiniC source text to an analysable program.

This is the entry point most users and all examples use: it runs the
lexer, parser, type checker, loop unrolling, lowering, inlining and
memory-layout construction, and returns everything the analyses need in a
single :class:`CompiledProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.ir.cfg import CFG
from repro.ir.inline import inline_calls
from repro.ir.lowering import lower_program
from repro.ir.memory import MemoryLayout
from repro.ir.unroll import UnrollStats, unroll_fixed_loops
from repro.ir.verify import assert_valid_ir, debug_verify_enabled
from repro.lang.parser import parse_program
from repro.lang.typecheck import ProgramInfo, check_program
from repro.obs import span


@dataclass
class CompiledProgram:
    """Everything produced by the front end for one MiniC program.

    The front-end options (``unroll``, ``inline``,
    ``max_unroll_iterations``) are recorded so that a compile of this
    program can be reproduced exactly — the engine's request layer keys
    its caches on them.
    """

    source: str
    info: ProgramInfo
    cfgs: dict[str, CFG]
    cfg: CFG
    layout: MemoryLayout
    unroll_stats: UnrollStats
    unroll: bool = True
    inline: bool = True
    max_unroll_iterations: int = 4096

    @property
    def entry_function(self) -> str:
        return self.cfg.name

    def layout_fingerprint(self) -> str:
        """Content hash of the memory layout the analysis states embed.

        Abstract states are packed over the layout's lane table and set
        placement hashes symbol names, so retained states are only
        reusable against a program whose layout matches exactly.
        """
        import hashlib

        payload = (
            self.layout.line_size,
            tuple(
                (name, obj.num_blocks)
                for name, obj in sorted(self.layout.objects.items())
            ),
            tuple(sorted(self.layout.unknown_indexed)),
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def compile_source(
    source: str,
    entry: str | None = None,
    line_size: int = 64,
    unroll: bool = True,
    inline: bool = True,
    max_unroll_iterations: int = 4096,
) -> CompiledProgram:
    """Compile MiniC ``source`` down to a single analysable CFG.

    Parameters
    ----------
    source:
        MiniC source text.
    entry:
        Name of the analysis entry function.  Defaults to ``main`` when
        present, otherwise to the single function in the program.
    line_size:
        Cache line size in bytes, used to carve objects into memory blocks.
    unroll:
        Fully unroll fixed-trip-count loops (paper Section 6.3).
    inline:
        Inline calls to user-defined functions into the entry function.
    """
    with span("frontend", bytes=len(source)) as frontend_span:
        with span("parse"):
            program = parse_program(source)
        with span("unroll") as unroll_span:
            if unroll:
                program, unroll_stats = unroll_fixed_loops(
                    program, max_iterations=max_unroll_iterations
                )
            else:
                unroll_stats = UnrollStats()
            unroll_span.set(loops=unroll_stats.loops_unrolled)
        with span("lower"):
            info = check_program(program)
            cfgs = lower_program(info)
        if not cfgs:
            raise ReproError("program defines no functions")
        entry_name = _pick_entry(entry, cfgs)
        with span("inline"):
            if inline:
                entry_cfg = inline_calls(cfgs, entry_name, info)
            else:
                entry_cfg = cfgs[entry_name]
        layout = MemoryLayout.from_program(info, line_size=line_size, cfg=entry_cfg)
        frontend_span.set(entry=entry_name, blocks=len(entry_cfg.blocks))
    compiled = CompiledProgram(
        source=source,
        info=info,
        cfgs=cfgs,
        cfg=entry_cfg,
        layout=layout,
        unroll_stats=unroll_stats,
        unroll=unroll,
        inline=inline,
        max_unroll_iterations=max_unroll_iterations,
    )
    if debug_verify_enabled():
        # Debug-mode gate (REPRO_DEBUG_VERIFY): every compiled program is
        # linted before any analysis can consume it, so pipeline bugs fail
        # here with structured findings instead of corrupting a fixpoint.
        with span("verify"):
            assert_valid_ir(compiled)
    return compiled


def _pick_entry(entry: str | None, cfgs: dict[str, CFG]) -> str:
    if entry is not None:
        if entry not in cfgs:
            raise ReproError(f"entry function {entry!r} not found")
        return entry
    if "main" in cfgs:
        return "main"
    if len(cfgs) == 1:
        return next(iter(cfgs))
    raise ReproError(
        "program has multiple functions and no 'main'; pass entry= explicitly"
    )
