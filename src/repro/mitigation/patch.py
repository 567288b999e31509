"""Source-level fence points and AST patching.

A :class:`FencePoint` names one place in the *source* where a ``fence;``
statement can be inserted, identified by the line of an existing
statement (lines survive unrolling, inlining and lowering, so IR-level
facts — scenario windows, leak sites — map back to source points).

Three kinds of point exist:

``taken``
    First statement of the true side of the conditional at ``line`` (an
    ``if``'s then-branch, a loop's body).  Kills every speculation
    scenario that mispredicts the branch as taken.
``fallthrough``
    First statement of the false side: an ``if``'s else-branch, or —
    when there is none, and for loops — immediately after the construct
    (the start of the branch's false target / the loop's exit).  Kills
    every mispredicted-not-taken scenario.
``before``
    Immediately before the first statement carrying ``line``.  Used for
    dominator-guided hoisting: a single fence inside a block shared by
    several speculation windows truncates all of them at once.

Patching is pure: :func:`apply_fence_points` rebuilds only the spine of
blocks down to each insertion (sharing untouched subtrees), and
:func:`patched_source` re-emits compilable MiniC via
:func:`repro.ir.printer.program_to_source`, which is what the engine
re-analyses.  Inserted fences carry line 0, so they can never satisfy a
later point lookup themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.ir.printer import program_to_source
from repro.lang import ast

_POINT_KINDS = ("taken", "fallthrough", "before")


@dataclass(frozen=True, order=True)
class FencePoint:
    """One source-level fence insertion point."""

    kind: str
    line: int

    def __post_init__(self) -> None:
        if self.kind not in _POINT_KINDS:
            raise ValueError(f"unknown fence point kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "taken":
            return f"taken side of the branch at line {self.line}"
        if self.kind == "fallthrough":
            return f"fall-through side of the branch at line {self.line}"
        return f"before the statement at line {self.line}"


def _is_branching(stmt: ast.Stmt) -> bool:
    """Statements that lower to a conditional branch (speculation sources)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return True
    return isinstance(stmt, ast.For) and stmt.cond is not None


def enumerate_fence_points(program: ast.Program) -> list[FencePoint]:
    """Every branch-arm point of every conditional construct, in source
    order — the fence-every-branch baseline's placement."""
    points: list[FencePoint] = []
    seen: set[FencePoint] = set()
    for function in program.functions:
        for stmt in ast.walk_statements(function.body):
            if not _is_branching(stmt):
                continue
            for kind in ("taken", "fallthrough"):
                point = FencePoint(kind, stmt.line)
                if point not in seen:
                    seen.add(point)
                    points.append(point)
    return points


def count_fence_statements(program: ast.Program) -> int:
    """Number of ``fence;`` statements in the translation unit."""
    return sum(
        1
        for function in program.functions
        for stmt in ast.walk_statements(function.body)
        if isinstance(stmt, ast.Fence)
    )


def _fence() -> ast.Fence:
    return ast.Fence(line=0, column=0)


def apply_fence_points(
    program: ast.Program, points: Iterable[FencePoint]
) -> ast.Program:
    """Return ``program`` with fences inserted at ``points``.

    ``taken``/``fallthrough`` points apply to *every* conditional at
    their line (one source line holds at most one construct in practice);
    a ``before`` point applies once, at the first statement in walk order
    carrying its line.

    Pure: the input program is never mutated.  The result shares every
    untouched subtree (declarations, expressions, statements without an
    inserted fence) with the input — the synthesis loop patches the same
    AST hundreds of times, and a full deep copy per candidate costs more
    than scoring some candidates.
    """
    points = list(points)  # the Iterable is consumed three times below
    taken_lines = {p.line for p in points if p.kind == "taken"}
    fall_lines = {p.line for p in points if p.kind == "fallthrough"}
    before_pending = {p.line for p in points if p.kind == "before"}
    return replace(
        program,
        functions=[
            replace(
                function,
                body=_rewrite_block(
                    function.body, taken_lines, fall_lines, before_pending
                ),
            )
            for function in program.functions
        ],
    )


def patched_source(program: ast.Program, points: Iterable[FencePoint]) -> str:
    """Emit the MiniC source of ``program`` patched with ``points``."""
    return program_to_source(apply_fence_points(program, points))


def apply_fence_points_ir(program, points: Iterable[FencePoint], source: str):
    """IR-level twin of :func:`apply_fence_points` over a *compiled* program.

    Returns a new :class:`~repro.frontend.CompiledProgram` whose entry CFG
    carries the fences ``points`` describe, sharing the layout, info and
    untouched blocks with ``program`` — skipping the parse→unroll→lower
    pipeline entirely, which is what makes incremental candidate scoring
    in the mitigation loop cheap.  ``source`` is the patched source text
    the program should claim (what :func:`patched_source` emits), kept so
    downstream consumers see a self-consistent program.

    The mapping is exact for the shapes the lowering pipeline produces:
    every conditional's arms, join and exit blocks are dedicated fresh
    blocks, so a ``taken``/``fallthrough`` fence at index 0 of the
    branch's true/false target is precisely where the source-level patch
    lands after recompilation, duplicated per unrolled copy exactly as a
    source fence inside the construct would be.  ``before`` points fence
    each maximal run of instructions carrying the point's line (one run
    per surviving statement copy).  Returns None when a point cannot be
    mapped — e.g. an arm of a fully-unrolled loop, whose branch no longer
    exists in the IR — in which case the caller must take the source
    path.

    Note the emitted program is *not* line-faithful: inserted fences carry
    line 0 and downstream statements keep their original lines, whereas
    recompiling the patched source shifts them.  Verdict-level outputs
    (leak counts, hit/miss totals, states) are identical; per-site line
    numbers are not, so results of IR-patched runs must never be cached
    under the patched request's key.
    """
    from dataclasses import replace as dataclass_replace

    from repro.ir.basicblock import BasicBlock
    from repro.ir.cfg import CFG, block_fingerprint, block_line_signature
    from repro.ir.instructions import CondBranch, Fence

    cfg = program.cfg
    points = list(points)
    arm_lines = {
        "taken": {p.line for p in points if p.kind == "taken"},
        "fallthrough": {p.line for p in points if p.kind == "fallthrough"},
    }
    before_lines = {p.line for p in points if p.kind == "before"}

    fence_first: set[str] = set()
    matched = {"taken": set(), "fallthrough": set()}
    for name in cfg.conditional_blocks():
        terminator = cfg.block(name).terminator
        assert isinstance(terminator, CondBranch)
        if terminator.line in arm_lines["taken"]:
            fence_first.add(terminator.true_target)
            matched["taken"].add(terminator.line)
        if terminator.line in arm_lines["fallthrough"]:
            fence_first.add(terminator.false_target)
            matched["fallthrough"].add(terminator.line)
    if matched["taken"] != arm_lines["taken"]:
        return None
    if matched["fallthrough"] != arm_lines["fallthrough"]:
        return None

    matched_before: set[int] = set()
    new_blocks: dict[str, BasicBlock] = {}
    touched: set[str] = set()
    for name, block in cfg.blocks.items():
        instructions = list(block.instructions)
        if before_lines:
            insert_at: list[int] = []
            previous_line: int | None = None
            for index, instruction in enumerate(instructions):
                if (
                    instruction.line in before_lines
                    and previous_line != instruction.line
                ):
                    insert_at.append(index)
                    matched_before.add(instruction.line)
                previous_line = instruction.line
            terminator = block.terminator
            if (
                terminator is not None
                and terminator.line in before_lines
                and previous_line != terminator.line
            ):
                insert_at.append(len(instructions))
                matched_before.add(terminator.line)
            for index in reversed(insert_at):
                instructions.insert(index, Fence(line=0))
                touched.add(name)
        if name in fence_first:
            instructions.insert(0, Fence(line=0))
            touched.add(name)
        new_blocks[name] = BasicBlock(
            name=name, instructions=instructions, terminator=block.terminator
        )
    if matched_before != before_lines:
        return None

    new_cfg = CFG(
        name=cfg.name, entry=cfg.entry, blocks=new_blocks, params=list(cfg.params)
    )
    # Delta-derive the edited graph's content caches from the predecessor's
    # (which the predecessor keeps, so a synthesis loop scoring many
    # candidates against one program fingerprints the whole graph once):
    # only the blocks that actually received fences are re-hashed.
    new_fps = cfg.block_fingerprints()
    new_sigs = cfg.block_line_signatures()
    for name in touched:
        new_fps[name] = block_fingerprint(new_blocks[name])
        new_sigs[name] = block_line_signature(new_blocks[name])
    new_cfg.attach_content_caches(new_fps, new_sigs)
    return dataclass_replace(
        program,
        source=source,
        cfg=new_cfg,
        cfgs={**program.cfgs, cfg.name: new_cfg},
    )


def _prepend_fence(block: ast.Block) -> ast.Block:
    return replace(block, statements=[_fence(), *block.statements])


def _rewrite_block(
    block: ast.Block,
    taken_lines: set[int],
    fall_lines: set[int],
    before_pending: set[int],
) -> ast.Block:
    statements: list[ast.Stmt] = []
    for stmt in block.statements:
        if stmt.line in before_pending and not isinstance(stmt, ast.Fence):
            before_pending.discard(stmt.line)
            statements.append(_fence())
        fence_after = False
        if isinstance(stmt, ast.Block):
            stmt = _rewrite_block(stmt, taken_lines, fall_lines, before_pending)
        elif isinstance(stmt, ast.If):
            then_body = _rewrite_block(
                stmt.then_body, taken_lines, fall_lines, before_pending
            )
            else_body = (
                None
                if stmt.else_body is None
                else _rewrite_block(
                    stmt.else_body, taken_lines, fall_lines, before_pending
                )
            )
            if stmt.line in taken_lines:
                then_body = _prepend_fence(then_body)
            if stmt.line in fall_lines:
                if else_body is not None:
                    else_body = _prepend_fence(else_body)
                else:
                    # The branch's false target is the code after the if.
                    fence_after = True
            stmt = replace(stmt, then_body=then_body, else_body=else_body)
        elif isinstance(stmt, (ast.While, ast.For)):
            body = _rewrite_block(
                stmt.body, taken_lines, fall_lines, before_pending
            )
            if _is_branching(stmt):
                if stmt.line in taken_lines:
                    body = _prepend_fence(body)
                if stmt.line in fall_lines:
                    # The false target of the loop branch is the loop exit.
                    fence_after = True
            stmt = replace(stmt, body=body)
        statements.append(stmt)
        if fence_after:
            statements.append(_fence())
    return replace(block, statements=statements)
